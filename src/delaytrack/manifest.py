"""Model manifests: a line-anchored key-value format binding matrix files.

A manifest is a plain text file of ``key = value`` lines grouped under
``[section]`` headers (``#`` starts a comment).  It names the Matrix Market
files of every matrix slot, the family kind, the optional WAMS shaping of
the delayed term, and the sweep and initialization settings.
``format_version = 2``.

Sections
--------
[model]     r, n_dyn, kind (affine | tabulated | delay_param), E, A0,
            delays (comma list of tau seconds), A1..Amu, p_min, p_max,
            *_slope files (affine), delay_index (delay_param)
[snapshot.K]  p plus per-slot files (tabulated kind, K = 0, 1, ...)
[wams]      tau0, p_dr, T, alpha, b (optional: shapes the single delayed
            term of a family whose delays are fixed)
[track]     p_init, p_fin, dp, method, corrector_every, corrector_tol
[init]      N, shift (complex literal), count

The family and the [wams] section define P(s, p): the family's delay
slopes (of a delay_param family, or of a table whose delays differ
between snapshots) say which delay moves, and a valid [wams] spec that
the family accepts becomes :attr:`TrackOptions.wams` (else ``bad-wams``).

A key the loader does not read and a section it does not know are errors
(codes ``unknown-key`` and ``unknown-section``), so a misspelt name cannot
silently fall back to a default.  The loader passes on only the keys a
manifest sets: the defaults live with :class:`TrackOptions`,
:class:`InitSettings` and :class:`charfun.WamsSpec`, except that ``p_init``
and ``p_fin`` default to the ends of ``[p_min, p_max]``.  Every value goes
through :meth:`_Section.get`, which names the key and its line when the
value does not convert (code ``bad-value``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sparse

from .charfun import WamsSpec
from .errors import ConfigurationError, ManifestError
from .model import (
    AffineFamily,
    DelayParameterFamily,
    DelayedLinearModel,
    ModelDerivatives,
    TabulatedFamily,
    validate_model,
)
from .spectral import INIT_COUNT, INIT_DEGREE, check_degree
from .track import TrackOptions

FORMAT_VERSION = 2

FAMILY_KINDS = ("affine", "tabulated", "delay_param")


@dataclass
class InitSettings:
    N: int = INIT_DEGREE
    shift: complex = 0j
    count: int = INIT_COUNT


@dataclass
class ModelManifest:
    """Parsed manifest: the family plus tracking and initializer settings."""

    family: object
    track: TrackOptions
    init: InitSettings
    r: int
    p_init: float = 0.0


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def _parse_sections(text, path):
    """(sections, headers): sections[name][key] -> _Entry with the source
    line number, headers[name] -> the line of the section header."""
    sections = {"": {}}
    headers = {"": None}
    current = sections[""]
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ManifestError(
                    "unterminated section header", code="parse",
                    path=path, line=lineno,
                )
            current_name = line[1:-1].strip()
            current = sections.setdefault(current_name, {})
            headers.setdefault(current_name, lineno)
            continue
        if "=" not in line:
            raise ManifestError(
                f"expected 'key = value', got {line!r}", code="parse",
                path=path, line=lineno,
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            raise ManifestError(
                f"duplicate key {key!r} in section [{current_name}]",
                code="parse", path=path, line=lineno,
            )
        current[key] = _Entry(value, lineno)
    return sections, headers


# converter and name of each value kind a manifest key takes
_VALUE_KINDS = {
    str: (str, "string"),
    int: (int, "integer"),
    float: (float, "real number"),
    complex: (lambda v: complex(v.replace(" ", "")), "complex literal"),
    list: (lambda v: [float(t) for t in v.split(",")] if v.strip() else [],
           "comma list of reals"),
}


class _Section:
    """Typed accessors over one parsed section, with line anchoring."""

    def __init__(self, name, entries, path):
        self.name = name
        self.entries = entries
        self.path = path
        self.read = set()  # keys looked up, present or not

    def _fail(self, message, code, entry=None):
        raise ManifestError(
            message, code=code, path=self.path,
            line=None if entry is None else entry.line,
        )

    def raw(self, key, required=False):
        self.read.add(key)
        if key not in self.entries:
            if required:
                self._fail(f"missing key {key!r} in [{self.name}]",
                           code="missing-key")
            return None
        return self.entries[key]

    def get(self, key, kind=str, default=None, required=False):
        """The value of ``key`` converted to ``kind``, a key of
        :data:`_VALUE_KINDS`; ``default`` when the section does not set it."""
        entry = self.raw(key, required=required)
        if entry is None:
            return default
        conv, what = _VALUE_KINDS[kind]
        try:
            return conv(entry.value)
        except (TypeError, ValueError):
            self._fail(
                f"{key} = {entry.value!r} is not a valid {what}",
                code="bad-value", entry=entry,
            )

    def given(self, **kinds):
        """{key: value} for each key of ``kinds`` that the section sets, so
        a key left out keeps the default of the object built from it."""
        return {key: self.get(key, kind) for key, kind in kinds.items()
                if key in self.entries}


def _read_matrix(section, key, r, base_dir, required=True):
    """Load one Matrix Market slot as real CSR, checked against r; an
    optional slot the section leaves out is zero."""
    entry = section.raw(key, required=required)
    if entry is None:
        return sparse.csr_array((r, r))
    path = os.path.join(base_dir, entry.value)
    if not os.path.exists(path):
        section._fail(
            f"matrix file {entry.value!r} not found", code="missing-file",
            entry=entry,
        )
    try:
        mat = scipy.io.mmread(path)
    except Exception as exc:
        section._fail(
            f"matrix file {entry.value!r} failed to parse: {exc}",
            code="malformed-matrix", entry=entry,
        )
    mat = sparse.csr_array(mat)
    if mat.shape != (r, r):
        section._fail(
            f"matrix {entry.value!r} has shape {mat.shape}, expected "
            f"({r}, {r})", code="dimension-mismatch", entry=entry,
        )
    return mat.astype(np.float64)


def _model_from_section(section, r, n_dyn, taus, base_dir):
    E = _read_matrix(section, "E", r, base_dir)
    A0 = _read_matrix(section, "A0", r, base_dir)
    terms = []
    for j, tau in enumerate(taus):
        A = _read_matrix(section, f"A{j + 1}", r, base_dir)
        terms.append((tau, A))
    return DelayedLinearModel(E, A0, terms, n_dyn=n_dyn)


def load_manifest(path):
    """Parse a manifest and build the family plus run settings.

    Raises :class:`ManifestError` with a distinct ``code`` and line anchor
    for every invariant violation (missing file, dimension mismatch,
    malformed matrix, ...); a snapshot or base model that fails
    :func:`model.validate_model` is ``bad-model`` on the ``n_dyn`` line.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ManifestError("manifest not found", code="missing-file",
                            path=path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    base_dir = os.path.dirname(os.path.abspath(path))
    sections, headers = _parse_sections(text, path)
    opened = {}

    def sec(name):
        if name not in opened:
            opened[name] = _Section(name, sections.get(name, {}), path)
        return opened[name]

    top = sec("")
    version = top.get("format_version", int, required=True)
    if version != FORMAT_VERSION:
        raise ManifestError(
            f"format_version {version} unsupported (expected "
            f"{FORMAT_VERSION})", code="bad-version", path=path,
        )

    ms = sec("model")
    r = ms.get("r", int, required=True)
    n_dyn = ms.get("n_dyn", int)
    kind = ms.get("kind", required=True)
    if kind not in FAMILY_KINDS:
        ms._fail(f"unknown family kind {kind!r}", code="unknown-kind",
                 entry=ms.raw("kind"))
    taus = ms.get("delays", list, [])
    p_min = ms.get("p_min", float, required=True)
    p_max = ms.get("p_max", float, required=True)
    if not p_min < p_max:
        ms._fail(f"empty parameter range [{p_min}, {p_max}]",
                 code="bad-range", entry=ms.raw("p_min"))

    if kind == "tabulated":
        snaps = []
        for name in sorted(n for n in sections if n.startswith("snapshot.")):
            ss = sec(name)
            p = ss.get("p", float, required=True)
            if any(p == q for q, _ in snaps):
                ss._fail(f"a second snapshot at p = {p}",
                         code="duplicate-snapshot", entry=ss.raw("p"))
            snaps.append((p, _model_from_section(ss, r, n_dyn, taus, base_dir)))
        if len(snaps) < 2:
            raise ManifestError(
                "tabulated family needs at least 2 [snapshot.K] sections",
                code="missing-snapshots", path=path,
            )
        lo, hi = min(p for p, _ in snaps), max(p for p, _ in snaps)
        if p_min < lo or p_max > hi:
            ms._fail(f"range [{p_min}, {p_max}] runs past the snapshots at "
                     f"p = {lo}..{hi}", code="bad-range",
                     entry=ms.raw("p_min" if p_min < lo else "p_max"))
        try:
            family = TabulatedFamily(snaps, p_range=(p_min, p_max))
        except ConfigurationError as exc:
            ms._fail(str(exc), code="bad-delays", entry=ms.raw("delays"))
    else:
        base = _model_from_section(ms, r, n_dyn, taus, base_dir)
        if kind == "affine":
            names = ["E", "A0"] + [f"A{j + 1}" for j in range(len(taus))]
            dE, dA0, *dAs = (_read_matrix(ms, f"{name}_slope", r, base_dir,
                                          required=False) for name in names)
            try:
                family = AffineFamily(base, ModelDerivatives(dE, dA0, dAs),
                                      p_range=(p_min, p_max))
            except ConfigurationError as exc:
                ms._fail(str(exc), code="bad-delays", entry=ms.raw("delays"))
        else:
            idx = ms.get("delay_index", int, required=True)
            try:
                family = DelayParameterFamily(base, idx,
                                              p_range=(p_min, p_max))
            except ConfigurationError as exc:
                ms._fail(str(exc), code="bad-delay-index",
                         entry=ms.raw("delay_index"))
    models = [m for _, m in snaps] if kind == "tabulated" else [base]
    report = sorted({v for m in models for v in validate_model(m)})
    if report:
        ms._fail("invalid model: " + "; ".join(report), code="bad-model",
                 entry=ms.raw("n_dyn"))

    wams = None
    if "wams" in sections:
        ws = sec("wams")
        tau0 = ws.get("tau0", float, required=True)
        shaping = ws.given(p_dr=float, T=float, alpha=float, b=float)
        try:
            wams = WamsSpec(tau0, **shaping)
            family.split_form(p_min, wams)
        except ConfigurationError as exc:
            raise ManifestError(str(exc), code="bad-wams", path=path,
                                line=headers["wams"]) from exc

    ts = sec("track")
    p_init = ts.get("p_init", float, p_min)
    p_fin = ts.get("p_fin", float, p_max)
    given = ts.given(dp=float, method=str, corrector_every=int,
                     corrector_tol=float)
    for key, value in given.items():  # alone, so an error names its line
        try:
            TrackOptions(**{key: value})
        except ConfigurationError as exc:
            ts._fail(str(exc), code="bad-track-options", entry=ts.raw(key))
    options = TrackOptions(wams=wams, p_fin=p_fin, **given)

    init_sec = sec("init")
    init = InitSettings(**init_sec.given(N=int, shift=complex, count=int))
    try:
        check_degree(init.N, len(taus))
    except ConfigurationError as exc:
        init_sec._fail(str(exc), code="bad-degree", entry=init_sec.raw("N"))

    for name, entries in sections.items():
        if name not in opened:
            raise ManifestError(f"unknown section [{name}]",
                                code="unknown-section", path=path,
                                line=headers[name])
        for key, entry in entries.items():
            if key not in opened[name].read:
                opened[name]._fail(f"unknown key {key!r} in [{name}]",
                                   code="unknown-key", entry=entry)

    return ModelManifest(
        family=family, track=options, init=init, r=r, p_init=p_init,
    )


def _write_mm(path, mat):
    scipy.io.mmwrite(
        path, sparse.coo_array(mat), field="real", symmetry="general"
    )


def write_model_bundle(model, out_dir, p_range, delay_index=0, init=None):
    """Write a model as a loadable bundle: manifest.ini plus .mtx files.

    The bundle is set up as a delay-parameter family over
    ``delay_index`` when the model has delays, otherwise as a constant
    affine family.  Its [init] section holds ``init`` (an
    :class:`InitSettings`, default ``InitSettings()``).
    """
    init = init or InitSettings()
    os.makedirs(out_dir, exist_ok=True)
    _write_mm(os.path.join(out_dir, "E.mtx"), model.E)
    _write_mm(os.path.join(out_dir, "A0.mtx"), model.A0)
    for j, (_, A) in enumerate(model.delay_terms):
        _write_mm(os.path.join(out_dir, f"A{j + 1}.mtx"), A)

    lines = [f"format_version = {FORMAT_VERSION}", "", "[model]"]
    lines.append(f"r = {model.r}")
    if model.n_dyn is not None:
        lines.append(f"n_dyn = {model.n_dyn}")
    kind = "delay_param" if model.mu else "affine"
    lines.append(f"kind = {kind}")
    lines.append("E = E.mtx")
    lines.append("A0 = A0.mtx")
    if model.mu:
        lines.append("delays = " + ", ".join(repr(t) for t in model.taus))
        for j in range(model.mu):
            lines.append(f"A{j + 1} = A{j + 1}.mtx")
        lines.append(f"delay_index = {delay_index}")
    lines.append(f"p_min = {p_range[0]!r}")
    lines.append(f"p_max = {p_range[1]!r}")
    lines.append("")
    lines.append("[track]")
    lines.append(f"p_init = {p_range[0]!r}")
    lines.append(f"p_fin = {p_range[1]!r}")
    lines.append("")
    lines.append("[init]")
    lines.append(f"N = {init.N}")
    lines.append(f"shift = {init.shift!r}".replace("(", "").replace(")", ""))
    lines.append(f"count = {init.count}")
    manifest_path = os.path.join(out_dir, "manifest.ini")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path
