"""Model manifests: a line-anchored key-value format binding matrix files.

A manifest is a plain text file of ``key = value`` lines grouped under
``[section]`` headers (``#`` starts a comment).  It names the Matrix Market
files of every matrix slot, the family kind, the tracking regime, and the
sweep/initialization defaults.  ``format_version = 1``.

Sections
--------
[model]     r, n_dyn, kind (affine | tabulated | delay_param), E, A0,
            delays (comma list of tau seconds), A1..Amu, p_min, p_max,
            *_slope files (affine), delay_index (delay_param)
[snapshot.K]  p plus per-slot files (tabulated kind, K = 0, 1, ...)
[regime]    kind (single | multi | delay_param | wams), delay_index,
            tau0, p_dr, T, alpha, b (wams)
[track]     p_init, p_fin, dp, method, corrector_every, corrector_tol,
            fold_eps
[init]      N, shift (complex literal), count

The family kind and the WAMS parameters imply the regime: a delay_param
family varies its delay_index, and a wams regime shapes the single delayed
term.  The declared [regime] kind and delay_index select no code path:
loading checks them against the family's split form, as
:func:`track.track_run` does.

A key the loader does not read and a section it does not know are errors
(codes ``unknown-key`` and ``unknown-section``), so a misspelt name cannot
silently fall back to a default.
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
)
from .track import REGIMES, TrackOptions

FORMAT_VERSION = 1

FAMILY_KINDS = ("affine", "tabulated", "delay_param")


@dataclass
class InitSettings:
    N: int = 16
    shift: complex = 0j
    count: int = 6


@dataclass
class ModelManifest:
    """Parsed manifest: the family plus tracking and initializer settings."""

    family: object
    track: TrackOptions
    init: InitSettings
    path: str
    r: int
    n_dyn: int | None
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

    def _convert(self, key, conv, default, required, what):
        entry = self.raw(key, required=required)
        if entry is None:
            return default
        try:
            return conv(entry.value)
        except (TypeError, ValueError):
            self._fail(
                f"{key} = {entry.value!r} is not a valid {what}",
                code="bad-value", entry=entry,
            )

    def get_int(self, key, default=None, required=False):
        return self._convert(key, int, default, required, "integer")

    def get_float(self, key, default=None, required=False):
        return self._convert(key, float, default, required, "real number")

    def get_complex(self, key, default=None, required=False):
        return self._convert(
            key, lambda v: complex(v.replace(" ", "")), default, required,
            "complex literal",
        )

    def get_str(self, key, default=None, required=False):
        entry = self.raw(key, required=required)
        return default if entry is None else entry.value

    def get_floats(self, key, default=()):
        entry = self.raw(key)
        if entry is None or not entry.value.strip():
            return list(default)
        try:
            return [float(tok) for tok in entry.value.split(",")]
        except ValueError:
            self._fail(
                f"{key} = {entry.value!r} is not a comma list of reals",
                code="bad-value", entry=entry,
            )


def _read_matrix(section, key, r, base_dir, required=True):
    """Load one Matrix Market slot as real CSR, checked against r."""
    entry = section.raw(key, required=required)
    if entry is None:
        return None
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


def _zeros(r):
    return sparse.csr_array((r, r))


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
    unknown regime, malformed matrix, ...).
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
    version = top.get_int("format_version", required=True)
    if version != FORMAT_VERSION:
        raise ManifestError(
            f"format_version {version} unsupported (expected "
            f"{FORMAT_VERSION})", code="bad-version", path=path,
        )

    ms = sec("model")
    r = ms.get_int("r", required=True)
    n_dyn = ms.get_int("n_dyn")
    kind = ms.get_str("kind", required=True)
    if kind not in FAMILY_KINDS:
        ms._fail(f"unknown family kind {kind!r}", code="unknown-kind",
                 entry=ms.raw("kind"))
    taus = ms.get_floats("delays")
    p_min = ms.get_float("p_min", required=True)
    p_max = ms.get_float("p_max", required=True)

    if kind == "tabulated":
        snaps = []
        for name in sorted(n for n in sections if n.startswith("snapshot.")):
            ss = sec(name)
            p = ss.get_float("p", required=True)
            snaps.append((p, _model_from_section(ss, r, n_dyn, taus, base_dir)))
        if len(snaps) < 2:
            raise ManifestError(
                "tabulated family needs at least 2 [snapshot.K] sections",
                code="missing-snapshots", path=path,
            )
        family = TabulatedFamily(snaps, p_range=(p_min, p_max))
    else:
        base = _model_from_section(ms, r, n_dyn, taus, base_dir)
        if kind == "affine":
            dE = _read_matrix(ms, "E_slope", r, base_dir, required=False)
            dA0 = _read_matrix(ms, "A0_slope", r, base_dir, required=False)
            dAs = [
                _read_matrix(ms, f"A{j + 1}_slope", r, base_dir,
                             required=False)
                for j in range(len(taus))
            ]
            slopes = ModelDerivatives(
                dE if dE is not None else _zeros(r),
                dA0 if dA0 is not None else _zeros(r),
                [dA if dA is not None else _zeros(r) for dA in dAs],
            )
            family = AffineFamily(base, slopes, p_range=(p_min, p_max))
        else:
            idx = ms.get_int("delay_index", required=True)
            try:
                family = DelayParameterFamily(base, idx,
                                              p_range=(p_min, p_max))
            except ConfigurationError as exc:
                raise ManifestError(str(exc), code="bad-delay-index",
                                    path=path) from exc

    rs = sec("regime")
    regime = rs.get_str("kind", required=True)
    if regime not in REGIMES:
        rs._fail(f"unknown regime {regime!r}", code="unknown-regime",
                 entry=rs.raw("kind"))
    wams = None
    if regime == "wams":
        wams = WamsSpec(
            tau0=rs.get_float("tau0", required=True),
            p_dr=rs.get_float("p_dr", 0.0),
            T=rs.get_float("T", 1.0),
            alpha=rs.get_float("alpha", 0.0),
            b=rs.get_float("b", 0.0),
        )
    declared = (rs.get_int("delay_index", required=True)
                if regime == "delay_param" else None)

    ts = sec("track")
    try:
        options = TrackOptions(
            dp=ts.get_float("dp"),
            method=ts.get_str("method", "euler"),
            corrector_every=ts.get_int("corrector_every", 10),
            corrector_tol=ts.get_float("corrector_tol", 1e-10),
            fold_eps=ts.get_float("fold_eps", 1e-4),
            regime=regime,
            wams=wams,
            p_fin=ts.get_float("p_fin", p_max),
        )
    except ConfigurationError as exc:
        raise ManifestError(str(exc), code="bad-track-options",
                            path=path) from exc
    p_init = ts.get_float("p_init", p_min)
    try:
        form = family.split_form(p_min, wams)
        options.check_regime(form)
    except ConfigurationError as exc:
        rs._fail(str(exc), code="regime-mismatch", entry=rs.raw("kind"))
    if declared != form.delay_index:
        rs._fail(
            f"delay_index {declared} differs from the [model] delay_index "
            f"{form.delay_index} that the family varies",
            code="regime-mismatch", entry=rs.raw("delay_index"),
        )

    ins = sec("init")
    init = InitSettings(
        N=ins.get_int("N", 16),
        shift=ins.get_complex("shift", 0j),
        count=ins.get_int("count", 6),
    )

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
        family=family, track=options, init=init, path=path, r=r,
        n_dyn=n_dyn, p_init=p_init,
    )


def _write_mm(path, mat):
    scipy.io.mmwrite(
        path, sparse.coo_array(mat), field="real", symmetry="general"
    )


def write_model_bundle(model, out_dir, p_range, delay_index=0,
                       dp=None, N=16, shift=0j, count=6):
    """Write a model as a loadable bundle: manifest.ini plus .mtx files.

    The bundle is set up as a delay-parameter family over
    ``delay_index`` when the model has delays, otherwise as a constant
    affine family tracked under the multi regime.
    """
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
    lines.append("[regime]")
    lines.append(f"kind = {'delay_param' if model.mu else 'multi'}")
    if model.mu:
        lines.append(f"delay_index = {delay_index}")
    lines.append("")
    lines.append("[track]")
    lines.append(f"p_init = {p_range[0]!r}")
    lines.append(f"p_fin = {p_range[1]!r}")
    if dp is not None:
        lines.append(f"dp = {dp!r}")
    lines.append("")
    lines.append("[init]")
    lines.append(f"N = {N}")
    lines.append(f"shift = {shift!r}".replace("(", "").replace(")", ""))
    lines.append(f"count = {count}")
    manifest_path = os.path.join(out_dir, "manifest.ini")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path
