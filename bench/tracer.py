"""Outside-in layer trace for the delaytrack benchmark.

Public functions of the package are wrapped from outside by ``setattr`` on
their module (or on a family instance); nothing inside ``src/`` knows it is
being traced.  Every call of a wrapped function records one span: metric
name, start, end, parent span and operation id.  Spans stay in memory until
the run ends.  A name that no longer exists is skipped and listed in
``Tracer.skipped`` rather than failing the run, so the benchmark outlives
refactors that delete functions.

Self time of a span is its duration minus the time covered by its direct
wrapped children.  Bookkeeping that is not part of the call itself (reading
the fill of a sparse factor) runs on a paused clock, so it shows in no span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

# span fields
NAME, START, END, PARENT, OP, SELF, RAISED, FILL = range(8)

# (metric name, module short name, attribute names); the caller maps each
# short name to its module
MODULE_LAYERS = (
    ("charfun.eval_P", "charfun", ("eval_P",)),
    ("charfun.eval_dP_ds", "charfun", ("eval_dP_ds",)),
    ("charfun.eval_P_wams", "charfun", ("eval_P_wams",)),
    ("charfun.eval_dP_ds_wams", "charfun", ("eval_dP_ds_wams",)),
    ("charfun.transfer_scalars", "charfun", ("transfer_scalars",)),
    ("track.track_run", "track", ("track_run",)),
    ("track.assemble", "track", ("assemble_single", "assemble_multi",
                                 "assemble_delay_param", "assemble_wams")),
    ("track.integrate_step", "track", ("integrate_step",)),
    ("track.splu", "track", ("splu",)),
    ("track.detect_fold", "track", ("detect_fold",)),
    ("track.find_crossing", "track", ("find_crossing",)),
    ("spectral.discretize", "spectral", ("discretize",)),
    ("spectral.solve_discretized", "spectral", ("solve_discretized",)),
    ("spectral.refine_newton", "spectral", ("refine_newton",)),
    ("spectral.eigenpair_residual", "spectral", ("eigenpair_residual",)),
    ("spectral.bordered_smallest_singular_value", "spectral",
     ("bordered_smallest_singular_value",)),
    ("spectral.splu", "spectral", ("splu",)),
    ("oracle.spectrum_at", "oracle", ("spectrum_at",)),
    ("manifest.load_manifest", "manifest", ("load_manifest",)),
)
FAMILY_LAYERS = (
    ("model.evaluate", ("evaluate",)),
    ("model.derivative", ("derivative",)),
)
FACTOR_LAYERS = ("track.splu", "spectral.splu")
P_EVALUATIONS = ("charfun.eval_P", "charfun.eval_P_wams")
LAYER_NAMES = tuple(n for n, _ in FAMILY_LAYERS) + tuple(
    n for n, _, _ in MODULE_LAYERS
)
DERIVED = (
    ("spectral.refine_newton.iters", "count"),
    ("spectral.refine_newton.failed", "count"),
    ("track.splu.fill_nnz", "count"),
    ("spectral.splu.fill_nnz", "count"),
    ("track.steps", "count"),
    ("track.corrections", "count"),
    ("track.find_crossing.newton_per_crossing", "count"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in LAYER_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
    return out + list(DERIVED)


class Tracer:
    """Span recorder that installs wrappers for the duration of a block."""

    def __init__(self):
        self.spans = []
        self.skipped = []
        self.op = -1
        self._stack = []  # open frames: [span index, child duration]
        self._paused = 0.0

    def now(self):
        return time.perf_counter() - self._paused

    def _wrap(self, name, fn, fill):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            if stack and spans[stack[-1][0]][NAME] == name:
                # an aliased entry point delegating to another one
                # (assemble_single -> assemble_multi) is one span
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            span = [name, tracer.now(), 0.0, parent, tracer.op, 0.0, False, 0]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                end = tracer.now()
                stack.pop()
                span[END] = end
                dur = end - span[START]
                span[SELF] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if fill:
                t = time.perf_counter()
                span[FILL] = int(out.L.nnz + out.U.nnz)
                tracer._paused += time.perf_counter() - t
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules, families=()):
        """Wrap every layer function while the block runs, then restore.

        ``modules`` maps the short module names used in ``MODULE_LAYERS``
        to module objects; ``families`` are family instances whose
        ``evaluate`` and ``derivative`` are wrapped on the instance.
        """
        undo = []
        targets = [(name, modules[mod], attrs, mod)
                   for name, mod, attrs in MODULE_LAYERS]
        for fam in families:
            targets += [(name, fam, attrs, "family")
                        for name, attrs in FAMILY_LAYERS]
        try:
            for name, owner, attrs, label in targets:
                for attr in attrs:
                    fn = getattr(owner, attr, None)
                    if fn is None:
                        miss = f"{label}.{attr}"
                        if miss not in self.skipped:
                            self.skipped.append(miss)
                        continue
                    own = attr in vars(owner)
                    undo.append((owner, attr, own, fn))
                    setattr(owner, attr,
                            self._wrap(name, fn, name in FACTOR_LAYERS))
            yield self
        finally:
            for owner, attr, own, fn in reversed(undo):
                if own:
                    setattr(owner, attr, fn)
                else:
                    delattr(owner, attr)

    def _under(self, idx, ancestor):
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_metrics(self, ops=None, passes=1, steps=0, crossings=0):
        """Per-layer metrics over the spans of operations ``ops`` (all when
        None), as means per traced pass.

        ``steps`` and ``crossings`` are the continuation steps taken and
        crossings located in those operations; they come from the outputs,
        not from spans, so they survive the removal of any wrapped name.
        ``trace.overhead_frac`` needs an untraced run and is left out.
        """
        per = float(passes)
        totals = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        iters = failed = corrections = crossing_newton = 0
        fill = {name: 0 for name in FACTOR_LAYERS}
        for idx, span in enumerate(self.spans):
            if ops is not None and span[OP] not in ops:
                continue
            name = span[NAME]
            t = totals[name]
            t[0] += 1
            t[1] += span[END] - span[START]
            t[2] += span[SELF]
            if name in fill:
                fill[name] += span[FILL]
            elif name in P_EVALUATIONS:
                iters += self._under(idx, "spectral.refine_newton")
            elif name == "spectral.refine_newton":
                failed += span[RAISED]
                corrections += self._under(idx, "track.track_run")
                crossing_newton += self._under(idx, "track.find_crossing")
        out = {}
        for name, (calls, total, own) in totals.items():
            out[f"{name}.calls"] = calls / per
            out[f"{name}.total_s"] = total / per
            out[f"{name}.self_s"] = own / per
        out["spectral.refine_newton.iters"] = iters / per
        out["spectral.refine_newton.failed"] = failed / per
        out["track.splu.fill_nnz"] = fill["track.splu"] / per
        out["spectral.splu.fill_nnz"] = fill["spectral.splu"] / per
        out["track.steps"] = steps / per
        out["track.corrections"] = corrections / per
        out["track.find_crossing.newton_per_crossing"] = (
            crossing_newton / crossings if crossings else 0.0
        )
        return out

    def write(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "op": s[OP],
                    "self_s": s[SELF], "raised": s[RAISED],
                    **({"fill_nnz": s[FILL]} if s[NAME] in FACTOR_LAYERS
                       else {}),
                }) + "\n")
