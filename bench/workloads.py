"""Workloads, operations and the correctness gate of the delaytrack benchmark.

An operation runs one sweep case from start to answer through the public
API: ``oracle.spectrum_at`` for the seed pair, ``track.track_run`` for the
sweep and ``track.find_crossing`` when the case asks for a margin.  The
gate in :func:`check` runs after the timed calls, with fixed tolerances,
against truths that do not come from the continuation code.

Workloads (see ``bench/DESIGN.md`` for why each exists):

- ``small_sweeps``: Hayes delay margin, the tabulated two-crossing family
  and the WAMS demo model.  All three are analytic and take no seed.
- ``mid_dense``: ``rand_ddae(r=100)``, a real eigenvalue crossing Re s = 0.
- ``sparse_complex``: ``rand_ddae(r=5000)``, a complex pair, no crossing.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, manifest, model, oracle, track
from delaytrack.errors import DelayTrackError

# rand_ddae seed of each random-model workload.  It is part of the workload
# definition, not derived from the benchmark seed: on the r=5000 model the
# cost of five continuation steps ranges over 3-23 s across rand_ddae seeds
# 1-4 and 123, so a seed-driven model would measure the model, not the code.
# Setup rejects a model seed that lacks the structure its workload needs.
DEFAULT_MODEL_SEEDS = {"mid_dense": 11, "sparse_complex": 123}

# the gate: fixed tolerances, never loosened
PASS_TOL = 1e-6     # tracked vs recomputed eigenvalue; located vs true p*
AXIS_TOL = 1e-9     # |Re s*| at a located crossing
BAD_EVENTS = ("fold", "corrector_fail")


class SetupError(RuntimeError):
    """The requested inputs do not form the workload; nothing is measured."""


@dataclass
class Case:
    """One sweep case: inputs, seed-pair choice and what the gate checks."""

    name: str
    family: object
    options: object
    p0: float
    N: int
    shift: complex
    count: int
    pick: Callable
    margin: bool = False
    crossing_truth: tuple = ()          # p of every true crossing, or a superset
    truth_is_path: bool = True          # False: truth holds other eigenvalues' too
    compare: tuple | None = None        # (N, checkpoints) for compare_trajectory
    final_check: tuple | None = None    # (N, shift, count) of spectrum_at at p_fin


@dataclass
class Outcome:
    init_s: float = 0.0
    sweep_s: float = 0.0
    margin_s: float = 0.0
    trajectory: object = None
    steps: int = 0
    crossings: list = field(default_factory=list)
    error: str | None = None

    @property
    def solve_s(self):
        return self.init_s + self.sweep_s + self.margin_s


@dataclass
class Workload:
    cases: list
    model_seed: int | None


def upper_rightmost(pairs):
    upper = [e for e in pairs if e.s.imag > 1e-8]
    return max(upper, key=lambda e: e.s.real) if upper else None


def rightmost_real(pairs):
    real = [e for e in pairs if abs(e.s.imag) <= 1e-8 * max(1.0, abs(e.s))]
    return max(real, key=lambda e: e.s.real) if real else None


def upper_nearest(shift):
    def pick(pairs):
        upper = [e for e in pairs if e.s.imag > 1e-8]
        return min(upper, key=lambda e: abs(e.s - shift)) if upper else None
    return pick


# ---------------------------------------------------------------- builders

def _hayes(root):
    man = manifest.load_manifest(
        os.path.join(root, "fixtures", "hayes", "manifest.ini")
    )
    return Case(
        name="hayes", family=man.family, options=man.track, p0=man.p_init,
        N=man.init.N, shift=man.init.shift, count=man.init.count,
        pick=upper_rightmost, margin=True, crossing_truth=(math.pi / 2,),
        compare=(man.init.N, 11),
    )


def _bisect(f, a, b, iters=60):
    fa = f(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _two_crossing():
    # Re(s) = -0.2 (p - 1)(p - 3): unstable on (1, 3), stable outside
    def snapshot(p):
        d = 0.2 * (p - 1.0) * (p - 3.0)
        return model.DelayedLinearModel(
            np.eye(2), [[0.0, 1.0], [-4.0, -2.0 * d]]
        )

    fam = model.TabulatedFamily(
        [(p, snapshot(p)) for p in np.linspace(0.0, 4.0, 401)]
    )

    def rightmost(p):
        return max(np.linalg.eigvals(fam.evaluate(p).A0.toarray()).real)

    truth = tuple(_bisect(rightmost, lo, hi)
                  for lo, hi in ((0.5, 2.0), (2.0, 3.5)))
    opts = track.TrackOptions(dp=2e-3, corrector_every=10, regime="multi",
                              p_fin=4.0)
    return Case(
        name="two_crossing", family=fam, options=opts, p0=0.0, N=0,
        shift=0j, count=6, pick=upper_rightmost, margin=True,
        crossing_truth=truth, compare=(0, 11),
    )


def _wams():
    E = np.eye(2)
    A0 = np.array([[0.0, 1.0], [-4.0, -0.4]])
    A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
    base = model.DelayedLinearModel(E, A0, [(0.05, A1)])
    slopes = model.ModelDerivatives(np.zeros((2, 2)), np.zeros((2, 2)),
                                    [0.5 * A1])
    fam = model.AffineFamily(base, slopes, p_range=(0.0, 1.0))
    spec = charfun.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
    opts = track.TrackOptions(dp=1e-3, corrector_every=10, regime="wams",
                              wams=spec, p_fin=1.0)
    return Case(
        name="wams", family=fam, options=opts, p0=0.0, N=12, shift=2j,
        count=4, pick=upper_rightmost, compare=(12, 11),
    )


def _drifting(r, n_dyn, density, mu, seed, slope):
    """rand_ddae model whose A0 drifts by slope * (A0 + 3I) over p in [0, 1].

    The slope reuses the model's own locality-biased pattern: a slope with
    uniformly random positions would make every sparse LU fill in."""
    base = oracle.rand_ddae(r, n_dyn, density, mu, seed)
    zero = sparse.csr_array((r, r))
    slopes = model.ModelDerivatives(
        zero, slope * (base.A0 + 3.0 * sparse.eye_array(r)), [zero] * mu
    )
    return model.AffineFamily(base, slopes, p_range=(0.0, 1.0))


def real_axis_crossings(family, grid=101):
    """Parameters in the family range where a real eigenvalue passes s = 0.

    P(0, p) = -A0(p) - sum_j A_j(p) is real, and its determinant changes
    sign exactly where an odd number of real eigenvalues cross the origin.
    Each sign change on the grid is bisected to machine precision."""
    def sign(p):
        m = family.evaluate(p)
        P0 = -(m.A0 + sum(A for _, A in m.delay_terms)).toarray()
        return np.linalg.slogdet(P0)[0]

    ps = np.linspace(*family.p_range, grid)
    signs = [sign(p) for p in ps]
    return tuple(_bisect(sign, a, b)
                 for a, b, sa, sb in zip(ps, ps[1:], signs, signs[1:])
                 if sa * sb < 0.0)


def _mid_dense(seed):
    fam = _drifting(100, 70, 0.02, 2, seed, 0.6)
    truth = real_axis_crossings(fam)
    if not truth:
        raise SetupError(
            f"mid_dense: rand_ddae seed {seed} has no real eigenvalue "
            "crossing Re s = 0 on p in [0, 1]"
        )
    opts = track.TrackOptions(dp=5e-3, corrector_every=10, regime="multi",
                              p_fin=1.0)
    return Case(
        name="mid_dense", family=fam, options=opts, p0=0.0, N=8, shift=0j,
        count=6, pick=rightmost_real, margin=True, crossing_truth=truth,
        truth_is_path=False, compare=(4, 5),
    )


SPARSE_SHIFT = -1.0 + 1.0j


def _sparse_complex(seed):
    fam = _drifting(5000, 3500, 1e-3, 4, seed, 0.2)
    # two steps: each takes one LU of about 4 s, and the corrector runs
    # once, at the last step
    opts = track.TrackOptions(dp=1e-3, corrector_every=5, regime="multi",
                              p_fin=2e-3)
    case = Case(
        name="sparse_complex", family=fam, options=opts, p0=0.0, N=8,
        shift=SPARSE_SHIFT, count=6, pick=upper_nearest(SPARSE_SHIFT),
        final_check=(8, SPARSE_SHIFT, 6),
    )
    pairs = oracle.spectrum_at(fam, case.p0, N=case.N, shift=case.shift,
                               count=case.count)
    if case.pick(pairs) is None:
        raise SetupError(
            f"sparse_complex: rand_ddae seed {seed} has no eigenvalue with "
            f"Im s > 0 near {SPARSE_SHIFT}"
        )
    return case


def build(name, root, model_seed=None):
    """Construct a workload: families, options and the truths of the gate.

    ``model_seed`` replaces the default rand_ddae seed of a random-model
    workload; the analytic ``small_sweeps`` takes no seed."""
    if name == "small_sweeps":
        return Workload([_hayes(root), _two_crossing(), _wams()], None)
    if model_seed is None:
        model_seed = DEFAULT_MODEL_SEEDS[name]
    if name == "mid_dense":
        return Workload([_mid_dense(model_seed)], model_seed)
    if name == "sparse_complex":
        return Workload([_sparse_complex(model_seed)], model_seed)
    raise SetupError(f"unknown workload {name!r}")


# -------------------------------------------------------------- operation

def run_operation(case):
    """Run one case through the public API, timing each stage."""
    out = Outcome()
    opts = case.options
    try:
        t0 = time.perf_counter()
        pairs = oracle.spectrum_at(case.family, case.p0, N=case.N,
                                   shift=case.shift, count=case.count,
                                   tol=opts.corrector_tol, wams=opts.wams)
        seed = case.pick(pairs)
        if seed is None:
            raise DelayTrackError("no candidate eigenpair to track")
        initial = track.TrackState.from_eigenpair(case.p0, seed.s, seed.phi,
                                                  seed.residual)
        t1 = time.perf_counter()
        out.init_s = t1 - t0
        out.trajectory = track.track_run(case.family, initial, opts)
        t2 = time.perf_counter()
        out.steps = len(out.trajectory.samples) - 1
        out.sweep_s = t2 - t1
        if case.margin:
            out.crossings = track.find_crossing(case.family, out.trajectory,
                                                opts)
            out.margin_s = time.perf_counter() - t2
    except Exception as exc:  # a failed operation is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# -------------------------------------------------------------- the gate

def residual(family, wams, p, s, phi):
    """||P(s) phi|| / ||phi|| from the model matrices, independent of the
    package's own characteristic-function code."""
    m = family.evaluate(p)
    v = s * (m.E @ phi) - m.A0 @ phi
    if wams is None:
        for tau, A in m.delay_terms:
            v = v - np.exp(-s * tau) * (A @ phi)
    else:
        g = dt.eval_hp(wams, s) * dt.eval_hs(wams, s) * np.exp(-s * wams.tau0)
        v = v - g * (m.delay_terms[0][1] @ phi)
    return float(np.linalg.norm(v) / np.linalg.norm(phi))


def _digest(traj):
    h = hashlib.sha256(traj.ps.tobytes())
    h.update(traj.eigenvalues.tobytes())
    return h.hexdigest()


def _oracle_failures(case, traj):
    opts = case.options
    fails = []
    if case.compare is not None:
        N, checkpoints = case.compare
        rep = oracle.compare_trajectory(traj, case.family,
                                        checkpoint_count=checkpoints,
                                        options=opts, pass_tol=PASS_TOL, N=N)
        if rep.matched_fraction < 1.0 or rep.max_distance >= PASS_TOL:
            fails.append(
                f"compare_trajectory: matched {rep.matched_fraction:.2f}, "
                f"max distance {rep.max_distance:.2e}"
            )
    if case.final_check is not None:
        N, shift, count = case.final_check
        last = traj.samples[-1]
        pairs = oracle.spectrum_at(case.family, last.p, N=N, shift=shift,
                                   count=count, wams=opts.wams)
        dist = min((abs(e.s - last.s) for e in pairs), default=math.inf)
        if dist >= PASS_TOL:
            fails.append(f"no recomputed root within {PASS_TOL:g} of the "
                         f"tracked value at p_fin (nearest {dist:.2e})")
    return fails


def check(case, out, memo):
    """Reasons the operation failed the gate; empty when it passed.

    ``memo`` caches the oracle comparisons by the exact bytes of the
    tracked path, which is all they read: a repeated operation that returns
    a bit-identical path gets the verdict of the first."""
    if out.error is not None:
        return [out.error]
    traj = out.trajectory
    opts = case.options
    fails = []
    if traj.truncated:
        fails.append("trajectory truncated")
    bad = [e.kind for e in traj.events if e.kind in BAD_EVENTS]
    if bad:
        fails.append(f"events {bad}")
    last = len(traj.samples) - 1
    every = opts.corrector_every
    for i, st in enumerate(traj.samples):
        if not (i == 0 or i == last or (every > 0 and i % every == 0)):
            continue
        res = residual(case.family, opts.wams, st.p, st.s, st.phi)
        if not res <= opts.corrector_tol:
            fails.append(f"sample {i} at p={st.p:.6g}: residual {res:.2e} "
                         f"above {opts.corrector_tol:g}")
            break
    if case.margin:
        truth = case.crossing_truth
        if not out.crossings:
            fails.append("no crossing located")
        elif case.truth_is_path and len(out.crossings) != len(truth):
            fails.append(f"{len(out.crossings)} crossings, expected "
                         f"{len(truth)}")
        for p_star, s_star in out.crossings:
            gap = min((abs(p_star - t) for t in truth), default=math.inf)
            if not gap < PASS_TOL:
                fails.append(f"crossing at p={p_star:.9f} is {gap:.2e} "
                             f"from the truth (tol {PASS_TOL:g})")
            if not abs(s_star.real) < AXIS_TOL:
                fails.append(f"|Re s*| = {abs(s_star.real):.2e} at "
                             f"p={p_star:.9f} (tol {AXIS_TOL:g})")
    key = (case.name, _digest(traj))
    if key not in memo:
        memo[key] = _oracle_failures(case, traj)
    return fails + memo[key]


def run_pass(cases, memo, around=None):
    """Run every case once; return the outcomes and their gate failures.

    ``around(index, case)``, when given, returns a context manager entered
    for the operation alone (the tracer), so the gate is never traced.
    The trajectory is dropped once checked, so peak memory does not grow
    with the number of passes a run fits."""
    results = []
    for i, case in enumerate(cases):
        with around(i, case) if around else contextlib.nullcontext():
            out = run_operation(case)
        results.append((out, check(case, out, memo)))
        out.trajectory = None
    return results


def tally(cases, passes):
    """(attempted, failed, [(case name, reason)]) over a list of passes."""
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, reasons in p if reasons)
    failures = [(case.name, why)
                for p in passes
                for case, (_, reasons) in zip(cases, p)
                for why in reasons]
    return attempted, failed, failures
