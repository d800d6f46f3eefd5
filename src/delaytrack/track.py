"""Continuation tracking of eigenpairs across a parameter sweep.

Implicit differentiation of P(s(p), p) phi(p) = 0 together with the
eigenvector normalization phi^T phi = 1 yields the complex bordered system

    [[P(s), P'(s) phi], [phi^T, 0]] [dphi/dp; ds/dp] = [-(dP/dp) phi; 0],

whose real/imaginary split is the ODE M(y) dy/dp = h(y) in
y = (phi_r, phi_i, s_r, s_i).  One assembly builds the complex pieces
P(s), P'(s) phi and -(dP/dp) phi from the split form of :mod:`charfun`
for constant delays, a delay magnitude acting as the parameter and a
WAMS-shaped delay alike; the family (a :class:`DelayParameterFamily`
names its varying delay) and ``options.wams`` imply which, and the
declared regime is only checked against them.  Every integrator stage
solves the bordered system with :func:`spectral.bordered_solve`: one sparse
LU of the r x r complex P(s), a scalar Schur complement on the border and
one step of iterative refinement -- the same solve the bordered Newton
corrector takes.
The sweep advances y with explicit integrators, optionally re-polished by
the Newton corrector at fixed p, while watching for conjugate-pair folds and
real-axis crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sparse

from . import charfun, spectral
from .errors import (
    ConfigurationError,
    DefectiveEigenvalueError,
    NonConvergenceError,
    RangeError,
    ReinitializationError,
    SingularSystemError,
)
from .model import DelayParameterFamily

REGIMES = ("single", "multi", "delay_param", "wams")
INTEGRATORS = ("euler", "heun", "rk4")
EVENT_KINDS = ("fold", "axis_crossing", "reinit", "corrector_fail")

# candidates within this overlap margin of the best are tie-broken on Re(s)
_OVERLAP_TIE = 0.02
_OVERLAP_MIN = 0.5


@dataclass(frozen=True)
class TrackState:
    """Real continuation vector (phi_r, phi_i, s_r, s_i) at one p."""

    p: float
    phi_r: np.ndarray
    phi_i: np.ndarray
    s_r: float
    s_i: float
    residual: float = math.nan

    @property
    def s(self):
        return complex(self.s_r, self.s_i)

    @property
    def phi(self):
        return self.phi_r + 1j * self.phi_i

    @property
    def r(self):
        return self.phi_r.size

    @classmethod
    def from_eigenpair(cls, p, s, phi, residual=math.nan):
        phi = np.asarray(phi, dtype=complex).ravel()
        return cls(
            p=float(p),
            phi_r=phi.real.copy(),
            phi_i=phi.imag.copy(),
            s_r=float(np.real(s)),
            s_i=float(np.imag(s)),
            residual=float(residual),
        )


@dataclass
class ContinuationSystem:
    """Complex pieces of the bordered continuation system at one state.

    ``P`` is P(s), dense or sparse as :func:`charfun.slot_matrices` chose.
    ``w`` = P'(s) phi is the border column, ``g`` = -(dP/dp) phi the
    parameter forcing and ``phi`` the eigenvector in the border row.  ``M``
    and ``h`` are the real split [[M1, M2], [M3, 0]] y' = h of the same
    system, derived (sparse) on access; the solver never builds them.
    """

    P: object
    w: np.ndarray
    g: np.ndarray
    phi: np.ndarray

    @property
    def r(self):
        return self.phi.size

    @property
    def M(self):
        """M1 = [[X, -Y], [Y, X]] with P = X + iY, M2 = [[wR, -wI],
        [wI, wR]] (columns), M3 = [[fr, -fi], [fi, fr]] (rows)."""
        P = sparse.csr_array(self.P)
        w, phi = self.w, self.phi
        M1 = sparse.block_array([[P.real, -P.imag], [P.imag, P.real]])
        M2 = np.column_stack([np.concatenate([w.real, w.imag]),
                              np.concatenate([-w.imag, w.real])])
        M3 = np.vstack([np.concatenate([phi.real, -phi.imag]),
                        np.concatenate([phi.imag, phi.real])])
        return sparse.block_array(
            [[M1, sparse.csr_array(M2)], [sparse.csr_array(M3), None]],
            format="csr",
        )

    @property
    def h(self):
        return np.concatenate([self.g.real, self.g.imag, [0.0, 0.0]])


@dataclass
class TrackEvent:
    kind: str
    p: float
    s: complex
    index: int = -1  # sample index the event is attached to


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)
    events: list = field(default_factory=list)
    settings: dict = field(default_factory=dict)
    truncated: bool = False

    @property
    def ps(self):
        return np.array([st.p for st in self.samples])

    @property
    def eigenvalues(self):
        return np.array([st.s for st in self.samples])


@dataclass
class TrackOptions:
    """Sweep controls.

    The family and the WAMS spec ``wams`` imply the regime; ``regime`` and
    ``delay_index`` declare it and :func:`track_run` rejects a declaration
    that disagrees with them.  ``delay_param`` needs ``delay_index`` and a
    :class:`DelayParameterFamily`; ``wams`` goes with ``regime="wams"``
    only."""

    dp: float | None = None
    method: str = "euler"
    corrector_every: int = 10
    corrector_tol: float = 1e-10
    fold_eps: float = 1e-4
    regime: str = "multi"
    delay_index: int | None = None
    wams: charfun.WamsSpec | None = None
    p_fin: float | None = None
    reinit_on_fold: bool = False
    init_degree: int = 16
    init_count: int = 6

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        if self.method not in INTEGRATORS:
            raise ConfigurationError(f"unknown integrator {self.method!r}")
        if self.regime == "delay_param" and self.delay_index is None:
            raise ConfigurationError("delay_param regime needs delay_index")
        if (self.regime == "wams") != (self.wams is not None):
            raise ConfigurationError(
                f"a WamsSpec goes with regime='wams' and only with it; got "
                f"regime={self.regime!r}, wams={self.wams}"
            )


def _assemble(model, derivatives, state, delay_index=None, wams=None,
              dense=None):
    """Continuation system at ``state`` from the split form of P: the
    coefficients of :func:`charfun.coefficients` over the slots of
    :func:`charfun.slot_matrices` give P(s), w = P'(s) phi and
    g = -(dP/dp) phi."""
    mats = charfun.slot_matrices(model, derivatives, dense)
    c, c_s, c_p = charfun.coefficients(model, state.s, wams, delay_index)
    phi = state.phi
    return ContinuationSystem(
        P=charfun.eval_P(mats, c),
        w=charfun.matvec(mats, c_s, phi),
        g=-charfun.matvec(mats, c_p, phi),
        phi=phi,
    )


def assemble_single(model, derivatives, state, dense=None):
    """Continuation system for exactly one constant delay."""
    if model.mu != 1:
        raise ConfigurationError(
            f"single-delay assembly needs mu=1, got mu={model.mu}"
        )
    return _assemble(model, derivatives, state, dense=dense)


def assemble_multi(model, derivatives, state, dense=None):
    """Continuation system for any number of constant delays."""
    return _assemble(model, derivatives, state, dense=dense)


def assemble_delay_param(model, derivatives, state, delay_index, dense=None):
    """Continuation system when p = ``state.p`` is the magnitude of delay
    ``delay_index``; the delayed-matrix derivatives are ignored."""
    return _assemble(model.with_delay(delay_index, state.p), derivatives,
                     state, delay_index=delay_index, dense=dense)


def assemble_wams(model, derivatives, state, wams, dense=None):
    """Continuation system for one WAMS-shaped stochastic delay."""
    return _assemble(model, derivatives, state, wams=wams, dense=dense)


def _solve_system(system):
    """Real slope dy/dp = (dphi_r, dphi_i, ds_r, ds_i) of the sweep ODE."""
    x, ds = spectral.bordered_solve(
        system.P, system.w, system.phi, system.g, 0.0
    )
    return np.concatenate([x.real, x.imag, [ds.real, ds.imag]])


def _state_vector(state):
    return np.concatenate(
        [state.phi_r, state.phi_i, [state.s_r, state.s_i]]
    )


def _vector_state(p, y, r, residual=math.nan):
    return TrackState(
        p=float(p),
        phi_r=y[:r].copy(),
        phi_i=y[r:2 * r].copy(),
        s_r=float(y[2 * r]),
        s_i=float(y[2 * r + 1]),
        residual=residual,
    )


def integrate_step(system, state, dp, method="euler", assemble=None):
    """Advance the continuation state by one step of size ``dp``.

    ``assemble`` maps an intermediate TrackState to a fresh
    ContinuationSystem and is required for the multi-stage methods.
    """
    r = system.r
    y = _state_vector(state)
    k1 = _solve_system(system)
    if method == "euler":
        y_new = y + dp * k1
    elif method in ("heun", "rk4"):
        if assemble is None:
            raise ConfigurationError(
                f"{method} needs an assembly callback for internal stages"
            )
        if method == "heun":
            k2 = _solve_system(
                assemble(_vector_state(state.p + dp, y + dp * k1, r))
            )
            y_new = y + (dp / 2.0) * (k1 + k2)
        else:
            half = state.p + dp / 2.0
            k2 = _solve_system(
                assemble(_vector_state(half, y + (dp / 2.0) * k1, r))
            )
            k3 = _solve_system(
                assemble(_vector_state(half, y + (dp / 2.0) * k2, r))
            )
            k4 = _solve_system(
                assemble(_vector_state(state.p + dp, y + dp * k3, r))
            )
            y_new = y + (dp / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ConfigurationError(f"unknown integrator {method!r}")
    return _vector_state(state.p + dp, y_new, r, residual=state.residual)


def detect_fold(window, fold_eps):
    """Fold event for the most recent sample, or None.

    A conjugate pair collapsing onto the real axis shows up as the tracked
    s_i crossing (or dropping below ``fold_eps``) after having been clearly
    away from the axis.  A real eigenvalue driven into a fold is caught by
    the step itself: the bordered solve raises :class:`SingularSystemError`
    and the corrector :class:`DefectiveEigenvalueError` or
    :class:`NonConvergenceError`, which :func:`track_run` treats as a failed
    step.
    """
    if len(window) < 2:
        return None
    prev, cur = window[-2], window[-1]
    came_from_above = abs(prev.s_i) >= fold_eps
    crossed = came_from_above and prev.s_i * cur.s_i < 0.0
    shrunk = came_from_above and abs(cur.s_i) < fold_eps
    if crossed or shrunk:
        return TrackEvent(kind="fold", p=cur.p, s=cur.s)
    return None


def reinitialize_at(family, p, prev_state, options):
    """Recompute the eigendecomposition at ``p`` and pick up the branch
    overlapping the previously tracked eigenvector.

    Of the candidates of :func:`spectral.refined_eigenpairs`, the one
    maximizing |phi_prev^H phi| (unit-normalized) wins, with ties broken
    toward larger Re(s).  Raises :class:`ReinitializationError` when no
    candidate reaches overlap 0.5.
    """
    candidates = spectral.refined_eigenpairs(
        family.evaluate(p), options.init_degree, prev_state.s,
        options.init_count, tol=options.corrector_tol, wams=options.wams,
    )
    if not candidates:
        raise ReinitializationError(f"no refined eigenpair near p={p}")
    prev_phi = prev_state.phi / np.linalg.norm(prev_state.phi)
    overlaps = [
        abs(np.vdot(prev_phi, c.phi / np.linalg.norm(c.phi)))
        for c in candidates
    ]
    best = max(overlaps)
    if best < _OVERLAP_MIN:
        raise ReinitializationError(
            f"best eigenvector overlap {best:.3f} below {_OVERLAP_MIN} "
            f"at p={p}"
        )
    near = [
        c for c, ov in zip(candidates, overlaps) if ov >= best - _OVERLAP_TIE
    ]
    chosen = max(near, key=lambda c: c.s.real)
    return TrackState.from_eigenpair(p, chosen.s, chosen.phi, chosen.residual)


def _refine_state(model, state, options):
    ref = spectral.refine_newton(
        model, state.s, state.phi, tol=options.corrector_tol,
        wams=options.wams,
    )
    return TrackState.from_eigenpair(state.p, ref.s, ref.phi, ref.residual)


def _with_residual(model, state, wams):
    res = spectral.eigenpair_residual(model, state.s, state.phi, wams=wams)
    return replace(state, residual=res)


def _delay_index(family, options, model):
    """Index of the delay that is the parameter, supplied by a
    :class:`DelayParameterFamily`, or None.  The family and
    ``options.wams`` define P(s, p); the declared regime and delay index
    choose nothing and are only checked against them."""
    index = (family.delay_index if isinstance(family, DelayParameterFamily)
             else None)
    declared = options.delay_index if options.regime == "delay_param" else None
    if declared != index:
        raise ConfigurationError(
            f"regime={options.regime!r} with delay_index="
            f"{options.delay_index} does not match the family: "
            + ("its delays are fixed" if index is None else
               f"it varies delay {index}, which needs regime='delay_param' "
               f"with delay_index={index}")
        )
    if options.regime == "single" and model.mu != 1:
        raise ConfigurationError(f"regime='single' needs mu=1, got {model.mu}")
    return index


def track_run(family, initial, options):
    """Sweep the continuation parameter and record the eigenpair path.

    Starts from ``initial`` (already refined at its p) and integrates to
    ``options.p_fin`` (default: the upper end of the family range) in steps
    of ``options.dp`` (default: 1/1000 of the span), applying the Newton
    corrector at fixed p every ``corrector_every`` steps and at the final
    point.  Axis crossings are recorded as events.  A failed step ends the
    run (``truncated``) unless ``options.reinit_on_fold`` restarts it on
    the overlapping branch.  A step fails when its bordered solve is
    singular or the corrector finds the eigenvalue defective (``fold``),
    when the corrector does not converge (``corrector_fail``), or when
    :func:`detect_fold` sees a conjugate pair collapse (``fold``); the
    event marks the last sample, which for a failed correction is the
    uncorrected one.
    """
    p_init = initial.p
    model = family.evaluate(p_init)
    delay_index = _delay_index(family, options, model)
    p_fin = options.p_fin if options.p_fin is not None else family.p_range[1]
    if p_fin == p_init:
        raise ConfigurationError("p_fin equals the initial parameter")
    span = p_fin - p_init
    dp = abs(options.dp) if options.dp else abs(span) / 1000.0
    dp = math.copysign(dp, span)

    def assemble_at(st):
        return _assemble(family.evaluate(st.p), family.derivative(st.p), st,
                         delay_index, options.wams)

    traj = Trajectory(
        settings={
            "regime": options.regime,
            "method": options.method,
            "dp": dp,
            "p_init": p_init,
            "p_fin": p_fin,
            "corrector_every": options.corrector_every,
            "corrector_tol": options.corrector_tol,
            "fold_eps": options.fold_eps,
        }
    )
    state = _with_residual(model, initial, options.wams)
    traj.samples.append(state)

    step = 0
    while (p_fin - state.p) * math.copysign(1.0, dp) > 1e-14 * max(
        1.0, abs(p_fin)
    ):
        step += 1
        remaining = p_fin - state.p
        last = abs(remaining) <= abs(dp) * (1.0 + 1e-9)
        dp_k = remaining if last else dp  # land exactly on p_fin
        correct = options.corrector_every > 0 and (
            step % options.corrector_every == 0 or last
        )

        new_state = None
        try:
            system = assemble_at(state)
            new_state = integrate_step(
                system, state, dp_k, options.method, assemble=assemble_at
            )
            if last:
                new_state = replace(new_state, p=p_fin)
            model_new = family.evaluate(new_state.p)
            if correct:
                new_state = _refine_state(model_new, new_state, options)
            else:
                new_state = _with_residual(model_new, new_state, options.wams)
        except RangeError:
            traj.truncated = True
            break
        except (SingularSystemError, DefectiveEigenvalueError,
                NonConvergenceError) as exc:
            # a failed step: a singular bordered system or a failed
            # correction; the uncorrected sample, if any, is kept as the
            # last one, tagged with the event
            if new_state is not None:
                traj.samples.append(
                    _with_residual(model_new, new_state, options.wams)
                )
            at = traj.samples[-1]
            failure = TrackEvent(
                kind=("corrector_fail" if isinstance(exc, NonConvergenceError)
                      else "fold"),
                p=at.p, s=at.s,
            )
        else:
            traj.samples.append(new_state)
            if state.s_r * new_state.s_r < 0.0:
                traj.events.append(
                    TrackEvent(kind="axis_crossing", p=new_state.p,
                               s=new_state.s, index=len(traj.samples) - 1)
                )
            failure = detect_fold(traj.samples[-3:], options.fold_eps)

        if failure is not None:
            failure.index = len(traj.samples) - 1
            traj.events.append(failure)
            if not _handle_fold(family, traj, options):
                break
        state = traj.samples[-1]
    return traj


def _handle_fold(family, traj, options):
    """Reinitialize past a failed step when enabled; otherwise truncate the
    run.

    Resumes one step beyond the last sample: at a fold the eigenvalue is
    defective and the bordered matrix singular, so stepping from it is
    hopeless.  Returns True when tracking may continue."""
    if not options.reinit_on_fold:
        traj.truncated = True
        return False
    at = traj.samples[-1]
    dp = traj.settings["dp"]
    p_fin = traj.settings["p_fin"]
    p_resume = at.p + dp
    if (p_fin - p_resume) * math.copysign(1.0, dp) < 0.0:
        p_resume = p_fin
    if p_resume == at.p:
        traj.truncated = True
        return False
    try:
        fresh = reinitialize_at(family, p_resume, at, options)
    except (ReinitializationError, NonConvergenceError):
        traj.truncated = True
        return False
    traj.samples.append(fresh)
    traj.events.append(
        TrackEvent(
            kind="reinit", p=fresh.p, s=fresh.s, index=len(traj.samples) - 1
        )
    )
    return True


def _real_to_roundoff(state):
    return (
        abs(state.s_i) <= 1e-12 * max(1.0, abs(state.s))
        and np.linalg.norm(state.phi_i) <= 1e-12 * np.linalg.norm(state.phi)
    )


def find_crossing(family, trajectory, options):
    """Refine every real-axis crossing of the tracked eigenvalue.

    Each sign change of s_r between consecutive samples is bisected in p;
    the eigenpair is re-solved by warm-started Newton at every midpoint
    until |Re s| < 1e-9 or the bracket narrows below 1e-9.  When both
    bracketing samples are real to roundoff, each solve starts from their
    real parts: the imaginary parts are noise that the corrections shrink
    into subnormal arithmetic, while a real start keeps every iterate, and
    s_star, exactly real.  Returns a list of (p_star, s_star), empty when
    the trajectory never crosses.
    """
    crossings = []
    samples = trajectory.samples
    for a, b in zip(samples[:-1], samples[1:]):
        if not (np.isfinite(a.s_r) and np.isfinite(b.s_r)):
            continue
        if a.s_r == 0.0 or a.s_r * b.s_r >= 0.0:
            continue
        real = _real_to_roundoff(a) and _real_to_roundoff(b)
        lo, hi = a, b
        pm, sm = lo.p, lo.s
        for _ in range(200):
            if abs(hi.p - lo.p) < 1e-9:
                break
            pm = 0.5 * (lo.p + hi.p)
            warm = lo if abs(pm - lo.p) <= abs(pm - hi.p) else hi
            s0, phi0 = (warm.s_r, warm.phi_r) if real else (warm.s, warm.phi)
            ref = spectral.refine_newton(
                family.evaluate(pm), s0, phi0, tol=options.corrector_tol,
                wams=options.wams,
            )
            sm = ref.s
            mid = TrackState.from_eigenpair(pm, ref.s, ref.phi, ref.residual)
            if abs(sm.real) < 1e-9:
                break
            if (sm.real > 0.0) == (lo.s_r > 0.0):
                lo = mid
            else:
                hi = mid
        crossings.append((pm, sm))
    return crossings
