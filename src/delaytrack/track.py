"""Continuation tracking of eigenpairs across a parameter sweep.

Implicit differentiation of P(s(p), p) phi(p) = 0 together with the
eigenvector normalization phi^T phi = 1 yields the bordered system

    [[P(s), P'(s) phi], [phi^T, 0]] [dphi/dp; ds/dp] = [-(dP/dp) phi; 0],

an ODE in the eigenpair (phi, s) itself, which is the continuation
state; the sweep never builds its real split in (phi_r, phi_i, s_r, s_i),
the form the paper writes.  One assembly, :func:`spectral.assemble`,
builds P(s), P'(s) phi, -(dP/dp) phi and the residual ||P(s) phi|| /
||phi|| from a :class:`charfun.SplitForm` and one set of slot products,
for constant delays, moving delays and a WAMS-shaped delay alike; the
predictor, the Newton corrector and every residual read it.  The run
takes each form from ``family.split_form(p, options.wams)``, so no model
is rebuilt per step.  A sample that is not corrected is assembled once:
that system gives its residual and is the first stage of the step from
it.
Every integrator stage solves the bordered system with
:func:`spectral.bordered_solve`, as the Newton corrector does: one LAPACK
solve on a dense P(s); on a sparse one, a refined block elimination on an
LU of P(s).  Consecutive P(s, p) differ by O(dp), so one sweep (and one
crossing search) keeps a single :class:`spectral.HeldFactor` for all its
sparse stages, steps and corrector iterations.
The sweep advances (phi, s) with one explicit Runge-Kutta loop over the
table of Euler, Heun and RK4, optionally re-polished by the Newton
corrector at fixed p, while watching for conjugate-pair folds; its
``axis_crossing`` events, at a reinitialized sample too, are the crossings.

The state carries its field.  A real eigenpair (real to roundoff at the
start or after a reinitialization) becomes a real :class:`TrackState`,
with a float s and a float64 phi.  On a form without WAMS shaping, its
coefficients, slot products, P(s) and bordered solves (dgesv, or a real
sparse LU) are then real, so the branch runs in real arithmetic and stays
exactly real; a complex branch runs in complex arithmetic.  The field is
decided once per state (:class:`TrackState`) and once per bordered solve;
the helpers in between follow the types they are given.
:attr:`Trajectory.eigenvalues`, the s_star of :func:`find_crossing` and
the events stay complex on either branch.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import charfun, spectral
from .errors import (
    ConfigurationError,
    DefectiveEigenvalueError,
    NonConvergenceError,
    ReinitializationError,
    SingularityError,
    SingularSystemError,
)

REGIMES = ("multi", "delay_param", "wams")
# explicit Runge-Kutta schemes (stage offsets, weights, divisor): stage i + 1
# starts at p + offset_i dp from the slope of stage i, and the step adds
# dp / divisor times the weighted sum of the stage slopes
_SCHEMES = {
    "euler": ((), (1,), 1),
    "heun": ((1,), (1, 1), 2),
    "rk4": ((0.5, 0.5, 1), (1, 2, 2, 1), 6),
}
INTEGRATORS = tuple(_SCHEMES)

# candidates within this overlap margin of the best are tie-broken on Re(s)
_OVERLAP_TIE = 0.02
_OVERLAP_MIN = 0.5
# |Im s| below which a pair that came from off the axis counts as folded
FOLD_EPS = 1e-4
# a crossing bracket below 1e-9 in p whose ends differ in s by more than
# this times its width (1e-3 at 1e-9) spans a jump between branches
JUMP_SLOPE = 1e6


@dataclass(frozen=True)
class TrackState:
    """The continuation state: the eigenpair (s, phi) at one p, with
    ``phi`` copied to a 1-D array on construction.

    The state carries its field (:func:`spectral.in_field`): a state whose
    ``phi`` is real, with ``s.imag == 0``, is real and stores a float
    ``s`` and a float64 ``phi``; any other stores a complex ``s`` and a
    complex128 ``phi``.  A real state on a real form is assembled, solved
    and stepped in real arithmetic, so its successors are real states."""

    p: float
    s: complex
    phi: np.ndarray
    residual: float = math.nan

    def __post_init__(self):
        s, phi = spectral.in_field(self.s, self.phi)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "phi", phi)

    @property
    def s_r(self):
        return self.s.real

    @property
    def s_i(self):
        return self.s.imag

    @classmethod
    def from_eigenpair(cls, p, s, phi, residual=math.nan):
        return cls(float(p), s, phi, float(residual))


@dataclass
class TrackEvent:
    kind: str
    p: float
    s: complex
    index: int = -1  # sample index the event is attached to

    def __post_init__(self):
        self.s = complex(self.s)


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)
    events: list = field(default_factory=list)
    truncated: bool = False

    @property
    def ps(self):
        return np.array([st.p for st in self.samples])

    @property
    def eigenvalues(self):
        return np.array([st.s for st in self.samples], dtype=complex)


@dataclass
class TrackOptions:
    """Sweep controls.

    ``dp`` is a nonzero finite step (None: 1/1000 of the span),
    ``corrector_tol`` a positive finite tolerance and ``corrector_every``
    at least 0 (0: correct never).  The family and the WAMS spec ``wams``
    imply the regime; ``regime`` declares it as one of :data:`REGIMES`:
    ``wams`` goes with ``regime="wams"`` only, and :meth:`check_regime`
    rejects a declaration that disagrees with the family."""

    dp: float | None = None
    method: str = "euler"
    corrector_every: int = 10
    corrector_tol: float = 1e-10
    regime: str = "multi"
    wams: charfun.WamsSpec | None = None
    p_fin: float | None = None
    reinit_on_fold: bool = False

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        if self.method not in INTEGRATORS:
            raise ConfigurationError(f"unknown integrator {self.method!r}")
        if not (self.dp is None or 0.0 < abs(self.dp) < math.inf):
            raise ConfigurationError(f"dp={self.dp} is not a nonzero step")
        if not 0.0 < self.corrector_tol < math.inf:
            raise ConfigurationError(
                f"corrector_tol={self.corrector_tol} is not a positive "
                f"tolerance"
            )
        if self.corrector_every < 0:
            raise ConfigurationError(
                f"corrector_every={self.corrector_every} is negative"
            )
        if (self.regime == "wams") != (self.wams is not None):
            raise ConfigurationError(
                f"a WamsSpec goes with regime='wams' and only with it; got "
                f"regime={self.regime!r}, wams={self.wams}"
            )

    def check_regime(self, family):
        """Reject a regime that disagrees with the family, whichever p the
        run starts from: ``delay_param`` goes with a family that moves a
        delay on some segment and only with it."""
        if (self.regime == "delay_param") != family.moves_delay:
            raise ConfigurationError(
                f"regime={self.regime!r} does not match the family: "
                f"'delay_param' goes with a family that moves a delay"
            )


def _slope(system, held):
    """Slope d(phi, s)/dp of the continuation ODE, as one vector in the
    field of ``system``."""
    x, ds = spectral.bordered_solve(system.P, system.w, system.phi,
                                    system.g, 0.0, held)
    return np.concatenate((x, [ds]))


def integrate_step(assemble, state, dp, method="euler", held=None,
                   first=None):
    """Advance the eigenpair (phi, s) of ``state`` by one explicit
    Runge-Kutta step of size ``dp``, in the field of its stages: a real
    state whose stages are real steps to a real state.

    ``method`` names a scheme of :data:`INTEGRATORS` (Euler, Heun or RK4);
    an unknown name raises :class:`ConfigurationError`.  ``assemble`` maps
    a TrackState to its :class:`spectral.ContinuationSystem` and is called
    once per stage, except for the first when the caller passes that
    stage's system at ``state`` as ``first``; each stage after the first
    starts from the slope of the one before.
    Every stage solves on the factor in ``held`` (a
    :class:`spectral.HeldFactor`) when one is given.
    """
    try:
        offsets, weights, divisor = _SCHEMES[method]
    except KeyError:
        raise ConfigurationError(f"unknown integrator {method!r}") from None
    y = np.concatenate((state.phi, [state.s]))
    k = _slope(assemble(state) if first is None else first, held)
    total = weights[0] * k
    for a, w in zip(offsets, weights[1:]):
        y_a = y + (a * dp) * k
        k = _slope(assemble(TrackState(state.p + a * dp, y_a[-1], y_a[:-1])),
                   held)
        total = total + w * k
    y = y + (dp / divisor) * total
    return TrackState(state.p + dp, y[-1], y[:-1], state.residual)


def detect_fold(window):
    """Fold event for the most recent sample, or None.

    A conjugate pair collapsing onto the real axis shows up as the tracked
    s_i crossing (or dropping below :data:`FOLD_EPS`) after having been
    clearly away from the axis.  A real eigenvalue driven into a fold is
    caught by the step itself: the bordered solve raises
    :class:`SingularSystemError` and the corrector
    :class:`DefectiveEigenvalueError` or :class:`NonConvergenceError`, which
    :func:`track_run` treats as a failed step.
    """
    if len(window) < 2:
        return None
    prev, cur = window[-2], window[-1]
    came_from_above = abs(prev.s_i) >= FOLD_EPS
    crossed = came_from_above and prev.s_i * cur.s_i < 0.0
    shrunk = came_from_above and abs(cur.s_i) < FOLD_EPS
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
        family.split_form(p, options.wams), spectral.INIT_DEGREE,
        prev_state.s, spectral.INIT_COUNT, tol=options.corrector_tol,
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


def track_run(family, initial, options):
    """Sweep the continuation parameter and record the eigenpair path.

    Starts from ``initial`` (already refined at its p) and integrates to
    ``options.p_fin`` (default: the upper end of the family range) in steps
    of ``options.dp`` (default: 1/1000 of the span).  A ``p_fin`` outside
    the family range (past the slack of :meth:`ModelFamily.check_range`)
    raises :class:`RangeError` before the first step.  It applies the Newton
    corrector at fixed p every ``corrector_every`` steps and at the final
    point.  An axis crossing is an event at the first sample on the other
    side of Re s = 0 than the last sample off it, an accepted, a failed or
    a reinitialized one alike (:func:`_record`).  A failed step ends the
    run (``truncated``) unless ``options.reinit_on_fold`` restarts it on
    the overlapping branch.  A step fails when its bordered solve is
    singular, when P cannot be evaluated at the stepped state (an
    overflowing kernel, :class:`SingularityError`) or when the corrector
    finds the eigenvalue defective (``fold``), when the corrector does not
    converge (``corrector_fail``), or when :func:`detect_fold` sees a
    conjugate pair collapse (``fold``); the event marks the last sample,
    which for a failed correction is the uncorrected one if its residual
    can be evaluated.  The sparse bordered solves of the run share one
    :class:`spectral.HeldFactor`, which goes with the run.  The residual of
    the initial state, of a reinitialized one and of every uncorrected
    sample is read from the system assembled there, which the next step
    takes as its first stage.
    An initial or reinitialized state that is real to roundoff is tracked
    from its real parts.
    """
    p_init = initial.p
    wams = options.wams
    form = family.split_form(p_init, wams)
    options.check_regime(family)
    p_fin = options.p_fin if options.p_fin is not None else family.p_range[1]
    if p_fin == p_init:
        raise ConfigurationError("p_fin equals the initial parameter")
    family.check_range(p_fin, slack=True)
    span = p_fin - p_init
    dp = abs(options.dp) if options.dp else abs(span) / 1000.0
    dp = math.copysign(dp, span)

    def settled(form, st):
        """``st``, a state of this run, given its residual; its system."""
        system = spectral.assemble(form, st)
        object.__setattr__(st, "residual", system.residual)
        return st, system

    def assemble_at(st):
        return spectral.assemble(family.split_form(st.p, wams), st)

    traj = Trajectory()
    # the system of the last sample when it was not corrected: it gave
    # the sample's residual and is the first stage of the step from it
    # a copy: settling writes the residual into states of the run only
    state, system = settled(form, replace(_real_if_roundoff(initial)))
    side = _record(traj, state, 0.0)
    held = spectral.HeldFactor()

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
            new_state = integrate_step(assemble_at, state, dp_k,
                                       options.method, held, first=system)
            system = None
            if last:
                new_state = replace(new_state, p=p_fin)
            form_new = family.split_form(new_state.p, wams)
            if correct:
                ref = spectral.refine_newton(
                    form_new, new_state.s, new_state.phi,
                    tol=options.corrector_tol, held=held)
                new_state = TrackState.from_eigenpair(
                    new_state.p, ref.s, ref.phi, ref.residual)
            else:
                new_state, system = settled(form_new, new_state)
        except (SingularSystemError, SingularityError,
                DefectiveEigenvalueError, NonConvergenceError) as exc:
            # a failed step: a singular bordered system, a P that cannot be
            # evaluated or a failed correction; the uncorrected sample, if
            # any and if its residual can be evaluated, is kept as the last
            # one, tagged with the event
            if new_state is not None:
                with contextlib.suppress(SingularityError):
                    side = _record(traj, settled(form_new, new_state)[0], side)
            at = traj.samples[-1]
            failure = TrackEvent(
                kind=("corrector_fail" if isinstance(exc, NonConvergenceError)
                      else "fold"),
                p=at.p, s=at.s,
            )
        else:
            side = _record(traj, new_state, side)
            failure = detect_fold(traj.samples[-3:])

        if failure is not None:
            failure.index = len(traj.samples) - 1
            traj.events.append(failure)
            fresh = _resume(family, traj.samples[-1], options, dp, p_fin)
            if fresh is None:
                traj.truncated = True
                break
            fresh, system = settled(family.split_form(fresh.p, wams), fresh)
            traj.events.append(TrackEvent(kind="reinit", p=fresh.p, s=fresh.s,
                                          index=len(traj.samples)))
            side = _record(traj, fresh, side)
        state = traj.samples[-1]
    return traj


def _record(traj, st, side):
    """Append the sample ``st``, with an ``axis_crossing`` event when it
    lies across Re s = 0 from ``side``, the Re s of the last sample off the
    axis (0.0: none, or a nonfinite one since); return the new ``side``."""
    traj.samples.append(st)
    new = (st.s_r or side) if math.isfinite(st.s_r) else 0.0
    if side * new < 0.0:
        traj.events.append(TrackEvent(kind="axis_crossing", p=st.p, s=st.s,
                                      index=len(traj.samples) - 1))
    return new


def _resume(family, at, options, dp, p_fin):
    """The state reinitialized one signed step ``dp`` beyond the failed
    sample ``at``, but not past ``p_fin``: at a fold the eigenvalue is
    defective and the bordered matrix singular, so stepping from ``at`` is
    hopeless.  None when the run ends there: reinitialization is off,
    ``at`` is at ``p_fin`` or no branch overlaps."""
    if not options.reinit_on_fold:
        return None
    p_resume = at.p + dp
    if (p_fin - p_resume) * math.copysign(1.0, dp) < 0.0:
        p_resume = p_fin
    if p_resume == at.p:
        return None
    try:
        fresh = reinitialize_at(family, p_resume, at, options)
    except (ReinitializationError, NonConvergenceError):
        return None
    return _real_if_roundoff(fresh)


def _real_if_roundoff(state):
    """``state`` as a real state when it is real to roundoff.  P(s) is
    real for real s, so every step and correction from there runs in real
    arithmetic and stays exactly real, where roundoff-sized imaginary parts
    would shrink geometrically into subnormal arithmetic."""
    phi = state.phi
    if not (abs(state.s_i) <= 1e-12 * max(1.0, abs(state.s))
            and np.linalg.norm(phi.imag) <= 1e-12 * np.linalg.norm(phi)):
        return state
    return replace(state, s=state.s.real, phi=phi.real)


def find_crossing(family, trajectory, options):
    """Refine every real-axis crossing of the tracked eigenvalue.

    The crossings are the ``axis_crossing`` events of the trajectory, one
    at a reinitialized sample included; each is refined in its bracket,
    from the last sample off the axis before it.  A sample exactly on the
    axis between them is the crossing itself.  Otherwise the bracket is
    bisected in p by warm-started Newton at every midpoint until
    |Re s| < 1e-9 or the bracket narrows below 1e-9.  Each solve starts
    from the nearer end, or from the event's end when that sample starts
    a reinitialized branch; a real branch stays exactly real.  Stopped off
    the axis on a bracket far wider in s than in p (:data:`JUMP_SLOPE`),
    the bisection spans a jump and raises :class:`NonConvergenceError`.
    The Newton solves of the call share one :class:`spectral.HeldFactor`.
    Returns a list of (p_star, s_star) with a complex s_star, empty when
    the trajectory never crosses.
    """
    samples = trajectory.samples
    restarts = {ev.index for ev in trajectory.events if ev.kind == "reinit"}
    crossings = []
    held = spectral.HeldFactor()
    for ev in trajectory.events:
        if ev.kind != "axis_crossing":
            continue
        k = ev.index - 1
        while samples[k].s_r == 0.0:
            k -= 1
        if k + 1 < ev.index:  # the first sample on the axis
            crossings.append((samples[k + 1].p, complex(samples[k + 1].s)))
            continue
        lo, hi = samples[k], samples[ev.index]
        mid = lo
        for _ in range(200):
            if abs(hi.p - lo.p) < 1e-9:
                break
            pm = 0.5 * (lo.p + hi.p)
            near_lo = abs(pm - lo.p) <= abs(pm - hi.p)
            warm = lo if near_lo and ev.index not in restarts else hi
            ref = spectral.refine_newton(
                family.split_form(pm, options.wams), warm.s, warm.phi,
                tol=options.corrector_tol, held=held,
            )
            mid = TrackState.from_eigenpair(pm, ref.s, ref.phi, ref.residual)
            if abs(mid.s_r) < 1e-9:
                break
            if (mid.s_r > 0.0) == (lo.s_r > 0.0):
                lo = mid
            else:
                hi = mid
        jump = abs(hi.s - lo.s) > JUMP_SLOPE * abs(hi.p - lo.p)
        if jump and abs(mid.s_r) >= 1e-9:
            raise NonConvergenceError(
                f"no crossing on one branch: s jumps from {lo.s} to {hi.s} "
                f"between p={lo.p} and p={hi.p}")
        crossings.append((mid.p, complex(mid.s)))
    return crossings
