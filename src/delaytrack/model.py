"""Parameterized families of linear delay differential-algebraic models.

A model is the sparse matrix tuple (E, A0, {(tau_j, A_j)}) of the linear DDAE

    E x'(t) = A0 x(t) + sum_j A_j x(t - tau_j)

where E may be singular (algebraic equations occupy its zero columns).  A
family maps a scalar parameter p to such a model and also supplies its
derivative with respect to p (the entrywise slope of every matrix and the
slope of every delay), and the :class:`charfun.SplitForm` of P(s, p) over
slots it builds once per segment.  Every family is one piecewise-affine
:class:`ModelFamily`, in which each matrix and each delay is affine in p
between knots; the affine, tabulated and delay-parameter families only
construct one.
"""

from __future__ import annotations

import bisect

import numpy as np
import scipy.sparse as sparse

from .charfun import SplitForm, slot_matrices
from .errors import ConfigurationError, RangeError


def _as_csr(mat, dtype=np.float64):
    """Normalize any dense/sparse 2-D input to canonical CSR."""
    if sparse.issparse(mat):
        out = sparse.csr_array(mat).astype(dtype)
    else:
        out = sparse.csr_array(np.atleast_2d(np.asarray(mat, dtype=dtype)))
    out.sum_duplicates()
    return out


class DelayedLinearModel:
    """Matrix tuple of a linear DDAE at one parameter value.

    Parameters
    ----------
    E, A0 : array_like or sparse, shape (r, r)
        Singular mass matrix and delay-free state matrix.
    delay_terms : sequence of (tau, A) pairs
        One delayed state matrix per delay, tau in seconds.  May be empty.
    n_dyn : int, optional
        Number of dynamic states.  When given, columns n_dyn..r-1 of E are
        expected to be identically zero (algebraic variables carry no mass).
    """

    def __init__(self, E, A0, delay_terms=(), n_dyn=None):
        self.E = _as_csr(E)
        self.A0 = _as_csr(A0)
        self.delay_terms = tuple(
            (float(tau), _as_csr(A)) for tau, A in delay_terms
        )
        self.n_dyn = None if n_dyn is None else int(n_dyn)
        self.r = self.E.shape[0]

    @property
    def mu(self):
        """Number of delay terms."""
        return len(self.delay_terms)

    @property
    def taus(self):
        return tuple(tau for tau, _ in self.delay_terms)

    def with_delay(self, index, tau):
        """Copy of the model with delay ``index`` set to magnitude ``tau``."""
        if not 0 <= index < self.mu:
            raise ConfigurationError(
                f"delay index {index} out of range for {self.mu} delay terms"
            )
        terms = list(self.delay_terms)
        terms[index] = (tau, terms[index][1])
        return DelayedLinearModel(self.E, self.A0, terms, n_dyn=self.n_dyn)

    def __repr__(self):
        return (
            f"DelayedLinearModel(r={self.r}, n_dyn={self.n_dyn}, "
            f"mu={self.mu}, taus={self.taus})"
        )


class ModelDerivatives:
    """Parameter derivatives of a model's matrices (entrywise) and of its
    delays, ``dtaus`` = dtau_j/dp (one per delay, all zero by default)."""

    def __init__(self, dE, dA0, dA_terms=(), dtaus=()):
        self.dE = _as_csr(dE)
        self.dA0 = _as_csr(dA0)
        self.dA_terms = tuple(_as_csr(dA) for dA in dA_terms)
        self.dtaus = tuple(map(float, dtaus)) or (0.0,) * len(self.dA_terms)
        if len(self.dtaus) != len(self.dA_terms):
            raise ConfigurationError(
                f"{len(self.dtaus)} delay slopes for "
                f"{len(self.dA_terms)} delay matrices"
            )

    @classmethod
    def zero(cls, model, dtaus=()):
        z = sparse.csr_array((model.r, model.r))
        return cls(z, z, (z,) * model.mu, dtaus)


def validate_model(model):
    """Report violated model invariants.

    Returns a list of human-readable violation strings; an empty list means
    the model is valid.  Never raises.
    """
    report = []
    r = model.r
    for name, mat in (("E", model.E), ("A0", model.A0)):
        if mat.shape != (r, r):
            report.append(f"{name} has shape {mat.shape}, expected ({r}, {r})")
    for j, (tau, A) in enumerate(model.delay_terms):
        if A.shape != (r, r):
            report.append(
                f"delay matrix {j} has shape {A.shape}, expected ({r}, {r})"
            )
        if not tau > 0.0:
            report.append(f"delay {j} has non-positive magnitude tau={tau}")
    if model.n_dyn is not None:
        if not 0 <= model.n_dyn <= r:
            report.append(f"n_dyn={model.n_dyn} outside [0, {r}]")
        else:
            alg = model.E.tocsc()[:, model.n_dyn:]
            if alg.nnz and np.any(alg.data != 0.0):
                report.append(
                    "E has nonzero entries in algebraic columns "
                    f"{model.n_dyn}..{r - 1}"
                )
    return report


class ModelFamily:
    """A piecewise-affine map p -> DelayedLinearModel with derivative access.

    Its knots are p_0 < ... < p_K.  On segment k, [p_k, p_k+1], every
    matrix is M_k + (p - a_k) dM_k and every delay tau_k + (p - a_k)
    dtau_k; the end segments also hold p past the knots, up to the slack
    of :meth:`check_range`.  ``models`` holds M_k and ``slopes`` the
    :class:`ModelDerivatives` dM_k of each segment; with ``slopes=None``,
    ``models`` holds one model per knot and dM_k is the chord
    (M_k+1 - M_k)/(p_k+1 - p_k), formed on first use.  The anchors a_k
    default to the knots.  ``p_range`` may not run past the knots, and
    every delay must be positive on them.  Instances are immutable after
    construction (they cache the slots of one segment and each csr chord
    formed) and safe to share between concurrent tracking runs.
    """

    def __init__(self, knots, models, p_range, slopes=None, anchors=None):
        self._knots = tuple(map(float, knots))
        self._last = len(self._knots) - 1
        lo, hi = self.p_range = (float(p_range[0]), float(p_range[1]))
        if not self._knots[0] <= lo < hi <= self._knots[-1]:
            raise ConfigurationError(
                f"parameter range [{lo}, {hi}] is empty or runs past the "
                f"knots [{self._knots[0]}, {self._knots[-1]}]"
            )
        for a, b in zip(self._knots, self._knots[1:]):
            if not a < b:
                raise ConfigurationError(f"knot p={b} does not follow p={a}")
        self._models = list(models)
        self._chords = slopes is None
        self._slopes = [None] * self._last if self._chords else list(slopes)
        self._anchors = self._knots[:-1] if anchors is None else anchors
        self._dtaus = [
            tuple(self._chord(k, *(m.taus for m in self._models[k:k + 2])))
            if dm is None else dm.dtaus for k, dm in enumerate(self._slopes)
        ]
        self._delays = [tuple(zip(m.taus, dtaus))
                        for m, dtaus in zip(self._models, self._dtaus)]
        ref = self._models[0]
        if any((m.r, m.mu) != (ref.r, ref.mu) for m in self._models) or any(
                len(dtaus) != ref.mu for dtaus in self._dtaus):
            raise ConfigurationError(
                f"every model and slope must have r={ref.r} and mu={ref.mu}"
            )
        if any(not tau > 0.0 for k, p in enumerate(self._knots[:-1])
               for q in (p, self._knots[k + 1])
               for tau in self._taus(k, q - self._anchors[k])):
            raise ConfigurationError(
                f"every delay must stay positive over "
                f"[{self._knots[0]}, {self._knots[-1]}]"
            )
        self._held = (None, None, None)  # (segment, its slots, dweights)
        self._stacks = {}  # knot -> slot stack, of the chord held

    @property
    def moves_delay(self):
        """Whether some segment moves a delay (a nonzero dtau)."""
        return any(map(any, self._dtaus))

    def check_range(self, p, slack=False):
        """Reject p outside the range; ``slack`` admits 1e-6 max(1, |p|)
        past its ends."""
        lo, hi = self.p_range
        tol = 1e-6 * max(1.0, abs(p)) if slack else 0.0
        if not (lo - tol <= p <= hi + tol):
            raise RangeError(
                f"p={p} outside family range [{lo}, {hi}] (slack {tol:g})"
            )

    def _segment(self, p, slack=False):
        """Range-checked p: the index k of the segment [p_k, p_k+1) that
        holds p, the first or the last one past the knots."""
        self.check_range(p, slack)
        return bisect.bisect_right(self._knots, p, 1, self._last) - 1

    def _taus(self, k, h):
        """The delays of segment k at p = a_k + h."""
        return tuple([tau + h * dtau for tau, dtau in self._delays[k]])

    def _chord(self, k, first, second):
        """(second - first)/(p_k+1 - p_k): at once for two slot stacks,
        item by item for sequences."""
        inv = 1.0 / (self._knots[k + 1] - self._knots[k])
        if isinstance(first, np.ndarray):
            return (second - first) * inv
        return [(b - a) * inv for a, b in zip(first, second)]

    def _slope(self, k):
        """dM_k; a chord is formed as csr on first use and kept."""
        dm = self._slopes[k]
        if dm is None:
            dE, dA0, *dAs = self._chord(k, *(
                [m.E, m.A0] + [A for _, A in m.delay_terms]
                for m in self._models[k:k + 2]
            ))
            dm = self._slopes[k] = ModelDerivatives(dE, dA0, dAs,
                                                    self._dtaus[k])
        return dm

    def evaluate(self, p):
        k = self._segment(p, slack=True)
        m, dm, h = self._models[k], self._slope(k), p - self._anchors[k]
        terms = [
            (tau, A + h * dA)
            for tau, (_, A), dA in zip(self._taus(k, h), m.delay_terms,
                                       dm.dA_terms)
        ]
        return DelayedLinearModel(m.E + h * dm.dE, m.A0 + h * dm.dA0, terms,
                                  n_dyn=m.n_dyn)

    def derivative(self, p):
        """The slope of the segment of p, which may lie past the range by
        the slack of :meth:`check_range`, as for :meth:`evaluate` and
        :meth:`split_form`."""
        return self._slope(self._segment(p, slack=True))

    def _segment_slots(self, k):
        """(slots, dweights) of segment k: the slots of M_k, then those of
        dM_k when a matrix moves there.  A chord is formed from the slot
        stacks of its two models, one of them shared with the chord held
        before."""
        if self._chords:
            held = self._stacks
            first, second = (held[i] if i in held
                             else slot_matrices(self._models[i])
                             for i in (k, k + 1))
            self._stacks = {k: first, k + 1: second}
            chord = self._chord(k, first, second)
            slots = (np.concatenate((first, chord))
                     if isinstance(first, np.ndarray) else first + tuple(chord))
        else:
            slots = slot_matrices(self._models[k], self._slopes[k])
        n = len(self._dtaus[k]) + 2
        slope = slots[n:]
        if (slope.any() if isinstance(slope, np.ndarray)
                else any(M.nnz for M in slope)):
            return slots, (0.0, 1.0)
        return slots[:n], (0.0,)

    def split_form(self, p, wams=None):
        """The :class:`charfun.SplitForm` of P(s, p) at ``p``, its delayed
        term shaped by the WAMS spec ``wams`` if given: blocks (M_k, dM_k)
        with weights (1, p - a_k), or M_k alone when no matrix moves on
        the segment, and the delays at tau_k + (p - a_k) dtau_k.  Only the
        slots of the segment last used are kept, so memory does not grow
        with the knots."""
        k = self._segment(p, slack=True)
        held = self._held
        if held[0] != k:
            held = self._held = (k, *self._segment_slots(k))
        _, slots, dweights = held
        h = p - self._anchors[k]
        return SplitForm(slots, (1.0, float(h))[:len(dweights)], dweights,
                         self._taus(k, h), self._dtaus[k], wams=wams)


class AffineFamily(ModelFamily):
    """Family that depends affinely on p: M(p) = M_base + p * M_slope for
    every matrix and tau_j(p) = tau_j + p * dtau_j for every delay, one
    segment anchored at p = 0.

    ``slopes`` is a :class:`ModelDerivatives` of the (constant) slopes;
    every delay must be positive at both ends of ``p_range``."""

    def __init__(self, base, slopes, p_range):
        super().__init__(p_range, [base], p_range, [slopes], anchors=(0.0,))


class TabulatedFamily(ModelFamily):
    """Family given by model snapshots, interpolated entrywise in p.

    Interpolation is piecewise-linear between consecutive snapshots, for
    the matrices and the delays alike: segment k is anchored at its
    snapshot p_k with the slopes (m_k+1 - m_k)/(p_k+1 - p_k), so the
    derivative is the exact slope of the interpolant segment and a delay
    may move from snapshot to snapshot.  The table needs at least two
    snapshots, at distinct p; ``p_range`` defaults to their span and may
    not run past it.
    """

    def __init__(self, snapshots, p_range=None):
        snaps = sorted(((float(p), m) for p, m in snapshots), key=lambda t: t[0])
        if len(snaps) < 2:
            raise ConfigurationError(
                "tabulated family needs at least 2 snapshots"
            )
        knots = [p for p, _ in snaps]
        super().__init__(knots, [m for _, m in snaps],
                         p_range if p_range is not None
                         else (knots[0], knots[-1]))


class DelayParameterFamily(AffineFamily):
    """Family in which p is the magnitude of delay ``delay_index`` of
    ``model``: the affine family over the model with that delay at zero,
    whose only slope is dtau/dp = 1 for that delay."""

    def __init__(self, model, delay_index, p_range):
        base = model.with_delay(delay_index, 0.0)
        dtaus = np.eye(model.mu)[delay_index]
        super().__init__(base, ModelDerivatives.zero(model, dtaus), p_range)
