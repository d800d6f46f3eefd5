"""Parameterized families of linear delay differential-algebraic models.

A model is the sparse matrix tuple (E, A0, {(tau_j, A_j)}) of the linear DDAE

    E x'(t) = A0 x(t) + sum_j A_j x(t - tau_j)

where E may be singular (algebraic equations occupy its zero columns).  A
family maps a scalar parameter p to such a model and also supplies its
derivative with respect to p (the entrywise slope of every matrix and the
slope of every delay), and the :class:`charfun.SplitForm` of P(s, p) over
slots it builds once.
"""

from __future__ import annotations

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
    """Base class: a map p -> DelayedLinearModel with derivative access.

    Subclasses implement :meth:`evaluate`, :meth:`derivative` and
    :meth:`split_form`.  Instances are immutable after construction (a
    tabulated family caches the dense slots of one segment) and safe to
    share between concurrent tracking runs.
    """

    def __init__(self, p_range):
        lo, hi = float(p_range[0]), float(p_range[1])
        if not lo < hi:
            raise ConfigurationError(f"empty parameter range [{lo}, {hi}]")
        self.p_range = (lo, hi)

    def check_range(self, p, slack=False):
        """Reject p outside the range; ``slack`` admits 1e-6 max(1, |p|)
        past its ends."""
        lo, hi = self.p_range
        tol = 1e-6 * max(1.0, abs(p)) if slack else 0.0
        if not (lo - tol <= p <= hi + tol):
            raise RangeError(
                f"p={p} outside family range [{lo}, {hi}] (slack {tol:g})"
            )

    def evaluate(self, p):
        raise NotImplementedError

    def derivative(self, p):
        raise NotImplementedError

    def split_form(self, p, wams=None):
        """The :class:`charfun.SplitForm` of P(s, p) at ``p``, its delayed
        term shaped by the WAMS spec ``wams`` if given."""
        raise NotImplementedError


class AffineFamily(ModelFamily):
    """Family that depends affinely on p: M(p) = M_base + p * M_slope for
    every matrix and tau_j(p) = tau_j + p * dtau_j for every delay.

    ``slopes`` is a :class:`ModelDerivatives` of the (constant) slopes;
    every delay must be positive at both ends of ``p_range``."""

    def __init__(self, base, slopes, p_range):
        super().__init__(p_range)
        if len(slopes.dA_terms) != base.mu:
            raise ConfigurationError(
                f"{len(slopes.dA_terms)} slope matrices for {base.mu} delays"
            )
        self.base = base
        self.slopes = slopes
        self._delays = tuple(zip(base.taus, slopes.dtaus))
        if any(not tau > 0.0 for p in self.p_range for tau in self._taus(p)):
            raise ConfigurationError(
                f"every delay must stay positive over {self.p_range}"
            )
        # no slope block when no matrix moves: P has one block, weight 1
        moving = any(M.nnz for M in (slopes.dE, slopes.dA0,
                                     *slopes.dA_terms))
        self._slots = slot_matrices(base, slopes if moving else None)
        self._dweights = (0.0, 1.0) if moving else (0.0,)

    def _taus(self, p):
        return tuple([tau + p * dtau for tau, dtau in self._delays])

    def evaluate(self, p):
        self.check_range(p, slack=True)
        E = self.base.E + p * self.slopes.dE
        A0 = self.base.A0 + p * self.slopes.dA0
        terms = [
            (tau, A + p * dA)
            for tau, (_, A), dA in zip(self._taus(p), self.base.delay_terms,
                                       self.slopes.dA_terms)
        ]
        return DelayedLinearModel(E, A0, terms, n_dyn=self.base.n_dyn)

    def derivative(self, p):
        self.check_range(p)
        return self.slopes

    def split_form(self, p, wams=None):
        """Blocks (base, slopes) with weights (1, p), or the base alone
        when no matrix moves, and the delays at tau_j + p * dtau_j."""
        self.check_range(p, slack=True)
        weights = (1.0, float(p))[:len(self._dweights)]
        return SplitForm(self._slots, weights, self._dweights,
                         self._taus(p), self.slopes.dtaus, wams=wams)


class TabulatedFamily(ModelFamily):
    """Family given by model snapshots, interpolated entrywise in p.

    Interpolation is piecewise-linear between bracketing snapshots, and the
    derivative is the exact slope of the interpolant segment.  Delay
    magnitudes must be positive and identical across snapshots: a varying
    delay belongs to an :class:`AffineFamily` with delay slopes instead.
    The table needs at least two snapshots; ``p_range`` defaults to the
    span of their p.
    """

    def __init__(self, snapshots, p_range=None):
        snaps = sorted(((float(p), m) for p, m in snapshots), key=lambda t: t[0])
        if len(snaps) < 2:
            raise ConfigurationError(
                "tabulated family needs at least 2 snapshots"
            )
        super().__init__(p_range if p_range is not None
                         else (snaps[0][0], snaps[-1][0]))
        self.snapshots = snaps
        self._ps = np.array([q for q, _ in snaps])
        self._cached = (None, None)  # (segment index, its slots)
        ref = snaps[0][1]
        if not all(tau > 0.0 for tau in ref.taus):
            raise ConfigurationError(f"every delay must be positive, got "
                                     f"{ref.taus}")
        for p, m in snaps[1:]:
            if m.r != ref.r or m.mu != ref.mu:
                raise ConfigurationError(
                    f"snapshot at p={p} changes dimensions or delay count"
                )
            if not np.allclose(m.taus, ref.taus, rtol=0, atol=0):
                raise ConfigurationError(
                    "delay magnitudes differ across snapshots; use a "
                    "delay-parameter family to vary a delay"
                )

    def _segment(self, p, slack=False):
        """Range-checked p: index k and snapshots (p0, m0), (p1, m1) of the
        segment [p_k, p_k+1) that contains p; the first or the last segment
        outside the table."""
        self.check_range(p, slack)
        k = int(np.searchsorted(self._ps, p, side="right")) - 1
        k = min(max(k, 0), len(self._ps) - 2)
        return k, self.snapshots[k], self.snapshots[k + 1]

    def evaluate(self, p):
        _, (p0, m0), (p1, m1) = self._segment(p, slack=True)
        w = (min(max(p, p0), p1) - p0) / (p1 - p0)
        E = (1.0 - w) * m0.E + w * m1.E
        A0 = (1.0 - w) * m0.A0 + w * m1.A0
        terms = [
            (tau, (1.0 - w) * A + w * B)
            for (tau, A), (_, B) in zip(m0.delay_terms, m1.delay_terms)
        ]
        return DelayedLinearModel(E, A0, terms, n_dyn=m0.n_dyn)

    def derivative(self, p):
        """Exact slope of the interpolant on the segment of p."""
        _, (p0, m0), (p1, m1) = self._segment(p)
        inv = 1.0 / (p1 - p0)
        return ModelDerivatives(
            (m1.E - m0.E) * inv,
            (m1.A0 - m0.A0) * inv,
            [
                (B - A) * inv
                for (_, A), (_, B) in zip(m0.delay_terms, m1.delay_terms)
            ],
        )

    def split_form(self, p, wams=None):
        """Blocks (m0, m1) of the bracketing snapshots with weights
        (1 - theta, theta), theta = (p - p0)/(p1 - p0) clamped to [0, 1].
        Only the current segment's slots are kept (dense below
        ``DENSE_MAX_DIM``), so memory does not grow with the table."""
        k, (p0, m0), (p1, m1) = self._segment(p, slack=True)
        cached_k, slots = self._cached
        if cached_k != k:
            first, second = slot_matrices(m0), slot_matrices(m1)
            slots = (np.concatenate((first, second))
                     if isinstance(first, np.ndarray) else first + second)
            self._cached = (k, slots)
        theta = (min(max(p, p0), p1) - p0) / (p1 - p0)
        inv = 1.0 / (p1 - p0)
        return SplitForm(slots, (1.0 - theta, theta), (-inv, inv), m0.taus,
                         wams=wams)


class DelayParameterFamily(AffineFamily):
    """Family in which p is the magnitude of delay ``delay_index`` of
    ``model``: the affine family over the model with that delay at zero,
    whose only slope is dtau/dp = 1 for that delay."""

    def __init__(self, model, delay_index, p_range):
        base = model.with_delay(delay_index, 0.0)
        dtaus = np.eye(model.mu)[delay_index]
        super().__init__(base, ModelDerivatives.zero(model, dtaus), p_range)
        self.model = model
        self.delay_index = int(delay_index)
