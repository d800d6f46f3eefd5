"""Parameterized families of linear delay differential-algebraic models.

A model is the sparse matrix tuple (E, A0, {(tau_j, A_j)}) of the linear DDAE

    E x'(t) = A0 x(t) + sum_j A_j x(t - tau_j)

where E may be singular (algebraic equations occupy its zero columns).  A
family maps a scalar parameter p to such a model and also supplies the
entrywise derivative of every matrix with respect to p, and as the
:class:`charfun.SplitForm` of P(s, p) over slots it builds once.
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

    @property
    def tau_max(self):
        return max(self.taus) if self.delay_terms else 0.0

    def with_delay(self, index, tau):
        """Copy of the model with delay ``index`` set to magnitude ``tau``."""
        if not 0 <= index < self.mu:
            raise ConfigurationError(
                f"delay index {index} out of range for {self.mu} delay terms"
            )
        terms = list(self.delay_terms)
        terms[index] = (float(tau), terms[index][1])
        out = DelayedLinearModel.__new__(DelayedLinearModel)
        out.E, out.A0, out.n_dyn, out.r = self.E, self.A0, self.n_dyn, self.r
        out.delay_terms = tuple(terms)
        return out

    def __repr__(self):
        return (
            f"DelayedLinearModel(r={self.r}, n_dyn={self.n_dyn}, "
            f"mu={self.mu}, taus={self.taus})"
        )


class ModelDerivatives:
    """Entrywise parameter derivatives of a model's matrices."""

    def __init__(self, dE, dA0, dA_terms=()):
        self.dE = _as_csr(dE)
        self.dA0 = _as_csr(dA0)
        self.dA_terms = tuple(_as_csr(dA) for dA in dA_terms)

    @classmethod
    def zero(cls, model):
        z = sparse.csr_array((model.r, model.r))
        return cls(z, z, (z,) * model.mu)


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

    def _check_range(self, p, slack=False):
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
    """Family whose matrices depend affinely on p: M(p) = M_base + p * M_slope.

    Delay magnitudes stay fixed; ``slopes`` is a :class:`ModelDerivatives`
    holding the (constant) parameter derivative of each matrix slot.
    """

    def __init__(self, base, slopes, p_range):
        super().__init__(p_range)
        if len(slopes.dA_terms) != base.mu:
            raise ConfigurationError(
                f"{len(slopes.dA_terms)} slope matrices for {base.mu} delays"
            )
        self.base = base
        self.slopes = slopes
        self._slots = slot_matrices(base, slopes)

    def evaluate(self, p):
        self._check_range(p, slack=True)
        E = self.base.E + p * self.slopes.dE
        A0 = self.base.A0 + p * self.slopes.dA0
        terms = [
            (tau, A + p * dA)
            for (tau, A), dA in zip(self.base.delay_terms, self.slopes.dA_terms)
        ]
        return DelayedLinearModel(E, A0, terms, n_dyn=self.base.n_dyn)

    def derivative(self, p):
        self._check_range(p)
        return self.slopes

    def split_form(self, p, wams=None):
        """Blocks (base, slopes) with weights (1, p)."""
        self._check_range(p, slack=True)
        return SplitForm(self._slots, (1.0, float(p)), (0.0, 1.0),
                         self.base.taus, wams=wams)


class TabulatedFamily(ModelFamily):
    """Family given by model snapshots, interpolated entrywise in p.

    Interpolation is piecewise-linear between bracketing snapshots, and the
    derivative is the exact slope of the interpolant segment.  Delay
    magnitudes must be identical across snapshots: a varying delay belongs
    to :class:`DelayParameterFamily` instead.
    """

    def __init__(self, snapshots, p_range=None):
        snaps = sorted(((float(p), m) for p, m in snapshots), key=lambda t: t[0])
        if p_range is None:
            if len(snaps) >= 2:
                p_range = (snaps[0][0], snaps[-1][0])
            else:
                p_range = (0.0, 1.0)  # placeholder; evaluation rejects anyway
        super().__init__(p_range)
        self.snapshots = snaps
        self._ps = np.array([q for q, _ in snaps])
        self._cached = (None, None)  # (segment index, its slots)
        if len(snaps) >= 2:
            ref = snaps[0][1]
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
        if len(self.snapshots) < 2:
            raise ConfigurationError(
                "tabulated family needs at least 2 snapshots"
            )
        self._check_range(p, slack)
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
            slots = slot_matrices(m0) + slot_matrices(m1)
            self._cached = (k, slots)
        theta = (min(max(p, p0), p1) - p0) / (p1 - p0)
        inv = 1.0 / (p1 - p0)
        return SplitForm(slots, (1.0 - theta, theta), (-inv, inv), m0.taus,
                         wams=wams)


class DelayParameterFamily(ModelFamily):
    """Family in which p is the magnitude of one delay term.

    All matrices are constant; only ``tau[delay_index]`` varies with p, so
    every matrix derivative is identically zero.
    """

    def __init__(self, model, delay_index, p_range):
        super().__init__(p_range)
        if not 0 <= delay_index < model.mu:
            raise ConfigurationError(
                f"delay index {delay_index} out of range for mu={model.mu}"
            )
        if self.p_range[0] <= 0.0:
            raise ConfigurationError(
                "delay-parameter range must be strictly positive"
            )
        self.model = model
        self.delay_index = int(delay_index)
        self._zero = ModelDerivatives.zero(model)
        self._slots = slot_matrices(model)

    def evaluate(self, p):
        self._check_range(p, slack=True)
        return self.model.with_delay(self.delay_index, p)

    def derivative(self, p):
        self._check_range(p)
        return self._zero

    def split_form(self, p, wams=None):
        """The model's slots, delay ``delay_index`` set to p."""
        self._check_range(p, slack=True)
        taus = list(self.model.taus)
        taus[self.delay_index] = float(p)
        return SplitForm(self._slots, (1.0,), (0.0,), tuple(taus),
                         delay_index=self.delay_index, wams=wams)

