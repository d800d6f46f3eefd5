"""Characteristic matrix function of a delayed model, in split form.

The eigenvalues of a linear DDAE are the complex numbers s at which

    P(s) = s E - A0 - sum_j A_j exp(-s tau_j)

is singular.  P is held in split form,

    P(s, p) = sum_j w_j(p) sum_k c_k(s, p) M_{j,k},

over blocks j of slots M_j = (E, A0, A_1, ..., A_mu) taken from anchor
models: only the scalar weights w_j and coefficients c_k depend on s and p,
so the sparsity pattern of the inputs is preserved and no matrix is built
per parameter value.
The coefficient of a delayed slot is minus one of three kernels:

- exp(-s tau_j) for a constant delay;
- exp(-s p) for the delay whose magnitude is the parameter p;
- h_p(s) h_s(s) exp(-s tau0) for wide-area measurement (WAMS) latency with
  packet dropouts and Gamma-distributed noise, where the scalar transfer
  functions h_p and h_s shape the single delayed term.

:func:`coefficients` is the only place that knows how a kernel enters
P(s), dP/ds and dP/dp.  A :class:`SplitForm` is the one description of P
at one p that every consumer takes: families build their slots once and
return a form per p, and :func:`split_form` wraps a single model.
:func:`eval_P` forms a matrix from coefficients and slots; :func:`matvec`
applies the same combination to a vector without forming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigurationError, SingularityError

# exp() overflows shortly above this; treat as a nonfinite evaluation
_EXP_MAX = 700.0

# the one dense/sparse crossover: below this dimension the slots, and so
# P(s), are dense ndarrays and the collocation pencil goes to dense QZ;
# from it up the slots stay csr, P(s) is factored by sparse LU and the
# pencil by shift-invert Arnoldi.  Measured on rand_ddae models (OpenBLAS,
# 1 thread, 2-CPU x86-64 Linux): dense QZ against shift-invert crosses
# below pencil dimension 72 (4.7-5.6 vs 2.5-4.3 ms there, 18-20 vs
# 3.1-3.5 ms at 130); one dense bordered solve against the sparse one
# crosses between r = 150 (1.4 vs 1.6 ms) and r = 200 (2.6 vs 2.0 ms),
# with 0.6 vs 1.3 ms at r = 100.  128 lies between the two.
DENSE_MAX_DIM = 128


def _delay_scalar(s, tau):
    z = -s * tau
    if z.real > _EXP_MAX:
        raise SingularityError(
            f"exp({z.real:.3g}) overflows evaluating a delay term "
            f"(s={s}, tau={tau})"
        )
    return np.exp(z)


@dataclass(frozen=True)
class WamsSpec:
    """Stochastic communication-delay parameters.

    tau0 is the constant latency component; p_dr the packet dropout rate in
    [0, 1); T the nominal delivery period; alpha and b the scale and shape
    of the Gamma-distributed noise.  ``constant_limit=True`` degenerates the
    transfer functions to h_p = h_s = 1 with zero derivatives, which turns
    the WAMS model into a plain constant delay of magnitude tau0.
    """

    tau0: float
    p_dr: float = 0.0
    T: float = 1.0
    alpha: float = 0.0
    b: float = 0.0
    constant_limit: bool = False

    def __post_init__(self):
        if self.tau0 < 0.0:
            raise ConfigurationError("tau0 must be non-negative")
        if not 0.0 <= self.p_dr < 1.0:
            raise ConfigurationError("p_dr must lie in [0, 1)")
        if not self.T > 0.0:
            raise ConfigurationError("delivery period T must be positive")
        if self.alpha < 0.0 or self.b < 0.0:
            raise ConfigurationError("alpha and b must be non-negative")

    @classmethod
    def constant_delay(cls, tau0):
        """Spec for the constant-delay degeneration (no dropouts, no noise)."""
        return cls(tau0=tau0, constant_limit=True)


def _hp_parts(spec, s):
    """(s, q, e, D, u) with q = 1 - p_dr, e = exp(-sT), D = 1 - p_dr e and
    u = 1 - q e / D, so that h_p = q u / s; raises at the poles of h_p."""
    s = complex(s)
    if abs(s) < 1e-150:
        raise SingularityError("h_p has a pole at s = 0")
    e = _delay_scalar(s, spec.T)
    den = 1.0 - spec.p_dr * e
    if abs(den) < 1e-14:
        raise SingularityError(
            f"h_p denominator 1 - p_dr*exp(-sT) vanishes at s={s}"
        )
    q = 1.0 - spec.p_dr
    return s, q, e, den, 1.0 - q * e / den


def eval_hp(spec, s):
    """Packet-dropout transfer function.

    h_p(s) = (1 - p_dr)/s * [1 + (p_dr - 1) exp(-sT) / (1 - p_dr exp(-sT))]
    """
    if spec.constant_limit:
        return 1.0 + 0.0j
    s, q, _, _, u = _hp_parts(spec, s)
    return (q / s) * u


def eval_dhp_ds(spec, s):
    """Analytic s-derivative of :func:`eval_hp`.

    With q = 1 - p_dr, D = 1 - p_dr exp(-sT) and u = 1 - q exp(-sT)/D the
    quotient rule collapses (D + p_dr exp(-sT) = 1) to

        dh_p/ds = -q u / s^2 + q^2 T exp(-sT) / (s D^2).
    """
    if spec.constant_limit:
        return 0.0 + 0.0j
    s, q, e, den, u = _hp_parts(spec, s)
    return -q * u / (s * s) + q * q * spec.T * e / (s * den * den)


def _hs_base(spec, s):
    base = 1.0 + spec.alpha * complex(s) / (1.0 - spec.p_dr)
    if abs(base) < 1e-150:
        raise SingularityError("h_s base vanishes; pole of the noise shaping")
    frac = abs(spec.b - round(spec.b)) > 1e-12
    if frac and base.real < 0.0 and abs(base.imag) <= 1e-14 * abs(base.real):
        raise SingularityError(
            "h_s base on the negative real branch cut with non-integer b"
        )
    return base


def eval_hs(spec, s):
    """Gamma-noise transfer function (1 + alpha s/(1 - p_dr))^(-b).

    Uses the principal branch of the complex power; b may be non-integer.
    """
    if spec.constant_limit or spec.b == 0.0 or spec.alpha == 0.0:
        return 1.0 + 0.0j
    return _hs_base(spec, s) ** (-spec.b)


def eval_dhs_ds(spec, s):
    """Analytic s-derivative of :func:`eval_hs`:
    -b * alpha/(1-p_dr) * base^(-b-1)."""
    if spec.constant_limit or spec.b == 0.0 or spec.alpha == 0.0:
        return 0.0 + 0.0j
    c = spec.alpha / (1.0 - spec.p_dr)
    return -spec.b * c * _hs_base(spec, s) ** (-spec.b - 1.0)


def transfer_scalars(spec, s):
    """Scalar pair (g, g_s): the shaped delay factor and its h-part slope.

    g   = h_p(s) h_s(s) exp(-s tau0)
    g_s = (dh_p/ds h_s + h_p dh_s/ds) exp(-s tau0)

    The full s-derivative of g is g_s - tau0 * g.
    """
    s = complex(s)
    e0 = _delay_scalar(s, spec.tau0)
    hp, hs = eval_hp(spec, s), eval_hs(spec, s)
    g = hp * hs * e0
    g_s = (eval_dhp_ds(spec, s) * hs + hp * eval_dhs_ds(spec, s)) * e0
    return g, g_s


def slot_matrices(model, derivatives=None):
    """The slots (E, A0, A_1, ..., A_mu) of ``model``, followed by their
    parameter derivatives (dE, dA0, dA_1, ..., dA_mu) if ``derivatives`` is
    given: dense ndarrays below ``DENSE_MAX_DIM``, the stored csr matrices
    from it up."""
    mats = [model.E, model.A0] + [A for _, A in model.delay_terms]
    if derivatives is not None:
        mats += [derivatives.dE, derivatives.dA0, *derivatives.dA_terms]
    if model.r < DENSE_MAX_DIM:
        return tuple(M.toarray() for M in mats)
    return tuple(mats)


@dataclass(frozen=True)
class SplitForm:
    """P(s, p) at one p: ``slots`` holds blocks of n = mu + 2 slot matrices
    (E, A0, A_1, ..., A_mu), concatenated, and block j enters P with the
    scalar weight ``weights[j]`` and dP/dp with ``dweights[j]``:

        P(s, p) = sum_j weights[j] sum_k c_k(s) M_{j,k}.

    ``taus`` are the delays at this p; ``delay_index`` (the delay that is
    p) and ``wams`` (the WAMS shaping of the single delayed term) select
    the kernel of :func:`coefficients`.
    """

    slots: tuple
    weights: tuple
    dweights: tuple
    taus: tuple
    delay_index: int | None = None
    wams: WamsSpec | None = None

    def __post_init__(self):
        if self.wams is not None and (self.mu != 1
                                      or self.delay_index is not None):
            raise ConfigurationError(
                f"WAMS shaping needs exactly one delay term, which is not "
                f"the parameter; got mu={self.mu}, delay_index="
                f"{self.delay_index}"
            )

    @property
    def mu(self):
        return len(self.taus)

    @property
    def r(self):
        return self.slots[0].shape[0]


def split_form(model, derivatives=None, delay_index=None, wams=None):
    """The :class:`SplitForm` of one model with weight 1, followed by the
    block of its ``derivatives``, which enters dP/dp alone."""
    pair = derivatives is not None
    return SplitForm(
        slots=slot_matrices(model, derivatives),
        weights=(1.0, 0.0) if pair else (1.0,),
        dweights=(0.0, 1.0) if pair else (0.0,),
        taus=model.taus, delay_index=delay_index, wams=wams,
    )


def coefficients(form, s):
    """Scalar coefficients (c, c_s, c_p) of the split form at s.

    Over ``form.slots``, P(s) = sum_k c[k] M_k, dP/ds = sum_k c_s[k] M_k
    and dP/dp = sum_k c_p[k] M_k.  Within a block the delayed slots take
    the constant-delay kernel exp(-s tau_j), unless ``form.wams`` shapes
    the single delayed term or ``form.delay_index`` names the delay whose
    magnitude is p, which adds -d/dp exp(-s p) to dP/dp.  The delayed
    matrices of such a family do not depend on p, so the weight slopes
    ``form.dweights`` carry only E and A0.  Raises
    :class:`SingularityError` when a kernel overflows or hits a pole of the
    transfer functions.
    """
    s = complex(s)
    if form.wams is None:
        kernels = [_delay_scalar(s, tau) for tau in form.taus]
        slopes = [-tau * e for tau, e in zip(form.taus, kernels)]
    else:
        g, g_s = transfer_scalars(form.wams, s)
        kernels, slopes = [g], [g_s - form.wams.tau0 * g]
    c = [s, -1.0] + [-e for e in kernels]
    c_s = [1.0, 0.0] + [-d for d in slopes]
    c_p = [0.0] * len(c)
    dc = c
    if form.delay_index is not None:
        c_p[2 + form.delay_index] = s * kernels[form.delay_index]
        dc = [s, -1.0] + [0.0] * form.mu
    blocks = list(zip(form.weights, form.dweights))
    return ([w * x for w, _ in blocks for x in c],
            [w * x for w, _ in blocks for x in c_s],
            [w * x + dw * y for w, dw in blocks for x, y in zip(c_p, dc)])


def eval_P(mats, c):
    """The matrix sum_k c[k] mats[k] over the slots with a nonzero
    coefficient: P(s) for the coefficients ``c`` of :func:`coefficients`,
    dP/ds for ``c_s``.

    Dense or csr as the slots are; the csr pattern is the union of the
    patterns of the slots summed.  Raises :class:`SingularityError` on a
    nonfinite entry.
    """
    P = None
    for ck, M in zip(c, mats):
        if ck != 0.0:
            P = ck * M if P is None else P + ck * M
    if not np.all(np.isfinite(P.data if sparse.issparse(P) else P)):
        raise SingularityError("nonfinite entries in P(s)")
    return P


def matvec(mats, c, x):
    """sum_k c[k] (mats[k] @ x) by matrix-vector products, skipping zero
    coefficients: P(s) x, P'(s) x or (dP/dp) x without forming the
    matrix."""
    y = np.zeros(len(x), dtype=complex)
    for ck, M in zip(c, mats):
        if ck != 0.0:
            y += ck * (M @ x)
    return y
