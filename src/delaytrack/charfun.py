"""Characteristic matrix function of a delayed model, in split form.

The eigenvalues of a linear DDAE are the complex numbers s at which

    P(s) = s E - A0 - sum_j A_j exp(-s tau_j)

is singular.  P is held in split form,

    P(s, p) = sum_j w_j(p) sum_k c_k(s, p) M_{j,k},

over blocks j of slots M_j = (E, A0, A_1, ..., A_mu) taken from anchor
models: only the scalar weights w_j and coefficients c_k depend on s and p,
so the sparsity pattern of the inputs is preserved and no matrix is built
per parameter value.
The coefficient of a delayed slot is minus one of two kernels:

- exp(-s tau_j(p)) for a delay at tau_j(p), which moves with the slope
  dtau_j/dp (zero for a constant delay);
- h_p(s) h_s(s) exp(-s tau0) for wide-area measurement (WAMS) latency with
  packet dropouts and Gamma-distributed noise, where the scalar transfer
  functions h_p and h_s shape the single delayed term.

:func:`coefficients` is the only place that knows how a kernel enters
P(s), dP/ds and dP/dp.  A :class:`SplitForm` is the one description of P
at one p that every consumer takes: families build their slots once and
return a form per p, and :func:`split_form` wraps a single model.
Below ``DENSE_MAX_DIM`` the slots are one real (n, r, r) stack, so a
combination of them is a real matrix product; from it up they are a
tuple of csr matrices.
:func:`coefficients` gives the rows of P, dP/ds and dP/dp as one (3, n)
array c; :func:`eval_P` forms a matrix from a row, and
:func:`slot_products` gives the (n, r) array Y of the products M_k x, so
that the rows apply to x all at once as c @ Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularityError

# exp() overflows shortly above this; treat as a nonfinite evaluation
_EXP_MAX = 700.0

# the one dense/sparse crossover: below this dimension the slots, and so
# P(s), are dense ndarrays and the collocation pencil goes to dense QZ;
# from it up the slots stay csr, P(s) is factored by sparse LU and the
# pencil by shift-invert Arnoldi.  Measured on rand_ddae models (OpenBLAS,
# 1 thread, 2-CPU x86-64 Linux): dense QZ against shift-invert crosses
# below pencil dimension 72 (4.7-5.6 vs 2.5-4.3 ms there, 18-20 vs
# 3.1-3.5 ms at 130; timed with Arnoldi run to machine precision, and
# stopping it at the polish tol only favours shift-invert further);
# one bordered step, the assembly of P(s), P'(s) phi and -(dP/dp) phi
# plus the bordered solve, re-timed with stacked dense slots against csr
# slots and the threshold-pivoted factor of spectral._factor (ranges over
# 3 models with mu = 2, two runs): dense 0.34-0.52 vs sparse 1.30-1.97 ms
# at r = 100 (0.85-1.35 ms on a held factor), 0.73-1.15 vs 1.59-2.19 ms
# (held 1.17-1.79) at r = 150 and 1.34-1.97 vs 1.84-2.47 ms (held
# 1.07-1.90) at r = 200; the solve alone crosses between r = 150
# (0.55-0.73 vs 0.52-0.86 ms) and r = 200 (0.86-1.37 vs 0.85-1.12 ms).
# 128 lies between the QZ and the step crossovers.
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
        if not 0.0 <= self.tau0 < np.inf:
            raise ConfigurationError("tau0 must lie in [0, inf)")
        if not 0.0 <= self.p_dr < 1.0:
            raise ConfigurationError("p_dr must lie in [0, 1)")
        if not 0.0 < self.T < np.inf:
            raise ConfigurationError("delivery period T must lie in (0, inf)")
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.b < np.inf):
            raise ConfigurationError("alpha and b must lie in [0, inf)")

    @classmethod
    def constant_delay(cls, tau0):
        """Spec for the constant-delay degeneration (no dropouts, no noise)."""
        return cls(tau0=tau0, constant_limit=True)


def _packet_dropout(spec, s):
    """(h_p, dh_p/ds) at s, from q = 1 - p_dr, e = exp(-sT),
    D = 1 - p_dr e and u = 1 - q e / D, each taken once; raises at the
    poles of h_p."""
    if spec.constant_limit:
        return 1.0 + 0.0j, 0.0 + 0.0j
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
    u = 1.0 - q * e / den
    return (q / s) * u, -q * u / (s * s) + q * q * spec.T * e / (s * den * den)


def _gamma_noise(spec, s):
    """(h_s, dh_s/ds) at s, from one base 1 + alpha s/(1 - p_dr); raises
    at the pole of h_s and on its branch cut."""
    if spec.constant_limit or spec.b == 0.0 or spec.alpha == 0.0:
        return 1.0 + 0.0j, 0.0 + 0.0j
    base = 1.0 + spec.alpha * complex(s) / (1.0 - spec.p_dr)
    if abs(base) < 1e-150:
        raise SingularityError("h_s base vanishes; pole of the noise shaping")
    frac = abs(spec.b - round(spec.b)) > 1e-12
    if frac and base.real < 0.0 and abs(base.imag) <= 1e-14 * abs(base.real):
        raise SingularityError(
            "h_s base on the negative real branch cut with non-integer b"
        )
    c = spec.alpha / (1.0 - spec.p_dr)
    return base ** (-spec.b), -spec.b * c * base ** (-spec.b - 1.0)


def eval_hp(spec, s):
    """Packet-dropout transfer function.

    h_p(s) = (1 - p_dr)/s * [1 + (p_dr - 1) exp(-sT) / (1 - p_dr exp(-sT))]
    """
    return _packet_dropout(spec, s)[0]


def eval_dhp_ds(spec, s):
    """Analytic s-derivative of :func:`eval_hp`.

    With q = 1 - p_dr, D = 1 - p_dr exp(-sT) and u = 1 - q exp(-sT)/D the
    quotient rule collapses (D + p_dr exp(-sT) = 1) to

        dh_p/ds = -q u / s^2 + q^2 T exp(-sT) / (s D^2).
    """
    return _packet_dropout(spec, s)[1]


def eval_hs(spec, s):
    """Gamma-noise transfer function (1 + alpha s/(1 - p_dr))^(-b).

    Uses the principal branch of the complex power; b may be non-integer.
    """
    return _gamma_noise(spec, s)[0]


def eval_dhs_ds(spec, s):
    """Analytic s-derivative of :func:`eval_hs`:
    -b * alpha/(1-p_dr) * base^(-b-1)."""
    return _gamma_noise(spec, s)[1]


def transfer_scalars(spec, s):
    """Scalar pair (g, g_s): the shaped delay factor and its h-part slope.

    g   = h_p(s) h_s(s) exp(-s tau0)
    g_s = (dh_p/ds h_s + h_p dh_s/ds) exp(-s tau0)

    The full s-derivative of g is g_s - tau0 * g.  Each transfer function
    and its derivative come from one evaluation.
    """
    s = complex(s)
    e0 = _delay_scalar(s, spec.tau0)
    (hp, dhp), (hs, dhs) = _packet_dropout(spec, s), _gamma_noise(spec, s)
    return hp * hs * e0, (dhp * hs + hp * dhs) * e0


def slot_matrices(model, derivatives=None):
    """The slots (E, A0, A_1, ..., A_mu) of ``model``, followed by their
    parameter derivatives (dE, dA0, dA_1, ..., dA_mu) if ``derivatives`` is
    given.

    Below ``DENSE_MAX_DIM`` they are one real (n, r, r) ndarray, written
    slot by slot with slot k at index k, so that :func:`eval_P` and
    :func:`slot_products` combine them by one real matrix product each;
    from it up they are the tuple of the stored csr matrices.  Stacks are
    joined with ``np.concatenate``: ``+`` would add two ndarray stacks
    elementwise."""
    mats = [model.E, model.A0] + [A for _, A in model.delay_terms]
    if derivatives is not None:
        mats += [derivatives.dE, derivatives.dA0, *derivatives.dA_terms]
    if model.r < DENSE_MAX_DIM:
        stack = np.empty((len(mats), model.r, model.r))
        for M, out in zip(mats, stack):
            M.toarray(out=out)
        return stack
    return tuple(mats)


class SplitForm:
    """P(s, p) at one p: ``slots`` holds blocks of n = mu + 2 slot matrices
    (E, A0, A_1, ..., A_mu), concatenated (the real stack or the csr tuple
    of :func:`slot_matrices`), and block j enters P with the scalar weight
    ``weights[j]`` and dP/dp with ``dweights[j]``:

        P(s, p) = sum_j weights[j] sum_k c_k(s) M_{j,k}.

    ``taus`` are the delays at this p and ``dtaus`` their slopes
    dtau_j/dp, one per delay (empty: none moves, stored as zeros);
    ``wams`` shapes the single delayed term, whose delay must then be
    fixed.  A plain record, checked once on construction: a family builds
    one at every p.
    """

    __slots__ = ("slots", "weights", "dweights", "taus", "dtaus", "wams")

    def __init__(self, slots, weights, dweights, taus, dtaus=(), wams=None):
        if dtaus and len(dtaus) != len(taus):
            raise ConfigurationError(
                f"{len(dtaus)} delay slopes for {len(taus)} delays"
            )
        if wams is not None and (len(taus) != 1 or any(dtaus)):
            raise ConfigurationError(
                f"WAMS shaping needs exactly one delay term, which is "
                f"fixed; got mu={len(taus)}, dtaus={dtaus}"
            )
        self.slots, self.weights, self.dweights = slots, weights, dweights
        self.taus, self.dtaus = taus, dtaus or (0.0,) * len(taus)
        self.wams = wams

    @property
    def mu(self):
        return len(self.taus)

    @property
    def r(self):
        return self.slots[0].shape[0]


def split_form(model, derivatives=None, wams=None):
    """The :class:`SplitForm` of one model with weight 1, followed by the
    block of its ``derivatives``, which enters dP/dp alone together with
    their delay slopes."""
    pair = derivatives is not None
    return SplitForm(
        slots=slot_matrices(model, derivatives),
        weights=(1.0, 0.0) if pair else (1.0,),
        dweights=(0.0, 1.0) if pair else (0.0,),
        taus=model.taus, dtaus=derivatives.dtaus if pair else (),
        wams=wams,
    )


def coefficients(form, s):
    """The coefficient rows (c, c_s, c_p) of the split form at s, as one
    (3, n) ndarray.

    Over ``form.slots``, P(s) = sum_k c[k] M_k, dP/ds = sum_k c_s[k] M_k
    and dP/dp = sum_k c_p[k] M_k.  Within a block the delayed slots take
    the kernel exp(-s tau_j), unless ``form.wams`` shapes the single
    delayed term; a delay that moves adds -d/dp exp(-s tau_j(p)) =
    s exp(-s tau_j) dtau_j/dp to dP/dp, and the weight slopes
    ``form.dweights`` carry every slot.  Raises :class:`SingularityError`
    when a kernel overflows or hits a pole of the transfer functions.

    The array is real for a float s on a form without WAMS shaping and
    complex otherwise: the type of s is the one decision.  It is built
    from one flat list of its 3 n entries.
    """
    if form.wams is None:
        c, c_s, c_p = [s, -1.0], [1.0, 0.0], [0.0, 0.0]
        for tau, dtau in zip(form.taus, form.dtaus):
            e = _delay_scalar(s, tau)
            c += [-e]
            c_s += [tau * e]
            c_p += [s * e * dtau]
    else:
        s = complex(s)
        g, g_s = transfer_scalars(form.wams, s)
        c, c_p = [s, -1.0, -g], [0.0, 0.0, 0.0]  # the shaped delay is fixed
        c_s = [1.0, 0.0, form.wams.tau0 * g - g_s]
    blocks = tuple(zip(form.weights, form.dweights))
    flat = [w * x for row in (c, c_s) for w, _ in blocks for x in row]
    flat += [w * x + dw * y for w, dw in blocks for x, y in zip(c_p, c)]
    return np.array(flat).reshape(3, -1)


def eval_P(mats, c):
    """The matrix sum_k c[k] mats[k]: P(s) for the row ``c`` of
    :func:`coefficients`, dP/ds for ``c_s``.

    On a dense stack, one real product of the stack, as an (n, r r)
    matrix, with the real and imaginary parts of ``c``; real coefficients
    give a real matrix.  On csr slots, the sum over the slots with a
    nonzero coefficient, whose pattern is the union of theirs.  Raises
    :class:`SingularityError` on a nonfinite entry.
    """
    if isinstance(mats, np.ndarray):
        n, r, _ = mats.shape
        c = np.ascontiguousarray(c)
        if c.dtype.kind == "c":
            # columns (Re c, Im c) give (Re P, Im P) side by side, read
            # back as one complex array
            P = (mats.reshape(n, r * r).T @ c.view(float).reshape(n, 2)
                 ).view(complex)
        else:
            P = c @ mats.reshape(n, r * r)
        P = P.reshape(r, r)
        finite = np.isfinite(P)
    else:
        P = None
        for ck, M in zip(c, mats):
            if ck != 0.0:
                P = ck * M if P is None else P + ck * M
        finite = np.isfinite(P.data)
    if not finite.all():
        raise SingularityError("nonfinite entries in P(s)")
    return P


def slot_products(mats, x):
    """The (n, r) array Y whose row k is the slot product M_k x, so that
    one row ``c`` of :func:`coefficients` gives sum_k c[k] M_k x as
    ``c @ Y``, and the rows of P(s) and P'(s) give P(s) x and P'(s) x as
    one product.  On a dense stack, Y is one real product of the stack,
    as an (n r, r) matrix, with x or (Re x, Im x); on csr slots, one
    sparse product per slot.  A real x gives a real Y.
    """
    x = np.ascontiguousarray(x)
    if isinstance(mats, np.ndarray):
        n, r, _ = mats.shape
        if x.dtype.kind == "c":
            Y = mats.reshape(n * r, r) @ x.view(float).reshape(r, 2)
            return Y.view(complex).reshape(n, r)
        return (mats.reshape(n * r, r) @ x).reshape(n, r)
    return np.array([M @ x for M in mats])
