"""Shared fixtures, the independent complex-arithmetic oracle and the
assemblies that only checks use.

The oracle in this file deliberately re-derives everything with dense
complex numpy: it never calls the package's assembly, so the complex
bordered system and its real split check each other.  The sparse
collocation pair of :func:`pencil_pair` is the reference for the dense
pair that QZ reads and for shift-invert.
"""

import cmath
import os

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import spectral

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "fixtures")

# principal root of s + exp(-s) = 0, certified by |g(s)| < 1e-15
HAYES_PRINCIPAL = complex(-0.3181315052047641, 1.3372357014306895)


@pytest.fixture
def factor_count(monkeypatch):
    """Number of SuperLU factorizations so far."""
    calls = []
    factor = spectral.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(spectral, "splu", counting)
    return lambda: len(calls)


@pytest.fixture
def hayes_model():
    return dt.DelayedLinearModel([[1.0]], [[0.0]], [(1.0, [[-1.0]])])


@pytest.fixture
def hayes_family(hayes_model):
    return dt.DelayParameterFamily(hayes_model, 0, (0.5, 2.5))


@pytest.fixture
def quadratic_family():
    """Delay-free 2x2 rotation-damping family A0(p) = [[0,1],[-1,-p]]."""
    base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    slopes = dt.ModelDerivatives(
        np.zeros((2, 2)), [[0.0, 0.0], [0.0, -1.0]], []
    )
    return dt.AffineFamily(base, slopes, (0.05, 1.2))


@pytest.fixture
def coalescing_family():
    """Affine 2x2 family with eigenvalues -1 +/- sqrt(p - 1).

    A conjugate pair collapses onto the real axis at p = 1 and splits into
    two real branches (companion form of s^2 + 2 s + (2 - p)).
    """
    base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-2.0, -2.0]])
    slopes = dt.ModelDerivatives(
        np.zeros((2, 2)), [[0.0, 0.0], [1.0, 0.0]], []
    )
    return dt.AffineFamily(base, slopes, (0.2, 1.8))


def quadratic_eigenvalue(p):
    """Upper root of the rotation-damping family, (-p + sqrt(p^2-4))/2."""
    return (-p + cmath.sqrt(complex(p * p - 4.0, 0.0))) / 2.0


def random_model_with_derivatives(r, mu, seed, density=0.6):
    """Dense-ish random model plus independent random derivatives."""
    rng = np.random.default_rng(seed)

    def mat(scale=1.0):
        M = rng.standard_normal((r, r))
        M[rng.random((r, r)) > density] = 0.0
        return scale * M

    model = dt.DelayedLinearModel(
        mat() + 2.0 * np.eye(r),
        mat() - 2.0 * np.eye(r),
        [(float(rng.uniform(0.05, 1.5)), mat(0.5)) for _ in range(mu)],
    )
    derivs = dt.ModelDerivatives(mat(0.7), mat(0.7), [mat(0.7) for _ in range(mu)])
    return model, derivs


def moving_delay(derivs, index):
    """``derivs`` with delay ``index`` moving at dtau/dp = 1: the delay
    is the parameter."""
    dtaus = [0.0] * len(derivs.dA_terms)
    dtaus[index] = 1.0
    return dt.ModelDerivatives(derivs.dE, derivs.dA0, derivs.dA_terms, dtaus)


def random_state(r, seed, p=0.4):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    phi = phi / np.sqrt(phi @ phi)
    s = complex(rng.uniform(-2.0, 0.5), rng.uniform(-3.0, 3.0))
    return dt.TrackState.from_eigenpair(p, s, phi)


# --- independent transfer functions (raw quotient rule, no simplification)

def oracle_hp(spec, s):
    q = 1.0 - spec.p_dr
    e = cmath.exp(-s * spec.T)
    return (q / s) * (1.0 + (spec.p_dr - 1.0) * e / (1.0 - spec.p_dr * e))


def oracle_dhp_ds(spec, s):
    q = 1.0 - spec.p_dr
    e = cmath.exp(-s * spec.T)
    D = 1.0 - spec.p_dr * e
    u = 1.0 + (spec.p_dr - 1.0) * e / D
    # d/ds[e/D] by the raw quotient rule
    de = -spec.T * e
    dD = spec.p_dr * spec.T * e
    du = (spec.p_dr - 1.0) * (de * D - e * dD) / (D * D)
    return -q / (s * s) * u + (q / s) * du


def oracle_hs(spec, s):
    if spec.b == 0.0 or spec.alpha == 0.0:
        return 1.0 + 0.0j
    return (1.0 + spec.alpha * s / (1.0 - spec.p_dr)) ** (-spec.b)


def oracle_dhs_ds(spec, s):
    if spec.b == 0.0 or spec.alpha == 0.0:
        return 0.0 + 0.0j
    c = spec.alpha / (1.0 - spec.p_dr)
    return -spec.b * c * (1.0 + c * s) ** (-spec.b - 1.0)


def complex_split_oracle(model, derivs, state, wams=None):
    """(M, h) from the complex continuation equation, split independently.

    Builds P, the dsdp coefficient W = dP/ds, and the parameter forcing
    G = -dP/dp (explicit part) with dense complex arithmetic, then encodes
    the real form [[M1, M2], [M3, 0]] y' = h directly.  A delayed term
    A_j exp(-s tau_j) whose delay moves with slope dtau_j (``derivs.dtaus``)
    enters G by the chain rule, (dA_j - s dtau_j A_j) exp(-s tau_j).
    """
    r = model.r
    s = state.s
    phi = state.phi
    E = model.E.toarray().astype(complex)
    A0 = model.A0.toarray().astype(complex)
    dE = derivs.dE.toarray().astype(complex)
    dA0 = derivs.dA0.toarray().astype(complex)
    As = [A.toarray().astype(complex) for _, A in model.delay_terms]
    dAs = [dA.toarray().astype(complex) for dA in derivs.dA_terms]

    P = s * E - A0
    W = E.copy()
    G = -(s * dE - dA0)
    if wams is None:
        for tau, dtau, A, dA in zip(model.taus, derivs.dtaus, As, dAs):
            e = cmath.exp(-s * tau)
            P -= A * e
            W += tau * A * e
            G += dA * e - s * dtau * A * e
    else:
        A1, dA1 = As[0], dAs[0]
        if wams.constant_limit:
            hp = hs = 1.0 + 0.0j
            dhp = dhs = 0.0 + 0.0j
        else:
            hp, hs = oracle_hp(wams, s), oracle_hs(wams, s)
            dhp, dhs = oracle_dhp_ds(wams, s), oracle_dhs_ds(wams, s)
        e0 = cmath.exp(-s * wams.tau0)
        g = hp * hs * e0
        dg = (dhp * hs + hp * dhs) * e0 - wams.tau0 * g
        P -= g * A1
        W -= dg * A1
        G += g * dA1

    return real_split(P, W @ phi, phi, G @ phi)


def real_split(P, w, phi, g):
    """(M, h) of the real split [[M1, M2], [M3, 0]] y' = h, in y = (phi_r,
    phi_i, s_r, s_i), of the complex bordered system [[P, w], [phi^T, 0]]
    [dphi; ds] = [g; 0], dense: M1 = [[X, -Y], [Y, X]] with P = X + iY,
    M2 = [[wR, -wI], [wI, wR]] (columns), M3 = [[fr, -fi], [fi, fr]]
    (rows)."""
    r = len(phi)
    M = np.zeros((2 * r + 2, 2 * r + 2))
    M[:r, :r] = P.real
    M[:r, r:2 * r] = -P.imag
    M[r:2 * r, :r] = P.imag
    M[r:2 * r, r:2 * r] = P.real
    M[:r, 2 * r] = w.real
    M[:r, 2 * r + 1] = -w.imag
    M[r:2 * r, 2 * r] = w.imag
    M[r:2 * r, 2 * r + 1] = w.real
    M[2 * r, :r] = phi.real
    M[2 * r, r:2 * r] = -phi.imag
    M[2 * r + 1, :r] = phi.imag
    M[2 * r + 1, r:2 * r] = phi.real
    h = np.concatenate([g.real, g.imag, [0.0, 0.0]])
    return M, h


def unstack(z):
    """(x, ds) of the stacked solution (x; ds) of ``bordered_solve``."""
    assert z.ndim == 1
    return z[:-1], z[-1]


def real_slope(system):
    """Real split (dphi_r, dphi_i, ds_r, ds_i) of the continuation slope
    that ``spectral.bordered_solve`` returns for ``system``."""
    x, ds = unstack(spectral.bordered_solve(system.P, system.w,
                                            system.phi, system.g, 0.0))
    return np.concatenate([x.real, x.imag, [ds.real, ds.imag]])


def system_as_dense(system):
    """(M, h) of :func:`real_split` for an assembled system."""
    P = system.P
    P = P.toarray() if sparse.issparse(P) else np.asarray(P)
    return real_split(P, system.w, system.phi, system.g)


def pencil_pair(pencil):
    """(SigmaA, SigmaE) of a :class:`DiscretizedPencil` as csr, summed as
    Kronecker products: Dt[1:] kron I below, and e_0 kron A0 + sum_j
    l_j kron A_j on top; SigmaE = diag(E, I)."""
    rows = np.zeros((len(pencil.slots) - 1, pencil.N + 1, pencil.N + 1))
    rows[0, 0, 0] = 1.0
    rows[1:, 0, :] = pencil.delay_rows
    interior = pencil.Dt.copy()
    interior[0] = 0.0
    A = sparse.kron(interior, sparse.eye_array(pencil.r))
    for row, Aj in zip(rows, pencil.slots[1:]):
        A = A + sparse.kron(row, Aj)
    identity = sparse.eye_array(pencil.N * pencil.r)
    E = sparse.block_diag([pencil.slots[0], identity])
    return sparse.csr_array(A), sparse.csr_array(E)
