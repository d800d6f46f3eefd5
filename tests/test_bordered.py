"""The bordered solve behind every continuation step and Newton step.

``bordered_solve`` factors only the r x r complex P; these tests hold it to
a dense solve of the full bordered matrix and, through ``_solve_system``,
to a sparse LU of the real split M that the continuation ODE is written in.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

import delaytrack as dt
from delaytrack.errors import (
    DefectiveEigenvalueError,
    NonConvergenceError,
    SingularSystemError,
)
from delaytrack.charfun import DENSE_MAX_DIM
from delaytrack.spectral import bordered_solve
from delaytrack.track import _solve_system

from conftest import (
    complex_split_oracle,
    random_model_with_derivatives,
    random_state,
)


def cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def dense_bordered(P, w, phi, f, t):
    r = P.shape[0]
    K = np.zeros((r + 1, r + 1), dtype=complex)
    K[:r, :r] = P.toarray() if sparse.issparse(P) else P
    K[:r, r] = w
    K[r, :r] = phi
    z = np.linalg.solve(K, np.append(f, t))
    return z[:r], z[r]


@pytest.fixture(autouse=True)
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


class TestBorderedSolve:
    @pytest.mark.parametrize("as_sparse", [True, False])
    def test_matches_dense_bordered_solve(self, as_sparse):
        rng = np.random.default_rng(1)
        r = 40
        A = sparse.random(r, r, density=0.1, random_state=3)
        P = sparse.csr_array((1 + 0.5j) * (A + 3 * sparse.eye(r)))
        w, phi, f = cvec(rng, r), cvec(rng, r), cvec(rng, r)
        x, ds = bordered_solve(
            P if as_sparse else P.toarray(), w, phi, f, 0.7 - 0.2j
        )
        xd, dsd = dense_bordered(P, w, phi, f, 0.7 - 0.2j)
        assert np.abs(x - xd).max() <= 1e-13 * np.abs(xd).max()
        assert abs(ds - dsd) <= 1e-13 * abs(dsd)

    def test_exact_zero_pivot_is_not_singular(self):
        # P is exactly singular (zero diagonal entry of a triangular matrix),
        # the bordered matrix is not: the solver nudges its factor and the
        # refinement against the exact P recovers the answer
        rng = np.random.default_rng(2)
        r = 60
        upper = sparse.triu(sparse.random(r, r, density=0.1, random_state=2),
                            k=1)
        P = sparse.csr_array(sparse.diags(np.arange(r, dtype=float)) + upper,
                             dtype=complex)
        with pytest.raises(RuntimeError):
            splu(P.tocsc())
        w, phi, f = cvec(rng, r), cvec(rng, r), cvec(rng, r)
        x, ds = bordered_solve(P, w, phi, f, 0.3)
        xd, dsd = dense_bordered(P, w, phi, f, 0.3)
        assert np.abs(x - xd).max() <= 1e-12 * np.abs(xd).max()
        assert abs(ds - dsd) <= 1e-12 * abs(dsd)

    @pytest.mark.parametrize("as_sparse", [True, False])
    def test_zero_schur_complement_is_singular(self, as_sparse):
        # P = I, w = e0, phi = e1: phi^T P^-1 w = 0 and the bordered matrix
        # [[I, e0], [e1^T, 0]] is singular
        r = 4
        P = sparse.eye_array(r, dtype=complex, format="csr")
        e0, e1 = np.eye(r)[0], np.eye(r)[1]
        with pytest.raises(np.linalg.LinAlgError):
            dense_bordered(P, e0, e1, np.ones(r), 0.0)
        with pytest.raises(SingularSystemError):
            bordered_solve(P if as_sparse else P.toarray(), e0, e1,
                           np.ones(r), 0.0)

    @pytest.mark.parametrize("as_sparse", [True, False])
    def test_nonfinite_result_is_singular(self, as_sparse):
        r = 3
        P = sparse.eye_array(r, dtype=complex, format="csr")
        f = np.array([1.0, np.inf, 0.0])
        with pytest.raises(SingularSystemError):
            bordered_solve(P if as_sparse else P.toarray(), np.ones(r),
                           np.ones(r), f, 0.0)

    def test_singular_jacobian_maps_to_newton_errors(self):
        # at s = 0 row 1 of P(s) = s I - A0 is zero and so is phi[1] = w[1]:
        # the bordered Newton Jacobian has a zero row.  Close to a root the
        # solver's SingularSystemError means a defective eigenvalue, far
        # from one a failed iteration.
        model = dt.DelayedLinearModel(
            np.eye(3), [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
        )
        with pytest.raises(DefectiveEigenvalueError):
            dt.refine_newton(dt.split_form(model), 0.0,
                             np.array([1.0, 0.0, 1e-9]))
        with pytest.raises(NonConvergenceError):
            dt.refine_newton(dt.split_form(model), 0.0,
                             np.array([1.0, 0.0, 0.5]))

    def test_divergence_on_sparse_path_is_reported_quietly(self):
        # the Hayes equation s + exp(-s) = 0 embedded in r = DENSE_MAX_DIM so that
        # Newton takes the sparse path; started on the real axis it wanders
        # to s = 0, where P'(s) phi = 0 zeroes the Schur complement
        r = DENSE_MAX_DIM
        A0 = -2.0 * np.eye(r)
        A0[0, 0] = 0.0
        A1 = np.zeros((r, r))
        A1[0, 0] = -1.0
        model = dt.DelayedLinearModel(np.eye(r), A0, [(1.0, A1)])
        phi = np.eye(r, dtype=complex)[0]
        with pytest.raises(NonConvergenceError) as info:
            dt.refine_newton(dt.split_form(model), 5.0 + 0j, phi, max_iter=20)
        assert info.value.residual is not None


def eigenpair_state(model, p=0.4):
    """A refined eigenpair of ``model``: P(s) is numerically singular and
    |P^-1 P'(s) phi| is of order 1e15, the case the refinement step exists
    for.  The seed comes from the delay-free pencil (A0, E)."""
    w, V = la.eig(model.A0.toarray(), model.E.toarray())
    i = int(np.argmin(np.abs(w - (-1.0 + 1.0j))))
    ref = dt.refine_newton(dt.split_form(model), w[i], V[:, i], tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi)


REGIMES = {
    "single": dict(mu=1, kw={}),
    "multi": dict(mu=3, kw={}),
    "delay_param": dict(mu=3, kw={"delay_index": 1}),
    "wams": dict(mu=1, kw={"wams": dt.WamsSpec(tau0=0.02, p_dr=0.1, T=0.02,
                                                alpha=1e-3, b=2.0)}),
}


def assemble(regime, model, derivs, st, kw):
    if regime == "delay_param":  # the varying delay has magnitude st.p
        model = model.with_delay(kw["delay_index"], st.p)
    return dt.assemble(dt.split_form(model, derivs, **kw), st)


class TestSparseSlope:
    """At r >= DENSE_MAX_DIM the slope comes from the sparse LU of
    P; it must match a sparse LU of the derived real split M and a dense
    solve of the independent complex-split oracle."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_slope_matches_real_split(self, regime):
        r = DENSE_MAX_DIM
        mu, kw = REGIMES[regime]["mu"], REGIMES[regime]["kw"]
        model, derivs = random_model_with_derivatives(
            r, mu, seed=70 + mu, density=0.02
        )
        p = 0.8 if regime == "delay_param" else 0.4
        states = [random_state(r, seed=700 + k, p=p) for k in range(3)]
        if regime == "multi":
            states.append(eigenpair_state(model, p))
        for st in states:
            sys_ = assemble(regime, model, derivs, st, kw)
            assert sparse.issparse(sys_.P)
            dy = _solve_system(sys_)
            split = splu(sys_.M.tocsc()).solve(sys_.h)
            assert np.abs(dy - split).max() <= 1e-12 * np.abs(split).max()
            M, h = complex_split_oracle(model, derivs, st, regime, **kw)
            oracle = np.linalg.solve(M, h)
            assert np.abs(dy - oracle).max() <= 1e-12 * np.abs(oracle).max()
