"""The bordered solve behind every continuation step and Newton step.

``bordered_solve`` factors only the r x r complex P; these tests hold it to
a dense solve of the full bordered matrix and, through
``conftest.real_slope``, to a sparse LU of the real split M
(``conftest.real_split``) that the continuation ODE is written in.
"""

import logging
import math
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
from delaytrack import charfun, spectral
from delaytrack.charfun import DENSE_MAX_DIM
from delaytrack.spectral import _factor, bordered_solve, refined_eigenpairs

from conftest import (
    complex_split_oracle,
    moving_delay,
    random_model_with_derivatives,
    random_state,
    real_slope,
    system_as_dense,
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


def assert_meets_target(P, w, phi, f, t, x, ds):
    """The contract of every sparse solve: a bordered residual of at most
    1e-13 ||(f, t)||, computed as bordered_solve computes it."""
    res = math.hypot(np.linalg.norm(f - P @ x - w * ds), abs(t - phi @ x))
    assert res <= 1e-13 * math.hypot(np.linalg.norm(f), abs(t))


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

    def test_zero_pivot_nudge_is_logged(self, caplog):
        # the exactly singular P of test_exact_zero_pivot_is_not_singular
        r = 60
        upper = sparse.triu(sparse.random(r, r, density=0.1, random_state=2),
                            k=1)
        P = sparse.csr_array(sparse.diags(np.arange(r, dtype=float)) + upper,
                             dtype=complex)
        with caplog.at_level(logging.WARNING, logger="delaytrack"):
            _factor(P)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        nudge = 1e-14 * (r - 1)  # 1e-14 relative to max |P_ij| = r - 1
        assert f"{r} x {r}" in record.getMessage()
        assert f"{nudge:.3g}" in record.getMessage()

    def test_regular_factor_logs_nothing(self, caplog):
        P = sparse.csr_array(3.0 * sparse.eye_array(5), dtype=complex)
        with caplog.at_level(logging.WARNING, logger="delaytrack"):
            _factor(P)
        assert caplog.records == []

    @pytest.mark.parametrize("offset", [0.0, 1e-3 + 1e-3j],
                             ids=["at_eigenvalue", "one_step_away"])
    def test_pivoted_factor_near_an_eigenvalue(self, offset):
        # on the sparse path P(s*) is numerically singular and P^-1 P'(s*)
        # phi is huge; the threshold-pivoted factor plus one refinement
        # step must still match a dense solve of the bordered matrix
        model = dt.rand_ddae(300, 210, 0.02, 2, seed=5)
        assert model.r >= DENSE_MAX_DIM
        form = dt.split_form(model)
        pair = refined_eigenpairs(form, 8, -1.0 + 1.0j, 6, tol=1e-12)[0]
        s = pair.s + offset
        c, c_s, _ = charfun.coefficients(form, s)
        P = charfun.eval_P(form.slots, c)
        assert sparse.issparse(P)
        w = charfun.slot_products(form.slots, pair.phi)(c_s)
        rng = np.random.default_rng(5)
        f, t = cvec(rng, model.r), 0.3 - 0.1j
        x, ds = bordered_solve(P, w, pair.phi, f, t)
        assert_meets_target(P, w, pair.phi, f, t, x, ds)
        xd, dsd = dense_bordered(P, w, pair.phi, f, t)
        got, want = np.append(x, ds), np.append(xd, dsd)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_fresh_factor_that_does_not_contract_is_singular(self,
                                                             monkeypatch):
        # a "fresh" factor of 2P: each pass only halves the residual, so
        # the target is out of reach within HELD_SOLVES and the solve
        # must fail rather than return what its passes gave
        P, w, phi, f, t = pair_system(1e-3 + 1e-3j)
        monkeypatch.setattr(spectral, "_factor",
                            lambda P: splu(sparse.csc_array(2.0 * P)))
        with pytest.raises(SingularSystemError, match="residual ratio"):
            bordered_solve(P, w, phi, f, t)

    @pytest.mark.parametrize("as_sparse, dtype", [
        pytest.param(True, complex, id="True"),
        pytest.param(False, complex, id="False"),
        pytest.param(True, float, id="True-real"),
        pytest.param(False, float, id="False-real"),
    ])
    def test_zero_schur_complement_is_singular(self, as_sparse, dtype):
        # P = I, w = e0, phi = e1: phi^T P^-1 w = 0 and the bordered matrix
        # [[I, e0], [e1^T, 0]] is singular; the dense LU meets an exactly
        # zero pivot
        r = 4
        P = sparse.eye_array(r, dtype=dtype, format="csr")
        e0, e1 = np.eye(r)[0], np.eye(r)[1]
        with pytest.raises(np.linalg.LinAlgError):
            dense_bordered(P, e0, e1, np.ones(r), 0.0)
        match = "Schur complement" if as_sparse else "LAPACK info [1-9]"
        with pytest.raises(SingularSystemError, match=match):
            bordered_solve(P if as_sparse else P.toarray(), e0, e1,
                           np.ones(r), 0.0)

    @pytest.mark.parametrize("as_sparse, dtype, where", [
        pytest.param(True, complex, "f", id="True"),
        pytest.param(False, complex, "f", id="False"),
        pytest.param(True, float, "f", id="True-real"),
        pytest.param(False, float, "f", id="False-real"),
        pytest.param(False, float, "P", id="False-real-nan-P"),
    ])
    def test_nonfinite_result_is_singular(self, as_sparse, dtype, where):
        # an infinite right-hand side, or a NaN inside P: on the dense path
        # LAPACK reports no zero pivot (info 0) and the result is nonfinite
        r = 3
        P = np.eye(r, dtype=dtype)
        f = np.array([1.0, np.inf, 0.0])
        if where == "P":
            P[1, 2], f[1] = np.nan, 1.0
        match = "residual ratio" if as_sparse else "LAPACK info 0"
        with pytest.raises(SingularSystemError, match=match):
            bordered_solve(sparse.csr_array(P) if as_sparse else P,
                           np.ones(r), np.ones(r), f, 0.0)

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


def pair_system(s_offset):
    """Bordered system of the r = 300 rand_ddae model at a refined
    eigenvalue moved by ``s_offset``, with a random right-hand side."""
    model = dt.rand_ddae(300, 210, 0.02, 2, seed=5)
    form = dt.split_form(model)
    pair = refined_eigenpairs(form, 8, -1.0 + 1.0j, 6, tol=1e-12)[0]
    c, c_s, _ = charfun.coefficients(form, pair.s + s_offset)
    P = charfun.eval_P(form.slots, c)
    assert sparse.issparse(P)
    w = charfun.slot_products(form.slots, pair.phi)(c_s)
    rng = np.random.default_rng(8)
    return P, w, pair.phi, cvec(rng, model.r), 0.3 - 0.1j


class TestHeldFactor:
    """``bordered_solve`` on the factor of an earlier, nearby P refines
    against the exact P, and factors P afresh when that cannot work."""

    def test_stale_factor_matches_fresh(self, factor_count, caplog):
        # the factor at an eigenvalue serves the P one step of 1e-3 away,
        # where that eigenvalue makes it a poor preconditioner
        P0, *_ = pair_system(0.0)
        P, w, phi, f, t = pair_system(1e-3 + 1e-3j)
        held = dt.HeldFactor()
        held.lu = lu = _factor(P0)
        before = factor_count()
        with caplog.at_level(logging.DEBUG, logger="delaytrack"):
            x, ds = bordered_solve(P, w, phi, f, t, held)
        assert factor_count() == before and held.lu is lu
        assert caplog.records == []
        xf, dsf = bordered_solve(P, w, phi, f, t)
        assert_meets_target(P, w, phi, f, t, x, ds)
        assert_meets_target(P, w, phi, f, t, xf, dsf)
        got, want = np.append(x, ds), np.append(xf, dsf)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_unrelated_factor_is_dropped(self, factor_count, caplog):
        P, w, phi, f, t = pair_system(0.0)
        held = dt.HeldFactor()
        held.lu = stale = _factor(sparse.eye_array(P.shape[0],
                                                   format="csc"))
        before = factor_count()
        with caplog.at_level(logging.DEBUG, logger="delaytrack"):
            x, ds = bordered_solve(P, w, phi, f, t, held)
        assert factor_count() == before + 1
        assert held.lu is not stale
        assert_meets_target(P, w, phi, f, t, x, ds)
        xf, dsf = bordered_solve(P, w, phi, f, t)
        np.testing.assert_array_equal(x, xf)
        assert ds == dsf
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("dropped the held 300 x 300 factor after ")
        assert "solves (residual ratio " in message

    def test_exact_zero_pivot_with_a_held_factor(self):
        # the exactly singular P of test_exact_zero_pivot_is_not_singular,
        # reached from the held factor of a regular neighbour
        rng = np.random.default_rng(2)
        r = 60
        upper = sparse.triu(sparse.random(r, r, density=0.1, random_state=2),
                            k=1)
        P = sparse.csr_array(sparse.diags(np.arange(r, dtype=float)) + upper,
                             dtype=complex)
        held = dt.HeldFactor()
        held.lu = _factor(P + 0.5 * sparse.eye_array(r))
        w, phi, f = cvec(rng, r), cvec(rng, r), cvec(rng, r)
        x, ds = bordered_solve(P, w, phi, f, 0.3, held)
        xd, dsd = dense_bordered(P, w, phi, f, 0.3)
        assert np.abs(x - xd).max() <= 1e-12 * np.abs(xd).max()
        assert abs(ds - dsd) <= 1e-12 * abs(dsd)

    def test_only_a_fresh_factor_reports_a_singular_system(self):
        # the singular bordered matrix of test_zero_schur_complement_is_
        # singular: a held factor of 2I gives the same zero Schur
        # complement, which drops it; the fresh factor raises
        r = 4
        P = sparse.eye_array(r, dtype=complex, format="csr")
        e0, e1 = np.eye(r)[0], np.eye(r)[1]
        held = dt.HeldFactor()
        held.lu = _factor(2.0 * P)
        with pytest.raises(SingularSystemError):
            bordered_solve(P, e0, e1, np.ones(r), 0.0, held)

    def test_newton_divergence_with_a_held_factor(self):
        # the wandering Newton run of test_divergence_on_sparse_path_is_
        # reported_quietly, every iteration after the first on a held
        # factor: the zero Schur complement at s = 0 still ends it
        r = DENSE_MAX_DIM
        A0 = -2.0 * np.eye(r)
        A0[0, 0] = 0.0
        A1 = np.zeros((r, r))
        A1[0, 0] = -1.0
        model = dt.DelayedLinearModel(np.eye(r), A0, [(1.0, A1)])
        phi = np.eye(r, dtype=complex)[0]
        with pytest.raises(NonConvergenceError) as info:
            dt.refine_newton(dt.split_form(model), 5.0 + 0j, phi,
                             max_iter=20, held=dt.HeldFactor())
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
    "delay_param": dict(mu=3, kw={}),
    "wams": dict(mu=1, kw={"wams": dt.WamsSpec(tau0=0.02, p_dr=0.1, T=0.02,
                                                alpha=1e-3, b=2.0)}),
}


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
        if regime == "delay_param":  # delay 1 is p
            model, derivs = model.with_delay(1, p), moving_delay(derivs, 1)
        states = [random_state(r, seed=700 + k, p=p) for k in range(3)]
        if regime == "multi":
            states.append(eigenpair_state(model, p))
        for st in states:
            sys_ = dt.assemble(dt.split_form(model, derivs, **kw), st)
            assert sparse.issparse(sys_.P)
            dy = real_slope(sys_)
            M, h = system_as_dense(sys_)
            split = splu(sparse.csc_array(M)).solve(h)
            assert np.abs(dy - split).max() <= 1e-12 * np.abs(split).max()
            M, h = complex_split_oracle(model, derivs, st, **kw)
            oracle = np.linalg.solve(M, h)
            assert np.abs(dy - oracle).max() <= 1e-12 * np.abs(oracle).max()
