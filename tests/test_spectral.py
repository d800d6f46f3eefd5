import numpy as np
import pytest

import delaytrack as dt
from delaytrack.errors import ConfigurationError, NonConvergenceError

from conftest import HAYES_PRINCIPAL


def rightmost(pairs):
    return max(pairs, key=lambda e: e.s.real)


class TestDiscretize:
    def test_delay_free_degree_zero(self, quadratic_family):
        m = quadratic_family.evaluate(0.5)
        pen = dt.discretize(m, 0)
        np.testing.assert_array_equal(pen.SigmaA.toarray(), m.A0.toarray())
        np.testing.assert_array_equal(pen.SigmaE.toarray(), m.E.toarray())

    def test_dimension(self, hayes_model):
        pen = dt.discretize(hayes_model, 12)
        assert pen.SigmaA.shape == (13, 13)
        assert pen.dim == 13
        assert pen.nodes[0] == 0.0
        assert pen.nodes[-1] == pytest.approx(-1.0)

    def test_rejects_tiny_degree_with_delays(self, hayes_model):
        with pytest.raises(ConfigurationError):
            dt.discretize(hayes_model, 1)

    def test_hayes_rightmost_eigenvalue(self, hayes_model):
        pen = dt.discretize(hayes_model, 16)
        pairs = dt.solve_discretized(pen, 1.3j, 2)
        best = rightmost(pairs)
        assert abs(best.s - HAYES_PRINCIPAL) < 1e-6

    def test_spectral_convergence(self, hayes_model):
        errs = {}
        for N in (8, 16):
            pen = dt.discretize(hayes_model, N)
            best = rightmost(dt.solve_discretized(pen, 1.3j, 2))
            errs[N] = abs(best.s - HAYES_PRINCIPAL)
        assert errs[8] / errs[16] >= 10.0


class TestSolveDiscretized:
    def test_scalar_pair(self):
        # pencil (A0, E) = ([[-2]], [[1]]) has the single eigenvalue -2
        pen = dt.discretize(dt.DelayedLinearModel([[1.0]], [[-2.0]]), 0)
        pairs = dt.solve_discretized(pen, 0.0, 1)
        assert pairs[0].s == pytest.approx(-2.0)

    def test_rotation_pair(self):
        m = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        pairs = dt.solve_discretized(dt.discretize(m, 0), 1j, 2)
        vals = sorted((p.s for p in pairs), key=lambda z: z.imag)
        assert vals[0] == pytest.approx(-1j, abs=1e-12)
        assert vals[1] == pytest.approx(1j, abs=1e-12)

    def test_conjugate_pair_near_shift(self, hayes_model):
        pen = dt.discretize(hayes_model, 16)
        pairs = dt.solve_discretized(pen, 1j, 2)
        ss = sorted((p.s for p in pairs), key=lambda z: z.imag)
        assert ss[1] == pytest.approx(HAYES_PRINCIPAL, abs=1e-6)
        assert ss[0] == pytest.approx(HAYES_PRINCIPAL.conjugate(), abs=1e-6)

    def test_residuals_reported(self, hayes_model):
        pen = dt.discretize(hayes_model, 16)
        for pair in dt.solve_discretized(pen, 1.3j, 2):
            assert pair.residual < 1e-8

    def test_sparse_path_matches_dense(self, hayes_model):
        import delaytrack.charfun as charfun

        pen = dt.discretize(hayes_model, 24)
        dense = dt.solve_discretized(pen, 1.3j, 2)
        old = charfun.DENSE_MAX_DIM
        charfun.DENSE_MAX_DIM = 0
        try:
            sparse_pairs = dt.solve_discretized(pen, 1.3j, 2)
        finally:
            charfun.DENSE_MAX_DIM = old
        a = sorted((p.s for p in dense), key=lambda z: z.imag)
        b = sorted((p.s for p in sparse_pairs), key=lambda z: z.imag)
        for x, y in zip(a, b):
            assert abs(x - y) < 1e-8


class TestLift:
    def test_delay_free_identity(self, quadratic_family):
        m = quadratic_family.evaluate(0.5)
        pen = dt.discretize(m, 0)
        v = np.array([1.0 + 2j, -0.5 + 0j])
        np.testing.assert_array_equal(dt.lift_eigenvector(pen, v), v)

    def test_endpoint_block_first(self, hayes_model):
        pen = dt.discretize(hayes_model, 8)
        v = np.arange(pen.dim, dtype=complex)
        np.testing.assert_array_equal(dt.lift_eigenvector(pen, v), v[:1])

    def test_hayes_endpoint_nonzero(self, hayes_model):
        pen = dt.discretize(hayes_model, 16)
        pair = rightmost(dt.solve_discretized(pen, 1.3j, 2))
        phi = dt.lift_eigenvector(pen, pair.phi)
        assert abs(phi[0]) > 1e-3


class TestRefineNewton:
    def test_exact_root_is_fixed_point(self):
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(np.pi / 2, [[-1.0]])])
        out = dt.refine_newton(dt.split_form(m), 1j, np.array([1.0 + 0j]),
                               tol=1e-10)
        assert abs(out.s - 1j) < 1e-10
        assert out.residual <= 1e-10

    def test_hayes_convergence_budget(self, hayes_model):
        # quadratic convergence from a loose start
        out = dt.refine_newton(
            dt.split_form(hayes_model), -0.3 + 1.3j, np.array([1.0 + 0j]),
            tol=1e-10, max_iter=6,
        )
        assert abs(out.s - HAYES_PRINCIPAL) < 1e-10
        phi = out.phi
        assert abs(phi @ phi - 1.0) <= 1e-10

    def test_divergence_reported(self, hayes_model):
        with pytest.raises(NonConvergenceError) as info:
            dt.refine_newton(
                dt.split_form(hayes_model), 5.0 + 0j, np.array([1.0 + 0j]),
                max_iter=20,
            )
        assert info.value.residual is not None

    def test_conjugate_closure(self, hayes_model):
        up = dt.refine_newton(dt.split_form(hayes_model), -0.3 + 1.3j,
                              np.array([1.0 + 0j]))
        down = dt.refine_newton(
            dt.split_form(hayes_model), up.s.conjugate(), up.phi.conjugate()
        )
        assert abs(down.s - up.s.conjugate()) < 1e-10

    def test_refined_invariants_on_random_candidates(self, hayes_model):
        pen = dt.discretize(hayes_model, 16)
        for pair in dt.solve_discretized(pen, 1.3j, 4):
            phi0 = dt.lift_eigenvector(pen, pair.phi)
            out = dt.refine_newton(dt.split_form(hayes_model), pair.s, phi0,
                                   tol=1e-10)
            assert out.residual <= 1e-10
            assert abs(out.phi @ out.phi - 1.0) <= 1e-10
