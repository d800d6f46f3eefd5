import logging

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, spectral
from delaytrack.errors import ConfigurationError, NonConvergenceError

from conftest import HAYES_PRINCIPAL, pencil_pair


def rightmost(pairs):
    return max(pairs, key=lambda e: e.s.real)


@pytest.mark.parametrize("call, match", [
    (lambda form: dt.solve_discretized(dt.discretize(form, 8), 0j, 0),
     "count must be at least 1"),
    (lambda form: dt.refine_newton(form, -0.3 + 1.3j, np.ones(2)),
     "has length 2, expected 1"),
    (lambda form: dt.refine_newton(form, -0.3 + 1.3j, np.zeros(1)),
     "must be nonzero"),
], ids=["count", "guess-length", "guess-zero"])
def test_rejected_inputs(hayes_model, call, match):
    with pytest.raises(ConfigurationError, match=match):
        call(dt.split_form(hayes_model))


class TestDiscretize:
    def test_delay_free_degree_zero(self, quadratic_family):
        m = quadratic_family.evaluate(0.5)
        pen = dt.discretize(dt.split_form(m), 0)
        A, B = pencil_pair(pen)
        np.testing.assert_array_equal(A.toarray(), m.A0.toarray())
        np.testing.assert_array_equal(B.toarray(), m.E.toarray())

    def test_dimension(self, hayes_model):
        pen = dt.discretize(dt.split_form(hayes_model), 12)
        assert pencil_pair(pen)[0].shape == (13, 13)
        assert pen.dim == 13
        assert pen.nodes[0] == 0.0
        assert pen.nodes[-1] == pytest.approx(-1.0)

    def test_rejects_tiny_degree_with_delays(self, hayes_model):
        with pytest.raises(ConfigurationError):
            dt.discretize(dt.split_form(hayes_model), 1)

    def test_hayes_rightmost_eigenvalue(self, hayes_model):
        pen = dt.discretize(dt.split_form(hayes_model), 16)
        pairs = dt.solve_discretized(pen, 1.3j, 2)
        best = rightmost(pairs)
        assert abs(best.s - HAYES_PRINCIPAL) < 1e-6

    def test_spectral_convergence(self, hayes_model):
        errs = {}
        for N in (8, 16):
            pen = dt.discretize(dt.split_form(hayes_model), N)
            best = rightmost(dt.solve_discretized(pen, 1.3j, 2))
            errs[N] = abs(best.s - HAYES_PRINCIPAL)
        assert errs[8] / errs[16] >= 10.0


class TestSolveDiscretized:
    def test_scalar_pair(self):
        # pencil (A0, E) = ([[-2]], [[1]]) has the single eigenvalue -2
        m = dt.DelayedLinearModel([[1.0]], [[-2.0]])
        pen = dt.discretize(dt.split_form(m), 0)
        pairs = dt.solve_discretized(pen, 0.0, 1)
        assert pairs[0].s == pytest.approx(-2.0)

    def test_rotation_pair(self):
        m = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        pen = dt.discretize(dt.split_form(m), 0)
        pairs = dt.solve_discretized(pen, 1j, 2)
        vals = sorted((p.s for p in pairs), key=lambda z: z.imag)
        assert vals[0] == pytest.approx(-1j, abs=1e-12)
        assert vals[1] == pytest.approx(1j, abs=1e-12)

    def test_conjugate_pair_near_shift(self, hayes_model):
        pen = dt.discretize(dt.split_form(hayes_model), 16)
        pairs = dt.solve_discretized(pen, 1j, 2)
        ss = sorted((p.s for p in pairs), key=lambda z: z.imag)
        assert ss[1] == pytest.approx(HAYES_PRINCIPAL, abs=1e-6)
        assert ss[0] == pytest.approx(HAYES_PRINCIPAL.conjugate(), abs=1e-6)

    def test_residuals_reported(self, hayes_model):
        pen = dt.discretize(dt.split_form(hayes_model), 16)
        for pair in dt.solve_discretized(pen, 1.3j, 2):
            assert pair.residual < 1e-8

    def test_sparse_path_matches_dense(self, hayes_model):
        import delaytrack.charfun as charfun

        pen = dt.discretize(dt.split_form(hayes_model), 24)
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
    """The endpoint block v[:r] of a pencil eigenvector approximates phi."""

    def test_delay_free_identity(self, quadratic_family):
        # at N = 0 the pencil is (A0, E): its eigenvector is phi itself
        m = quadratic_family.evaluate(0.5)
        pen = dt.discretize(dt.split_form(m), 0)
        assert pen.dim == pen.r
        for pair in dt.solve_discretized(pen, 0j, 2):
            v = pair.phi[: pen.r]
            P = pair.s * m.E.toarray() - m.A0.toarray()
            assert np.linalg.norm(P @ v) <= 1e-14 * np.linalg.norm(v)

    def test_endpoint_block_first(self, hayes_model):
        # block k holds the segment x(theta_k) = exp(s theta_k) phi, and
        # block 0 is the endpoint theta = 0
        pen = dt.discretize(dt.split_form(hayes_model), 16)
        pair = rightmost(dt.solve_discretized(pen, 1.3j, 2))
        V = pair.phi.reshape(pen.N + 1, pen.r)
        assert pen.nodes[0] == 0.0
        segment = np.exp(pair.s * pen.nodes)[:, None] * V[0]
        assert np.abs(V - segment).max() <= 1e-12 * np.abs(V).max()

    def test_hayes_endpoint_nonzero(self, hayes_model):
        pen = dt.discretize(dt.split_form(hayes_model), 16)
        pair = rightmost(dt.solve_discretized(pen, 1.3j, 2))
        phi = pair.phi[: pen.r]
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

    def test_isotropic_eigenvector_is_logged(self, hayes_model, caplog):
        # (1, j) of the pure rotation at s = j has phi^T phi = 0: returned
        # Euclidean-normalized, which is said once on the package logger
        m = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        with caplog.at_level(logging.WARNING, logger="delaytrack"):
            out = dt.refine_newton(dt.split_form(m), 1j,
                                   np.array([1.0, 1j]))
        assert np.linalg.norm(out.phi) == pytest.approx(1.0)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "isotropic" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="delaytrack"):
            dt.refine_newton(dt.split_form(hayes_model), -0.3 + 1.3j,
                             np.array([1.0 + 0j]))
        assert caplog.records == []

    def test_dropped_candidates_are_logged(self, caplog):
        # the WAMS demo model at p = 0: of the 4 pencil candidates nearest
        # 2j, the real one at -95.589 does not refine and one refines onto
        # a root already kept; each skip is one DEBUG record with its s
        A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
        m = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-4.0, -0.4]],
                                  [(0.05, A1)])
        spec = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
        with caplog.at_level(logging.DEBUG, logger="delaytrack"):
            pairs = spectral.refined_eigenpairs(dt.split_form(m, wams=spec),
                                                12, 2j, 4)
        root = -0.2081603748853673 + 1.990401190929069j
        assert [e.s for e in pairs] == pytest.approx(
            [root, root.conjugate()], abs=1e-12)
        failed, duplicate = (r.getMessage() for r in caplog.records)
        assert failed.startswith("candidate s=(-95.58")
        assert "NonConvergenceError" in failed
        assert "(residual 1.42" in failed
        assert "duplicate of a kept eigenvalue" in duplicate
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

    def test_refined_invariants_on_random_candidates(self, hayes_model):
        pen = dt.discretize(dt.split_form(hayes_model), 16)
        for pair in dt.solve_discretized(pen, 1.3j, 4):
            phi0 = pair.phi[: pen.r]
            out = dt.refine_newton(dt.split_form(hayes_model), pair.s, phi0,
                                   tol=1e-10)
            assert out.residual <= 1e-10
            assert abs(out.phi @ out.phi - 1.0) <= 1e-10


def _families(r):
    """An affine, a tabulated and a delay-parameter family of rand_ddae
    models of dimension r, each with the p at which to compare."""
    base = dt.rand_ddae(r, (7 * r) // 10, 0.1, 2, seed=3)
    step = dt.rand_ddae(r, (7 * r) // 10, 0.1, 2, seed=4)
    slopes = dt.ModelDerivatives(step.E, step.A0,
                                 [A for _, A in step.delay_terms])
    snaps = [
        (float(k), dt.DelayedLinearModel(
            base.E + k * step.E, base.A0 + k * step.A0,
            [(tau, A + k * k * B) for (tau, A), (_, B)
             in zip(base.delay_terms, step.delay_terms)],
        ))
        for k in range(3)
    ]
    return [
        (dt.AffineFamily(base, slopes, (0.0, 1.0)), 0.37),
        (dt.TabulatedFamily(snaps), 1.3),
        (dt.DelayParameterFamily(base, 1, (0.05, 0.5)), 0.2),
    ]


class TestSplitFormPencil:
    @pytest.mark.parametrize("r", [20, 130])
    def test_weighted_slots_match_the_evaluated_model(self, r):
        for family, p in _families(r):
            form = family.split_form(p)
            assert sparse.issparse(form.slots[0]) == (
                r >= charfun.DENSE_MAX_DIM
            )
            got = dt.discretize(form, 8)
            ref = dt.discretize(dt.split_form(family.evaluate(p)), 8)
            np.testing.assert_array_equal(got.nodes, ref.nodes)
            for a, b in zip(pencil_pair(got), pencil_pair(ref)):
                assert abs(a - b).max() <= 1e-14 * abs(b).max()

    def test_spectrum_at_builds_no_model(self, monkeypatch, hayes_family):
        model = dt.rand_ddae(130, 91, 0.05, 2, seed=5)
        family = dt.AffineFamily(model, dt.ModelDerivatives.zero(model),
                                 (0.0, 1.0))

        def refuse(self, *args, **kwargs):
            raise AssertionError("a DelayedLinearModel was built")

        monkeypatch.setattr(dt.DelayedLinearModel, "__init__", refuse)
        assert dt.spectrum_at(hayes_family, 1.0, N=16, shift=1.3j, count=2)
        assert dt.spectrum_at(family, 0.5, N=8, shift=-1 + 1j, count=4)
