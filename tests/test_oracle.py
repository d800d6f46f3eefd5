import numpy as np
import pytest

import delaytrack as dt
from delaytrack.errors import ConfigurationError

from conftest import HAYES_PRINCIPAL


def one_sample():
    return dt.Trajectory(
        samples=[dt.TrackState.from_eigenpair(1.0, HAYES_PRINCIPAL, [1.0])]
    )


@pytest.mark.parametrize("call, error, match", [
    (lambda fam: dt.hayes_roots(0.0, -1.0, 0.0), ValueError, "tau"),
    (lambda fam: dt.hayes_roots(0.0, -1.0, -1.0), ValueError, "tau"),
    (lambda fam: dt.compare_trajectory(dt.Trajectory(), fam), ValueError,
     "empty trajectory"),
    (lambda fam: dt.compare_trajectory(one_sample(), fam, checkpoint_count=0),
     ConfigurationError, "checkpoint_count=0"),
], ids=["tau-zero", "tau-negative", "empty", "no-checkpoint"])
def test_rejected_inputs(hayes_family, call, error, match):
    with pytest.raises(error, match=match):
        call(hayes_family)


class TestHayesRoots:
    def test_principal_pair(self):
        roots = dt.hayes_roots(0.0, -1.0, 1.0, count=2)
        assert roots[0] == pytest.approx(HAYES_PRINCIPAL, abs=1e-10)
        assert roots[1] == pytest.approx(HAYES_PRINCIPAL.conjugate(),
                                         abs=1e-10)

    def test_delay_free_single_root(self):
        roots = dt.hayes_roots(-1.0, 0.0, 1.0, count=1)
        assert roots == [pytest.approx(-1.0)]

    def test_boundary_root_at_half_pi(self):
        roots = dt.hayes_roots(0.0, -1.0, np.pi / 2, count=2)
        assert roots[0] == pytest.approx(1j, abs=1e-12)
        g = roots[0] + np.exp(-roots[0] * np.pi / 2)
        assert abs(g) < 1e-12

    def test_residual_certification(self):
        for a, b, tau in ((0.0, -1.0, 1.0), (-0.5, -0.8, 0.6), (0.2, -2.0, 0.3)):
            for s in dt.hayes_roots(a, b, tau, count=6):
                assert abs(s - a - b * np.exp(-s * tau)) < 1e-12

    def test_shortfall_warning(self):
        with pytest.warns(UserWarning, match="distinct roots"):
            dt.hayes_roots(-1.0, 0.0, 1.0, count=5)


class TestSpectrumAt:
    def test_rotation_model(self):
        base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        slopes = dt.ModelDerivatives(np.zeros((2, 2)), np.zeros((2, 2)), [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        pairs = dt.spectrum_at(fam, 0.5, N=0, shift=0.5j, count=2)
        vals = sorted((p.s for p in pairs), key=lambda z: z.imag)
        assert vals[0] == pytest.approx(-1j, abs=1e-10)
        assert vals[1] == pytest.approx(1j, abs=1e-10)

    def test_hayes_principal_pair(self, hayes_family):
        pairs = dt.spectrum_at(hayes_family, 1.0, N=16, shift=1j, count=4)
        assert abs(pairs[0].s - HAYES_PRINCIPAL) < 1e-10
        assert all(p.residual <= 1e-10 for p in pairs)

    def test_analytic_boundary_pair(self, hayes_family):
        pairs = dt.spectrum_at(
            hayes_family, np.pi / 2, N=16, shift=1j, count=4
        )
        assert any(abs(p.s - 1j) < 1e-9 for p in pairs)


class TestCompareTrajectory:
    def run_hayes(self, hayes_family):
        model = hayes_family.evaluate(1.0)
        ref = dt.refine_newton(dt.split_form(model), -0.3 + 1.3j,
                               np.array([1.0 + 0j]))
        initial = dt.TrackState.from_eigenpair(1.0, ref.s, ref.phi)
        opts = dt.TrackOptions(
            dp=1e-3, corrector_every=10, regime="delay_param",
            p_fin=2.0,
        )
        return dt.track_run(hayes_family, initial, opts), opts

    def test_constant_family_distances(self):
        rng = np.random.default_rng(19)
        A0 = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        base = dt.DelayedLinearModel(np.eye(3), A0)
        slopes = dt.ModelDerivatives(np.zeros((3, 3)), np.zeros((3, 3)), [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        w, V = np.linalg.eig(A0)
        i = int(np.argmax(w.real))
        ref = dt.refine_newton(dt.split_form(base), w[i], V[:, i], tol=1e-12)
        initial = dt.TrackState.from_eigenpair(0.0, ref.s, ref.phi)
        opts = dt.TrackOptions(dp=0.01, corrector_every=10, p_fin=1.0)
        traj = dt.track_run(fam, initial, opts)
        report = dt.compare_trajectory(traj, fam, checkpoint_count=5,
                                       options=opts)
        assert report.max_distance < 1e-9
        assert report.matched_fraction == 1.0

    def test_hayes_sweep_max_distance(self, hayes_family):
        traj, opts = self.run_hayes(hayes_family)
        report = dt.compare_trajectory(traj, hayes_family,
                                       checkpoint_count=11, options=opts)
        assert report.max_distance < 1e-6
        assert report.matched_fraction == 1.0
        assert len(report.checkpoints) == 11

    def test_corrupted_trajectory_detected(self, hayes_family):
        traj, opts = self.run_hayes(hayes_family)
        for i, st in enumerate(traj.samples):
            traj.samples[i] = dt.TrackState(
                p=st.p, s=st.s + 0.1, phi=st.phi, residual=st.residual,
            )
        report = dt.compare_trajectory(traj, hayes_family,
                                       checkpoint_count=5, options=opts)
        assert report.max_distance == pytest.approx(0.1, rel=1e-3)
        assert report.matched_fraction == 0.0


class TestRandDdae:
    def test_seed_reproducibility(self):
        a = dt.rand_ddae(20, 14, 0.1, 3, seed=42)
        b = dt.rand_ddae(20, 14, 0.1, 3, seed=42)
        assert (a.E != b.E).nnz == 0
        assert (a.A0 != b.A0).nnz == 0
        assert a.taus == b.taus
        for (_, A), (_, B) in zip(a.delay_terms, b.delay_terms):
            assert (A != B).nnz == 0

    def test_full_density_small(self):
        m = dt.rand_ddae(3, 2, 1.0, 1, seed=1)
        assert m.E.toarray()[:, 2:].max() == 0.0
        assert np.count_nonzero(m.A0.toarray()) == 9

    def test_delay_free(self):
        m = dt.rand_ddae(5, 4, 0.5, 0, seed=2)
        assert m.mu == 0

    def test_always_valid(self):
        for seed in range(5):
            m = dt.rand_ddae(15, 10, 0.2, 2, seed=seed)
            assert dt.validate_model(m) == []

    def test_delays_in_documented_interval(self):
        m = dt.rand_ddae(10, 7, 0.3, 4, seed=3)
        assert all(0.01 <= tau <= 0.1 for tau in m.taus)
