import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack.errors import ConfigurationError

from conftest import quadratic_eigenvalue


def hayes_initial(family, p=1.0):
    model = family.evaluate(p)
    ref = dt.refine_newton(dt.split_form(model), -0.3 + 1.3j,
                           np.array([1.0 + 0j]), tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


def quadratic_initial(family, p=0.1):
    model = family.evaluate(p)
    w, V = np.linalg.eig(model.A0.toarray())
    i = int(np.argmax(w.imag))
    ref = dt.refine_newton(dt.split_form(model), w[i], V[:, i], tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


def unit_system(g):
    """Scalar bordered system [[1, 1], [1, 0]] with forcing ``g``."""
    one = np.ones(1, dtype=complex)
    return dt.ContinuationSystem(P=np.eye(1, dtype=complex), w=one, g=g,
                                 phi=one)


class TestIntegrateStep:
    def test_zero_rhs_keeps_state(self):
        sys_ = unit_system(g=np.zeros(1, dtype=complex))
        st = dt.TrackState.from_eigenpair(0.0, -1.0 + 2.0j, [1.0 + 0j])
        out = dt.integrate_step(sys_, st, 0.25, "euler")
        assert out.p == 0.25
        assert out.s == st.s
        np.testing.assert_array_equal(out.phi_r, st.phi_r)

    def test_linear_eigenvalue_exact_euler(self):
        # E = [[1]], A0(p) = [[-p]]: eigenvalue s(p) = -p, slope exactly -1
        base = dt.DelayedLinearModel([[1.0]], [[-1.0]])
        slopes = dt.ModelDerivatives([[0.0]], [[-1.0]], [])
        fam = dt.AffineFamily(base, slopes, (0.5, 2.0))
        st = dt.TrackState.from_eigenpair(1.0, -1.0 + 0j, [1.0 + 0j])
        form = dt.split_form(fam.evaluate(1.0), fam.derivative(1.0))
        sys_ = dt.assemble(form, st)
        out = dt.integrate_step(sys_, st, 0.1, "euler")
        assert out.s_r == pytest.approx(-1.1, abs=1e-14)
        assert out.s_i == pytest.approx(0.0, abs=1e-14)

    def test_multistage_needs_callback(self):
        sys_ = unit_system(g=np.zeros(1, dtype=complex))
        st = dt.TrackState.from_eigenpair(0.0, 1j, [1.0 + 0j])
        with pytest.raises(ConfigurationError):
            dt.integrate_step(sys_, st, 0.1, "rk4")


class TestTrackRun:
    def test_constant_family_is_flat(self):
        rng = np.random.default_rng(3)
        A0 = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        base = dt.DelayedLinearModel(np.eye(3), A0)
        slopes = dt.ModelDerivatives(np.zeros((3, 3)), np.zeros((3, 3)), [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        w, V = np.linalg.eig(A0)
        i = int(np.argmax(w.real))
        ref = dt.refine_newton(dt.split_form(base), w[i], V[:, i], tol=1e-12)
        initial = dt.TrackState.from_eigenpair(0.0, ref.s, ref.phi)
        opts = dt.TrackOptions(dp=0.01, corrector_every=0, p_fin=1.0)
        traj = dt.track_run(fam, initial, opts)
        drift = np.abs(traj.eigenvalues - ref.s)
        assert drift.max() < 1e-12
        assert traj.samples[-1].p == 1.0

    def test_hayes_sweep_matches_newton_oracle(self, hayes_family):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(
            dp=1e-3, corrector_every=10, regime="delay_param",
            p_fin=2.0,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        assert traj.samples[-1].p == 2.0
        ps = traj.ps
        warm = initial
        for pt in np.linspace(1.0, 2.0, 11):
            k = int(np.argmin(np.abs(ps - pt)))
            st = traj.samples[k]
            model = hayes_family.evaluate(st.p)
            truth = dt.refine_newton(dt.split_form(model), warm.s, warm.phi,
                                     tol=1e-12)
            assert abs(st.s - truth.s) < 1e-6
            warm = st
        # samples strictly monotone in p
        assert np.all(np.diff(ps) > 0)

    def test_quadratic_family_closed_form(self, quadratic_family):
        initial = quadratic_initial(quadratic_family)
        opts = dt.TrackOptions(
            dp=0.9e-3, corrector_every=10, regime="multi", p_fin=1.0,
        )
        traj = dt.track_run(quadratic_family, initial, opts)
        for k in range(0, len(traj.samples), 100):
            st = traj.samples[k]
            assert abs(st.s - quadratic_eigenvalue(st.p)) < 1e-8

    def test_conjugate_sweep_is_conjugate(self, hayes_family):
        initial = hayes_initial(hayes_family)
        conj_initial = dt.TrackState.from_eigenpair(
            initial.p, initial.s.conjugate(), initial.phi.conjugate(),
            initial.residual,
        )
        opts = dt.TrackOptions(
            dp=0.01, corrector_every=10, regime="delay_param",
            p_fin=1.5,
        )
        up = dt.track_run(hayes_family, initial, opts)
        down = dt.track_run(hayes_family, conj_initial, opts)
        assert len(up.samples) == len(down.samples)
        for a, b in zip(up.samples, down.samples):
            assert abs(a.s - b.s.conjugate()) < 1e-10

    def test_normalization_drift_with_corrector(self, hayes_family):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(
            dp=1e-3, corrector_every=10, corrector_tol=1e-10,
            regime="delay_param", p_fin=1.5,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        for st in traj.samples:
            phi = st.phi
            assert abs(phi @ phi - 1.0) <= 1e-8

    def test_normalization_drift_without_corrector(self, quadratic_family):
        # scalar eigenvectors are pinned to +/-1 by the normalization, so
        # drift only shows on r >= 2 where the eigenvector rotates
        initial = quadratic_initial(quadratic_family)
        drifts = {}
        for dp in (2e-3, 1e-3):
            opts = dt.TrackOptions(
                dp=dp, corrector_every=0, regime="multi", p_fin=1.0,
            )
            traj = dt.track_run(quadratic_family, initial, opts)
            phis = [st.phi for st in traj.samples]
            drifts[dp] = max(abs(phi @ phi - 1.0) for phi in phis)
        # first-order integrator: drift shrinks linearly with dp
        ratio = drifts[2e-3] / drifts[1e-3]
        assert 1.5 <= ratio <= 2.5
        assert drifts[1e-3] < 10 * 1e-3

    def test_final_step_shortened(self, hayes_family):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(
            dp=3e-3, corrector_every=0, regime="delay_param",
            p_fin=1.01,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        assert traj.samples[-1].p == 1.01

    def test_euler_first_order_on_hayes(self, hayes_family):
        initial = hayes_initial(hayes_family)
        truth = dt.refine_newton(
            hayes_family.split_form(1.5), -0.2 + 1.1j, np.array([1.0 + 0j]),
            tol=1e-13,
        ).s
        errs = {}
        for dp in (0.02, 0.01):
            opts = dt.TrackOptions(
                dp=dp, corrector_every=0, regime="delay_param",
                p_fin=1.5,
            )
            traj = dt.track_run(hayes_family, initial, opts)
            errs[dp] = abs(traj.samples[-1].s - truth)
        ratio = errs[0.02] / errs[0.01]
        assert 1.7 <= ratio <= 2.3

    def test_rk4_high_order_on_hayes(self, hayes_family):
        initial = hayes_initial(hayes_family)
        truth = dt.refine_newton(
            hayes_family.split_form(1.5), -0.2 + 1.1j, np.array([1.0 + 0j]),
            tol=1e-13,
        ).s
        errs = {}
        for dp in (0.1, 0.05):
            opts = dt.TrackOptions(
                dp=dp, method="rk4", corrector_every=0,
                regime="delay_param", p_fin=1.5,
            )
            traj = dt.track_run(hayes_family, initial, opts)
            errs[dp] = abs(traj.samples[-1].s - truth)
        assert errs[0.1] / errs[0.05] >= 12.0

    def test_heun_second_order_on_hayes(self, hayes_family):
        initial = hayes_initial(hayes_family)
        truth = dt.refine_newton(
            hayes_family.split_form(1.5), -0.2 + 1.1j, np.array([1.0 + 0j]),
            tol=1e-13,
        ).s
        errs = {}
        for dp in (0.05, 0.025):
            opts = dt.TrackOptions(
                dp=dp, method="heun", corrector_every=0,
                regime="delay_param", p_fin=1.5,
            )
            traj = dt.track_run(hayes_family, initial, opts)
            errs[dp] = abs(traj.samples[-1].s - truth)
        ratio = errs[0.05] / errs[0.025]
        assert 3.0 <= ratio <= 5.5

    def test_axis_crossing_event_recorded(self, hayes_family):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(
            dp=1e-2, corrector_every=5, regime="delay_param",
            p_fin=2.0,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        kinds = [ev.kind for ev in traj.events]
        assert "axis_crossing" in kinds
        ev = next(e for e in traj.events if e.kind == "axis_crossing")
        assert abs(ev.p - np.pi / 2) < 2e-2


class TestSparseRealEigenvalue:
    def test_step_loop_takes_no_dense_path(self, monkeypatch):
        # a real eigenvalue at r = 1000: every step must stay on the sparse
        # bordered solve, with no dense SVD, QZ or bordered solve
        r = 1000
        base = dt.rand_ddae(r, 700, 2e-3, 2, 11)
        zero = sparse.csr_array((r, r))
        slopes = dt.ModelDerivatives(
            zero, 0.6 * (base.A0 + 3.0 * sparse.eye_array(r)), [zero] * 2
        )
        fam = dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))
        pairs = dt.spectrum_at(fam, 0.0, N=6, shift=0j, count=6)
        seed = max((e for e in pairs if abs(e.s.imag) < 1e-8),
                   key=lambda e: e.s.real)
        initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi,
                                               seed.residual)
        opts = dt.TrackOptions(dp=1e-3, corrector_every=5, p_fin=1e-2)

        def dense(*args, **kwargs):
            raise AssertionError("dense O(r^3) call in the step loop")

        monkeypatch.setattr(scipy.linalg, "svdvals", dense)
        monkeypatch.setattr(scipy.linalg, "eig", dense)
        monkeypatch.setattr(np.linalg, "solve", dense)
        traj = dt.track_run(fam, initial, opts)
        monkeypatch.undo()
        assert not traj.truncated and not traj.events
        assert len(traj.samples) == 11
        for st in traj.samples[::opts.corrector_every]:
            assert st.residual <= opts.corrector_tol


class TestRegimeFamilyMismatch:
    """A family that varies a delay tracked under another regime used to
    return a flat path with residual 2, no event and no truncation."""

    @pytest.mark.parametrize("regime", ["single", "multi"])
    def test_delay_family_needs_delay_param_regime(self, hayes_family,
                                                   regime):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=0, regime=regime,
                               p_fin=1.5)
        with pytest.raises(ConfigurationError):
            dt.track_run(hayes_family, initial, opts)

    def test_wams_spec_needs_wams_regime(self):
        # tracked as "multi", the spec was ignored: the path ended 0.20
        # away from the shaped eigenvalue with residual 0.35 and no event
        A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
        base = dt.DelayedLinearModel(
            np.eye(2), [[0.0, 1.0], [-4.0, -0.4]], [(0.05, A1)]
        )
        slopes = dt.ModelDerivatives(np.zeros((2, 2)), np.zeros((2, 2)),
                                     [0.5 * A1])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        spec = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
        seed = dt.spectrum_at(fam, 0.0, N=12, shift=2j, count=4,
                              wams=spec)[0]
        initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi)
        with pytest.raises(ConfigurationError):
            opts = dt.TrackOptions(dp=1e-2, corrector_every=0,
                                   regime="multi", wams=spec, p_fin=1.0)
            dt.track_run(fam, initial, opts)

    def test_delay_param_regime_needs_delay_family(self, hayes_model):
        # on a family whose delay stays fixed the run used to end far from
        # any eigenvalue, with residual 2.1 and no event
        slopes = dt.ModelDerivatives([[0.0]], [[-1.0]], [[[0.0]]])
        fam = dt.AffineFamily(hayes_model, slopes, (0.5, 2.5))
        initial = hayes_initial(fam)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=0,
                               regime="delay_param", p_fin=2.0)
        with pytest.raises(ConfigurationError):
            dt.track_run(fam, initial, opts)
