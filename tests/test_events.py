"""Fold detection, branch reinitialization, and stability-margin search."""

import cmath

import numpy as np
import pytest

import delaytrack as dt
from delaytrack.errors import ReinitializationError

from conftest import quadratic_eigenvalue


def coalescing_eigenvalue(p, upper=True):
    """Eigenvalue -1 +/- sqrt(p - 1) of the coalescing companion family."""
    root = cmath.sqrt(complex(p - 1.0, 0.0))
    return -1.0 + root if upper else -1.0 - root


def coalescing_initial(family, p):
    model = family.evaluate(p)
    w, V = np.linalg.eig(model.A0.toarray())
    i = int(np.argmax(w.imag))
    ref = dt.refine_newton(dt.split_form(model), w[i], V[:, i], tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


def state_at(family, p, s_guess, phi_guess):
    ref = dt.refine_newton(family.split_form(p), s_guess, phi_guess,
                           tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


class TestDetectFold:
    def test_synthetic_coalescence_flagged(self, coalescing_family):
        initial = coalescing_initial(coalescing_family, 0.5)
        dp = 1e-3
        opts = dt.TrackOptions(
            dp=dp, corrector_every=10, regime="multi", p_fin=1.5,
        )
        traj = dt.track_run(coalescing_family, initial, opts)
        folds = [ev for ev in traj.events if ev.kind == "fold"]
        assert folds, "no fold event raised"
        assert abs(folds[0].p - 1.0) <= 2 * dp
        assert traj.truncated

    def test_real_axis_trajectory_not_flagged(self):
        # stable scalar model: the eigenvalue is real the whole sweep
        base = dt.DelayedLinearModel([[1.0]], [[-1.0]])
        slopes = dt.ModelDerivatives([[0.0]], [[-0.5]], [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        initial = dt.TrackState.from_eigenpair(
            0.0, -1.0 + 0j, [1.0 + 0j], 0.0
        )
        opts = dt.TrackOptions(dp=0.01, corrector_every=5, p_fin=1.0)
        traj = dt.track_run(fam, initial, opts)
        assert all(ev.kind != "fold" for ev in traj.events)
        assert not traj.truncated

    def test_oscillatory_trajectory_not_flagged(self, hayes_family):
        model = hayes_family.evaluate(1.0)
        ref = dt.refine_newton(dt.split_form(model), -0.3 + 1.3j,
                               np.array([1.0 + 0j]))
        initial = dt.TrackState.from_eigenpair(1.0, ref.s, ref.phi)
        opts = dt.TrackOptions(
            dp=0.01, corrector_every=10, regime="delay_param",
            p_fin=1.4,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        assert all(ev.kind != "fold" for ev in traj.events)

    def test_real_branch_into_fold_truncates(self, coalescing_family):
        # the real upper branch -1 + sqrt(p - 1) swept down into its fold
        # at p = 1: the real state cannot follow the pair off the axis, and
        # the first failed step must end the run there
        p0, dp, every = 1.5, 1e-3, 10
        s0 = coalescing_eigenvalue(p0).real
        ref = dt.refine_newton(coalescing_family.split_form(p0), s0,
                               np.array([1.0, s0]), tol=1e-12)
        initial = dt.TrackState.from_eigenpair(p0, ref.s, ref.phi)
        opts = dt.TrackOptions(dp=dp, corrector_every=every, regime="multi",
                               p_fin=0.5)
        traj = dt.track_run(coalescing_family, initial, opts)
        assert traj.truncated
        failures = [ev for ev in traj.events
                    if ev.kind in ("fold", "corrector_fail")]
        assert failures
        assert min(traj.ps) >= 1.0 - (every + 1) * dp
        for st in traj.samples[:failures[0].index][::every]:
            assert st.residual <= opts.corrector_tol

    def test_window_too_short(self, coalescing_family):
        st = coalescing_initial(coalescing_family, 0.5)
        assert dt.detect_fold([st], 1e-4) is None


class TestReinitialize:
    def test_non_degenerate_point_returns_same_pair(self, coalescing_family):
        st = coalescing_initial(coalescing_family, 0.5)
        opts = dt.TrackOptions(regime="multi", init_count=4)
        out = dt.reinitialize_at(coalescing_family, 0.5, st, opts)
        assert abs(out.s - st.s) < 1e-9
        overlap = abs(np.vdot(
            st.phi / np.linalg.norm(st.phi),
            out.phi / np.linalg.norm(out.phi),
        ))
        assert overlap > 0.999

    def test_past_fold_returns_declared_branch(self, coalescing_family):
        # just past p = 1 both branches are real; ties break to larger Re(s)
        st = coalescing_initial(coalescing_family, 0.98)
        opts = dt.TrackOptions(regime="multi", init_count=4)
        out = dt.reinitialize_at(coalescing_family, 1.05, st, opts)
        upper = coalescing_eigenvalue(1.05, upper=True)
        lower = coalescing_eigenvalue(1.05, upper=False)
        assert abs(out.s - upper) < 1e-9
        assert abs(out.s - lower) > 1e-3

    def test_orthogonal_spectrum_fails(self):
        # candidates orthogonal to the tracked vector: no branch to resume
        A0 = np.diag([-1.0, -2.0, -3.0])
        base = dt.DelayedLinearModel(np.eye(3), A0)
        slopes = dt.ModelDerivatives(np.zeros((3, 3)), np.zeros((3, 3)), [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        prev = dt.TrackState.from_eigenpair(
            0.5, -1.0 + 0j, np.array([0.0, 1.0 + 0j, 0.0])
        )
        opts = dt.TrackOptions(regime="multi", init_count=1)
        with pytest.raises(ReinitializationError):
            # count=1 keeps only the eigenpair at -1, aligned with e1
            dt.reinitialize_at(fam, 0.5, prev, opts)

    def test_track_run_resumes_after_fold(self, coalescing_family):
        initial = coalescing_initial(coalescing_family, 0.5)
        opts = dt.TrackOptions(
            dp=1e-3, corrector_every=10, regime="multi", p_fin=1.5,
            reinit_on_fold=True, init_degree=0, init_count=4,
        )
        traj = dt.track_run(coalescing_family, initial, opts)
        kinds = [ev.kind for ev in traj.events]
        assert "fold" in kinds and "reinit" in kinds
        assert not traj.truncated
        assert traj.samples[-1].p == 1.5
        end = traj.samples[-1].s
        upper = coalescing_eigenvalue(1.5, upper=True)
        assert abs(end - upper) < 1e-6


class TestFindCrossing:
    def test_hayes_margin_at_half_pi(self, hayes_family):
        initial = state_at(hayes_family, 1.0, -0.3 + 1.3j,
                           np.array([1.0 + 0j]))
        opts = dt.TrackOptions(
            dp=1e-3, corrector_every=10, regime="delay_param",
            p_fin=2.0,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        crossings = dt.find_crossing(hayes_family, traj, opts)
        assert len(crossings) == 1
        p_star, s_star = crossings[0]
        assert abs(p_star - np.pi / 2) < 1e-6
        assert abs(s_star.real) < 1e-9
        assert abs(abs(s_star.imag) - 1.0) < 1e-6

    def test_delay_free_linear_crossing(self):
        # A0(p) = [[p - 1]]: eigenvalue p - 1 crosses at exactly p = 1
        base = dt.DelayedLinearModel([[1.0]], [[-1.0]])
        slopes = dt.ModelDerivatives([[0.0]], [[1.0]], [])
        fam = dt.AffineFamily(base, slopes, (0.0, 2.0))
        initial = dt.TrackState.from_eigenpair(
            0.0, -1.0 + 0j, [1.0 + 0j], 0.0
        )
        opts = dt.TrackOptions(dp=0.01, corrector_every=5, p_fin=2.0)
        traj = dt.track_run(fam, initial, opts)
        crossings = dt.find_crossing(fam, traj, opts)
        assert len(crossings) == 1
        assert abs(crossings[0][0] - 1.0) < 1e-6

    def test_no_sign_change_returns_empty(self, quadratic_family):
        initial = state_at(
            quadratic_family, 0.1, quadratic_eigenvalue(0.1),
            np.array([1.0, quadratic_eigenvalue(0.1)]),
        )
        opts = dt.TrackOptions(dp=0.01, corrector_every=10, p_fin=1.0)
        traj = dt.track_run(quadratic_family, initial, opts)
        assert dt.find_crossing(quadratic_family, traj, opts) == []

    def test_two_crossings_recovered(self):
        # damping d(p) = 0.2 (p - 1)(p - 3) drives Re(s) = -d(p) through
        # zero at p = 1 and p = 3 (destabilize, then restabilize).  |d| < 2
        # keeps the pair complex across the sweep, and the natural
        # frequency 2 keeps the companion eigenvector (1, s) away from the
        # isotropic point phi^T phi = 1 + s^2 = 0 of the transpose
        # normalization (hit only at s = +/- j).
        ps = np.linspace(0.0, 4.0, 401)

        def snapshot(p):
            d = 0.2 * (p - 1.0) * (p - 3.0)
            return dt.DelayedLinearModel(
                np.eye(2), [[0.0, 1.0], [-4.0, -2.0 * d]]
            )

        fam = dt.TabulatedFamily([(p, snapshot(p)) for p in ps])
        m0 = fam.evaluate(0.0)
        w, V = np.linalg.eig(m0.A0.toarray())
        i = int(np.argmax(w.imag))
        ref = dt.refine_newton(dt.split_form(m0), w[i], V[:, i], tol=1e-12)
        initial = dt.TrackState.from_eigenpair(0.0, ref.s, ref.phi)
        opts = dt.TrackOptions(
            dp=2e-3, corrector_every=10, regime="multi", p_fin=4.0,
        )
        traj = dt.track_run(fam, initial, opts)
        crossings = dt.find_crossing(fam, traj, opts)
        assert len(crossings) == 2

        # dense-root-solve truth on the same family, by bisection on the
        # rightmost eigenvalue's real part
        def rightmost_real(p):
            vals = np.linalg.eigvals(fam.evaluate(p).A0.toarray())
            return max(vals.real)

        truths = []
        for lo, hi in ((0.5, 2.0), (2.0, 3.5)):
            a, b = lo, hi
            for _ in range(60):
                mid = 0.5 * (a + b)
                if rightmost_real(a) * rightmost_real(mid) <= 0.0:
                    b = mid
                else:
                    a = mid
            truths.append(0.5 * (a + b))
        for (p_star, _), truth in zip(crossings, truths):
            assert abs(p_star - truth) < 1e-6
