"""Fold detection, branch reinitialization, and stability-margin search."""

import cmath

import numpy as np
import pytest

import delaytrack as dt
from delaytrack import track
from delaytrack.errors import NonConvergenceError, ReinitializationError

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


def fold_then_crossing_run():
    """The companion family of s^2 + 0.1 s + (1.0025 - p), eigenvalues
    -0.05 +/- sqrt(p - 1), swept from p = 0.5 with reinitialization: the
    pair folds at p = 1 and the upper real branch crosses Re s = 0 at
    p = 1.0025, inside the step after the fold."""
    base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0025, -0.1]])
    slopes = dt.ModelDerivatives(
        np.zeros((2, 2)), [[0.0, 0.0], [1.0, 0.0]], []
    )
    fam = dt.AffineFamily(base, slopes, (0.2, 1.8))
    opts = dt.TrackOptions(dp=1e-2, corrector_every=10,
                           p_fin=1.5, reinit_on_fold=True)
    return fam, dt.track_run(fam, coalescing_initial(fam, 0.5), opts), opts


def state_at(family, p, s_guess, phi_guess):
    ref = dt.refine_newton(family.split_form(p), s_guess, phi_guess,
                           tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


class TestDetectFold:
    def test_synthetic_coalescence_flagged(self, coalescing_family):
        initial = coalescing_initial(coalescing_family, 0.5)
        dp = 1e-3
        opts = dt.TrackOptions(
            dp=dp, corrector_every=10, p_fin=1.5,
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
            dp=0.01, corrector_every=10, p_fin=1.4,
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
        opts = dt.TrackOptions(dp=dp, corrector_every=every,
                               p_fin=0.5)
        traj = dt.track_run(coalescing_family, initial, opts)
        assert traj.truncated
        failures = [ev for ev in traj.events
                    if ev.kind in ("fold", "corrector_fail")]
        assert failures
        assert min(traj.ps) >= 1.0 - (every + 1) * dp
        for st in traj.samples[:failures[0].index][::every]:
            assert st.residual <= opts.corrector_tol

    @pytest.mark.parametrize("reinit", [False, True])
    def test_step_into_an_overflow_is_a_fold(self, reinit):
        # the real-branch sweep above with a zero 20 s delay term: the step
        # past p = 1 jumps to s ~ -42, where exp(-20 s) overflows, so P
        # cannot be evaluated at the stepped state
        zero = np.zeros((2, 2))
        base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-2.0, -2.0]],
                                     [(20.0, zero)])
        slopes = dt.ModelDerivatives(zero, [[0.0, 0.0], [1.0, 0.0]], [zero])
        fam = dt.AffineFamily(base, slopes, (0.2, 1.8))
        p0 = 1.5
        s0 = coalescing_eigenvalue(p0).real
        ref = dt.refine_newton(fam.split_form(p0), s0, np.array([1.0, s0]),
                               tol=1e-12)
        initial = dt.TrackState.from_eigenpair(p0, ref.s, ref.phi)
        opts = dt.TrackOptions(dp=1e-3, corrector_every=10, p_fin=0.5,
                               reinit_on_fold=reinit)
        traj = dt.track_run(fam, initial, opts)
        fold = traj.events[0]
        assert fold.kind == "fold"
        assert abs(fold.p - 1.0) <= 1e-9
        assert traj.samples[fold.index].p == fold.p
        assert all(np.isfinite(st.residual) and abs(st.s) < 2.0
                   for st in traj.samples)
        if reinit:
            assert [ev.kind for ev in traj.events] == ["fold", "reinit"]
            assert not traj.truncated and traj.samples[-1].p == 0.5
        else:
            assert traj.truncated and fold.index == len(traj.samples) - 1

    def test_window_too_short(self, coalescing_family):
        st = coalescing_initial(coalescing_family, 0.5)
        assert dt.detect_fold([st]) is None


class TestReinitialize:
    def test_non_degenerate_point_returns_same_pair(self, coalescing_family):
        st = coalescing_initial(coalescing_family, 0.5)
        opts = dt.TrackOptions()
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
        opts = dt.TrackOptions()
        out = dt.reinitialize_at(coalescing_family, 1.05, st, opts)
        upper = coalescing_eigenvalue(1.05, upper=True)
        lower = coalescing_eigenvalue(1.05, upper=False)
        assert abs(out.s - upper) < 1e-9
        assert abs(out.s - lower) > 1e-3

    def test_orthogonal_spectrum_fails(self):
        # the tracked vector spreads evenly over five eigenvectors e_k, so
        # every candidate overlaps it by 1/sqrt(5) = 0.447: no branch
        A0 = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0])
        base = dt.DelayedLinearModel(np.eye(5), A0)
        slopes = dt.ModelDerivatives(np.zeros((5, 5)), np.zeros((5, 5)), [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        prev = dt.TrackState.from_eigenpair(
            0.5, -1.0 + 0j, np.ones(5) / np.sqrt(5.0)
        )
        opts = dt.TrackOptions()
        with pytest.raises(ReinitializationError, match="overlap 0.447"):
            dt.reinitialize_at(fam, 0.5, prev, opts)

    def test_failed_reinitialization_truncates(self):
        # the tracked vector is orthogonal to the eigenvector e_1 of s = -1,
        # so the bordered system of the first step is singular (a fold);
        # it spreads evenly over e_2..e_6, so every candidate of the
        # reinitialization overlaps it by 1/sqrt(5) = 0.447: no branch
        A0 = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
        base = dt.DelayedLinearModel(np.eye(6), A0)
        slopes = dt.ModelDerivatives(np.zeros((6, 6)), np.zeros((6, 6)), [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        phi = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0]) / np.sqrt(5.0)
        initial = dt.TrackState.from_eigenpair(0.5, -1.0 + 0j, phi)
        opts = dt.TrackOptions(dp=1e-3, p_fin=1.0, reinit_on_fold=True)
        traj = dt.track_run(fam, initial, opts)
        assert traj.truncated
        assert [(ev.kind, ev.index) for ev in traj.events] == [("fold", 0)]
        assert [st.p for st in traj.samples] == [0.5]

    @pytest.mark.parametrize("p_fin, truncated", [(1.005, False),
                                                   (1.0, True)])
    def test_fold_within_a_step_of_p_fin(self, coalescing_family, p_fin,
                                         truncated):
        # the fold at p = 1 is sample 50 of steps dp = 0.01; one step on
        # would pass p_fin = 1.005, so the run resumes at p_fin itself, and
        # with p_fin = 1.0 the fold is the last sample: no room to resume
        initial = coalescing_initial(coalescing_family, 0.5)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=10, p_fin=p_fin,
                               reinit_on_fold=True)
        traj = dt.track_run(coalescing_family, initial, opts)
        assert traj.truncated == truncated
        assert traj.samples[-1].p == p_fin
        kinds = [(ev.kind, ev.index) for ev in traj.events]
        if truncated:
            assert kinds == [("fold", 50)] and len(traj.samples) == 51
        else:
            assert kinds == [("fold", 50), ("reinit", 51)]
            assert len(traj.samples) == 52
            assert traj.samples[-1].s == pytest.approx(
                coalescing_eigenvalue(p_fin), abs=1e-10)

    def test_track_run_resumes_after_fold(self, coalescing_family):
        initial = coalescing_initial(coalescing_family, 0.5)
        opts = dt.TrackOptions(
            dp=1e-3, corrector_every=10, p_fin=1.5,
            reinit_on_fold=True,
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
            dp=1e-3, corrector_every=10, p_fin=2.0,
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
            dp=2e-3, corrector_every=10, p_fin=4.0,
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

    def test_sample_on_the_axis_is_the_crossing(self):
        # A0(p) = [[p - 1]] from p = 0 in steps of 0.25: the sample at
        # p = 1.0 is exactly s = 0, and the next one is past the axis
        base = dt.DelayedLinearModel([[1.0]], [[-1.0]])
        slopes = dt.ModelDerivatives([[0.0]], [[1.0]], [])
        fam = dt.AffineFamily(base, slopes, (0.0, 2.0))
        initial = dt.TrackState.from_eigenpair(0.0, -1.0, [1.0])
        opts = dt.TrackOptions(dp=0.25, p_fin=2.0)
        traj = dt.track_run(fam, initial, opts)
        assert not traj.truncated
        on_axis = [k for k, st in enumerate(traj.samples) if st.s == 0.0]
        assert on_axis == [4] and traj.samples[4].p == 1.0
        assert [(ev.kind, ev.index) for ev in traj.events] == [
            ("axis_crossing", 5)
        ]
        assert dt.find_crossing(fam, traj, opts) == [(1.0, 0j)]

    def test_crossing_at_a_reinitialized_sample(self):
        # the branch restarted one step past the fold lands across the
        # axis: that sample is the crossing event, and the bisection in
        # front of it warm-starts on the new branch
        fam, traj, opts = fold_then_crossing_run()
        (fold, i), (reinit, j), (crossing, k) = [
            (ev.kind, ev.index) for ev in traj.events]
        assert (fold, reinit, crossing) == ("fold", "reinit", "axis_crossing")
        assert j == k == i + 1
        assert traj.events[0].p == pytest.approx(1.0, abs=1e-12)
        assert traj.events[1].p == traj.events[2].p
        assert traj.events[2].p == pytest.approx(1.01, abs=1e-12)
        (p_star, s_star), = dt.find_crossing(fam, traj, opts)
        assert abs(p_star - 1.0025) < 1e-9
        assert abs(s_star.real) < 1e-9

    def test_bracket_across_a_branch_jump_raises(self):
        # without its reinit event the bracket starts on the old branch
        # and bisects onto the lower real branch: its final bracket spans
        # the jump between the two branches, which is no crossing
        fam, traj, opts = fold_then_crossing_run()
        traj.events = [ev for ev in traj.events if ev.kind != "reinit"]
        with pytest.raises(NonConvergenceError, match="jumps"):
            dt.find_crossing(fam, traj, opts)

    def test_steep_crossing_is_returned(self):
        # A0(p) = [[1e4 (p - 1/3)]]: the bisection stops on its 1e-9
        # bracket with |Re s| near 1e-5, on one continuous branch
        k = 1e4
        base = dt.DelayedLinearModel([[1.0]], [[-k / 3.0]])
        slopes = dt.ModelDerivatives([[0.0]], [[k]], [])
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        initial = dt.TrackState.from_eigenpair(0.0, -k / 3.0, [1.0])
        opts = dt.TrackOptions(dp=0.01, p_fin=1.0)
        traj = dt.track_run(fam, initial, opts)
        (p_star, s_star), = dt.find_crossing(fam, traj, opts)
        assert abs(p_star - 1.0 / 3.0) < 1e-9
        assert 1e-9 < abs(s_star.real) < k * 1e-9

    def test_nonfinite_sample_is_on_no_side(self):
        # Re s = -1, +inf, +1, -1: the infinite sample resets the side, so
        # neither it nor the +1 after it is a crossing, and the last is
        side = 0.0
        traj = dt.Trajectory()
        for s in (-1.0, np.inf, 1.0, -1.0):
            side = track._record(traj, dt.TrackState(0.0, s, [1.0]), side)
        assert [(ev.kind, ev.index) for ev in traj.events] == [
            ("axis_crossing", 3)
        ]

    def test_touching_the_axis_is_no_crossing(self):
        # A0 = -1, 0, -1 at p = 0, 1, 2: s reaches 0 at p = 1 and returns
        snaps = [(p, dt.DelayedLinearModel([[1.0]], [[a]]))
                 for p, a in ((0.0, -1.0), (1.0, 0.0), (2.0, -1.0))]
        fam = dt.TabulatedFamily(snaps)
        initial = dt.TrackState.from_eigenpair(0.0, -1.0, [1.0])
        opts = dt.TrackOptions(dp=0.25, p_fin=2.0)
        traj = dt.track_run(fam, initial, opts)
        assert not traj.truncated
        assert [st.s for st in traj.samples if st.s.real == 0.0] == [0j]
        assert traj.events == []
        assert dt.find_crossing(fam, traj, opts) == []
