import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import spectral, track
from delaytrack.charfun import DENSE_MAX_DIM
from delaytrack.errors import ConfigurationError, RangeError

from conftest import (
    quadratic_eigenvalue,
    random_model_with_derivatives,
    random_state,
    system_as_dense,
)


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


def unit_system():
    """Scalar bordered system [[1, 1], [1, 0]] with zero forcing: P(s) = s
    at s = 1, on a model that does not depend on p."""
    form = dt.split_form(dt.DelayedLinearModel([[1.0]], [[0.0]]))
    return dt.assemble(form, dt.TrackState.from_eigenpair(0.0, 1.0 + 0j,
                                                          [1.0 + 0j]))


class TestIntegrateStep:
    def test_zero_rhs_keeps_state(self):
        sys_ = unit_system()
        st = dt.TrackState.from_eigenpair(0.0, -1.0 + 2.0j, [1.0 + 0j])
        out = dt.integrate_step(lambda _: sys_, st, 0.25, "euler")
        assert out.p == 0.25
        assert out.s == st.s
        np.testing.assert_array_equal(out.phi.real, st.phi.real)

    def test_linear_eigenvalue_exact_euler(self):
        # E = [[1]], A0(p) = [[-p]]: eigenvalue s(p) = -p, slope exactly -1
        base = dt.DelayedLinearModel([[1.0]], [[-1.0]])
        slopes = dt.ModelDerivatives([[0.0]], [[-1.0]], [])
        fam = dt.AffineFamily(base, slopes, (0.5, 2.0))
        st = dt.TrackState.from_eigenpair(1.0, -1.0 + 0j, [1.0 + 0j])
        form = dt.split_form(fam.evaluate(1.0), fam.derivative(1.0))
        sys_ = dt.assemble(form, st)
        out = dt.integrate_step(lambda _: sys_, st, 0.1, "euler")
        assert out.s_r == pytest.approx(-1.1, abs=1e-14)
        assert out.s_i == pytest.approx(0.0, abs=1e-14)

    def test_unknown_method_rejected(self):
        sys_ = unit_system()
        st = dt.TrackState.from_eigenpair(0.0, 1j, [1.0 + 0j])
        with pytest.raises(ConfigurationError):
            dt.integrate_step(lambda _: sys_, st, 0.1, "midpoint")
        with pytest.raises(ConfigurationError):
            dt.TrackOptions(method="midpoint")

    @pytest.mark.parametrize("r", [5, DENSE_MAX_DIM], ids=["dense", "sparse"])
    @pytest.mark.parametrize("method", ["euler", "heun", "rk4"])
    def test_stages_match_real_split(self, method, r):
        # one step against the real-split formulas y = (phi_r, phi_i, s_r,
        # s_i), M(y) dy/dp = h(y), each stage a dense solve of M and h
        model, derivs = random_model_with_derivatives(r, 2, seed=40 + r,
                                                      density=0.02)
        fam = dt.AffineFamily(model, derivs, (0.0, 1.0))
        state = random_state(r, seed=41, p=0.4)
        dp = 0.05

        def assemble_at(st):
            return dt.assemble(fam.split_form(st.p), st)

        def slope(p, y):
            st = dt.TrackState(p, complex(y[2 * r], y[2 * r + 1]),
                               y[:r] + 1j * y[r:2 * r])
            M, h = system_as_dense(assemble_at(st))
            return np.linalg.solve(M, h)

        assert sparse.issparse(assemble_at(state).P) == (r == DENSE_MAX_DIM)
        p = state.p
        y = np.concatenate([state.phi.real, state.phi.imag,
                            [state.s.real, state.s.imag]])
        k1 = slope(p, y)
        if method == "euler":
            step = dp * k1
        elif method == "heun":
            k2 = slope(p + dp, y + dp * k1)
            step = (dp / 2.0) * (k1 + k2)
        else:
            half = p + dp / 2.0
            k2 = slope(half, y + (dp / 2.0) * k1)
            k3 = slope(half, y + (dp / 2.0) * k2)
            k4 = slope(p + dp, y + dp * k3)
            step = (dp / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        out = dt.integrate_step(assemble_at, state, dp, method)
        got = np.concatenate([out.phi.real, out.phi.imag,
                              [out.s.real, out.s.imag]]) - y
        assert out.p == p + dp
        assert np.abs(got - step).max() <= 1e-12 * np.abs(step).max()


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
            dp=1e-3, corrector_every=10, p_fin=2.0,
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
            dp=0.9e-3, corrector_every=10, p_fin=1.0,
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
            dp=0.01, corrector_every=10, p_fin=1.5,
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
            p_fin=1.5,
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
                dp=dp, corrector_every=0, p_fin=1.0,
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
            dp=3e-3, corrector_every=0, p_fin=1.01,
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
                dp=dp, corrector_every=0, p_fin=1.5,
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
                dp=dp, method="rk4", corrector_every=0, p_fin=1.5,
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
                dp=dp, method="heun", corrector_every=0, p_fin=1.5,
            )
            traj = dt.track_run(hayes_family, initial, opts)
            errs[dp] = abs(traj.samples[-1].s - truth)
        ratio = errs[0.05] / errs[0.025]
        assert 3.0 <= ratio <= 5.5

    def test_axis_crossing_event_recorded(self, hayes_family):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(
            dp=1e-2, corrector_every=5, p_fin=2.0,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        kinds = [ev.kind for ev in traj.events]
        assert "axis_crossing" in kinds
        ev = next(e for e in traj.events if e.kind == "axis_crossing")
        assert abs(ev.p - np.pi / 2) < 2e-2


def drifting_family(r, n_dyn, density, mu, seed, slope):
    """rand_ddae model whose A0 drifts by slope * (A0 + 3I) on [0, 1]."""
    base = dt.rand_ddae(r, n_dyn, density, mu, seed)
    zero = sparse.csr_array((r, r))
    slopes = dt.ModelDerivatives(
        zero, slope * (base.A0 + 3.0 * sparse.eye_array(r)), [zero] * mu
    )
    return dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))


class TestSparseRealEigenvalue:
    def test_step_loop_takes_no_dense_path(self, monkeypatch):
        # a real eigenvalue at r = 1000: every step must stay on the sparse
        # bordered solve, with no dense SVD, QZ or bordered solve
        fam = drifting_family(1000, 700, 2e-3, 2, 11, 0.6)
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


@pytest.mark.parametrize("changes, match", [
    (dict(regime="delay_param"), "regime='delay_param' is not what"),
    (dict(corrector_every=2.5), "corrector_every=2.5 is not an int"),
    (dict(p_fin=1.0), "p_fin equals the initial parameter"),
], ids=["regime", "corrector_every", "p_fin"])
def test_rejected_options(hayes_family, changes, match):
    initial = hayes_initial(hayes_family)
    with pytest.raises(ConfigurationError, match=match):
        opts = dt.TrackOptions(**{"dp": 1e-2, "p_fin": 1.5, **changes})
        dt.track_run(hayes_family, initial, opts)


def test_corrector_every_takes_a_numpy_integer():
    assert dt.TrackOptions(corrector_every=np.int64(5)).corrector_every == 5


class TestRegimeFamilyMismatch:
    """A family that varies a delay tracked under another regime used to
    return a flat path with residual 2, no event and no truncation.  The
    family alone now says which delay moves, so the declared regime can
    no longer change the path."""

    def test_bench_options_are_accepted(self):
        # the benchmark's workloads build their options exactly so; the
        # field stays until they no longer pass it
        spec = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
        multi = dt.TrackOptions(dp=2e-3, corrector_every=10, regime="multi",
                                p_fin=4.0)
        wams = dt.TrackOptions(dp=1e-3, corrector_every=10, regime="wams",
                               wams=spec, p_fin=1.0)
        assert (multi.regime, multi.wams) == ("multi", None)
        assert (wams.regime, wams.wams) == ("wams", spec)
        for bad in (dict(regime="delay_param"), dict(regime="wams"),
                    dict(regime="multi", wams=spec)):
            with pytest.raises(ConfigurationError, match="is not what wams"):
                dt.TrackOptions(**bad)

    @pytest.mark.parametrize("regime", ["multi", None])
    def test_delay_family_crosses_at_the_hayes_margin(self, hayes_family,
                                                      regime):
        initial = hayes_initial(hayes_family)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=10, regime=regime,
                               p_fin=2.0)
        traj = dt.track_run(hayes_family, initial, opts)
        assert not traj.truncated and traj.samples[-1].p == 2.0
        (p_star, s_star), = dt.find_crossing(hayes_family, traj, opts)
        assert abs(p_star - np.pi / 2) < 1e-8
        assert abs(s_star - 1j) < 1e-8

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

    def test_fixed_delay_family_meets_the_corrector_tol(self, hayes_model):
        # on this family, whose delay stays fixed, a run declared
        # 'delay_param' used to end far from any eigenvalue, with residual
        # 2.1 and no event
        slopes = dt.ModelDerivatives([[0.0]], [[-1.0]], [[[0.0]]])
        fam = dt.AffineFamily(hayes_model, slopes, (0.5, 2.5))
        opts = dt.TrackOptions(dp=1e-2, corrector_every=10, p_fin=2.0)
        traj = dt.track_run(fam, hayes_initial(fam), opts)
        assert not traj.truncated and traj.samples[-1].p == 2.0
        assert len(traj.samples) == 101
        for st in traj.samples[::opts.corrector_every]:
            assert st.residual <= opts.corrector_tol


@pytest.fixture(scope="module")
def sparse_sweep():
    """A 12-step sweep of a complex pair at r = 300, where P is csr."""
    fam = drifting_family(300, 210, 0.02, 2, 5, 0.2)
    assert fam.evaluate(0.0).r >= DENSE_MAX_DIM
    pairs = dt.spectrum_at(fam, 0.0, N=8, shift=-1.0 + 1.0j, count=6)
    seed = min((e for e in pairs if e.s.imag > 1e-8),
               key=lambda e: abs(e.s - (-1.0 + 1.0j)))
    initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi,
                                           seed.residual)
    return fam, initial


def sparse_coalescing_family():
    """The 2 x 2 coalescing companion family (eigenvalues -1 +/- sqrt(p -
    1)) padded with DENSE_MAX_DIM - 2 modes at -5, so P is sparse."""
    r = DENSE_MAX_DIM
    A0 = sparse.lil_array(-5.0 * sparse.eye_array(r))
    A0[0, 0], A0[0, 1], A0[1, 0], A0[1, 1] = 0.0, 1.0, -2.0, -2.0
    slope = sparse.lil_array((r, r))
    slope[1, 0] = 1.0
    zero = sparse.csr_array((r, r))
    base = dt.DelayedLinearModel(sparse.eye_array(r, format="csr"),
                                 sparse.csr_array(A0))
    slopes = dt.ModelDerivatives(zero, sparse.csr_array(slope), [])
    return dt.AffineFamily(base, slopes, (0.2, 1.8))


def sparse_coalescing_state(family, p, s):
    phi = np.zeros(DENSE_MAX_DIM, dtype=complex)
    phi[:2] = 1.0, s
    ref = dt.refine_newton(family.split_form(p), s, phi, tol=1e-12)
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


class TestHeldFactor:
    """A sweep keeps one sparse LU across its stages, steps and corrector
    iterations, and refactors only when refinement on it cannot work."""

    def test_sweep_factors_fewer_times_than_it_steps(self, sparse_sweep,
                                                      factor_count):
        fam, initial = sparse_sweep
        opts = dt.TrackOptions(dp=1e-3, corrector_every=5, p_fin=1.2e-2)
        before = factor_count()
        traj = dt.track_run(fam, initial, opts)
        steps = len(traj.samples) - 1
        assert steps == 12 and not traj.truncated and not traj.events
        assert factor_count() - before < steps
        for st in traj.samples[::opts.corrector_every] + traj.samples[-1:]:
            assert st.residual <= opts.corrector_tol

    @pytest.mark.parametrize("method", ["euler", "heun", "rk4"])
    def test_sweep_matches_fresh_factors(self, sparse_sweep, monkeypatch,
                                         method):
        fam, initial = sparse_sweep
        opts = dt.TrackOptions(dp=1e-3, method=method, corrector_every=5,
                               p_fin=1.2e-2)
        held = dt.track_run(fam, initial, opts)
        solve = spectral.bordered_solve

        def fresh(P, w, phi, f, t, held=None):
            if held is not None:
                held.lu = None
            return solve(P, w, phi, f, t, held)

        monkeypatch.setattr(spectral, "bordered_solve", fresh)
        ref = dt.track_run(fam, initial, opts)
        assert len(held.samples) == len(ref.samples) == 13
        for a, b in zip(held.samples, ref.samples):
            assert abs(a.s - b.s) <= 1e-10 * abs(b.s)
            assert np.linalg.norm(a.phi - b.phi) <= 1e-10 * np.linalg.norm(
                b.phi)

    def test_conjugate_fold_is_flagged(self, factor_count):
        fam = sparse_coalescing_family()
        initial = sparse_coalescing_state(fam, 0.5, -1.0 + np.sqrt(0.5) * 1j)
        dp = 1e-3
        opts = dt.TrackOptions(dp=dp, corrector_every=10, p_fin=1.5)
        traj = dt.track_run(fam, initial, opts)
        folds = [ev for ev in traj.events if ev.kind == "fold"]
        assert folds and abs(folds[0].p - 1.0) <= 2 * dp
        assert traj.truncated
        assert factor_count() < len(traj.samples) - 1

    def test_real_branch_into_fold_truncates(self):
        fam = sparse_coalescing_family()
        p0, dp, every = 1.5, 1e-3, 10
        initial = sparse_coalescing_state(fam, p0, -1.0 + np.sqrt(0.5))
        opts = dt.TrackOptions(dp=dp, corrector_every=every, p_fin=0.5)
        traj = dt.track_run(fam, initial, opts)
        assert traj.truncated
        failures = [ev for ev in traj.events
                    if ev.kind in ("fold", "corrector_fail")]
        assert failures
        assert min(traj.ps) >= 1.0 - (every + 1) * dp
        for st in traj.samples[:failures[0].index][::every]:
            assert st.residual <= opts.corrector_tol


@pytest.mark.parametrize("method", ["euler", "heun", "rk4"])
def test_real_branch_stays_exactly_real(method):
    # a real eigenvalue seeded with roundoff-sized imaginary parts is
    # tracked from its real parts, so Im s and Im phi stay exactly 0
    # through every stage of every integrator
    # instead of shrinking into subnormal arithmetic
    fam = drifting_family(100, 70, 0.02, 2, 11, 0.6)
    pairs = dt.spectrum_at(fam, 0.0, N=8, shift=0j, count=6)
    seed = max((e for e in pairs if abs(e.s.imag) <= 1e-8),
               key=lambda e: e.s.real)
    assert seed.s.imag != 0.0 or np.any(seed.phi.imag != 0.0)
    initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi,
                                           seed.residual)
    opts = dt.TrackOptions(dp=5e-3, method=method, corrector_every=10,
                           p_fin=1.0)
    traj = dt.track_run(fam, initial, opts)
    assert not traj.truncated
    assert traj.samples[-1].s.imag == 0.0
    assert all(not st.phi.imag.any() for st in traj.samples)
    assert traj.samples[-1].residual <= opts.corrector_tol


def test_p_fin_outside_the_range_fails_before_any_step(hayes_family,
                                                       monkeypatch):
    initial = hayes_initial(hayes_family)

    def unexpected(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(spectral, "assemble", unexpected)
    monkeypatch.setattr(spectral, "bordered_solve", unexpected)
    opts = dt.TrackOptions(p_fin=hayes_family.p_range[1] + 1.0)
    with pytest.raises(RangeError, match="outside family range"):
        dt.track_run(hayes_family, initial, opts)


def test_p_fin_within_the_range_slack_is_reached(hayes_family):
    p_fin = hayes_family.p_range[1] * (1.0 + 5e-7)
    opts = dt.TrackOptions(dp=0.05, p_fin=p_fin)
    traj = dt.track_run(hayes_family, hayes_initial(hayes_family), opts)
    assert not traj.truncated and traj.samples[-1].p == p_fin


@pytest.mark.parametrize("settings", [
    {"dp": 0.0}, {"dp": float("nan")}, {"dp": float("inf")},
    {"corrector_tol": 0.0}, {"corrector_tol": -1e-10},
    {"corrector_tol": float("nan")}, {"corrector_every": -1},
], ids=["dp-zero", "dp-nan", "dp-inf", "tol-zero", "tol-negative",
        "tol-nan", "every-negative"])
def test_wrong_sweep_settings_rejected(settings):
    with pytest.raises(ConfigurationError, match=next(iter(settings))):
        dt.TrackOptions(**settings)

