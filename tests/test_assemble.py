"""Real-split assembly against the independent complex-arithmetic oracle."""

import numpy as np
import pytest

import delaytrack as dt
from delaytrack import charfun

from conftest import (
    complex_split_oracle,
    moving_delay,
    random_model_with_derivatives,
    random_state,
    real_slope,
    system_as_dense,
)


def assert_matches_oracle(system, model, derivs, state, tol=1e-13, **kw):
    M, h = system_as_dense(system)
    Mo, ho = complex_split_oracle(model, derivs, state, **kw)
    scale = max(1.0, np.abs(Mo).max())
    assert np.abs(M - Mo).max() <= tol * scale
    assert np.abs(h - ho).max() <= tol * max(1.0, np.abs(ho).max())


class TestEncodingEquivalence:
    @pytest.mark.parametrize("dense", [True, False])
    def test_single_random_states(self, dense, monkeypatch):
        monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 5 if dense else 0)
        model, derivs = random_model_with_derivatives(4, 1, seed=10)
        for k in range(25):
            st = random_state(4, seed=100 + k)
            sys_ = dt.assemble(dt.split_form(model, derivs), st)
            assert_matches_oracle(sys_, model, derivs, st)

    @pytest.mark.parametrize("mu", [2, 3, 5])
    def test_multi_random_states(self, mu):
        model, derivs = random_model_with_derivatives(5, mu, seed=20 + mu)
        for k in range(25):
            st = random_state(5, seed=200 + k)
            sys_ = dt.assemble(dt.split_form(model, derivs), st)
            assert_matches_oracle(sys_, model, derivs, st)

    def test_delay_param_random_states(self):
        model, derivs = random_model_with_derivatives(4, 3, seed=31)
        # delay 1 is p
        model, derivs = model.with_delay(1, 0.8), moving_delay(derivs, 1)
        for k in range(25):
            st = random_state(4, seed=300 + k, p=0.8)
            sys_ = dt.assemble(dt.split_form(model, derivs), st)
            assert_matches_oracle(sys_, model, derivs, st)

    def test_wams_random_states(self):
        model, derivs = random_model_with_derivatives(4, 1, seed=41)
        wams = dt.WamsSpec(tau0=0.02, p_dr=0.1, T=0.02, alpha=1e-3, b=2.0)
        for k in range(25):
            st = random_state(4, seed=400 + k)
            sys_ = dt.assemble(dt.split_form(model, derivs, wams=wams), st)
            assert_matches_oracle(sys_, model, derivs, st, wams=wams)

    def test_scalar_hayes_state_both_backends(self, hayes_model,
                                              monkeypatch):
        derivs = dt.ModelDerivatives([[0.0]], [[0.0]], [[[0.0]]])
        st = dt.TrackState.from_eigenpair(
            1.0, -0.3181 + 1.3372j, np.array([1.0 + 0j])
        )
        for dense in (True, False):
            monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 2 if dense else 0)
            sys_ = dt.assemble(dt.split_form(hayes_model, derivs), st)
            assert_matches_oracle(sys_, hayes_model, derivs, st)


class TestStructure:
    def test_delay_free_limit_blocks(self):
        # A1 = 0 wipes the delay shorthands out of M1 and M2
        r = 3
        rng = np.random.default_rng(5)
        E = rng.standard_normal((r, r))
        A0 = rng.standard_normal((r, r))
        model = dt.DelayedLinearModel(E, A0, [(0.5, np.zeros((r, r)))])
        derivs = dt.ModelDerivatives(
            np.zeros((r, r)), np.zeros((r, r)), [np.zeros((r, r))]
        )
        st = random_state(r, seed=77)
        M, _ = system_as_dense(dt.assemble(dt.split_form(model, derivs),
                                           st))
        s_r, s_i = st.s_r, st.s_i
        np.testing.assert_allclose(M[:r, :r], s_r * E - A0, atol=1e-14)
        np.testing.assert_allclose(M[:r, r: 2 * r], -s_i * E, atol=1e-14)
        np.testing.assert_allclose(M[:r, 2 * r], E @ st.phi.real, atol=1e-14)
        np.testing.assert_allclose(
            M[:r, 2 * r + 1], -(E @ st.phi.imag), atol=1e-14
        )

    def test_block_shape(self):
        model, derivs = random_model_with_derivatives(4, 2, seed=12)
        st = random_state(4, seed=13)
        sys_ = dt.assemble(dt.split_form(model, derivs), st)
        M, h = system_as_dense(sys_)
        assert M.shape == (10, 10)
        assert h.shape == (10,)
        assert np.all(M[8:, 8:] == 0.0)


class TestReductionLattice:
    def test_multi_mu1_equals_single(self):
        model, derivs = random_model_with_derivatives(5, 1, seed=50)
        for k in range(5):
            st = random_state(5, seed=500 + k)
            form = dt.split_form(model, derivs)
            a, ha = system_as_dense(dt.assemble(form, st))
            b, hb = system_as_dense(dt.assemble(form, st))
            assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(a).max())
            assert np.abs(ha - hb).max() <= 1e-14 * max(1.0, np.abs(ha).max())

    def test_equal_delay_merge(self):
        # two delay terms with tau1 = tau2 merge linearly: A1 + A2 = A
        rng = np.random.default_rng(51)
        r = 5
        E = rng.standard_normal((r, r))
        A0 = rng.standard_normal((r, r))
        A1 = rng.standard_normal((r, r))
        A2 = rng.standard_normal((r, r))
        tau = 0.8
        split = dt.DelayedLinearModel(E, A0, [(tau, A1), (tau, A2)])
        merged = dt.DelayedLinearModel(E, A0, [(tau, A1 + A2)])
        d_split = dt.ModelDerivatives(
            np.zeros((r, r)), np.zeros((r, r)),
            [np.zeros((r, r)), np.zeros((r, r))],
        )
        d_merged = dt.ModelDerivatives(
            np.zeros((r, r)), np.zeros((r, r)), [np.zeros((r, r))]
        )
        st = random_state(r, seed=510)
        a, ha = system_as_dense(dt.assemble(dt.split_form(split, d_split),
                                            st))
        b, hb = system_as_dense(dt.assemble(dt.split_form(merged, d_merged),
                                            st))
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())
        assert np.abs(ha - hb).max() <= 1e-13

    def test_wams_degenerate_equals_single(self):
        model, derivs = random_model_with_derivatives(5, 1, seed=52)
        tau0 = model.taus[0]
        spec = dt.WamsSpec.constant_delay(tau0)
        for k in range(5):
            st = random_state(5, seed=520 + k)
            a, ha = system_as_dense(
                dt.assemble(dt.split_form(model, derivs, wams=spec), st)
            )
            b, hb = system_as_dense(dt.assemble(dt.split_form(model, derivs),
                                                st))
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())
            assert np.abs(ha - hb).max() <= 1e-13 * max(1.0, np.abs(hb).max())

    def test_delay_param_zero_extra_matches_multi_variant(self):
        # an extra delay with a zero matrix changes nothing
        rng = np.random.default_rng(53)
        r = 4
        E = np.eye(r)
        A0 = rng.standard_normal((r, r))
        Al = rng.standard_normal((r, r))
        plain = dt.DelayedLinearModel(E, A0, [(0.9, Al)])
        padded = dt.DelayedLinearModel(
            E, A0, [(0.9, Al), (0.3, np.zeros((r, r)))]
        )
        d_plain = dt.ModelDerivatives.zero(plain, [1.0])
        d_padded = dt.ModelDerivatives.zero(padded, [1.0, 0.0])
        st = random_state(r, seed=530, p=0.9)
        a, ha = system_as_dense(
            dt.assemble(dt.split_form(plain, d_plain), st)
        )
        b, hb = system_as_dense(
            dt.assemble(dt.split_form(padded, d_padded), st)
        )
        assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(a).max())
        assert np.abs(ha - hb).max() <= 1e-14

    def test_delay_param_absent_delay_is_insensitive(self):
        # A_l = 0: the eigenvalue cannot depend on a delay that is absent
        r = 3
        rng = np.random.default_rng(54)
        A0 = rng.standard_normal((r, r)) - 2.0 * np.eye(r)
        model = dt.DelayedLinearModel(
            np.eye(r), A0, [(0.7, np.zeros((r, r)))]
        )
        fam = dt.DelayParameterFamily(model, 0, (0.2, 2.0))
        w, V = np.linalg.eig(A0)
        i = int(np.argmax(w.real))
        ref = dt.refine_newton(fam.split_form(0.7), w[i], V[:, i])
        st = dt.TrackState.from_eigenpair(0.7, ref.s, ref.phi)
        sys_ = dt.assemble(dt.split_form(fam.evaluate(0.7),
                                         fam.derivative(0.7)), st)
        dy = real_slope(sys_)
        assert abs(complex(dy[2 * r], dy[2 * r + 1])) < 1e-12


class TestSensitivity:
    """dsdp from the linear solve vs central differences of refined roots."""

    def fd_slope(self, family, ref, p, d=1e-5, wams=None):
        up = dt.refine_newton(
            family.split_form(p + d, wams), ref.s, ref.phi, tol=1e-12
        )
        dn = dt.refine_newton(
            family.split_form(p - d, wams), ref.s, ref.phi, tol=1e-12
        )
        return (up.s - dn.s) / (2 * d)

    def solved_slope(self, system, r):
        dy = real_slope(system)
        return complex(dy[2 * r], dy[2 * r + 1])

    def test_single_regime_scalar(self):
        # x' = a(p) x + b x(t - tau) with a(p) = -p
        base = dt.DelayedLinearModel([[1.0]], [[0.0]], [(0.6, [[-0.8]])])
        slopes = dt.ModelDerivatives([[0.0]], [[-1.0]], [[[0.0]]])
        fam = dt.AffineFamily(base, slopes, (0.1, 1.5))
        p = 0.7
        roots = dt.hayes_roots(-p, -0.8, 0.6, count=2)
        ref = dt.refine_newton(fam.split_form(p), roots[0],
                               np.array([1.0 + 0j]))
        st = dt.TrackState.from_eigenpair(p, ref.s, ref.phi)
        form = dt.split_form(fam.evaluate(p), fam.derivative(p))
        sys_ = dt.assemble(form, st)
        slope = self.solved_slope(sys_, 1)
        assert abs(slope - self.fd_slope(fam, ref, p)) < 1e-5

    def test_multi_regime_2x2(self):
        rng = np.random.default_rng(61)
        E = np.eye(2)
        A0 = np.array([[0.0, 1.0], [-2.0, -0.6]])
        A1 = 0.3 * rng.standard_normal((2, 2))
        A2 = 0.2 * rng.standard_normal((2, 2))
        dA0 = np.array([[0.0, 0.0], [-0.5, -0.2]])
        base = dt.DelayedLinearModel(E, A0, [(0.15, A1), (0.4, A2)])
        slopes = dt.ModelDerivatives(
            np.zeros((2, 2)), dA0, [np.zeros((2, 2)), np.zeros((2, 2))]
        )
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        p = 0.4
        pairs = dt.spectrum_at(fam, p, N=14, shift=1j, count=4)
        ref = pairs[0]
        st = dt.TrackState.from_eigenpair(p, ref.s, ref.phi)
        form = dt.split_form(fam.evaluate(p), fam.derivative(p))
        sys_ = dt.assemble(form, st)
        slope = self.solved_slope(sys_, 2)
        assert abs(slope - self.fd_slope(fam, ref, p)) < 1e-5

    def test_delay_param_regime_hayes(self, hayes_family):
        p = 1.0
        model = hayes_family.evaluate(p)
        ref = dt.refine_newton(dt.split_form(model), -0.3 + 1.3j,
                               np.array([1.0 + 0j]))
        st = dt.TrackState.from_eigenpair(p, ref.s, ref.phi)
        form = dt.split_form(model, hayes_family.derivative(p))
        sys_ = dt.assemble(form, st)
        slope = self.solved_slope(sys_, 1)
        assert abs(slope - self.fd_slope(hayes_family, ref, p)) < 1e-5

    def test_wams_regime_3x3(self):
        rng = np.random.default_rng(62)
        r = 3
        E = np.eye(r)
        A0 = rng.standard_normal((r, r)) - 2.0 * np.eye(r)
        A1 = 0.4 * rng.standard_normal((r, r))
        dA0 = 0.5 * rng.standard_normal((r, r))
        base = dt.DelayedLinearModel(E, A0, [(0.02, A1)])
        slopes = dt.ModelDerivatives(
            np.zeros((r, r)), dA0, [np.zeros((r, r))]
        )
        fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
        wams = dt.WamsSpec(tau0=0.02, p_dr=0.1, T=0.02, alpha=1e-3, b=2.0)
        p = 0.3
        pairs = dt.spectrum_at(fam, p, N=12, shift=0.5j, count=4, wams=wams)
        ref = pairs[0]
        st = dt.TrackState.from_eigenpair(p, ref.s, ref.phi)
        form = dt.split_form(fam.evaluate(p), fam.derivative(p), wams=wams)
        sys_ = dt.assemble(form, st)
        slope = self.solved_slope(sys_, r)
        assert abs(slope - self.fd_slope(fam, ref, p, wams=wams)) < 1e-5
