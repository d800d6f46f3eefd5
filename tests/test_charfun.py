import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaytrack as dt
from delaytrack import charfun
from delaytrack.errors import ConfigurationError, SingularityError

from conftest import oracle_dhp_ds, oracle_dhs_ds


@pytest.fixture(autouse=True)
def csr_slots(monkeypatch):
    """Split forms keep the stored csr slots, whatever the dimension."""
    monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)


def P_at(model, s, wams=None):
    """P(s) from the split form, over the stored csr slots."""
    form = dt.split_form(model, wams=wams)
    c, _, _ = charfun.coefficients(form, s)
    return dt.eval_P(form.slots, c)


def dP_ds_at(model, s, wams=None):
    """dP/ds from the split form, over the stored csr slots."""
    form = dt.split_form(model, wams=wams)
    _, c_s, _ = charfun.coefficients(form, s)
    return dt.eval_P(form.slots, c_s)


def two_delay_scalar():
    return dt.DelayedLinearModel(
        [[1.0]], [[-1.0]], [(1.0, [[0.5]]), (2.0, [[0.25]])]
    )


class TestEvalP:
    def test_analytic_root_of_scalar_delay(self):
        # s + exp(-s*tau) = 0 at tau = pi/2 has the root s = j
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(np.pi / 2, [[-1.0]])])
        P = P_at(m, 1j).toarray()
        assert abs(P[0, 0]) < 1e-14

    def test_delay_free_sum_is_empty(self):
        m = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        s = 0.3 - 0.8j
        expected = s * np.eye(2) - m.A0.toarray()
        np.testing.assert_allclose(P_at(m, s).toarray(), expected)

    def test_two_delay_direct_arithmetic(self):
        m = two_delay_scalar()
        s = 0.1 + 0.2j
        expected = (
            s * 1.0 - (-1.0)
            - 0.5 * cmath.exp(-s * 1.0)
            - 0.25 * cmath.exp(-s * 2.0)
        )
        assert P_at(m, s).toarray()[0, 0] == pytest.approx(expected)

    def test_overflow_reported(self):
        m = two_delay_scalar()
        with pytest.raises(SingularityError):
            P_at(m, -1000.0)

    @settings(max_examples=50, deadline=None)
    @given(
        sr=st.floats(-3.0, 3.0),
        si=st.floats(-5.0, 5.0),
    )
    def test_conjugate_symmetry(self, sr, si):
        m = two_delay_scalar()
        s = complex(sr, si)
        a = P_at(m, s.conjugate()).toarray()
        b = P_at(m, s).toarray().conjugate()
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


class TestEvalDPds:
    def test_delay_free_is_mass_matrix(self):
        m = dt.DelayedLinearModel(np.eye(2), np.ones((2, 2)))
        np.testing.assert_allclose(
            dP_ds_at(m, 1.7 + 0.4j).toarray(), np.eye(2)
        )

    def test_scalar_at_origin(self):
        tau = np.pi / 2
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(tau, [[-1.0]])])
        val = dP_ds_at(m, 0.0).toarray()[0, 0]
        assert val == pytest.approx(1.0 - tau)

    def test_matches_central_difference(self):
        m = two_delay_scalar()
        s = -0.4 + 1.1j
        d = 1e-6
        fd = (P_at(m, s + d).toarray() - P_at(m, s - d).toarray())
        fd = fd / (2 * d)
        ana = dP_ds_at(m, s).toarray()
        assert np.abs(ana - fd).max() <= 1e-6 * max(1.0, np.abs(ana).max())


class TestTransferFunctions:
    def test_hp_direct_substitution(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.0, T=1.0)
        val = dt.eval_hp(spec, 1.0)
        assert val == pytest.approx(1.0 - np.exp(-1.0))

    def test_hp_periodic_zero(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.0, T=2.0)
        assert abs(dt.eval_hp(spec, 1j * np.pi)) < 1e-14

    def test_hp_pole_at_origin(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.0, T=1.0)
        with pytest.raises(SingularityError):
            dt.eval_hp(spec, 0.0)

    def test_hp_vanishing_denominator(self):
        # p_dr exp(-sT) = 1 at s = -ln(2) for p_dr = 0.5, T = 1
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.5, T=1.0)
        with pytest.raises(SingularityError):
            dt.eval_hp(spec, -np.log(2.0))

    def test_hs_zero_shape_is_unity(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.2, T=1.0, alpha=0.5, b=0.0)
        assert dt.eval_hs(spec, 2.3 - 0.7j) == 1.0

    def test_hs_zero_scale_is_unity(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.2, T=1.0, alpha=0.0, b=3.0)
        assert dt.eval_hs(spec, 2.3 - 0.7j) == 1.0

    def test_hs_real_value(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.0, T=1.0, alpha=1.0, b=2.0)
        assert dt.eval_hs(spec, 1.0) == pytest.approx(0.25)

    def test_hs_branch_cut_rejected(self):
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.0, T=1.0, alpha=1.0, b=1.5)
        with pytest.raises(SingularityError):
            dt.eval_hs(spec, -2.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            dt.WamsSpec(tau0=0.01, p_dr=1.0, T=1.0)
        with pytest.raises(ConfigurationError):
            dt.WamsSpec(tau0=0.01, T=0.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(tau0=-0.01), "tau0"),
        (dict(tau0=0.01, alpha=-1e-3, b=2.0), "alpha and b"),
        (dict(tau0=0.01, alpha=1e-3, b=-2.0), "alpha and b"),
        (dict(tau0=np.nan), "tau0"),
        (dict(tau0=np.inf), "tau0"),
        (dict(tau0=0.01, alpha=np.nan, b=2.0), "alpha and b"),
        (dict(tau0=0.01, alpha=1e-3, b=np.inf), "alpha and b"),
        (dict(tau0=0.01, T=np.inf), "delivery period"),
    ], ids=["tau0", "alpha", "b", "tau0-nan", "tau0-inf", "alpha-nan",
            "b-inf", "T-inf"])
    def test_negative_spec_parameter_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            dt.WamsSpec(**kwargs)

    @settings(max_examples=40, deadline=None)
    @given(
        sr=st.floats(0.05, 2.0),
        si=st.floats(0.05, 8.0),
        p_dr=st.floats(0.0, 0.5),
        b=st.floats(0.0, 3.0),
    )
    def test_derivatives_match_central_differences(self, sr, si, p_dr, b):
        spec = dt.WamsSpec(tau0=0.01, p_dr=p_dr, T=0.05, alpha=1e-3, b=b)
        s = complex(sr, si)
        d = 1e-6
        fd_hp = (dt.eval_hp(spec, s + d) - dt.eval_hp(spec, s - d)) / (2 * d)
        ana_hp = charfun.eval_dhp_ds(spec, s)
        assert abs(ana_hp - fd_hp) <= 1e-6 * max(1.0, abs(ana_hp))
        fd_hs = (dt.eval_hs(spec, s + d) - dt.eval_hs(spec, s - d)) / (2 * d)
        ana_hs = charfun.eval_dhs_ds(spec, s)
        assert abs(ana_hs - fd_hs) <= 1e-6 * max(1.0, abs(ana_hs))

    def test_independent_derivative_formulas_agree(self):
        spec = dt.WamsSpec(tau0=0.02, p_dr=0.3, T=0.04, alpha=2e-3, b=1.7)
        for s in (0.5 + 1.0j, 1.2 - 3.0j, 0.1 + 0.1j):
            assert charfun.eval_dhp_ds(spec, s) == pytest.approx(
                oracle_dhp_ds(spec, s), rel=1e-12
            )
            assert charfun.eval_dhs_ds(spec, s) == pytest.approx(
                oracle_dhs_ds(spec, s), rel=1e-12
            )


class TestShapedDelayTerm:
    """The WAMS-shaped delayed term S_T = h_p h_s A1 exp(-s tau0), read off
    P(s) = s E - A0 - S_T of the split form."""

    def setup_method(self):
        self.model = dt.DelayedLinearModel(
            [[1.0]], [[0.0]], [(1.0, [[-1.0]])]
        )
        self.derivs = dt.ModelDerivatives([[0.0]], [[0.0]], [[[0.5]]])

    def shaped(self, spec, s):
        # E = [[1]], A0 = [[0]]: S_T = s - P(s)
        return s - P_at(self.model, s, spec).toarray()[0, 0]

    def forcing(self, derivs, spec, s):
        # -(dP/dp) phi at phi = [1]
        form = dt.split_form(self.model, derivs, wams=spec)
        _, _, c_p = charfun.coefficients(form, s)
        return -(c_p @ charfun.slot_products(form.slots, np.ones(1)))[0]

    def test_constant_limit_reduces_to_plain_delay(self):
        spec = dt.WamsSpec.constant_delay(0.7)
        s = -0.2 + 1.4j
        st_val = self.shaped(spec, s)
        assert st_val == pytest.approx(-1.0 * cmath.exp(-s * 0.7), abs=1e-14)
        std_val = self.forcing(self.derivs, spec, s)
        assert std_val == pytest.approx(0.5 * cmath.exp(-s * 0.7), abs=1e-14)

    def test_scaled_by_hp_example(self):
        # tau0 = 0, b = 0, p_dr = 0, T = 1: S_T(1) = -h_p(1) = -(1 - e^-1)
        spec = dt.WamsSpec(tau0=0.0, p_dr=0.0, T=1.0, alpha=0.0, b=0.0)
        val = self.shaped(spec, 1.0)
        assert val == pytest.approx(-(1.0 - np.exp(-1.0)))
        val5 = self.shaped(spec, 0.5)
        assert val5 == pytest.approx(-(1.0 - np.exp(-0.5)) / 0.5)

    def test_std_with_constant_matrices(self):
        # dA1 = 0, b = 0: the forcing vanishes and only the h_p slope
        # (besides the latency) enters dP/ds = E - dS_T/ds
        derivs = dt.ModelDerivatives([[0.0]], [[0.0]], [[[0.0]]])
        spec = dt.WamsSpec(tau0=0.3, p_dr=0.0, T=1.0, alpha=0.0, b=0.0)
        s = 0.8 + 0.6j
        assert self.forcing(derivs, spec, s) == 0.0
        val = dP_ds_at(self.model, s, spec).toarray()[0, 0]
        e0 = cmath.exp(-s * 0.3)
        expected = 1.0 + (charfun.eval_dhp_ds(spec, s) * e0
                          - 0.3 * dt.eval_hp(spec, s) * e0)
        assert val == pytest.approx(expected)

    def test_requires_single_delay(self):
        m = dt.DelayedLinearModel(
            [[1.0]], [[0.0]], [(1.0, [[-1.0]]), (2.0, [[0.5]])]
        )
        with pytest.raises(ConfigurationError):
            dt.split_form(m, wams=dt.WamsSpec(tau0=0.1))

    def test_rejects_a_moving_delay(self):
        derivs = dt.ModelDerivatives.zero(self.model, [1.0])
        with pytest.raises(ConfigurationError):
            dt.split_form(self.model, derivs, wams=dt.WamsSpec(tau0=0.1))

    def test_dst_ds_matches_central_difference(self):
        spec = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.03, alpha=1e-3, b=2.0)
        s = 0.4 + 2.0j
        d = 1e-6
        fd = (self.shaped(spec, s + d) - self.shaped(spec, s - d)) / (2 * d)
        # dS_T/ds = E - dP/ds
        ana = 1.0 - dP_ds_at(self.model, s, spec).toarray()[0, 0]
        assert abs(ana - fd) <= 1e-6 * max(1.0, abs(ana))
