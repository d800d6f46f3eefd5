import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaytrack as dt
from delaytrack.errors import ConfigurationError, RangeError


def scalar_affine(e0=1.0, a0=0.0, a0_slope=-1.0, p_range=(-1.0, 3.0)):
    base = dt.DelayedLinearModel([[e0]], [[a0]])
    slopes = dt.ModelDerivatives([[0.0]], [[a0_slope]], [])
    return dt.AffineFamily(base, slopes, p_range)


class TestEvaluate:
    def test_affine_zero_offset(self):
        E0 = np.array([[2.0, 0.0], [1.0, 3.0]])
        base = dt.DelayedLinearModel(E0, np.zeros((2, 2)))
        slopes = dt.ModelDerivatives(np.eye(2), np.zeros((2, 2)), [])
        fam = dt.AffineFamily(base, slopes, (-1.0, 1.0))
        np.testing.assert_array_equal(fam.evaluate(0.0).E.toarray(), E0)

    def test_tabulated_midpoint(self):
        m0 = dt.DelayedLinearModel([[1.0]], [[0.0]])
        m1 = dt.DelayedLinearModel([[1.0]], [[2.0]])
        fam = dt.TabulatedFamily([(0.0, m0), (1.0, m1)])
        assert fam.evaluate(0.5).A0.toarray()[0, 0] == pytest.approx(1.0)

    def test_delay_parameter_sets_tau(self):
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(1.0, [[-1.0]])])
        fam = dt.DelayParameterFamily(m, 0, (0.1, 2.0))
        out = fam.evaluate(1.3)
        assert out.taus == (1.3,)
        np.testing.assert_array_equal(out.A0.toarray(), m.A0.toarray())
        np.testing.assert_array_equal(
            out.delay_terms[0][1].toarray(), [[-1.0]]
        )

    def test_range_error(self):
        fam = scalar_affine(p_range=(0.0, 1.0))
        with pytest.raises(RangeError):
            fam.evaluate(2.0)

    def test_tabulated_needs_two_snapshots(self):
        m = dt.DelayedLinearModel([[1.0]], [[0.0]])
        fam = dt.TabulatedFamily([(0.0, m)], p_range=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            fam.evaluate(0.0)

    def test_deterministic_reevaluation(self):
        fam = scalar_affine()
        a = fam.evaluate(0.37).A0.toarray()
        b = fam.evaluate(0.37).A0.toarray()
        np.testing.assert_array_equal(a, b)


class TestDerivative:
    def test_affine_slope_analytic(self):
        fam = scalar_affine(a0_slope=-1.0)
        for p in (-0.5, 0.0, 2.0):
            d = fam.derivative(p)
            assert d.dA0.toarray()[0, 0] == pytest.approx(-1.0)

    def test_tabulated_matches_analytic_square(self):
        # dense sampling of A0(p) = [[p^2]]; derivative at p=1 is 2.
        # The interpolant is piecewise linear, so its segment slope must be
        # resolved finer than the requested accuracy.
        ps = np.linspace(0.99, 1.01, 4001)
        snaps = [
            (p, dt.DelayedLinearModel([[1.0]], [[p * p]])) for p in ps
        ]
        fam = dt.TabulatedFamily(snaps)
        d = fam.derivative(1.0)
        assert d.dA0.toarray()[0, 0] == pytest.approx(2.0, abs=1e-5)

    def test_delay_parameter_all_zero(self):
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(1.0, [[-1.0]])])
        fam = dt.DelayParameterFamily(m, 0, (0.1, 2.0))
        d = fam.derivative(1.0)
        assert d.dE.nnz == 0 and d.dA0.nnz == 0
        assert all(dA.nnz == 0 for dA in d.dA_terms)

    def test_backward_difference_at_upper_end(self):
        m0 = dt.DelayedLinearModel([[1.0]], [[0.0]])
        m1 = dt.DelayedLinearModel([[1.0]], [[2.0]])
        fam = dt.TabulatedFamily([(0.0, m0), (1.0, m1)])
        d = fam.derivative(1.0)  # forward probe would leave the table
        assert d.dA0.toarray()[0, 0] == pytest.approx(2.0, rel=1e-9)

    def test_tabulated_from_affine_truth_matches_slope(self):
        # piecewise-linear interpolation of an affine truth is exact, so
        # the forward difference reproduces the slope up to rounding
        ps = np.linspace(0.0, 1.0, 11)
        snaps = [
            (p, dt.DelayedLinearModel([[1.0]], [[2.0 - 3.0 * p]]))
            for p in ps
        ]
        fam = dt.TabulatedFamily(snaps)
        for p in (0.05, 0.37, 0.93):
            d = fam.derivative(p)
            step = 1e-6 * max(1.0, abs(p))
            assert abs(d.dA0.toarray()[0, 0] + 3.0) <= 10.0 * step * 3.0

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.floats(-0.9, 2.9),
        delta=st.floats(-0.05, 0.05),
    )
    def test_affine_derivative_exact(self, p, delta):
        fam = scalar_affine()
        m0 = fam.evaluate(p)
        m1 = fam.evaluate(p + delta)
        d = fam.derivative(p)
        gap = (m1.A0 - m0.A0 - delta * d.dA0).toarray()
        assert np.abs(gap).max() <= 1e-14


class TestValidate:
    def test_valid_scalar_model(self):
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(1.0, [[-1.0]])])
        assert dt.validate_model(m) == []

    def test_zero_delay_flagged(self):
        m = dt.DelayedLinearModel([[1.0]], [[0.0]], [(0.0, [[-1.0]])])
        report = dt.validate_model(m)
        assert any("non-positive" in line for line in report)

    def test_algebraic_column_structure(self):
        E = np.array([[1.0, 0.5], [0.0, 0.0]])  # nonzero algebraic column
        m = dt.DelayedLinearModel(E, np.eye(2), n_dyn=1)
        report = dt.validate_model(m)
        assert any("algebraic columns" in line for line in report)

    def test_dimension_mismatch(self):
        m = dt.DelayedLinearModel(np.eye(2), np.eye(2), [(0.1, [[1.0]])])
        report = dt.validate_model(m)
        assert any("delay matrix 0" in line for line in report)
