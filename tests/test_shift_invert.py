"""Shift-invert initialization through the r x r collocated P(sigma), and
the real warm start of the crossing locator."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, spectral


@pytest.fixture
def sparse_path(monkeypatch):
    """Send every pencil, however small, to shift-invert."""
    monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)


def test_matches_dense_eig_of_assembled_pencil(sparse_path):
    pen = dt.discretize(dt.rand_ddae(20, 14, 0.1, 3, seed=42), 8)
    shift = -1.0 + 1.0j
    pairs = dt.solve_discretized(pen, shift, 6)
    w = la.eig(pen.SigmaA.toarray(), pen.SigmaE.toarray(), right=False)
    w = w[np.isfinite(w)]
    assert len(pairs) == 6
    for pair in pairs:
        assert np.min(np.abs(w - pair.s)) < 1e-9
        assert pair.residual < 1e-10


def test_repeated_solve_is_bit_identical():
    # the Arnoldi start vector is fixed, so the roundoff digits are too
    pen = dt.discretize(dt.rand_ddae(40, 30, 0.05, 3, 7), 12)
    assert pen.dim >= charfun.DENSE_MAX_DIM
    first, second = (dt.solve_discretized(pen, 0.5j, 8) for _ in range(2))
    assert [e.s for e in first] == [e.s for e in second]


def test_factors_only_r_by_r_matrices(monkeypatch):
    r, N = 300, 8
    model = dt.rand_ddae(r, 210, 0.02, 2, seed=5)
    family = dt.AffineFamily(model, dt.ModelDerivatives.zero(model), (0, 1))
    assert (N + 1) * r >= charfun.DENSE_MAX_DIM
    shapes = []
    factor = spectral.splu

    def recording(A, *args, **kwargs):
        shapes.append(A.shape)
        return factor(A, *args, **kwargs)

    def assembled(self):
        raise AssertionError("the collocation pencil was assembled")

    monkeypatch.setattr(spectral, "splu", recording)
    monkeypatch.setattr(dt.DiscretizedPencil, "SigmaA", property(assembled))
    monkeypatch.setattr(dt.DiscretizedPencil, "SigmaE", property(assembled))
    pairs = dt.spectrum_at(family, 0.0, N=N, shift=-1 + 1j, count=6)
    assert pairs
    assert shapes and set(shapes) == {(r, r)}


def test_shift_on_an_eigenvalue(sparse_path):
    r = 200
    model = dt.DelayedLinearModel(
        sparse.eye_array(r), sparse.diags_array(np.arange(1.0, r + 1.0))
    )
    pairs = dt.solve_discretized(dt.discretize(model, 0), 5.0, 3)
    got = sorted(p.s.real for p in pairs)
    np.testing.assert_allclose(got, [4.0, 5.0, 6.0], rtol=0, atol=1e-9)
    assert all(abs(p.s.imag) < 1e-9 for p in pairs)


def test_singular_interior_block_names_the_shift(sparse_path, hayes_model):
    pen = dt.discretize(hayes_model, 8)
    Dt = pen.Dt.copy()
    Dt[1:, 1:] = np.diag(np.arange(1.0, 9.0))  # exact eigenvalue 2
    with pytest.raises(dt.NonConvergenceError, match=r"shift sigma=\(2\+0j\)"):
        spectral._shift_invert(replace(pen, Dt=Dt), 2.0 + 0j, 2)


def _drifting(r, n_dyn, density, mu, seed, slope):
    base = dt.rand_ddae(r, n_dyn, density, mu, seed)
    zero = sparse.csr_array((r, r))
    slopes = dt.ModelDerivatives(
        zero, slope * (base.A0 + 3.0 * sparse.eye_array(r)), [zero] * mu
    )
    return dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))


def _det_sign_change(family, a, b):
    """Bisect the sign change of det P(0, p) on [a, b]."""
    def sign(p):
        m = family.evaluate(p)
        P0 = -(m.A0 + sum(A for _, A in m.delay_terms)).toarray()
        return np.linalg.slogdet(P0)[0]

    fa = sign(a)
    assert fa * sign(b) < 0.0
    for _ in range(60):
        mid = 0.5 * (a + b)
        if fa * sign(mid) <= 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def test_real_crossing_is_exactly_real():
    family = _drifting(100, 70, 0.02, 2, 11, 0.6)
    pairs = dt.spectrum_at(family, 0.8, N=8, shift=0j)
    seed = max(
        (e for e in pairs if abs(e.s.imag) <= 1e-8), key=lambda e: e.s.real
    )
    opts = dt.TrackOptions(dp=5e-3, corrector_every=10, p_fin=0.9)
    traj = dt.track_run(
        family, dt.TrackState.from_eigenpair(0.8, seed.s, seed.phi), opts
    )
    crossings = dt.find_crossing(family, traj, opts)
    assert len(crossings) == 1
    p_star, s_star = crossings[0]
    assert s_star.imag == 0.0
    assert abs(p_star - _det_sign_change(family, 0.8, 0.9)) < 1e-9
