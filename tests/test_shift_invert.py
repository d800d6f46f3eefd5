"""Shift-invert initialization through the r x r collocated P(sigma), and
the real warm start of the crossing locator."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, spectral

from conftest import pencil_pair


@pytest.fixture
def sparse_path(monkeypatch):
    """Send every pencil, however small, to shift-invert."""
    monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)


def test_matches_dense_eig_of_assembled_pencil(sparse_path):
    pen = dt.discretize(dt.split_form(dt.rand_ddae(20, 14, 0.1, 3, seed=42)),
                        8)
    shift = -1.0 + 1.0j
    pairs = dt.solve_discretized(pen, shift, 6)
    A, B = pencil_pair(pen)
    w = la.eig(A.toarray(), B.toarray(), right=False)
    w = w[np.isfinite(w)]
    assert len(pairs) == 6
    for pair in pairs:
        assert np.min(np.abs(w - pair.s)) < 1e-9
        assert pair.residual < 1e-10


def test_repeated_solve_is_bit_identical():
    # the Arnoldi start vector is fixed, so the roundoff digits are too
    pen = dt.discretize(dt.split_form(dt.rand_ddae(40, 30, 0.05, 3, 7)), 12)
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

    def assembled(pencil):
        raise AssertionError("the collocation pencil was assembled")

    monkeypatch.setattr(spectral, "splu", recording)
    monkeypatch.setattr(spectral, "_dense_pair", assembled)
    pairs = dt.spectrum_at(family, 0.0, N=N, shift=-1 + 1j, count=6)
    assert pairs
    assert shapes and set(shapes) == {(r, r)}


def test_arnoldi_stop_at_the_polish_tolerance_loses_no_candidate(
    monkeypatch,
):
    # spectrum_at stops the Arnoldi at the tol its Newton polish meets;
    # forcing it to machine precision must find the same eigenvalues, with
    # more operator applications
    model = dt.rand_ddae(300, 210, 0.02, 2, seed=5)
    family = dt.AffineFamily(model, dt.ModelDerivatives.zero(model), (0, 1))
    shift_invert, krylov_schur = spectral._shift_invert, spectral._krylov_schur
    applied = []

    def counting(basis, apply, *args):
        def counted(q):
            applied[-1] += 1
            return apply(q)

        applied.append(0)
        return krylov_schur(basis, counted, *args)

    monkeypatch.setattr(spectral, "_krylov_schur", counting)
    runs = {}
    for forced in (None, 0.0):
        if forced is not None:
            monkeypatch.setattr(spectral, "_shift_invert",
                                partial(_forced_tol, shift_invert, forced))
        runs[forced] = dt.spectrum_at(family, 0.0, N=8, shift=-1 + 1j,
                                      count=6, tol=1e-10)
    stopped, full = runs[None], runs[0.0]
    assert len(applied) == 2
    assert len(stopped) == len(full) == 6
    for a, b in zip(stopped, full):
        assert abs(a.s - b.s) <= 1e-9
    assert applied[1] > applied[0]


def _forced_tol(shift_invert, forced, pencil, sigma, count, tol):
    return shift_invert(pencil, sigma, count, forced)


def _restarts(monkeypatch):
    """The basis columns before and after each Krylov-Schur restart."""
    restart = spectral._CompactBasis.restart
    columns = []

    def recording(self, *args):
        before = self.k
        restart(self, *args)
        columns.append((before, self.k))

    monkeypatch.setattr(spectral._CompactBasis, "restart", recording)
    return columns


def test_restarted_arnoldi_matches_dense_eig(sparse_path, monkeypatch):
    # ten wanted eigenvalues take several Krylov-Schur restarts, and the
    # r-row basis fills up and is compressed on the way
    pen = dt.discretize(dt.split_form(dt.rand_ddae(100, 70, 0.05, 2, seed=9)),
                        8)
    columns = _restarts(monkeypatch)
    shift = 0.5j
    pairs = dt.solve_discretized(pen, shift, 10)
    assert len(columns) >= 3
    assert any(after < before for before, after in columns)
    A, B = pencil_pair(pen)
    w = la.eig(A.toarray(), B.toarray(), right=False)
    w = w[np.abs(w) <= spectral.INFINITE_EIGENVALUE_THRESHOLD]
    nearest = w[np.argsort(np.abs(w - shift))[:10]]
    assert len(pairs) == 10
    for pair in pairs:
        assert np.min(np.abs(nearest - pair.s)) < 1e-9
        assert pair.residual < 1e-10


@pytest.mark.parametrize("r", [16, 40])
def test_compact_basis_holds_every_added_vector(r):
    # U starts with room for 2 (m + N + 1) = 12 columns, grows past it,
    # and stops at r columns, where it spans C^r; each added vector is
    # its coefficients on the orthonormal U
    basis = spectral._CompactBasis(r, 2, 3)
    rng = np.random.default_rng(1)
    for _ in range(30):
        y = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        c = basis.add(y)
        assert np.allclose(c @ basis.U[: basis.k], y, rtol=0, atol=1e-12)
    U = basis.U[: basis.k]
    assert basis.k == min(r, 31) and basis.Q.shape[2] == len(basis.U)
    assert np.allclose(U.conj() @ U.T, np.eye(basis.k), rtol=0, atol=1e-13)


def test_restart_cap_raises(sparse_path, monkeypatch):
    pen = dt.discretize(dt.split_form(dt.rand_ddae(100, 70, 0.05, 2, seed=9)),
                        8)
    monkeypatch.setattr(spectral, "MAX_RESTARTS", 0)
    with pytest.raises(dt.NonConvergenceError, match="0 restarts"):
        dt.solve_discretized(pen, 0.5j, 10)


def test_shift_on_an_eigenvalue(sparse_path):
    r = 200
    model = dt.DelayedLinearModel(
        sparse.eye_array(r), sparse.diags_array(np.arange(1.0, r + 1.0))
    )
    pairs = dt.solve_discretized(dt.discretize(dt.split_form(model), 0),
                                 5.0, 3)
    got = sorted(p.s.real for p in pairs)
    np.testing.assert_allclose(got, [4.0, 5.0, 6.0], rtol=0, atol=1e-9)
    assert all(abs(p.s.imag) < 1e-9 for p in pairs)


def test_singular_interior_block_names_the_shift(sparse_path, hayes_model):
    pen = dt.discretize(dt.split_form(hayes_model), 8)
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


def test_real_shift_keeps_conjugate_pairs_whole():
    # rand_ddae seed 20 at p = 0: the six pencil eigenvalues nearest the
    # shift 0 hold one member of the pair -2.1618313 +/- 0.2787715j; the
    # form is real, so the conjugate of its refined pair is one too and joins
    family = _drifting(100, 70, 0.02, 2, 20, 0.6)
    pairs = dt.spectrum_at(family, 0.0, N=8, shift=0j, count=6)
    values = [e.s for e in pairs]
    assert len(values) == 7
    for s in values:
        assert min(abs(t - s.conjugate()) for t in values) < 1e-9
    pair = [s for s in values if abs(s - (-2.1618313 + 0.2787715j)) < 1e-6
            or abs(s - (-2.1618313 - 0.2787715j)) < 1e-6]
    assert len(pair) == 2
