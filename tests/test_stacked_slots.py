"""Dense slots are one real stack, and a continuation state is evaluated
once: its residual and the first stage of the step from it come from one
assembly."""

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, spectral

from conftest import pencil_pair, random_model_with_derivatives, random_state


def model_slots(model, derivs):
    """The slots of ``model`` and ``derivs`` as a list of ndarrays."""
    mats = [model.E, model.A0, *(A for _, A in model.delay_terms),
            derivs.dE, derivs.dA0, *derivs.dA_terms]
    return [M.toarray() for M in mats]


def per_slot(mats, c):
    """sum_k c[k] mats[k], one slot at a time."""
    return sum(ck * M for ck, M in zip(c, mats))


def products(mats, rows, x):
    """Each row applied to x from one set of slot products, as
    ``spectral.assemble`` applies them."""
    apply = charfun.slot_products(mats, x)
    return np.array([apply(row) for row in rows])


def assert_close(a, b, rtol):
    assert np.abs(a - b).max() <= rtol * max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("layout", ["dense", "csr"])
@pytest.mark.parametrize("r", [1, 2, 100])
def test_slot_products_match_per_slot_sums(r, layout, monkeypatch):
    if layout == "csr":
        monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)
    model, derivs = random_model_with_derivatives(r, 2, seed=40 + r)
    form = dt.split_form(model, derivs)
    mats = model_slots(model, derivs)
    if layout == "dense":
        assert isinstance(form.slots, np.ndarray)
        assert form.slots.dtype == np.float64
        assert form.slots.shape == (8, r, r)
        np.testing.assert_array_equal(form.slots, np.stack(mats))
    else:
        assert all(sparse.issparse(M) for M in form.slots)
    st = random_state(r, seed=r)
    rows = np.array(charfun.coefficients(form, st.s))
    for c in rows:
        P = dt.eval_P(form.slots, c)
        P = P.toarray() if sparse.issparse(P) else P
        assert_close(P, per_slot(mats, c), 1e-13)
        y = charfun.slot_products(form.slots, st.phi)(c)
        assert y.shape == (r,)
        assert_close(y, per_slot(mats, c) @ st.phi, 1e-13)
    stacked = products(form.slots, rows, st.phi)
    assert stacked.shape == (3, r)
    for y, c in zip(stacked, rows):
        assert_close(y, per_slot(mats, c) @ st.phi, 1e-13)
    # a row gives the same digits alone as after the other rows of its
    # array of coefficients, in either field
    for s, phi in ((st.s, st.phi), (-0.7, st.phi.real)):
        array = charfun.coefficients(form, s)
        assert isinstance(array, np.ndarray) and array.shape == (3, 8)
        assert array.dtype == (complex if isinstance(s, complex) else float)
        for order in (array, array[::-1]):
            stacked = products(form.slots, order, phi)
            assert stacked.dtype == array.dtype
            for y, c in zip(stacked, order):
                np.testing.assert_array_equal(
                    y, charfun.slot_products(form.slots, phi)(c))


@pytest.mark.parametrize("mu", [0, 2])
def test_dense_slot_stack_is_the_stack_of_the_slots(mu):
    # the stack is written slot by slot into one array; it must equal the
    # np.stack of per-slot copies bit for bit
    model, derivs = random_model_with_derivatives(6, mu, seed=13 + mu)
    got = charfun.slot_matrices(model, derivs)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, np.stack(model_slots(model, derivs)))
    n = mu + 2
    assert np.array_equal(charfun.slot_matrices(model),
                          np.stack(model_slots(model, derivs)[:n]))


def test_real_coefficients_on_real_slots_stay_exactly_real(monkeypatch):
    model, derivs = random_model_with_derivatives(6, 2, seed=5)
    mats = model_slots(model, derivs)
    dense = dt.split_form(model, derivs)
    monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)
    for form in (dense, dt.split_form(model, derivs)):
        check_real_field(form, mats)


def check_real_field(form, mats):
    # a float s gives real rows, a real P and real products
    rows = np.array(charfun.coefficients(form, -0.7))
    assert rows.dtype == np.float64
    phi = np.random.default_rng(1).standard_normal(6)
    for c in rows:
        P = dt.eval_P(form.slots, c)
        assert P.dtype == np.float64
        P = P.toarray() if sparse.issparse(P) else P
        assert_close(P, per_slot(mats, c), 1e-13)
    real = products(form.slots, rows, phi)
    assert real.dtype == np.float64
    for y, c in zip(real, rows):
        assert_close(y, per_slot(mats, c) @ phi, 1e-13)
    # the same s as a complex number keeps the complex field, with the
    # same values
    crows = np.array(charfun.coefficients(form, -0.7 + 0j))
    assert crows.dtype == complex
    cproducts = products(form.slots, crows, phi.astype(complex))
    assert cproducts.dtype == complex and not cproducts.imag.any()
    assert_close(cproducts.real, real, 1e-15)


def test_tabulated_form_on_both_sides_of_a_snapshot():
    rng = np.random.default_rng(8)

    def snapshot():
        return dt.DelayedLinearModel(
            np.eye(3), rng.standard_normal((3, 3)),
            [(0.4, rng.standard_normal((3, 3)))],
        )

    fam = dt.TabulatedFamily([(0.0, snapshot()), (1.0, snapshot()),
                              (2.0, snapshot())])
    s = -0.3 + 0.9j
    for p in (0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 1.5, 1.0 - 1e-3):
        form = fam.split_form(p)
        assert isinstance(form.slots, np.ndarray)
        assert form.slots.shape == (6, 3, 3)
        c, _, _ = charfun.coefficients(form, s)
        one = dt.split_form(fam.evaluate(p))
        c1, _, _ = charfun.coefficients(one, s)
        assert_close(dt.eval_P(form.slots, c), dt.eval_P(one.slots, c1),
                     1e-13)


def drifting_family(r, seed):
    base = dt.rand_ddae(r, int(0.7 * r), 0.02, 2, seed)
    zero = sparse.csr_array((r, r))
    slopes = dt.ModelDerivatives(
        zero, 0.6 * (base.A0 + 3.0 * sparse.eye_array(r)), [zero] * 2
    )
    return dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))


def complex_start(family, p, N=8):
    pairs = dt.spectrum_at(family, p, N=N, shift=0j, count=6)
    seed = max(pairs, key=lambda e: e.s.imag)
    assert seed.s.imag > 1e-3
    return dt.TrackState.from_eigenpair(p, seed.s, seed.phi, seed.residual)


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_uncorrected_residuals_are_the_eigenpair_residual(layout,
                                                          monkeypatch):
    if layout == "csr":
        monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)
    fam = drifting_family(60, 3)
    initial = complex_start(fam, 0.0)
    opts = dt.TrackOptions(dp=1e-2, corrector_every=4, p_fin=0.2,
                           method="heun")
    traj = dt.track_run(fam, initial, opts)
    assert not traj.truncated and len(traj.samples) == 21
    for k, st in enumerate(traj.samples):
        if k % opts.corrector_every == 0 and k > 0:
            continue  # corrected: the residual of the Newton polish
        form = fam.split_form(st.p)
        c, _, _ = charfun.coefficients(form, st.s)
        v = charfun.slot_products(form.slots, st.phi)(c)
        ref = np.linalg.norm(v) / np.linalg.norm(st.phi)
        assert abs(st.residual - ref) <= 1e-14 * ref


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_uncorrected_euler_step_evaluates_the_family_once(layout,
                                                          monkeypatch):
    if layout == "csr":
        monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)
    fam = drifting_family(30, 3)
    initial = complex_start(fam, 0.0)
    forms, systems, states = [], [], []
    split_form, assemble = fam.split_form, spectral.assemble
    post_init = dt.TrackState.__post_init__

    def counting(p, wams=None):
        forms.append(p)
        return split_form(p, wams)

    def assembling(form, pair):
        systems.append(pair.p)
        return assemble(form, pair)

    def constructing(state):
        states.append(1)
        post_init(state)

    monkeypatch.setattr(fam, "split_form", counting)
    monkeypatch.setattr(spectral, "assemble", assembling)
    monkeypatch.setattr(dt.TrackState, "__post_init__", constructing)
    opts = dt.TrackOptions(dp=1e-2, corrector_every=0, p_fin=0.1)
    residual = initial.residual
    traj = dt.track_run(fam, initial, opts)
    assert not traj.truncated and len(traj.samples) == 11
    # one form and one system for the initial state, then one per step:
    # no sample's residual is computed again
    assert len(forms) == len(traj.samples)
    assert forms == [st.p for st in traj.samples]
    assert systems == forms
    # one state per sample, given its residual in place: the run's copy of
    # the initial state, then the state of each step, and one more copy
    # that puts the last step exactly on p_fin; the caller's initial state
    # keeps its own residual
    assert len(states) == len(traj.samples) + 1
    assert traj.samples[0] is not initial and initial.residual == residual


def test_converged_pair_forms_no_matrix(monkeypatch):
    fam = drifting_family(30, 3)
    form = fam.split_form(0.0)
    pair = complex_start(fam, 0.0)
    calls = []
    eval_P = charfun.eval_P

    def counting(*args):
        calls.append(1)
        return eval_P(*args)

    monkeypatch.setattr(charfun, "eval_P", counting)
    again = dt.refine_newton(form, pair.s, pair.phi)
    assert calls == []
    assert again.s == pair.s and again.residual <= 1e-10
    # an unconverged start forms P(s) once per Newton step
    dt.refine_newton(form, pair.s + 1e-3, pair.phi)
    assert 1 <= len(calls) <= 5


def reference_newton(form, s, phi, tol=1e-10, max_iter=25):
    """The Newton corrector as a reference: every coefficient row applied
    to phi, the full bordered matrix solved by ``np.linalg.solve``."""
    s, phi = spectral.in_field(s, phi)
    quad = phi @ phi
    if abs(quad) > 1e-12 * np.linalg.norm(phi) ** 2:
        phi = phi / np.sqrt(quad)
    for _ in range(max_iter):
        c, c_s, c_p = charfun.coefficients(form, s)
        top, w, _ = products(form.slots, [c, c_s, c_p], phi)
        residual = float(np.linalg.norm(top) / np.linalg.norm(phi))
        defect = (phi @ phi - 1.0) / 2.0
        if residual <= tol and abs(2.0 * defect) <= tol:
            return s, phi, residual
        r = len(phi)
        K = np.zeros((r + 1, r + 1), dtype=top.dtype)
        K[:r, :r], K[:r, r], K[r, :r] = dt.eval_P(form.slots, c), w, phi
        z = np.linalg.solve(K, np.append(-top, -defect))
        phi, s = phi + z[:r], s + z[r].item()
    raise AssertionError("reference Newton did not converge")


def test_corrector_forms_no_forcing(monkeypatch):
    # a Newton iteration applies the rows of P(s) and P'(s) to phi and
    # never the dP/dp row: the forcing -(dP/dp) phi is the predictor's
    fam = drifting_family(100, 11)
    form = fam.split_form(0.3)
    pairs = dt.spectrum_at(fam, 0.3, N=8, shift=0j, count=6)
    start = max((e for e in pairs if abs(e.s.imag) < 1e-8),
                key=lambda e: e.s.real)
    # the real pair, off by 1e-3 in s: a few Newton steps in real arithmetic
    phi0 = (start.phi / start.phi[np.argmax(abs(start.phi))]).real
    systems, applied = [], []
    assemble, slot_products = spectral.assemble, charfun.slot_products

    def assembling(form, pair):
        systems.append(pair.s)
        return assemble(form, pair)

    def counting(mats, x):
        apply = slot_products(mats, x)

        def counted(row):
            applied.append(row)
            return apply(row)
        return counted

    def forcing(system):
        raise AssertionError("the corrector formed -(dP/dp) phi")

    monkeypatch.setattr(spectral, "assemble", assembling)
    monkeypatch.setattr(charfun, "slot_products", counting)
    monkeypatch.setattr(spectral.ContinuationSystem, "g", property(forcing))
    ref = dt.refine_newton(form, start.s.real + 1e-3, phi0)
    assert isinstance(ref.s, float) and ref.residual <= 1e-10
    assert len(systems) >= 3
    assert len(applied) == 2 * len(systems)
    for s, (c, c_s) in zip(systems, zip(applied[::2], applied[1::2])):
        rows = charfun.coefficients(form, s)
        np.testing.assert_array_equal(c, rows[0])
        np.testing.assert_array_equal(c_s, rows[1])


def test_corrector_matches_reference_on_hayes(hayes_family):
    form = hayes_family.split_form(1.0)
    ref = dt.refine_newton(form, -0.3 + 1.3j, [1.0])
    s, phi, residual = reference_newton(form, -0.3 + 1.3j, [1.0])
    assert ref.s == s and ref.residual == residual
    np.testing.assert_array_equal(ref.phi, phi)


def test_dense_qz_pair_is_the_assembled_pencil(monkeypatch):
    model, _ = random_model_with_derivatives(3, 2, seed=11)
    pencil = dt.discretize(dt.split_form(model), 8)
    A, B = spectral._dense_pair(pencil)
    SigmaA, SigmaE = pencil_pair(pencil)
    np.testing.assert_array_equal(A, SigmaA.toarray())
    np.testing.assert_array_equal(B, SigmaE.toarray())

    def built(*args, **kwargs):
        raise AssertionError("a sparse matrix was built for dense QZ")

    monkeypatch.setattr(sparse, "kron", built)
    monkeypatch.setattr(sparse, "block_diag", built)
    pairs = spectral.solve_discretized(pencil, 0j, 4)
    assert len(pairs) == 4
