"""Families own their split form: the sweep never rebuilds a model."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, track

from conftest import random_state


def two_crossing_family():
    # Re(s) = -0.2 (p - 1)(p - 3): unstable on (1, 3), stable outside
    def snapshot(p):
        d = 0.2 * (p - 1.0) * (p - 3.0)
        return dt.DelayedLinearModel(
            np.eye(2), [[0.0, 1.0], [-4.0, -2.0 * d]]
        )

    return dt.TabulatedFamily(
        [(p, snapshot(p)) for p in np.linspace(0.0, 4.0, 401)]
    )


def scalar_affine_family():
    # s = (p - 1) - 0.2 exp(-0.5 s): a real root crosses s = 0 at p = 1.2
    base = dt.DelayedLinearModel([[1.0]], [[-1.0]], [(0.5, [[-0.2]])])
    slopes = dt.ModelDerivatives([[0.0]], [[1.0]], [[[0.0]]])
    return dt.AffineFamily(base, slopes, (0.0, 2.0))


def hayes_family():
    model = dt.DelayedLinearModel([[1.0]], [[0.0]], [(1.0, [[-1.0]])])
    return dt.DelayParameterFamily(model, 0, (0.5, 2.5))


def split_hayes_family():
    # Hayes with its delayed term split in two, both delays equal to p:
    # x' = -0.3 x(t - p) - 0.7 x(t - p), margin pi/2
    base = dt.DelayedLinearModel([[1.0]], [[0.0]],
                                 [(0.0, [[-0.3]]), (0.0, [[-0.7]])])
    return dt.AffineFamily(base, dt.ModelDerivatives.zero(base, [1.0, 1.0]),
                           (0.5, 2.5))


def two_moving_delays_family():
    # every matrix moves and so do both delays, one up, one down
    rng = np.random.default_rng(81)
    r = 3

    def mat(scale=1.0):
        return scale * rng.standard_normal((r, r))

    base = dt.DelayedLinearModel(
        np.eye(r) + mat(0.1), mat() - 2.0 * np.eye(r),
        [(0.4, mat(0.5)), (0.9, mat(0.5))],
    )
    slopes = dt.ModelDerivatives(mat(0.1), mat(), [mat(), mat()],
                                 dtaus=[0.5, -0.3])
    return dt.AffineFamily(base, slopes, (0.0, 1.0))


def tabulated_moving_delays_family():
    # every matrix and both delays move from snapshot to snapshot
    rng = np.random.default_rng(82)
    r = 3

    def snapshot(taus):
        return dt.DelayedLinearModel(
            np.eye(r) + 0.1 * rng.standard_normal((r, r)),
            rng.standard_normal((r, r)) - 2.0 * np.eye(r),
            [(tau, 0.5 * rng.standard_normal((r, r))) for tau in taus],
        )

    return dt.TabulatedFamily([(0.0, snapshot((0.4, 0.9))),
                               (1.0, snapshot((0.6, 0.7))),
                               (2.0, snapshot((0.5, 1.1)))])


def tabulated_hayes_family():
    # x' = -x(t - tau), tau tabulated as 1.0, 1.2, 2.0 at p = 0, 1, 2
    return dt.TabulatedFamily([
        (float(p), dt.DelayedLinearModel([[1.0]], [[0.0]],
                                         [(tau, [[-1.0]])]))
        for p, tau in enumerate((1.0, 1.2, 2.0))
    ])


def sweep_case(kind):
    """(family, initial state, options, true crossings) of one sweep."""
    if kind == "affine":
        fam = scalar_affine_family()
        ref = dt.refine_newton(fam.split_form(0.5), -0.8, np.ones(1),
                               tol=1e-12)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=10, p_fin=2.0)
        return fam, dt.TrackState.from_eigenpair(0.5, ref.s, ref.phi), \
            opts, [1.2]
    if kind == "tabulated":
        fam = two_crossing_family()
        w, V = np.linalg.eig(fam.evaluate(0.0).A0.toarray())
        i = int(np.argmax(w.imag))
        ref = dt.refine_newton(fam.split_form(0.0), w[i], V[:, i],
                               tol=1e-12)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=10, p_fin=4.0)
        return fam, dt.TrackState.from_eigenpair(0.0, ref.s, ref.phi), \
            opts, [1.0, 3.0]
    fam = hayes_family() if kind == "delay_param" else split_hayes_family()
    ref = dt.refine_newton(fam.split_form(1.0), -0.3 + 1.3j, np.ones(1),
                           tol=1e-12)
    opts = dt.TrackOptions(dp=1e-2, corrector_every=10,
                           p_fin=2.0)
    return fam, dt.TrackState.from_eigenpair(1.0, ref.s, ref.phi), opts, \
        [np.pi / 2]


@pytest.mark.parametrize("kind", ["affine", "tabulated", "delay_param",
                                  "split_hayes"])
def test_sweep_never_evaluates_the_family(kind, monkeypatch):
    fam, initial, opts, truth = sweep_case(kind)

    def rebuilt(p):
        raise AssertionError("a model was rebuilt from the family")

    monkeypatch.setattr(fam, "evaluate", rebuilt)
    monkeypatch.setattr(fam, "derivative", rebuilt)
    traj = dt.track_run(fam, initial, opts)
    assert not traj.truncated and traj.samples[-1].p == opts.p_fin
    crossings = dt.find_crossing(fam, traj, opts)
    assert len(crossings) == len(truth)
    for (p_star, s_star), t in zip(crossings, truth):
        assert abs(p_star - t) < 1e-6
        assert abs(s_star.real) < 1e-9
    last = traj.samples[-1]
    fresh = dt.reinitialize_at(fam, last.p, last, opts)
    assert fresh.residual <= opts.corrector_tol
    assert abs(fresh.s.real - last.s_r) < 1e-8


def test_tabulated_sweep_builds_no_csr_matrix(monkeypatch):
    fam, initial, opts, _ = sweep_case("tabulated")
    built = []
    init = sparse.csr_array.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_array, "__init__", counting)
    traj = dt.track_run(fam, initial, opts)
    monkeypatch.undo()
    assert len(traj.samples) == 401
    assert not built


def system_arrays(system):
    P = system.P.toarray() if sparse.issparse(system.P) else system.P
    return np.asarray(P), system.w, system.g


WAMS = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)


@pytest.mark.parametrize("kind", ["multi", "tabulated", "delay_param",
                                  "wams", "two_moving_delays",
                                  "tabulated_moving_delays"])
def test_family_form_matches_evaluated_model(kind):
    if kind == "multi":
        fam, wams, p = scalar_affine_family(), None, 0.73
    elif kind == "two_moving_delays":
        fam, wams, p = two_moving_delays_family(), None, 0.58
    elif kind == "tabulated":
        fam, wams, p = two_crossing_family(), None, 1.234
    elif kind == "tabulated_moving_delays":
        fam, wams, p = tabulated_moving_delays_family(), None, 1.37
    elif kind == "delay_param":
        fam, wams, p = hayes_family(), None, 1.37
    else:
        A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
        base = dt.DelayedLinearModel(
            np.eye(2), [[0.0, 1.0], [-4.0, -0.4]], [(0.05, A1)]
        )
        slopes = dt.ModelDerivatives(np.zeros((2, 2)), [[0.1, 0.0],
                                                        [0.3, -0.2]],
                                     [0.5 * A1])
        fam, wams, p = dt.AffineFamily(base, slopes, (0.0, 1.0)), WAMS, 0.61
    r = fam.split_form(p).r
    for k in range(5):
        st = random_state(r, seed=900 + k, p=p)
        got = system_arrays(dt.assemble(fam.split_form(p, wams), st))
        ref = system_arrays(dt.assemble(
            dt.split_form(fam.evaluate(p), fam.derivative(p), wams=wams),
            st,
        ))
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("dense", [True, False])
def test_moving_delays_dP_dp_matches_central_difference(dense, monkeypatch):
    # one rule for every delay: dP/dp of the coefficients against a
    # central difference of P(s, p) in p
    monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 128 if dense else 0)
    fam = two_moving_delays_family()
    s, p, h = 0.3 + 1.1j, 0.6, 1e-6

    def matrix(p, which):
        form = fam.split_form(p)
        P = charfun.eval_P(form.slots, charfun.coefficients(form, s)[which])
        return P.toarray() if sparse.issparse(P) else P

    dP = matrix(p, 2)
    fd = (matrix(p + h, 0) - matrix(p - h, 0)) / (2.0 * h)
    assert np.abs(dP - fd).max() <= 1e-7 * max(1.0, np.abs(dP).max())


def test_tabulated_moving_delay_margin():
    # the Hayes margin tau* = pi/2 lies on the second segment, where
    # tau = 1.2 + 0.8 (p - 1)
    fam = tabulated_hayes_family()
    ref = dt.refine_newton(fam.split_form(0.0), -0.3 + 1.3j, np.ones(1),
                           tol=1e-12)
    opts = dt.TrackOptions(dp=1e-2, corrector_every=10,
                           p_fin=2.0)
    traj = dt.track_run(fam, dt.TrackState.from_eigenpair(0.0, ref.s,
                                                          ref.phi), opts)
    assert not traj.truncated and traj.samples[-1].p == 2.0
    (p_star, s_star), = dt.find_crossing(fam, traj, opts)
    assert abs(p_star - (1.0 + (np.pi / 2 - 1.2) / 0.8)) < 1e-8
    assert abs(s_star - 1j) < 1e-8


@pytest.mark.parametrize("p_init", [0.5, 1.5])
def test_regime_is_the_family_s_wherever_the_sweep_starts(p_init,
                                                          monkeypatch):
    # tau = 1.0, 1.0, 2.0 at p = 0, 1, 2: the delay is fixed on the first
    # segment and moves on the second.  A sweep from either one follows
    # the family; a WAMS spec, which needs every delay fixed, is rejected
    # at the first form, before any step, and so is its spectrum
    fam = dt.TabulatedFamily([
        (float(p), dt.DelayedLinearModel([[1.0]], [[0.0]],
                                         [(tau, [[-1.0]])]))
        for p, tau in enumerate((1.0, 1.0, 2.0))
    ])
    ref = dt.refine_newton(fam.split_form(p_init), 0.1 + 1.2j, np.ones(1),
                           tol=1e-12)
    initial = dt.TrackState.from_eigenpair(p_init, ref.s, ref.phi)
    steps = []
    step = track.integrate_step

    def counting(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(track, "integrate_step", counting)
    traj = dt.track_run(fam, initial, dt.TrackOptions(
        dp=1e-2, corrector_every=10, p_fin=2.0))
    assert not traj.truncated and traj.samples[-1].p == 2.0
    assert len(steps) == len(traj.samples) - 1
    steps.clear()
    spec = dt.WamsSpec(tau0=1.0, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
    fixed = "WAMS shaping needs a family whose delays are fixed"
    with pytest.raises(dt.ConfigurationError, match=fixed):
        dt.track_run(fam, initial, dt.TrackOptions(dp=1e-2, wams=spec,
                                                   p_fin=2.0))
    assert not steps
    with pytest.raises(dt.ConfigurationError, match=fixed):
        dt.spectrum_at(fam, p_init, N=8, shift=1.2j, count=1, wams=spec)


def test_shared_table_gives_every_thread_its_own_segment():
    # a table caches the slots of one segment, the snapshot stacks of its
    # chord and each csr chord formed; threads that jump between segments
    # of one table must still each get the form and the slope of their p
    fam, ref = two_crossing_family(), two_crossing_family()
    ps = np.linspace(0.0, 4.0, 157)
    expected = {p: (ref.split_form(p), ref.derivative(p).dA0.toarray())
                for p in ps}
    wrong = []

    def sweep(order):
        for i, p in enumerate(np.tile(order, 5)):
            form, (want, want_slope) = fam.split_form(p), expected[p]
            if not (np.array_equal(form.slots, want.slots)
                    and form.weights == want.weights):
                wrong.append(p)
            # the csr chord costs far more: one pass of it
            if i < len(order) and not np.array_equal(
                    fam.derivative(p).dA0.toarray(), want_slope):
                wrong.append(p)

    rng = np.random.default_rng(5)
    orders = [rng.permutation(ps) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
