"""Families own their split form: the sweep never rebuilds a model."""

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt

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
        w, V = np.linalg.eig(fam.snapshots[0][1].A0.toarray())
        i = int(np.argmax(w.imag))
        ref = dt.refine_newton(fam.split_form(0.0), w[i], V[:, i],
                               tol=1e-12)
        opts = dt.TrackOptions(dp=1e-2, corrector_every=10, p_fin=4.0)
        return fam, dt.TrackState.from_eigenpair(0.0, ref.s, ref.phi), \
            opts, [1.0, 3.0]
    fam = hayes_family()
    ref = dt.refine_newton(fam.split_form(1.0), -0.3 + 1.3j, np.ones(1),
                           tol=1e-12)
    opts = dt.TrackOptions(dp=1e-2, corrector_every=10,
                           regime="delay_param", p_fin=2.0)
    return fam, dt.TrackState.from_eigenpair(1.0, ref.s, ref.phi), opts, \
        [np.pi / 2]


@pytest.mark.parametrize("kind", ["affine", "tabulated", "delay_param"])
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
                                  "wams"])
def test_family_form_matches_evaluated_model(kind):
    if kind == "multi":
        fam, wams, p = scalar_affine_family(), None, 0.73
    elif kind == "tabulated":
        fam, wams, p = two_crossing_family(), None, 1.234
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
    index = getattr(fam, "delay_index", None)
    r = fam.split_form(p).r
    for k in range(5):
        st = random_state(r, seed=900 + k, p=p)
        got = system_arrays(dt.assemble(fam.split_form(p, wams), st))
        ref = system_arrays(dt.assemble(
            dt.split_form(fam.evaluate(p), fam.derivative(p),
                          delay_index=index, wams=wams), st,
        ))
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())
