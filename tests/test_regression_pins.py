"""The answers of four sweeps, pinned: the final eigenvalue and every
crossing p* of the Hayes margin, the tabulated two-crossing family and the
WAMS demo at the benchmark's fixed-step settings, and of a drifting r = 60
model in both slot layouts.  A change to the step loop that moves any of
them by more than 1e-13 relative changes the answers, not just the speed.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, manifest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RTOL = 1e-13


def upper_seed(family, p0, N, shift, count, options):
    """The rightmost refined pair with Im s > 0, as the benchmark seeds."""
    pairs = dt.spectrum_at(family, p0, N=N, shift=shift, count=count,
                           tol=options.corrector_tol, wams=options.wams)
    seed = max((e for e in pairs if e.s.imag > 1e-8), key=lambda e: e.s.real)
    return dt.TrackState.from_eigenpair(p0, seed.s, seed.phi, seed.residual)


def hayes():
    man = manifest.load_manifest(
        os.path.join(ROOT, "fixtures", "hayes", "manifest.ini"))
    return man.family, upper_seed(man.family, man.p_init, man.init.N,
                                  man.init.shift, man.init.count,
                                  man.track), man.track


def two_crossing():
    def snapshot(p):
        d = 0.2 * (p - 1.0) * (p - 3.0)
        return dt.DelayedLinearModel(np.eye(2),
                                     [[0.0, 1.0], [-4.0, -2.0 * d]])

    fam = dt.TabulatedFamily([(p, snapshot(p))
                              for p in np.linspace(0.0, 4.0, 401)])
    opts = dt.TrackOptions(dp=2e-3, corrector_every=10, p_fin=4.0)
    return fam, upper_seed(fam, 0.0, 0, 0j, 6, opts), opts


def wams():
    A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
    base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-4.0, -0.4]],
                                 [(0.05, A1)])
    slopes = dt.ModelDerivatives(np.zeros((2, 2)), np.zeros((2, 2)),
                                 [0.5 * A1])
    fam = dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))
    spec = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
    opts = dt.TrackOptions(dp=1e-3, corrector_every=10, wams=spec,
                           p_fin=1.0)
    return fam, upper_seed(fam, 0.0, 12, 2j, 4, opts), opts


def drifting():
    base = dt.rand_ddae(60, 42, 0.02, 2, 3)
    zero = sparse.csr_array((60, 60))
    slopes = dt.ModelDerivatives(
        zero, 0.6 * (base.A0 + 3.0 * sparse.eye_array(60)), [zero] * 2)
    fam = dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))
    pairs = dt.spectrum_at(fam, 0.0, N=8, shift=0j, count=6)
    seed = max(pairs, key=lambda e: e.s.imag)
    initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi,
                                           seed.residual)
    return fam, initial, dt.TrackOptions(dp=1e-2, corrector_every=4,
                                         method="heun")


# (case, slot layout) -> (samples, final s, crossings p*)
PINS = {
    ("hayes", "dense"): (
        1001, 0.08640800141906868 + 0.8368432068724955j,
        [1.5707963256835307]),
    ("two_crossing", "dense"): (
        2001, -0.6000000000000001 + 1.9078784028338913j,
        [0.999999998092652, 3.0000000019072397]),
    ("wams", "dense"): (
        1001, -0.21224826110458084 + 1.9906027644307556j, []),
    ("drifting", "dense"): (
        101, -2.2905684010576133 + 0.7144077900368943j, []),
    ("drifting", "csr"): (
        101, -2.2905684010576133 + 0.7144077900368944j, []),
}
CASES = {"hayes": hayes, "two_crossing": two_crossing, "wams": wams,
         "drifting": drifting}


@pytest.mark.parametrize("name, layout", list(PINS),
                         ids=[f"{name}-{layout}" for name, layout in PINS])
def test_sweep_answers_are_pinned(name, layout, monkeypatch):
    if layout == "csr":
        monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)
    family, initial, options = CASES[name]()
    traj = dt.track_run(family, initial, options)
    crossings = dt.find_crossing(family, traj, options)
    samples, final, p_stars = PINS[name, layout]
    assert not traj.truncated and len(traj.samples) == samples
    assert abs(traj.samples[-1].s - final) <= RTOL * abs(final)
    assert len(crossings) == len(p_stars)
    for (p_star, _), pin in zip(crossings, p_stars):
        assert abs(p_star - pin) <= RTOL * abs(pin)
