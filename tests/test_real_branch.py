"""A real branch is tracked in real arithmetic.

A state whose phi is real, with s.imag == 0, is a real state: its
coefficients, slot products, P(s) and bordered solves are real, on dense
and csr slots alike, while the public outputs (``Trajectory.eigenvalues``,
the s_star of ``find_crossing``) stay complex.  A held sparse factor of
one field serves a system of the other.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt
from delaytrack import charfun, spectral, track
from delaytrack.charfun import DENSE_MAX_DIM
from delaytrack.spectral import _factor, bordered_solve

from conftest import random_model_with_derivatives, unstack


def assert_meets_target(P, w, phi, f, t, x, ds):
    """The contract of every sparse solve: a bordered residual of at most
    1e-13 ||(f, t)||."""
    res = math.hypot(np.linalg.norm(f - P @ x - w * ds), abs(t - phi @ x))
    assert res <= 1e-13 * math.hypot(np.linalg.norm(f), abs(t))


# ------------------------------------------------ the bordered solve


@pytest.mark.parametrize("layout", ["dense", "csr"])
def test_real_bordered_solve_is_real_and_matches_complex(layout,
                                                         monkeypatch):
    if layout == "csr":
        monkeypatch.setattr(charfun, "DENSE_MAX_DIM", 0)
    model, derivs = random_model_with_derivatives(40, 2, seed=9)
    form = dt.split_form(model, derivs)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(40)
    system = spectral.assemble(form, spectral.Eigenpair(-0.4, phi, math.nan))
    P = system.P
    assert P.dtype == np.float64 and system.w.dtype == np.float64
    assert sparse.issparse(P) == (layout == "csr")
    f, t = rng.standard_normal(40), 0.3
    x, ds = unstack(bordered_solve(P, system.w, phi, f, t))
    assert x.dtype == np.float64 and isinstance(ds, float)
    Pc = P.astype(complex)
    xc, dsc = unstack(bordered_solve(Pc, system.w.astype(complex),
                                     phi.astype(complex), f.astype(complex),
                                     t))
    assert xc.dtype == complex and isinstance(dsc, complex)
    got, want = np.append(x, ds), np.append(xc, dsc)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# ------------------------------------------------ held factor across fields


def embedded_coalescing_family(r=DENSE_MAX_DIM):
    """The coalescing companion family (eigenvalues -1 +/- sqrt(p - 1))
    embedded block-diagonally next to a stable diagonal, at a dimension
    whose slots are csr."""
    A0 = sparse.block_diag(
        ([[0.0, 1.0], [-2.0, -2.0]], sparse.diags(-3.0 - np.arange(r - 2))),
        format="csr")
    slope = sparse.block_diag(([[0.0, 0.0], [1.0, 0.0]],
                               sparse.csr_array((r - 2, r - 2))),
                              format="csr")
    zero = sparse.csr_array((r, r))
    base = dt.DelayedLinearModel(sparse.eye_array(r, format="csr"), A0)
    return dt.AffineFamily(base, dt.ModelDerivatives(zero, slope, []),
                           (0.2, 1.8))


def embedded_pair(family, p):
    """The refined eigenpair -1 + sqrt(p - 1) (its upper root below
    p = 1) of the embedded family: a real pair above the fold."""
    s0 = -1.0 + np.sqrt(complex(p - 1.0))
    if p > 1.0:
        s0 = s0.real
    phi = np.zeros(family.evaluate(p).r, dtype=type(s0))
    phi[:2] = 1.0, s0
    return dt.refine_newton(family.split_form(p), s0, phi, tol=1e-12)


def slope_system(family, pair, p):
    """(P, w, phi, f, t) of the continuation slope at ``pair``."""
    system = spectral.assemble(family.split_form(p), pair)
    return system.P, system.w, system.phi, system.g, 0.0


@pytest.mark.parametrize("first", ["real", "complex"])
@pytest.mark.parametrize("near", [True, False])
def test_one_held_factor_serves_both_fields(first, near, factor_count):
    fam = embedded_coalescing_family()
    real = embedded_pair(fam, 1.5)
    assert isinstance(real.s, float) and real.phi.dtype == np.float64
    if near:
        # the same point as a complex pair: the held factor is a good one
        cplx = spectral.Eigenpair(complex(real.s, 1e-7),
                                  real.phi.astype(complex), math.nan)
        p_c = 1.5
    else:
        # the complex pair below the fold: the held factor is a poor one
        cplx, p_c = embedded_pair(fam, 0.5), 0.5
        assert isinstance(cplx.s, complex)
    systems = {"real": slope_system(fam, real, 1.5),
               "complex": slope_system(fam, cplx, p_c)}
    for name, (P, *_) in systems.items():
        assert sparse.issparse(P)
        assert P.dtype == (np.float64 if name == "real" else complex)
    order = [first, "complex" if first == "real" else "real"]
    held = dt.HeldFactor()
    for k, name in enumerate(order):
        P, w, phi, f, t = systems[name]
        before = factor_count()
        x, ds = unstack(bordered_solve(P, w, phi, f, t, held))
        assert_meets_target(P, w, phi, f, t, x, ds)
        assert x.dtype == (np.float64 if name == "real" else complex)
        assert isinstance(ds, float if name == "real" else complex)
        if k == 0:
            assert factor_count() > before
        elif near:
            # the held factor of the other field serves: no new factor
            assert factor_count() == before
        xf, dsf = unstack(bordered_solve(P, w, phi, f, t))
        got, want = np.append(x, ds), np.append(xf, dsf)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert held.lu is not None


@pytest.mark.parametrize("p0, p_fin", [(0.5, 1.5), (1.5, 0.5)])
def test_sweep_through_a_fold_onto_the_other_field(p0, p_fin):
    # one held factor for the run: the fold and reinitialization move it
    # from a complex branch onto a real one, or back
    fam = embedded_coalescing_family()
    pair = embedded_pair(fam, p0)
    initial = dt.TrackState.from_eigenpair(p0, pair.s, pair.phi,
                                           pair.residual)
    opts = dt.TrackOptions(dp=1e-2, corrector_every=5, p_fin=p_fin,
                           reinit_on_fold=True)
    traj = dt.track_run(fam, initial, opts)
    kinds = [ev.kind for ev in traj.events]
    assert "reinit" in kinds and not traj.truncated
    assert traj.samples[-1].p == p_fin
    assert traj.eigenvalues.dtype == complex
    fields = [st.phi.dtype for st in traj.samples]
    assert fields[0] != fields[-1]
    assert traj.samples[-1].residual <= opts.corrector_tol


# ------------------------------------------------ a real sweep end to end


def drifting_family(seed):
    """The r = 100 rand_ddae model whose A0 drifts by 0.6 (A0 + 3 I) over
    p in [0, 1], as in the dense benchmark workload."""
    base = dt.rand_ddae(100, 70, 0.02, 2, seed)
    zero = sparse.csr_array((100, 100))
    slopes = dt.ModelDerivatives(
        zero, 0.6 * (base.A0 + 3.0 * sparse.eye_array(100)), [zero] * 2)
    return dt.AffineFamily(base, slopes, p_range=(0.0, 1.0))


def det_sign_change(family, lo, hi):
    """The p in [lo, hi] where det P(0, p) = det(-A0(p) - sum_j A_j)
    changes sign, bisected to machine precision."""
    def sign(p):
        m = family.evaluate(p)
        P0 = -(m.A0 + sum(A for _, A in m.delay_terms)).toarray()
        return np.linalg.slogdet(P0)[0]

    s_lo = sign(lo)
    assert s_lo * sign(hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sign(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_real_sweep_stays_real_through_corrector_and_crossing(monkeypatch):
    fam = drifting_family(11)
    pairs = dt.spectrum_at(fam, 0.0, N=8, shift=0j, count=6)
    seed = max((e for e in pairs if abs(e.s.imag) <= 1e-8),
               key=lambda e: e.s.real)
    initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi,
                                           seed.residual)
    newton = []
    refine = spectral.refine_newton

    def recording(form, s0, phi0, **kwargs):
        ref = refine(form, s0, phi0, **kwargs)
        newton.append((s0, phi0, ref))
        return ref

    monkeypatch.setattr(spectral, "refine_newton", recording)
    opts = dt.TrackOptions(dp=5e-3, corrector_every=10, p_fin=1.0)
    traj = dt.track_run(fam, initial, opts)
    assert not traj.truncated and len(traj.samples) == 201
    for st in traj.samples:
        assert isinstance(st.s, float) and st.phi.dtype == np.float64
    corrections = len(newton)
    assert corrections == 20
    crossings = dt.find_crossing(fam, traj, opts)
    assert len(newton) > corrections
    for s0, phi0, ref in newton:
        assert isinstance(s0, float) and phi0.dtype == np.float64
        assert isinstance(ref.s, float) and ref.phi.dtype == np.float64
    assert traj.eigenvalues.dtype == complex
    [(p_star, s_star)] = crossings
    assert isinstance(s_star, complex) and s_star.imag == 0.0
    assert abs(s_star.real) < 1e-9
    i = next(ev.index for ev in traj.events if ev.kind == "axis_crossing")
    truth = det_sign_change(fam, traj.samples[i - 1].p, traj.samples[i].p)
    assert abs(p_star - truth) <= 1e-9


def test_state_field_rule():
    real = track.TrackState(0.1, -0.5 + 0j, np.ones(3))
    assert isinstance(real.s, float) and real.phi.dtype == np.float64
    assert real.s_i == 0.0
    for s, phi in ((-0.5 + 1e-3j, np.ones(3)), (-0.5, np.ones(3) + 0j)):
        st = track.TrackState(0.1, s, phi)
        assert isinstance(st.s, complex) and st.phi.dtype == complex
    event = track.TrackEvent("reinit", 0.1, real.s)
    assert isinstance(event.s, complex)
