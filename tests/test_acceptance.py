"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line of every criterion.
"""

import resource
import time

import numpy as np
import pytest
import scipy.sparse as sparse

import delaytrack as dt

from conftest import (
    complex_split_oracle,
    moving_delay,
    random_model_with_derivatives,
    random_state,
    real_slope,
    system_as_dense,
)


def report(num, ok, text):
    print(f"\n[acceptance] criterion {num:2d} "
          f"{'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def hayes_family():
    model = dt.DelayedLinearModel([[1.0]], [[0.0]], [(1.0, [[-1.0]])])
    return dt.DelayParameterFamily(model, 0, (0.5, 2.5))


def hayes_initial(family, p=1.0):
    ref = dt.refine_newton(
        family.split_form(p), -0.3 + 1.3j, np.array([1.0 + 0j]), tol=1e-12
    )
    return dt.TrackState.from_eigenpair(p, ref.s, ref.phi, ref.residual)


def test_criterion_01_hayes_initializer_accuracy():
    fam = hayes_family()
    t0 = time.perf_counter()
    pairs = dt.spectrum_at(fam, 1.0, N=16, shift=1.3j, count=4)
    elapsed = time.perf_counter() - t0
    truth = dt.hayes_roots(0.0, -1.0, 1.0, count=2)
    principal = [p.s for p in pairs if abs(p.s.imag) > 0.5][:2]
    err = max(
        min(abs(s - t) for t in truth) for s in principal
    )
    ok = err < 1e-6 and elapsed < 1.0 and len(principal) == 2
    report(1, ok,
           f"Hayes initializer: principal-pair error {err:.2e} "
           f"(tol 1e-6), runtime {elapsed:.2f}s (limit 1s)")


def test_criterion_02_analytic_delay_margin():
    fam = hayes_family()
    t0 = time.perf_counter()
    initial = hayes_initial(fam)
    opts = dt.TrackOptions(
        dp=1e-3, corrector_every=10, regime="delay_param",
        p_fin=2.0,
    )
    traj = dt.track_run(fam, initial, opts)
    crossings = dt.find_crossing(fam, traj, opts)
    elapsed = time.perf_counter() - t0
    ok = len(crossings) == 1
    if ok:
        p_star, s_star = crossings[0]
        ok = (abs(p_star - np.pi / 2) < 1e-6
              and abs(s_star.real) < 1e-9
              and elapsed < 5.0)
        report(2, ok,
               f"delay margin: |p*-pi/2|={abs(p_star - np.pi / 2):.2e} "
               f"(tol 1e-6), |Re s*|={abs(s_star.real):.2e} (tol 1e-9), "
               f"runtime {elapsed:.2f}s (limit 5s)")
    else:
        report(2, False, f"expected 1 crossing, got {len(crossings)}")


def test_criterion_03_two_crossing_recovery():
    # Re(s) = -0.2 (p-1)(p-3): unstable on (1, 3), stable outside
    ps = np.linspace(0.0, 4.0, 401)

    def snapshot(p):
        d = 0.2 * (p - 1.0) * (p - 3.0)
        return dt.DelayedLinearModel(
            np.eye(2), [[0.0, 1.0], [-4.0, -2.0 * d]]
        )

    fam = dt.TabulatedFamily([(p, snapshot(p)) for p in ps])
    m0 = fam.evaluate(0.0)
    w, V = np.linalg.eig(m0.A0.toarray())
    i = int(np.argmax(w.imag))
    ref = dt.refine_newton(dt.split_form(m0), w[i], V[:, i], tol=1e-12)
    initial = dt.TrackState.from_eigenpair(0.0, ref.s, ref.phi)
    opts = dt.TrackOptions(dp=2e-3, corrector_every=10, regime="multi",
                           p_fin=4.0)
    traj = dt.track_run(fam, initial, opts)
    crossings = dt.find_crossing(fam, traj, opts)

    def rightmost_real(p):
        return max(np.linalg.eigvals(fam.evaluate(p).A0.toarray()).real)

    truths = []
    for lo, hi in ((0.5, 2.0), (2.0, 3.5)):
        a, b = lo, hi
        for _ in range(60):
            mid = 0.5 * (a + b)
            if rightmost_real(a) * rightmost_real(mid) <= 0.0:
                b = mid
            else:
                a = mid
        truths.append(0.5 * (a + b))
    ok = len(crossings) == 2 and all(
        abs(c[0] - t) < 1e-6 for c, t in zip(crossings, truths)
    )
    gaps = [abs(c[0] - t) for c, t in zip(crossings, truths)]
    report(3, ok,
           f"two crossings at p={[round(c[0], 6) for c in crossings]} vs "
           f"dense-root truth, gaps {[f'{g:.2e}' for g in gaps]} (tol 1e-6)")


def _encoding_case(model, derivs, st, **kw):
    sys_ = dt.assemble(dt.split_form(model, derivs, **kw), st)
    M, h = system_as_dense(sys_)
    Mo, ho = complex_split_oracle(model, derivs, st, **kw)
    scale = max(1.0, np.abs(Mo).max())
    return (np.abs(M - Mo).max() / scale,
            np.abs(h - ho).max() / max(1.0, np.abs(ho).max()))


def test_criterion_04_encoding_equivalence_suite():
    worst = 0.0
    count = 0
    wams = dt.WamsSpec(tau0=0.02, p_dr=0.1, T=0.02, alpha=1e-3, b=2.0)
    cases = []
    model, derivs = random_model_with_derivatives(4, 1, seed=1000)
    cases += [("single", model, derivs, {})] * 100
    for mu, n in ((2, 34), (3, 33), (5, 33)):
        model, derivs = random_model_with_derivatives(5, mu, seed=2000 + mu)
        cases += [("multi", model, derivs, {})] * n
    model, derivs = random_model_with_derivatives(4, 3, seed=3000)
    # delay 1 is p, and the delayed matrices move too
    cases += [("delay_param", model.with_delay(1, 0.8),
               moving_delay(derivs, 1), {})] * 100
    model, derivs = random_model_with_derivatives(4, 1, seed=4000)
    cases += [("wams", model, derivs, {"wams": wams})] * 100
    for k, (regime, model, derivs, kw) in enumerate(cases):
        st = random_state(model.r, seed=5000 + k,
                          p=0.8 if regime == "delay_param" else 0.4)
        em, eh = _encoding_case(model, derivs, st, **kw)
        worst = max(worst, em, eh)
        count += 1
    ok = worst <= 1e-13
    report(4, ok,
           f"encoding equivalence over {count} random states "
           f"(4 regimes): worst entrywise gap {worst:.2e} (tol 1e-13)")


def test_criterion_05_reduction_lattice():
    rng = np.random.default_rng(71)
    worst = 0.0

    def sprand(scale=1.0):
        M = rng.standard_normal((5, 5))
        M[rng.random((5, 5)) > 0.4] = 0.0
        return scale * M

    for trial in range(10):
        E, A0, A1 = sprand() + np.eye(5), sprand(), sprand(0.5)
        dE, dA0, dA1 = sprand(0.5), sprand(0.5), sprand(0.5)
        tau = float(rng.uniform(0.1, 1.0))
        st = random_state(5, seed=6000 + trial)

        one = dt.DelayedLinearModel(E, A0, [(tau, A1)])
        d_one = dt.ModelDerivatives(dE, dA0, [dA1])
        a, ha = system_as_dense(dt.assemble(dt.split_form(one, d_one), st))
        b, hb = system_as_dense(dt.assemble(dt.split_form(one, d_one), st))
        worst = max(worst, np.abs(a - b).max(), np.abs(ha - hb).max())

        spec = dt.WamsSpec.constant_delay(tau)
        c, hc = system_as_dense(
            dt.assemble(dt.split_form(one, d_one, wams=spec), st)
        )
        worst = max(worst, np.abs(a - c).max() / max(1.0, np.abs(a).max()),
                    np.abs(ha - hc).max())

        # equal-delay merge
        A1b = sprand(0.5)
        split = dt.DelayedLinearModel(E, A0, [(tau, A1), (tau, A1b)])
        d_split = dt.ModelDerivatives(dE, dA0, [dA1, np.zeros((5, 5))])
        merged = dt.DelayedLinearModel(E, A0, [(tau, A1 + A1b)])
        d_merged = dt.ModelDerivatives(dE, dA0, [dA1])
        d, hd = system_as_dense(
            dt.assemble(dt.split_form(split, d_split), st)
        )
        e, he = system_as_dense(
            dt.assemble(dt.split_form(merged, d_merged), st)
        )
        worst = max(worst, np.abs(d - e).max() / max(1.0, np.abs(d).max()),
                    np.abs(hd - he).max() / max(1.0, np.abs(hd).max()))
    ok = worst <= 1e-13
    report(5, ok,
           f"reduction lattice (multi->single, wams degenerate, equal-delay "
           f"merge) on random 5x5: worst gap {worst:.2e} (tol 1e-13)")


def _sensitivity_case(fam, ref, p, wams=None):
    model, derivs = fam.evaluate(p), fam.derivative(p)
    st = dt.TrackState.from_eigenpair(p, ref.s, ref.phi)
    sys_ = dt.assemble(dt.split_form(model, derivs, wams=wams), st)
    dy = real_slope(sys_)
    slope = complex(dy[2 * model.r], dy[2 * model.r + 1])
    d = 1e-5
    up = dt.refine_newton(fam.split_form(p + d, wams), ref.s, ref.phi,
                          tol=1e-12)
    dn = dt.refine_newton(fam.split_form(p - d, wams), ref.s, ref.phi,
                          tol=1e-12)
    return abs(slope - (up.s - dn.s) / (2 * d))


def test_criterion_06_sensitivity_oracle():
    gaps = {}

    # single: scalar x' = -p x - 0.8 x(t - 0.6)
    base = dt.DelayedLinearModel([[1.0]], [[0.0]], [(0.6, [[-0.8]])])
    slopes = dt.ModelDerivatives([[0.0]], [[-1.0]], [[[0.0]]])
    fam = dt.AffineFamily(base, slopes, (0.1, 1.5))
    roots = dt.hayes_roots(-0.7, -0.8, 0.6, count=2)
    ref = dt.refine_newton(fam.split_form(0.7), roots[0], np.array([1.0 + 0j]))
    gaps["single"] = _sensitivity_case(fam, ref, 0.7)

    # multi: 2x2 with two delays
    rng = np.random.default_rng(61)
    base = dt.DelayedLinearModel(
        np.eye(2), [[0.0, 1.0], [-2.0, -0.6]],
        [(0.15, 0.3 * rng.standard_normal((2, 2))),
         (0.4, 0.2 * rng.standard_normal((2, 2)))],
    )
    slopes = dt.ModelDerivatives(
        np.zeros((2, 2)), [[0.0, 0.0], [-0.5, -0.2]],
        [np.zeros((2, 2)), np.zeros((2, 2))],
    )
    fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
    ref = dt.spectrum_at(fam, 0.4, N=14, shift=1j, count=4)[0]
    gaps["multi"] = _sensitivity_case(fam, ref, 0.4)

    # delay_param: Hayes
    fam = hayes_family()
    ref = dt.refine_newton(fam.split_form(1.0), -0.3 + 1.3j,
                           np.array([1.0 + 0j]))
    gaps["delay_param"] = _sensitivity_case(fam, ref, 1.0)

    # wams: 3x3 with shaped delay
    rng = np.random.default_rng(62)
    r = 3
    base = dt.DelayedLinearModel(
        np.eye(r), rng.standard_normal((r, r)) - 2.0 * np.eye(r),
        [(0.02, 0.4 * rng.standard_normal((r, r)))],
    )
    slopes = dt.ModelDerivatives(
        np.zeros((r, r)), 0.5 * rng.standard_normal((r, r)),
        [np.zeros((r, r))],
    )
    fam = dt.AffineFamily(base, slopes, (0.0, 1.0))
    wams = dt.WamsSpec(tau0=0.02, p_dr=0.1, T=0.02, alpha=1e-3, b=2.0)
    ref = dt.spectrum_at(fam, 0.3, N=12, shift=0.5j, count=4, wams=wams)[0]
    gaps["wams"] = _sensitivity_case(fam, ref, 0.3, wams=wams)

    worst = max(gaps.values())
    ok = worst < 1e-5
    detail = ", ".join(f"{k}={v:.2e}" for k, v in gaps.items())
    report(6, ok, f"dsdp vs central differences: {detail} (tol 1e-5)")


def test_criterion_07_integrator_order():
    fam = hayes_family()
    initial = hayes_initial(fam)
    truth = dt.refine_newton(
        fam.split_form(1.5), -0.2 + 1.1j, np.array([1.0 + 0j]), tol=1e-13
    ).s

    def endpoint_error(dp, method):
        opts = dt.TrackOptions(
            dp=dp, method=method, corrector_every=0, regime="delay_param",
            p_fin=1.5,
        )
        traj = dt.track_run(fam, initial, opts)
        return abs(traj.samples[-1].s - truth)

    euler_ratio = endpoint_error(0.02, "euler") / endpoint_error(0.01, "euler")
    rk4_ratio = endpoint_error(0.1, "rk4") / endpoint_error(0.05, "rk4")
    ok = 1.7 <= euler_ratio <= 2.3 and rk4_ratio >= 12.0
    report(7, ok,
           f"integrator order on Hayes sweep: euler halving ratio "
           f"{euler_ratio:.2f} (window [1.7, 2.3]), rk4 ratio "
           f"{rk4_ratio:.1f} (floor 12)")


def test_criterion_08_trajectory_fidelity():
    # delay-free quadratic family
    base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    slopes = dt.ModelDerivatives(
        np.zeros((2, 2)), [[0.0, 0.0], [0.0, -1.0]], []
    )
    quad = dt.AffineFamily(base, slopes, (0.05, 1.2))
    m0 = quad.evaluate(0.1)
    w, V = np.linalg.eig(m0.A0.toarray())
    i = int(np.argmax(w.imag))
    ref = dt.refine_newton(dt.split_form(m0), w[i], V[:, i], tol=1e-12)
    initial = dt.TrackState.from_eigenpair(0.1, ref.s, ref.phi)
    opts = dt.TrackOptions(dp=0.9e-3, corrector_every=10, regime="multi",
                           p_fin=1.0)
    traj = dt.track_run(quad, initial, opts)
    rep_quad = dt.compare_trajectory(traj, quad, checkpoint_count=11,
                                     options=opts)

    fam = hayes_family()
    initial = hayes_initial(fam)
    opts = dt.TrackOptions(dp=1e-3, corrector_every=10,
                           regime="delay_param", p_fin=2.0)
    traj = dt.track_run(fam, initial, opts)
    rep_hayes = dt.compare_trajectory(traj, fam, checkpoint_count=11,
                                      options=opts)
    ok = rep_quad.max_distance < 1e-6 and rep_hayes.max_distance < 1e-6
    report(8, ok,
           f"trajectory fidelity: quadratic max {rep_quad.max_distance:.2e},"
           f" Hayes max {rep_hayes.max_distance:.2e} (tol 1e-6)")


def test_criterion_09_fold_handling():
    base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-2.0, -2.0]])
    slopes = dt.ModelDerivatives(
        np.zeros((2, 2)), [[0.0, 0.0], [1.0, 0.0]], []
    )
    fam = dt.AffineFamily(base, slopes, (0.2, 1.8))
    m0 = fam.evaluate(0.5)
    w, V = np.linalg.eig(m0.A0.toarray())
    i = int(np.argmax(w.imag))
    ref = dt.refine_newton(dt.split_form(m0), w[i], V[:, i], tol=1e-12)
    initial = dt.TrackState.from_eigenpair(0.5, ref.s, ref.phi)
    dp = 1e-3
    opts = dt.TrackOptions(
        dp=dp, corrector_every=10, regime="multi", p_fin=1.5,
        reinit_on_fold=True,
    )
    traj = dt.track_run(fam, initial, opts)
    folds = [ev for ev in traj.events if ev.kind == "fold"]
    reinits = [ev for ev in traj.events if ev.kind == "reinit"]
    ok = bool(folds) and abs(folds[0].p - 1.0) <= 2 * dp and bool(reinits)
    if ok:
        end = traj.samples[-1].s
        upper = -1.0 + np.sqrt(1.5 - 1.0)
        ok = abs(end - upper) < 1e-6 and not traj.truncated
        report(9, ok,
               f"fold at p={folds[0].p:.4f} (analytic 1.0, window 2dp), "
               f"resumed on larger-Re branch, endpoint gap "
               f"{abs(end - upper):.2e}")
    else:
        report(9, False,
               f"folds={[(round(e.p, 4)) for e in folds]}, "
               f"reinits={len(reinits)}")


def test_criterion_10_scalability_smoke():
    model = dt.rand_ddae(5000, 3500, 1e-3, 4, seed=123)
    derivs = dt.ModelDerivatives.zero(model)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    phi = phi / np.sqrt(phi @ phi)
    st = dt.TrackState.from_eigenpair(0.0, -1.0 + 2.0j, phi)
    t0 = time.perf_counter()
    sys_ = dt.assemble(dt.split_form(model, derivs), st)
    out = dt.integrate_step(lambda _: sys_, st, 1e-3, "euler")
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    sparse_P = sparse.issparse(sys_.P)
    ok = elapsed < 10.0 and peak_gb < 2.0 and sparse_P and out.p == 1e-3
    report(10, ok,
           f"r=5000, mu=4, density 1e-3: assemble+LU+step {elapsed:.2f}s "
           f"(limit 10s), process peak RSS {peak_gb:.2f} GB (limit 2), "
           f"sparse P(s): {sparse_P}")


def test_criterion_11_wams_transfer_derivatives():
    spec = dt.WamsSpec(tau0=0.01, p_dr=0.2, T=0.05, alpha=2e-3, b=1.7)
    from delaytrack.charfun import eval_dhp_ds, eval_dhs_ds
    res = np.linspace(0.1, 2.0, 10)
    ims = np.linspace(0.1, 9.0, 10)
    d = 1e-6
    worst = 0.0
    n = 0
    for sr in res:
        for si in ims:
            s = complex(sr, si)
            fd_hp = (dt.eval_hp(spec, s + d) - dt.eval_hp(spec, s - d)) / (2 * d)
            gap_hp = abs(eval_dhp_ds(spec, s) - fd_hp) / max(
                1.0, abs(eval_dhp_ds(spec, s))
            )
            fd_hs = (dt.eval_hs(spec, s + d) - dt.eval_hs(spec, s - d)) / (2 * d)
            gap_hs = abs(eval_dhs_ds(spec, s) - fd_hs) / max(
                1.0, abs(eval_dhs_ds(spec, s))
            )
            worst = max(worst, gap_hp, gap_hs)
            n += 1
    ok = worst < 1e-6 and n == 100
    report(11, ok,
           f"transfer derivatives vs central differences over {n}-point "
           f"s-grid: worst relative gap {worst:.2e} (tol 1e-6)")
