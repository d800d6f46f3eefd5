"""Stochastic communication latency versus a plain constant delay.

Measurement channels delivered over a lossy network are modeled in the
frequency domain by two scalar transfer functions: h_p (packet dropouts at
rate p_dr, delivery period T) and h_s (Gamma-distributed jitter with scale
alpha and shape b).  They multiply the delayed term of the characteristic
matrix.  This script tracks the same feedback model twice, once with the
constant-delay limit (h_p = h_s = 1) and once with the shaped delay, and
shows how dropouts and noise move the damping of the dominant mode.
"""

import numpy as np

import delaytrack as dt

# second-order plant with delayed rate feedback
r = 2
E = np.eye(r)
A0 = np.array([[0.0, 1.0], [-4.0, -0.4]])
A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
model = dt.DelayedLinearModel(E, A0, [(0.05, A1)])

# drift: feedback gain scales with p
slopes = dt.ModelDerivatives(np.zeros((r, r)), np.zeros((r, r)), [0.5 * A1])
family = dt.AffineFamily(model, slopes, p_range=(0.0, 1.0))

shaped = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
plain = dt.WamsSpec.constant_delay(0.05)

print("transfer functions at s = 2j:")
print(f"  h_p(2j) = {dt.eval_hp(shaped, 2j):+.6f}")
print(f"  h_s(2j) = {dt.eval_hs(shaped, 2j):+.6f}")

for label, spec in (("constant delay", plain), ("dropouts + noise", shaped)):
    pairs = dt.spectrum_at(family, 0.0, N=12, shift=2j, count=4, wams=spec)
    seed = pairs[0]
    initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi,
                                           seed.residual)
    options = dt.TrackOptions(dp=2e-3, corrector_every=10, wams=spec,
                              p_fin=1.0)
    trajectory = dt.track_run(family, initial, options)
    start, end = trajectory.samples[0].s, trajectory.samples[-1].s
    print(f"\n{label}:")
    print(f"  dominant mode: {start:+.6f} -> {end:+.6f}")
    zeta = -end.real / abs(end)
    print(f"  damping ratio at p = 1: {zeta:.4f}")
