"""Tracking through a parameter drift with several constant delays.

A randomly generated sparse DDAE with three delays stands in for a
linearized system model.  The drift scales the delay-free matrix, moving
the whole spectrum; the dominant eigenpair is tracked with the multi-delay
continuation system and validated against spectra recomputed from scratch
at checkpoints.
"""

import numpy as np

import delaytrack as dt

r = 40
model = dt.rand_ddae(r=r, n_dyn=30, density=0.05, mu=3, seed=7)
print("model:", model)
print("delays:", [f"{tau:.3f}" for tau in model.taus])

# affine drift: A0(p) = A0 * (1 + 0.3 p) pushes the spectrum to the right
slopes = dt.ModelDerivatives(
    np.zeros((r, r)), 0.3 * model.A0.toarray(), [np.zeros((r, r))] * 3
)
family = dt.AffineFamily(model, slopes, p_range=(0.0, 1.0))

pairs = dt.spectrum_at(family, 0.0, N=12, shift=0.5j, count=8)
seed = pairs[0]
print(f"\ndominant eigenvalue at p = 0: {seed.s:+.8f}")

initial = dt.TrackState.from_eigenpair(0.0, seed.s, seed.phi, seed.residual)
options = dt.TrackOptions(dp=2e-3, corrector_every=10, p_fin=1.0)
trajectory = dt.track_run(family, initial, options)

report = dt.compare_trajectory(trajectory, family, checkpoint_count=6,
                               options=options, N=12)
print("\ncheckpoint comparison against recomputed spectra:")
for p, tracked, oracle, dist in report.checkpoints:
    print(f"  p = {p:.3f}  tracked {tracked:+.8f}  distance {dist:.2e}")
print(f"max distance {report.max_distance:.2e}, "
      f"matched fraction {report.matched_fraction:.2f}")
