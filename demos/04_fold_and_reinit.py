"""A conjugate pair coalescing on the real axis: fold handling.

The companion family with characteristic polynomial s^2 + 2s + (2 - p)
has eigenvalues -1 +/- sqrt(p - 1): a complex pair for p < 1 that becomes
defective at p = 1 (algebraic multiplicity 2, geometric 1) and splits into
two real branches.  Tracking cannot integrate through the singular mass
matrix; instead the fold is detected and the run is reinitialized on the
branch overlapping the previous eigenvector, tie-broken toward the larger
real part.

With less damping, s^2 + 0.1 s + (1.0025 - p) has eigenvalues
-0.05 +/- sqrt(p - 1): the upper real branch crosses Re s = 0 at
p = 1.0025, inside the step after the fold.  The sample reinitialized one
step past the fold lies across the axis, so the run records its
axis_crossing event there, and find_crossing refines that bracket from the
restarted branch.
"""

import numpy as np

import delaytrack as dt
from delaytrack import svgplot

base = dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-2.0, -2.0]])
slopes = dt.ModelDerivatives(np.zeros((2, 2)), [[0.0, 0.0], [1.0, 0.0]], [])
family = dt.AffineFamily(base, slopes, p_range=(0.2, 1.8))

m0 = family.evaluate(0.5)
w, V = np.linalg.eig(m0.A0.toarray())
i = int(np.argmax(w.imag))
seed = dt.refine_newton(dt.split_form(m0), w[i], V[:, i], tol=1e-12)
initial = dt.TrackState.from_eigenpair(0.5, seed.s, seed.phi, seed.residual)
print(f"start: p = 0.5, s = {seed.s:+.6f} (analytic -1 + j sqrt(0.5))")

options = dt.TrackOptions(
    dp=1e-3, corrector_every=10, regime="multi", p_fin=1.5,
    reinit_on_fold=True,
)
trajectory = dt.track_run(family, initial, options)

for ev in trajectory.events:
    print(f"event: {ev.kind:14s} at p = {ev.p:.4f}, s = {ev.s:+.6f}")
end = trajectory.eigenvalues[-1]
print(f"end: p = 1.5, s = {end:+.10f} "
      f"(analytic upper branch {-1 + np.sqrt(0.5):+.10f})")

ps = trajectory.ps
s = trajectory.eigenvalues
svg = svgplot.line_plot(
    [(ps.tolist(), s.real.tolist(), "Re(s)"),
     (ps.tolist(), s.imag.tolist(), "Im(s)")],
    title="Fold at p = 1: conjugate pair collapses, real branch continues",
    xlabel="p", ylabel="eigenvalue parts",
    markers=[(ev.p, ev.s.real, ev.kind) for ev in trajectory.events],
)
with open("fold_branches.svg", "w") as fh:
    fh.write(svg)
print("wrote fold_branches.svg")

# the c = 0.05 family: a crossing at a reinitialized sample
damped = dt.AffineFamily(
    dt.DelayedLinearModel(np.eye(2), [[0.0, 1.0], [-1.0025, -0.1]]),
    slopes, p_range=(0.2, 1.8),
)
m0 = damped.evaluate(0.5)
w, V = np.linalg.eig(m0.A0.toarray())
i = int(np.argmax(w.imag))
damped_seed = dt.refine_newton(dt.split_form(m0), w[i], V[:, i], tol=1e-12)
margin_options = dt.TrackOptions(
    dp=1e-2, corrector_every=10, regime="multi", p_fin=1.5,
    reinit_on_fold=True,
)
damped_run = dt.track_run(
    damped, dt.TrackState.from_eigenpair(0.5, damped_seed.s, damped_seed.phi,
                                         damped_seed.residual),
    margin_options,
)
for ev in damped_run.events:
    print(f"event: {ev.kind:14s} at p = {ev.p:.4f} (sample {ev.index})")
for p_star, s_star in dt.find_crossing(damped, damped_run, margin_options):
    print(f"margin: p* = {p_star:.10f} (analytic 1.0025), "
          f"|Re s*| < 1e-9: {abs(s_star.real) < 1e-9}")
