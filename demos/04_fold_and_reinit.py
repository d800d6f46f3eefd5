"""A conjugate pair coalescing on the real axis: fold handling.

The companion family with characteristic polynomial s^2 + 2s + (2 - p)
has eigenvalues -1 +/- sqrt(p - 1): a complex pair for p < 1 that becomes
defective at p = 1 (algebraic multiplicity 2, geometric 1) and splits into
two real branches.  Tracking cannot integrate through the singular mass
matrix; instead the fold is detected and the run is reinitialized on the
branch overlapping the previous eigenvector, tie-broken toward the larger
real part.
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
