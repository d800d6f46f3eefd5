"""Delay magnitude as the continuation parameter: the scalar benchmark.

The equation x'(t) = -x(t - p) is the classic testbed for delay stability:
its eigenvalues solve s = -exp(-s p), and the dominant pair crosses the
imaginary axis at exactly p = pi/2 with s = +/- j.  This script seeds the
dominant eigenpair from the Chebyshev collocation pencil, sweeps the delay
from 1.0 to 2.0 while integrating the continuation system, and then
bisects the sign change of Re(s) to recover the stability margin.
"""

import numpy as np

import delaytrack as dt
from delaytrack import svgplot

model = dt.DelayedLinearModel(E=[[1.0]], A0=[[0.0]],
                              delay_terms=[(1.0, [[-1.0]])])
family = dt.DelayParameterFamily(model, delay_index=0, p_range=(0.5, 2.5))

# seed: collocation spectrum at p = 1, refined on the exact problem
pairs = dt.spectrum_at(family, 1.0, N=16, shift=1.3j, count=4)
print("spectrum at p = 1.0 (refined):")
for pair in pairs:
    print(f"  s = {pair.s:+.10f}   residual {pair.residual:.1e}")
seed = pairs[0]
print(f"brute-force cross-check: {dt.hayes_roots(0.0, -1.0, 1.0, 2)[0]:+.10f}")

initial = dt.TrackState.from_eigenpair(1.0, seed.s, seed.phi, seed.residual)
options = dt.TrackOptions(dp=1e-3, corrector_every=10,
                          regime="delay_param", p_fin=2.0)
trajectory = dt.track_run(family, initial, options)
print(f"\ntracked {len(trajectory.samples)} samples over p in [1, 2]")

crossings = dt.find_crossing(family, trajectory, options)
p_star, s_star = crossings[0]
print(f"stability margin: p* = {p_star:.9f}  (pi/2 = {np.pi / 2:.9f})")
print(f"eigenvalue at crossing: {s_star:+.2e}")

s = trajectory.eigenvalues
svg = svgplot.line_plot(
    [(s.real.tolist(), s.imag.tolist(), "dominant pair")],
    title="Scalar delay benchmark: root locus over p in [1, 2]",
    xlabel="Re(s)", ylabel="Im(s)",
    markers=[(s_star.real, s_star.imag, f"p* = {p_star:.6f}")],
)
with open("hayes_rootlocus.svg", "w") as fh:
    fh.write(svg)
print("wrote hayes_rootlocus.svg")
