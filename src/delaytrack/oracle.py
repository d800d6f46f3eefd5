"""Independent ground truth: full spectra, scalar-DDE roots, comparisons.

Everything here exists to check the tracking pipeline from the outside:
spectra recomputed from scratch at sampled parameters, brute-force Newton
root sweeps of the scalar delay equation x'(t) = a x(t) + b x(t - tau),
and reproducible random sparse test models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import spectral
from .errors import ConfigurationError, DelayTrackError
from .model import DelayedLinearModel

# brute-force root sweep: Newton from every point of this grid
_GRID_RE = (-10.0, 2.0)
_GRID_IM = (0.0, 20.0)
_GRID_STEP = 0.25
_ROOT_RESIDUAL = 1e-12
_ROOT_DISTINCT = 1e-8


@dataclass
class ComparisonReport:
    """Checkpointed distance between a trajectory and recomputed spectra."""

    checkpoints: list = field(default_factory=list)
    max_distance: float = 0.0
    matched_fraction: float = 0.0


def spectrum_at(family, p, N=spectral.INIT_DEGREE, shift=0j,
                count=spectral.INIT_COUNT, tol=1e-10, wams=None):
    """Refined eigenpairs of the family at one parameter value, its
    delayed term shaped by the WAMS spec ``wams`` if given.

    See :func:`spectral.refined_eigenpairs` for the candidates kept.
    """
    return spectral.refined_eigenpairs(family.split_form(p, wams), N, shift,
                                       count, tol=tol)


def hayes_roots(a, b, tau, count=4):
    """Roots of s = a + b exp(-s tau) by Newton from a dense start grid.

    Sweeps Re in [-10, 2] and Im in [0, 20] at spacing 0.25, deduplicates
    converged roots, sorts them by descending real part, and appends the
    conjugate of every strictly complex root.  Every returned root has
    residual |s - a - b exp(-s tau)| below 1e-12.  Warns when fewer than
    ``count`` distinct roots were found and returns what there is.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    re = np.arange(_GRID_RE[0], _GRID_RE[1] + _GRID_STEP / 2, _GRID_STEP)
    im = np.arange(_GRID_IM[0], _GRID_IM[1] + _GRID_STEP / 2, _GRID_STEP)
    S = (re[:, None] + 1j * im[None, :]).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            e = np.exp(-S * tau)
            g = S - a - b * e
            dg = 1.0 + b * tau * e
            ok = np.isfinite(g) & (np.abs(dg) > 1e-12)
            step = np.zeros_like(S)
            step[ok] = g[ok] / dg[ok]
            S = S - step
            S[~np.isfinite(S)] = np.inf

        g = S - a - b * np.exp(-np.where(np.isfinite(S), S, 0.0) * tau)
        conv = np.isfinite(g) & (np.abs(g) < _ROOT_RESIDUAL)
    roots = []
    for s in S[conv]:
        s = complex(s.real, abs(s.imag))  # grid covers the upper half plane
        if all(abs(s - q) >= _ROOT_DISTINCT for q in roots):
            roots.append(s)
    roots.sort(key=lambda z: -z.real)
    if len(roots) < count:
        warnings.warn(
            f"found only {len(roots)} distinct roots of "
            f"s = {a} + {b} exp(-{tau} s), requested {count}",
            stacklevel=2,
        )
    out = []
    for s in roots[:count]:
        out.append(s)
        if s.imag > 1e-12:
            out.append(s.conjugate())
    return out


def compare_trajectory(trajectory, family, checkpoint_count=11, options=None,
                       pass_tol=1e-6, N=spectral.INIT_DEGREE,
                       count=spectral.INIT_COUNT):
    """Distance between tracked eigenvalues and recomputed spectra.

    Picks ``checkpoint_count`` (at least 1) samples equispaced in p,
    recomputes the spectrum near the tracked eigenvalue at each, and
    records the distance to the nearest recomputed root; the report's
    ``matched_fraction`` is the share of checkpoints within ``pass_tol``.
    A checkpoint where the recomputation fails is counted as unmatched.
    """
    samples = trajectory.samples
    if not samples:
        raise ValueError("empty trajectory")
    if checkpoint_count < 1:
        raise ConfigurationError(f"checkpoint_count={checkpoint_count} < 1")
    wams = options.wams if options is not None else None
    ps = np.array([st.p for st in samples])
    targets = np.linspace(ps[0], ps[-1], checkpoint_count)
    report = ComparisonReport()
    matched = 0
    for pt in targets:
        st = samples[int(np.argmin(np.abs(ps - pt)))]
        tracked = complex(st.s)
        best = None
        dist = np.inf
        try:
            pairs = spectrum_at(
                family, st.p, N=N, shift=tracked, count=count, wams=wams
            )
            for pair in pairs:
                d = abs(pair.s - tracked)
                if d < dist:
                    dist, best = d, pair.s
        except DelayTrackError:
            pass
        if dist < pass_tol:
            matched += 1
        report.checkpoints.append((st.p, tracked, best, float(dist)))
    report.max_distance = float(
        max(d for _, _, _, d in report.checkpoints)
    )
    report.matched_fraction = matched / len(report.checkpoints)
    return report


def _sparse_local(rows, cols, density, rng, scale=1.0):
    """Random sparse block with network-style locality.

    Small blocks (or high densities) sample exact positions without
    replacement, so density 1 is genuinely dense.  Large sparse blocks
    place entries near the diagonal with normally distributed offsets,
    mimicking the neighbor coupling of network Jacobians; uniformly random
    positions would make every downstream sparse factorization fill in
    catastrophically, which no physical model does.
    """
    target = int(round(density * rows * cols))
    if target == 0:
        return sparse.csr_array((rows, cols))
    if density >= 0.5 or rows * cols <= 4096:
        flat = rng.choice(rows * cols, size=target, replace=False)
        i, j = np.divmod(flat, cols)
    else:
        width = max(2.0, 0.002 * max(rows, cols))
        i = rng.integers(0, rows, size=target)
        off = np.rint(rng.normal(0.0, width, size=target)).astype(np.int64)
        j = np.clip(i * cols // rows + off, 0, cols - 1)
        flat = np.unique(i * np.int64(cols) + j)
        i, j = np.divmod(flat, cols)
    vals = scale * rng.standard_normal(i.size)
    out = sparse.coo_array((vals, (i, j)), shape=(rows, cols))
    return sparse.csr_array(out)


def rand_ddae(r, n_dyn, density, mu, seed):
    """Reproducible random sparse model with DAE mass-matrix structure.

    The mass matrix carries an identity-dominated dynamic block and zero
    algebraic columns; the delay-free matrix is diagonally shifted so the
    dominant spectrum sits in the left half plane; delayed matrices are
    weak couplings with delays in [0.01, 0.1] s.  Sparsity patterns are
    locality-biased (see :func:`_sparse_local`).  Identical seeds yield
    bit-identical models.  Raises :class:`ConfigurationError` unless
    r >= 1, 0 <= n_dyn <= r, 0 < density <= 1 and mu >= 0.
    """
    if not (r >= 1 and 0 <= n_dyn <= r and 0.0 < density <= 1.0
            and mu >= 0):
        raise ConfigurationError(f"no rand_ddae model with r={r}, n_dyn="
                                 f"{n_dyn}, density={density}, mu={mu}")
    rng = np.random.default_rng(seed)

    m = r - n_dyn
    T = sparse.eye_array(n_dyn) + _sparse_local(
        n_dyn, n_dyn, density, rng, 0.1
    )
    R = _sparse_local(m, n_dyn, density, rng)
    zero_alg = sparse.csr_array((r, m))
    E = sparse.hstack(
        [sparse.vstack([T, R], format="csr"), zero_alg], format="csr"
    )
    A0 = _sparse_local(r, r, density, rng) - 3.0 * sparse.eye_array(r)
    terms = []
    for _ in range(mu):
        tau = float(rng.uniform(0.01, 0.1))
        terms.append((tau, _sparse_local(r, r, density, rng, 0.3)))
    return DelayedLinearModel(E, A0, terms, n_dyn=n_dyn)
