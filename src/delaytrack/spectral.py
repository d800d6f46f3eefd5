"""Initial eigenpairs: Chebyshev collocation plus Newton refinement.

The transcendental eigenproblem P(s) phi = 0 is seeded by collocating the
delay interval [-tau_max, 0] at Chebyshev-Gauss-Lobatto nodes.  Values of
the solution segment at the nodes satisfy a generalized linear eigenproblem
(SigmaA, SigmaE): interior block rows impose the spectral differentiation
operator, and the endpoint block row imposes the DDAE itself with delayed
values recovered by barycentric interpolation.  Candidate eigenpairs are
then polished on the exact nonlinear P by a bordered Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from . import charfun
from .errors import (
    ConfigurationError,
    DefectiveEigenvalueError,
    NonConvergenceError,
    SingularSystemError,
)

# discretized generalized eigenvalues beyond this magnitude are treated as
# the infinite modes of the singular pencil and dropped
INFINITE_EIGENVALUE_THRESHOLD = 1e8


@dataclass
class DiscretizedPencil:
    """Generalized pair (SigmaA, SigmaE) of the collocated delay model.

    ``nodes[k]`` is the collocation point of block row k; the segment
    endpoint theta = 0 is block 0.
    """

    SigmaA: sparse.csr_array
    SigmaE: sparse.csr_array
    N: int
    r: int
    nodes: np.ndarray

    @property
    def dim(self):
        return (self.N + 1) * self.r


@dataclass
class Eigenpair:
    """One eigenvalue with its right eigenvector and a relative residual."""

    s: complex
    phi: np.ndarray
    residual: float


def cheb_points_diff(N):
    """Chebyshev-Gauss-Lobatto points on [-1, 1] (descending from 1) and the
    spectral differentiation matrix on them."""
    if N == 0:
        return np.array([1.0]), np.zeros((1, 1))
    k = np.arange(N + 1)
    x = np.cos(np.pi * k / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** k
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    return x, D - np.diag(D.sum(axis=1))


def _barycentric_row(nodes, t):
    """Interpolation weights at ``t`` for values on Gauss-Lobatto ``nodes``."""
    n = len(nodes) - 1
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    d = t - nodes
    hit = np.abs(d) < 1e-14 * max(1.0, abs(t))
    if hit.any():
        row = np.zeros(n + 1)
        row[int(np.argmax(hit))] = 1.0
        return row
    q = w / d
    return q / q.sum()


def discretize(model, N):
    """Collocation pencil of ``model`` with polynomial degree ``N``.

    A delay-free model with N = 0 reduces to the pair (A0, E).  Models with
    delays need N >= 2.
    """
    r = model.r
    if model.mu == 0 and N == 0:
        return DiscretizedPencil(
            SigmaA=model.A0.copy(),
            SigmaE=model.E.copy(),
            N=0,
            r=r,
            nodes=np.array([0.0]),
        )
    if model.mu > 0 and N < 2:
        raise ConfigurationError(
            f"N={N} cannot resolve {model.mu} delay term(s); need N >= 2"
        )
    span = model.tau_max if model.mu else 1.0
    x, D = cheb_points_diff(N)
    nodes = (x - 1.0) * span / 2.0  # theta_0 = 0, theta_N = -span
    Dt = D * (2.0 / span)

    # endpoint block row: s E x(0) = A0 x(0) + sum_j A_j x(-tau_j)
    blocks = [None] * (N + 1)
    blocks[0] = model.A0.copy()
    for tau, A in model.delay_terms:
        row = _barycentric_row(nodes, -tau)
        for m, c in enumerate(row):
            if c == 0.0:
                continue
            term = c * A
            blocks[m] = term if blocks[m] is None else blocks[m] + term
    zero = sparse.csr_array((r, r))
    top = sparse.hstack([b if b is not None else zero for b in blocks])

    # interior block rows: s x(theta_k) = sum_m D[k, m] x(theta_m)
    interior = sparse.kron(sparse.csr_array(Dt[1:, :]), sparse.eye_array(r))
    SigmaA = sparse.csr_array(sparse.vstack([top, interior]))
    SigmaE = sparse.csr_array(
        sparse.block_diag([model.E] + [sparse.eye_array(r)] * N)
    )
    return DiscretizedPencil(SigmaA=SigmaA, SigmaE=SigmaE, N=N, r=r, nodes=nodes)


def _pencil_residual(pencil, s, v):
    w = pencil.SigmaA @ v - s * (pencil.SigmaE @ v)
    return float(np.linalg.norm(w) / np.linalg.norm(v))


def solve_discretized(pencil, shift, count):
    """``count`` finite eigenpairs of the pencil nearest to ``shift``.

    Pencils below ``charfun.DENSE_MAX_DIM`` use a dense generalized solve;
    larger ones use shift-invert Arnoldi on an LU factorization of
    (SigmaA - shift*SigmaE).
    Infinite modes of the singular pencil are filtered by magnitude, and
    the returned list is sorted by descending real part.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    n = pencil.dim
    shift = complex(shift)
    if n < charfun.DENSE_MAX_DIM:
        w, V = la.eig(pencil.SigmaA.toarray(), pencil.SigmaE.toarray())
        keep = np.isfinite(w) & (np.abs(w) <= INFINITE_EIGENVALUE_THRESHOLD)
        w, V = w[keep], V[:, keep]
        order = np.argsort(np.abs(w - shift))[:count]
        w, V = w[order], V[:, order]
    else:
        w, V = _shift_invert(pencil, shift, count)
    pairs = [
        Eigenpair(complex(s), v.copy(), _pencil_residual(pencil, s, v))
        for s, v in zip(w, V.T)
    ]
    pairs.sort(key=lambda e: -e.s.real)
    return pairs


def _shift_invert(pencil, shift, count, attempts=3):
    A = pencil.SigmaA.tocsc().astype(complex)
    E = pencil.SigmaE.tocsc().astype(complex)
    sigma = shift
    lu = None
    for trial in range(attempts):
        try:
            lu = splu(A - sigma * E)
            break
        except RuntimeError:
            # shift landed on an eigenvalue; nudge it and retry
            sigma = sigma + (1e-8 + 1e-8j) * max(1.0, abs(sigma))
    if lu is None:
        raise NonConvergenceError(
            f"shifted pencil singular after {attempts} perturbed attempts"
        )
    op = LinearOperator(
        shape=(pencil.dim, pencil.dim),
        matvec=lambda x: lu.solve(E @ x),
        dtype=complex,
    )
    k = min(count, pencil.dim - 2)
    try:
        mu, V = eigs(op, k=k, which="LM")
    except ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"Arnoldi iteration did not converge: {exc}"
        ) from exc
    small = np.abs(mu) < 1.0 / INFINITE_EIGENVALUE_THRESHOLD
    w = np.where(small, np.inf, sigma + 1.0 / np.where(small, 1.0, mu))
    keep = np.isfinite(w) & (np.abs(w) <= INFINITE_EIGENVALUE_THRESHOLD)
    return w[keep], V[:, keep]


def lift_eigenvector(pencil, v):
    """Endpoint block of a discretized eigenvector, approximating phi."""
    return np.asarray(v, dtype=complex)[: pencil.r].copy()


def eigenpair_residual(model, s, phi, wams=None):
    """Relative residual ||P(s) phi|| / ||phi|| on the nonlinear problem,
    by matrix-vector products with the stored slots."""
    c, _, _ = charfun.coefficients(model, s, wams)
    v = charfun.matvec(charfun.slot_matrices(model, dense=False), c, phi)
    return float(np.linalg.norm(v) / np.linalg.norm(phi))


def _factor(P):
    """Sparse LU of P.  An exactly zero pivot (P singular at a simple
    eigenvalue) refactors P nudged by 1e-14 relative on the diagonal; the
    refinement in :func:`bordered_solve` against the exact P absorbs it."""
    P = sparse.csc_array(P, dtype=complex)
    try:
        return splu(P)
    except RuntimeError:
        nudge = 1e-14 * max(1.0, float(abs(P).max()))
        shift = nudge * sparse.eye_array(P.shape[0], format="csc")
        try:
            return splu(P + shift)
        except RuntimeError as exc:
            raise SingularSystemError(
                f"characteristic matrix is singular: {exc}"
            ) from exc


def bordered_solve(P, w, phi, f, t):
    """Solve the complex bordered system

        [[P, w], [phi^T, 0]] [x; ds] = [f; t]

    for the vector x and the scalar ds.  With P = P(s), w = P'(s) phi and
    (f, t) = (-dP/dp phi, 0) this is the continuation slope (dphi/dp,
    ds/dp); with (f, t) = -(P phi, (phi^T phi - 1)/2) it is the Newton step.

    A dense ndarray P is solved as the dense (r+1) bordered matrix.  A
    sparse P takes one sparse LU of P alone: block elimination with
    b = P^-1 w and the scalar Schur complement phi^T b, followed by exactly
    one step of iterative refinement against the exact bordered residual.
    Near an eigenvalue b is huge and the unrefined x loses all accuracy;
    the refinement step restores it.

    Raises :class:`SingularSystemError` when the bordered matrix is
    singular: a zero or nonfinite Schur complement, or a nonfinite result.
    """
    w = np.asarray(w, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    f = np.asarray(f, dtype=complex)
    with np.errstate(all="ignore"):  # nonfinite values are reported below
        if sparse.issparse(P):
            lu = _factor(P)
            b = lu.solve(w)
            schur = phi @ b
            if schur == 0.0 or not np.isfinite(schur):
                raise SingularSystemError(
                    "bordered matrix is singular: Schur complement "
                    f"phi^T P^-1 w = {schur}"
                )

            def eliminate(f, t):
                a = lu.solve(f)
                ds = (phi @ a - t) / schur
                return a - ds * b, ds

            x, ds = eliminate(f, t)
            dx, dds = eliminate(f - P @ x - w * ds, t - phi @ x)
            x, ds = x + dx, ds + dds
        else:
            r = P.shape[0]
            K = np.zeros((r + 1, r + 1), dtype=complex)
            K[:r, :r] = P
            K[:r, r] = w
            K[r, :r] = phi
            try:
                z = np.linalg.solve(K, np.append(f, t))
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    "bordered matrix is singular"
                ) from exc
            x, ds = z[:r], z[r]
    if not (np.isfinite(ds) and np.all(np.isfinite(x))):
        raise SingularSystemError("nonfinite bordered solution")
    return x, complex(ds)


def refine_newton(model, s0, phi0, tol=1e-10, max_iter=25, wams=None):
    """Polish an eigenpair on the exact characteristic function.

    Newton iteration on the bordered system

        F(phi, s) = [ P(s) phi ; (phi^T phi - 1) / 2 ] = 0

    with Jacobian blocks [[P(s), dP/ds phi], [phi^T, 0]], solved by
    :func:`bordered_solve`.  The transpose (not conjugate) border keeps F
    holomorphic, so plain complex Newton converges quadratically.  Returns
    an :class:`Eigenpair` satisfying ||P(s) phi|| / ||phi|| <= tol and
    |phi^T phi - 1| <= tol.

    Eigenvectors that are isotropic under the transpose pairing
    (phi^T phi = 0, e.g. (1, j) of a pure rotation) admit no quadratic
    normalization at all; once the residual criterion holds they are
    returned Euclidean-normalized instead.

    Raises :class:`NonConvergenceError` after ``max_iter`` iterations and
    :class:`DefectiveEigenvalueError` when the bordered Jacobian is
    singular (the fold signature).
    """
    phi = np.asarray(phi0, dtype=complex).ravel().copy()
    if phi.size != model.r:
        raise ConfigurationError(
            f"eigenvector guess has length {phi.size}, expected {model.r}"
        )
    nrm2 = np.linalg.norm(phi) ** 2
    if nrm2 == 0.0:
        raise ConfigurationError("eigenvector guess must be nonzero")
    quad = phi @ phi
    if abs(quad) > 1e-12 * nrm2:
        phi = phi / np.sqrt(quad)  # principal root; Newton fixes the rest
    s = complex(s0)
    mats = charfun.slot_matrices(model)

    residual = np.inf
    for _ in range(max_iter):
        c, c_s, _ = charfun.coefficients(model, s, wams)
        Pm = charfun.eval_P(mats, c)
        top = Pm @ phi
        nrm = np.linalg.norm(phi)
        residual = float(np.linalg.norm(top) / nrm)
        quad = phi @ phi
        defect = (quad - 1.0) / 2.0
        if residual <= tol:
            if abs(2.0 * defect) <= tol:
                return Eigenpair(s, phi, residual)
            if abs(quad) <= 1e-12 * nrm * nrm:
                # isotropic eigenvector: no quadratic normalization exists
                return Eigenpair(s, phi / nrm, residual)

        try:
            dphi, ds = bordered_solve(
                Pm, charfun.matvec(mats, c_s, phi), phi, -top, -defect
            )
        except SingularSystemError as exc:
            if residual <= 1e-6 * (1.0 + abs(s)):
                # singular at a converged-ish iterate: defective eigenvalue
                raise DefectiveEigenvalueError(
                    f"singular bordered Jacobian at s={s} (fold suspected)"
                ) from exc
            raise NonConvergenceError(
                f"singular bordered Jacobian far from a root at s={s}",
                residual=residual,
            ) from exc
        phi = phi + dphi
        s = s + ds
    raise NonConvergenceError(
        f"Newton refinement did not reach tol={tol:g} in {max_iter} "
        f"iterations (last residual {residual:.3g})",
        residual=residual,
    )
