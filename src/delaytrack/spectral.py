"""Initial eigenpairs: Chebyshev collocation plus Newton refinement.

The transcendental eigenproblem P(s) phi = 0 is seeded by collocating the
delay interval [-tau_max, 0] at Chebyshev-Gauss-Lobatto nodes.  Values of
the solution segment at the nodes satisfy a generalized linear eigenproblem
(SigmaA, SigmaE): interior block rows impose the spectral differentiation
operator, and the endpoint block row imposes the DDAE itself with delayed
values recovered by barycentric interpolation.  The pencil is held as its
collocation data and its matrices are assembled only for dense QZ below
``charfun.DENSE_MAX_DIM``; above it, shift-invert Arnoldi eliminates the
interior rows with an N x N solve and factors only the r x r collocated
characteristic matrix, which has the split form and sparsity pattern of
P(sigma) (the structure behind infinite Arnoldi).  Candidate eigenpairs are
then polished on the exact nonlinear P by a bordered Newton iteration;
:func:`refined_eigenpairs` is that whole pipeline.
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
    DelayTrackError,
    NonConvergenceError,
    SingularSystemError,
)
from .model import DelayedLinearModel

# discretized generalized eigenvalues beyond this magnitude are treated as
# the infinite modes of the singular pencil and dropped
INFINITE_EIGENVALUE_THRESHOLD = 1e8


@dataclass
class DiscretizedPencil:
    """Collocation of ``model`` at polynomial degree N, held as its data.

    The generalized pair (SigmaA, SigmaE) acts on the stacked values of the
    solution segment at the ``nodes`` (block k at ``nodes[k]``; the segment
    endpoint theta = 0 is block 0).  Its interior block rows are
    (Dt[1:, :] - s [0 I]) kron I_r, with ``Dt`` the scaled differentiation
    matrix, and its endpoint block row is A0 - s E + sum_j A_j (l_j kron I),
    with ``delay_rows[j]`` = l_j the barycentric row of delay j.  The
    matrices ``SigmaA``/``SigmaE`` are assembled on access only; the
    shift-invert solve and the residual never form them.
    """

    model: DelayedLinearModel
    N: int
    nodes: np.ndarray
    Dt: np.ndarray
    delay_rows: np.ndarray

    @property
    def r(self):
        return self.model.r

    @property
    def dim(self):
        return (self.N + 1) * self.r

    @property
    def SigmaA(self):
        m, N = self.model, self.N
        if N == 0:
            return m.A0.copy()
        # Dt[1:] kron I below, and e_0 (e_0 kron A0 + sum_j l_j kron A_j)
        # on top, each added as one Kronecker product
        rows = np.zeros((m.mu + 1, N + 1, N + 1))
        rows[0, 0, 0] = 1.0
        rows[1:, 0, :] = self.delay_rows
        interior = self.Dt.copy()
        interior[0] = 0.0
        out = sparse.kron(interior, sparse.eye_array(self.r))
        for row, A in zip(rows, [m.A0] + [A for _, A in m.delay_terms]):
            out = out + sparse.kron(row, A)
        return sparse.csr_array(out)

    @property
    def SigmaE(self):
        if self.N == 0:
            return self.model.E.copy()
        identity = sparse.eye_array(self.N * self.r)
        return sparse.csr_array(sparse.block_diag([self.model.E, identity]))


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
    if model.mu > 0 and N < 2:
        raise ConfigurationError(
            f"N={N} cannot resolve {model.mu} delay term(s); need N >= 2"
        )
    span = model.tau_max if model.mu else 1.0
    x, D = cheb_points_diff(N)
    nodes = (x - 1.0) * span / 2.0  # theta_0 = 0, theta_N = -span
    # endpoint block row: s E x(0) = A0 x(0) + sum_j A_j x(-tau_j), with
    # x(-tau_j) interpolated from the nodes;
    # interior block rows: s x(theta_k) = sum_m Dt[k, m] x(theta_m)
    rows = [_barycentric_row(nodes, -tau) for tau in model.taus]
    return DiscretizedPencil(
        model=model, N=N, nodes=nodes, Dt=D * (2.0 / span),
        delay_rows=np.array(rows).reshape(model.mu, N + 1),
    )


def _pencil_residual(pencil, s, v):
    """||(SigmaA - s SigmaE) v|| / ||v|| by block products."""
    m = pencil.model
    V = v.reshape(pencil.N + 1, pencil.r)
    w = pencil.Dt @ V - s * V
    w[0] = m.A0 @ V[0] - s * (m.E @ V[0])
    for (_, A), row in zip(m.delay_terms, pencil.delay_rows):
        w[0] += A @ (row @ V)
    return float(np.linalg.norm(w) / np.linalg.norm(v))


def solve_discretized(pencil, shift, count):
    """``count`` finite eigenpairs of the pencil nearest to ``shift``.

    Pencils below ``charfun.DENSE_MAX_DIM`` use a dense generalized solve
    of the assembled (SigmaA, SigmaE); larger ones use shift-invert Arnoldi
    through one sparse LU of the r x r collocated characteristic matrix
    (see :func:`_shift_invert`), without assembling the pencil.
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


def _shift_invert(pencil, sigma, count):
    """Arnoldi on y = (SigmaA - sigma SigmaE)^-1 SigmaE x, solved blockwise.

    With Dt[1:, :] = [d10 | D11], the interior block rows give
    Y[1:] = W - g y_0^T with W = (D11 - sigma I)^-1 X[1:] and
    g = (D11 - sigma I)^-1 d10.  Substituted into the endpoint row, they
    leave the r x r collocated characteristic matrix

        P_N(sigma) = sigma E - A0 - sum_j a_j A_j,
        a_j = l_j[0] - l_j[1:] g   (the collocation of exp(-sigma tau_j)),

    in the split form and sparsity pattern of P(sigma), and
    y_0 = -P_N(sigma)^-1 (E x_0 - sum_j A_j l_j[1:] W).  P_N is factored
    once by :func:`_factor`, whose zero-pivot nudge covers a shift that
    lands on an eigenvalue.
    """
    m, N, r = pencil.model, pencil.N, pencil.r
    try:
        # N x N: applying the inverse to N x r blocks is many times
        # cheaper than a solve against them
        Kinv = np.linalg.inv(pencil.Dt[1:, 1:] - sigma * np.eye(N))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"interior collocation block D11 - sigma I is singular at the "
            f"shift sigma={sigma}"
        ) from exc
    g = Kinv @ pencil.Dt[1:, 0]
    L = pencil.delay_rows[:, 1:]
    a = pencil.delay_rows[:, 0] - L @ g
    mats = [m.E, m.A0] + [A for _, A in m.delay_terms]
    try:
        lu = _factor(charfun.eval_P(mats, [sigma, -1.0, *(-a)]))
    except SingularSystemError as exc:
        raise NonConvergenceError(
            f"collocated characteristic matrix singular at sigma={sigma}"
        ) from exc
    delayed = mats[2:]

    def solve(x):
        X = x.reshape(N + 1, r)
        W = Kinv @ X[1:]
        rhs = m.E @ X[0]
        for A, z in zip(delayed, L @ W):
            rhs = rhs - A @ z
        y0 = -lu.solve(rhs)
        return np.concatenate([y0, (W - np.outer(g, y0)).ravel()])

    op = LinearOperator(
        shape=(pencil.dim, pencil.dim), matvec=solve, dtype=complex
    )
    k = min(count, pencil.dim - 2)
    # a fixed start vector: ARPACK draws its own unseeded, which changes
    # the roundoff digits of the result from run to run
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim)
    try:
        mu, V = eigs(op, k=k, which="LM", v0=v0)
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


def eigenpair_residual(form, s, phi):
    """Relative residual ||P(s) phi|| / ||phi|| on the nonlinear problem of
    the split form ``form``, by matrix-vector products with its slots."""
    c, _, _ = charfun.coefficients(form, s)
    v = charfun.matvec(form.slots, c, phi)
    return float(np.linalg.norm(v) / np.linalg.norm(phi))


def _factor(P):
    """Sparse LU of P.  An exactly zero pivot (P singular at a simple
    eigenvalue) refactors P nudged by 1e-14 relative on the diagonal.  The
    refinement in :func:`bordered_solve` against the exact P absorbs the
    nudge; in :func:`_shift_invert` it moves the shift by about as much,
    and the Newton polish absorbs that."""
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


def refine_newton(form, s0, phi0, tol=1e-10, max_iter=25):
    """Polish an eigenpair on the exact characteristic function of the
    split form ``form``.

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
    if phi.size != form.r:
        raise ConfigurationError(
            f"eigenvector guess has length {phi.size}, expected {form.r}"
        )
    nrm2 = np.linalg.norm(phi) ** 2
    if nrm2 == 0.0:
        raise ConfigurationError("eigenvector guess must be nonzero")
    quad = phi @ phi
    if abs(quad) > 1e-12 * nrm2:
        phi = phi / np.sqrt(quad)  # principal root; Newton fixes the rest
    s = complex(s0)
    mats = form.slots

    residual = np.inf
    for _ in range(max_iter):
        c, c_s, _ = charfun.coefficients(form, s)
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


def refined_eigenpairs(form, N, shift, count, tol=1e-10):
    """Newton-refined eigenpairs of the split form ``form`` from a
    collocation pencil.

    Discretizes the model of the form's combined slots and constant delays
    at degree ``N`` (the pair (A0, E) for a delay-free model), takes the
    ``count`` pencil eigenpairs nearest to ``shift``, lifts each and
    polishes it by :func:`refine_newton` on the form itself, so a WAMS
    shaping enters only the polish.  A candidate whose lifted endpoint
    block vanishes (relative to its pencil vector) or whose refinement
    raises a :class:`DelayTrackError` is skipped, as is one within 1e-9 of
    an eigenvalue already kept.  Sorted by descending real part.
    """
    n = form.mu + 2  # slot k of P at this p: sum_j weights[j] M_{j,k}
    E, A0, *As = (charfun.eval_P(form.slots, np.kron(form.weights, e))
                  for e in np.eye(n))
    model = DelayedLinearModel(E, A0, zip(form.taus, As))
    pencil = discretize(model, N if model.mu else 0)
    refined = []
    for pair in solve_discretized(pencil, shift, count):
        phi0 = lift_eigenvector(pencil, pair.phi)
        if np.linalg.norm(phi0) < 1e-12 * np.linalg.norm(pair.phi):
            continue
        try:
            ref = refine_newton(form, pair.s, phi0, tol=tol)
        except DelayTrackError:
            continue
        if any(abs(ref.s - k.s) < 1e-9 for k in refined):
            continue
        refined.append(ref)
    refined.sort(key=lambda e: -e.s.real)
    return refined
