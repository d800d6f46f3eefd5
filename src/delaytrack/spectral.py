"""The bordered system, and initial eigenpairs by Chebyshev collocation
plus Newton refinement.

:func:`assemble` is the one build of the bordered system
[[P(s), P'(s) phi], [phi^T, 0]] at an eigenpair, read by the Newton
corrector, the continuation predictor of :mod:`track` and every residual;
each reads only the parts it uses.  :func:`bordered_solve` is its solve:
one LAPACK ?gesv on a dense P; on a sparse P, one refinement loop on a
held or a fresh LU that meets 1e-13 ||(f, t)|| or fails.
The transcendental eigenproblem P(s) phi = 0 is seeded by collocating the
delay interval [-tau_max, 0] at Chebyshev-Gauss-Lobatto nodes.  Values of
the solution segment at the nodes satisfy a generalized linear eigenproblem
(SigmaA, SigmaE): interior block rows impose the spectral differentiation
operator, and the endpoint block row imposes the DDAE itself with delayed
values recovered by barycentric interpolation.  The pencil is built from
a :class:`charfun.SplitForm` alone (its delays and its weighted slots at
its p) and held as its collocation data; its matrices are assembled, as
ndarrays, only for dense QZ below ``charfun.DENSE_MAX_DIM``; above it,
shift-invert Arnoldi eliminates the interior rows with an N x N solve and
factors only the r x r collocated characteristic matrix, which has the
split form and sparsity pattern of P(sigma) (the structure behind
infinite Arnoldi).  That Arnoldi is compact: every Krylov vector is
(I_{N+1} kron U) q for one orthonormal basis U of r-vectors, so its
orthogonalization and its Krylov-Schur restarts work on U, of r x ~40
numbers, and on small coefficient arrays, never on a vector of the pencil
dimension (N+1) r.
Candidate eigenpairs are then polished on the exact nonlinear P by a
bordered Newton iteration; :func:`refined_eigenpairs` is that whole
pipeline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import charfun
from .errors import (
    ConfigurationError,
    DefectiveEigenvalueError,
    DelayTrackError,
    NonConvergenceError,
    SingularSystemError,
)

log = logging.getLogger("delaytrack")

# discretized generalized eigenvalues beyond this magnitude are treated as
# the infinite modes of the singular pencil and dropped
INFINITE_EIGENVALUE_THRESHOLD = 1e8

# SuperLU threshold partial pivoting: a diagonal entry is kept as the pivot
# while it is at least this fraction of the largest entry of its column,
# so COLAMD's fill-reducing order survives more often than with strict
# partial pivoting (1.0).  Measured on the collocated P_N(-1+1j) of the
# r = 5000 rand_ddae model (102 250 nonzeros; OpenBLAS, 1 thread, 2-CPU
# x86-64 Linux), threshold 1.0 -> 0.01: fill 645 616 -> 436 874, factor
# 0.091 -> 0.074 s, solve 1.57 -> 1.27 ms, residual 4.8e-14 -> 4.7e-14.
# 0.1 filled 606 k and 0.0 the same as 0.01; the MMD orderings filled
# more (520-608 k) and NATURAL 3.8 M.  Every caller corrects against the
# exact P (refinement in bordered_solve, the Newton polish).
DIAG_PIVOT_THRESH = 0.01

# budget of a bordered solve on one factor, in solves with it (each pass
# also takes one product with the exact P); past it, a held factor of an
# earlier P gives way to a factor of P itself, and a factor of P to
# SingularSystemError.  A factor costs as much as 16, 25, 21
# and 45 such passes at r = 128, 300, 1000 and 5000 (rand_ddae at
# s = -1+1j; OpenBLAS, 1 thread, 2-CPU x86-64 Linux), so a held solve
# that succeeds within the budget is the cheaper one.  On the r = 5000
# benchmark family the refinement gains 10-100x per pass over steps of
# dp = 1e-3 to 2e-2; the second benchmark step needs 11 solves.
HELD_SOLVES = 20

# Krylov dimension of the compact shift-invert Arnoldi (at least
# 2 count + 1, and below the pencil dimension).  For six eigenvalues at
# tol 1e-10 (OpenBLAS, 1 thread, 2-CPU x86-64 Linux), dimensions 20, 30
# and 40 took 56, 55 and 58 operator applications at pencil dimension 900
# (rand_ddae r = 100), 49, 43 and 41 at 45 000 (r = 5000) and 287, 199
# and 177 at 180 000 (r = 20 000, 38, 14 and 8 restarts).  Each restart
# takes one complex Schur form of up to this size, 0.55 ms at 30 and
# about twice that at 40, which the r = 100 pencil feels most.
KRYLOV_DIM = 30

# restart cap of the compact shift-invert Arnoldi, past which it raises
# NonConvergenceError: seven times the 14 restarts of the slowest pencil
# measured (dimension 180 000 above).
MAX_RESTARTS = 100

# LAPACK ztrsen: reorders a complex Schur form
_TRSEN = la.get_lapack_funcs("trsen", dtype=complex)

# LAPACK ?gesv of the dense bordered solve in the two fields of P(s)
_GESV = {np.dtype(t): la.get_lapack_funcs("gesv", dtype=t)
         for t in (float, complex)}


@dataclass
class DiscretizedPencil:
    """Collocation of a split form at polynomial degree N, held as its data.

    The generalized pair (SigmaA, SigmaE) acts on the stacked values of the
    solution segment at the ``nodes`` (block k at ``nodes[k]``; the segment
    endpoint theta = 0 is block 0).  Its interior block rows are
    (Dt[1:, :] - s [0 I]) kron I_r, with ``Dt`` the scaled differentiation
    matrix, and its endpoint block row is A0 - s E + sum_j A_j (l_j kron I),
    over the form's weighted ``slots`` (E, A0, A_1, ..., A_mu), csr, with
    ``delay_rows[j]`` = l_j the barycentric row of delay j.  Only dense
    QZ assembles the pair (:func:`_dense_pair`); the shift-invert solve and
    the residual work on the blocks.
    """

    slots: tuple
    N: int
    nodes: np.ndarray
    Dt: np.ndarray
    delay_rows: np.ndarray

    @property
    def r(self):
        return self.slots[0].shape[0]

    @property
    def dim(self):
        return (self.N + 1) * self.r


@dataclass
class Eigenpair:
    """One eigenvalue with its right eigenvector and a relative residual;
    ``s`` is a float for a real pair (:func:`in_field`)."""

    s: complex
    phi: np.ndarray
    residual: float


def in_field(s, phi):
    """``(s, phi)`` in the field of the eigenpair, ``phi`` copied to 1-D.

    A pair whose ``phi`` is real, with ``s.imag == 0``, is real: a float
    ``s`` and a float64 ``phi``.  Any other pair is complex: a complex
    ``s`` and a complex128 ``phi``.  P(s) of a real form is real at a real
    s, so the assembly and the bordered solve of a real pair, and every
    step and Newton correction from it, stay in real arithmetic.
    """
    phi = np.asarray(phi)
    if phi.dtype.kind != "c" and s.imag == 0.0:
        return float(s.real), np.array(phi, dtype=float).ravel()
    return complex(s), np.array(phi, dtype=complex).ravel()


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


def check_degree(N, mu):
    """Raise :class:`ConfigurationError` when collocation degree ``N``
    cannot resolve ``mu`` delay terms: forms with delays need N >= 2."""
    if mu > 0 and N < 2:
        raise ConfigurationError(
            f"N={N} cannot resolve {mu} delay term(s); need N >= 2"
        )


def discretize(form, N):
    """Collocation pencil of the split form ``form`` at polynomial degree
    ``N``, holding the form's weighted slots at its p as csr.

    A delay-free form with N = 0 reduces to the pair (A0, E).  Forms with
    delays need N >= 2 (:func:`check_degree`).
    """
    check_degree(N, form.mu)
    span = max(form.taus) if form.mu else 1.0
    x, D = cheb_points_diff(N)
    nodes = (x - 1.0) * span / 2.0  # theta_0 = 0, theta_N = -span
    # endpoint block row: s E x(0) = A0 x(0) + sum_j A_j x(-tau_j), with
    # x(-tau_j) interpolated from the nodes;
    # interior block rows: s x(theta_k) = sum_m Dt[k, m] x(theta_m)
    rows = [_barycentric_row(nodes, -tau) for tau in form.taus]
    # slot k of P at this p: sum_j weights[j] M_{j,k}
    slots = tuple(
        sparse.csr_array(charfun.eval_P(form.slots, np.kron(form.weights, e)))
        for e in np.eye(form.mu + 2)
    )
    return DiscretizedPencil(
        slots=slots, N=N, nodes=nodes, Dt=D * (2.0 / span),
        delay_rows=np.array(rows).reshape(form.mu, N + 1),
    )


def _dense_pair(pencil):
    """(SigmaA, SigmaE) as ndarrays: the interior rows Dt[1:] kron I, then
    A0 and each l_j kron A_j added to the endpoint block row."""
    r = pencil.r
    E, A0, *delayed = (M.toarray() for M in pencil.slots)
    interior = pencil.Dt.copy()
    interior[0] = 0.0
    A = np.kron(interior, np.eye(r))
    A[:r, :r] += A0
    for row, Aj in zip(pencil.delay_rows, delayed):
        A[:r] += np.kron(row, Aj)
    B = np.eye(pencil.dim)
    B[:r, :r] = E
    return A, B


def _pencil_residual(pencil, s, v):
    """||(SigmaA - s SigmaE) v|| / ||v|| by block products."""
    E, A0, *delayed = pencil.slots
    V = v.reshape(pencil.N + 1, pencil.r)
    w = pencil.Dt @ V - s * V
    w[0] = A0 @ V[0] - s * (E @ V[0])
    for A, row in zip(delayed, pencil.delay_rows):
        w[0] += A @ (row @ V)
    return float(np.linalg.norm(w) / np.linalg.norm(v))


def solve_discretized(pencil, shift, count, tol=0.0):
    """``count`` finite eigenpairs of the pencil nearest to ``shift``.

    Pencils below ``charfun.DENSE_MAX_DIM`` use a dense generalized solve
    of the assembled (SigmaA, SigmaE); larger ones use shift-invert Arnoldi
    through one sparse LU of the r x r collocated characteristic matrix
    (see :func:`_shift_invert`), without assembling the pencil, stopped at
    the relative accuracy ``tol`` (0: machine precision).
    Infinite modes of the singular pencil are filtered by magnitude, and
    the returned list is sorted by descending real part.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    shift = complex(shift)
    if pencil.dim < charfun.DENSE_MAX_DIM:
        w, V = la.eig(*_dense_pair(pencil))
    else:
        w, V = _shift_invert(pencil, shift, count, tol)
    keep = np.isfinite(w) & (np.abs(w) <= INFINITE_EIGENVALUE_THRESHOLD)
    w, V = w[keep], V[:, keep]
    order = np.argsort(np.abs(w - shift))[:count]
    w, V = w[order], V[:, order]
    pairs = [
        Eigenpair(complex(s), v.copy(), _pencil_residual(pencil, s, v))
        for s, v in zip(w, V.T)
    ]
    pairs.sort(key=lambda e: -e.s.real)
    return pairs


def _shift_invert(pencil, sigma, count, tol=0.0):
    """Compact Krylov-Schur Arnoldi on y = (SigmaA - sigma SigmaE)^-1
    SigmaE x, solved blockwise.

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

    Every block of y is a combination of the blocks of x and of y_0, so
    from the constant start (one fixed r-vector u0 in every block) every
    Krylov vector is (I_{N+1} kron U) q with U an orthonormal r-row basis
    that gains at most the column of y_0 per application
    (:class:`_CompactBasis`).  The Arnoldi and its Krylov-Schur restarts
    (:func:`_krylov_schur`) work on the (N+1) x k coefficients q; the
    basis holds r x k numbers, k at most 2 (m + N + 1) for the Krylov
    dimension m = ``KRYLOV_DIM``, in place of m vectors of length (N+1) r.
    At r = 20 000 and N = 8 that was 63 columns, 20 MB, where ARPACK held
    20 vectors, 58 MB.  On the r = 5000 benchmark pencil (dimension
    45 000, six eigenvalues, ``tol`` 1e-10) it takes 43 operator
    applications and one restart, where ARPACK took 51 applications.
    It stops when each wanted Schur vector has a residual within ``tol``
    (0: machine precision) relative to its Ritz value, and raises
    :class:`NonConvergenceError` after ``MAX_RESTARTS`` restarts.  Returns
    the eigenvalues sigma + 1/mu of the Ritz values mu, inf where mu is
    tiny (an infinite mode), and the Ritz vectors.
    """
    N, r = pencil.N, pencil.r
    E, _, *delayed = pencil.slots
    try:
        # N x N: applying the inverse to N x k coefficients is many times
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
    try:
        lu = _factor(charfun.eval_P(pencil.slots, [sigma, -1.0, *(-a)]))
    except SingularSystemError as exc:
        raise NonConvergenceError(
            f"collocated characteristic matrix singular at sigma={sigma}"
        ) from exc

    # E x_0 - sum_j A_j l_j[1:] W as one product: at r = 100 one matvec
    # takes 8 us where three took 46 us, at r = 5000 0.31 ms against 0.45
    B = sparse.hstack([E, *(-A for A in delayed)], format="csr")
    m = min(max(KRYLOV_DIM, 2 * count + 1), pencil.dim - 1)
    basis = _CompactBasis(r, N, m)

    def apply(q):
        """Coefficients, on the basis grown by y_0, of y for x = q."""
        k = q.shape[1]
        W = Kinv @ q[1:]
        Z = np.concatenate((q[:1], L @ W)) @ basis.U[:k]
        c = basis.add(-lu.solve(B @ Z.ravel()))
        y = np.zeros((N + 1, len(basis.U)), dtype=complex)
        y[0, :len(c)] = c
        y[1:, :k] = W
        y[1:, :len(c)] -= g[:, None] * c
        return y.ravel()

    mu, V = _krylov_schur(basis, apply, m, min(count, m - 1),
                          max(tol, np.finfo(float).eps))
    small = np.abs(mu) < 1.0 / INFINITE_EIGENVALUE_THRESHOLD
    return np.where(small, np.inf, sigma + 1.0 / np.where(small, 1.0, mu)), V


class _CompactBasis:
    """Orthonormal Krylov vectors held as (I_{N+1} kron U) q.

    ``U[:k]`` holds k orthonormal r-vectors as rows, and vector i is the
    (N+1) x k coefficient array ``Q[i, :, :k]``: its block b is
    ``Q[i, b, :k] @ U[:k]``.  Since U is orthonormal, inner products and
    combinations of vectors are those of their coefficients.  Coefficients
    are zero past column k, so Q's rows can be read flat."""

    def __init__(self, r, N, m):
        self.r, self.N = r, N
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        # a restarted Krylov space of m vectors uses at most m + N + 1
        # columns of U; U has room for twice that, so that restarts
        # compress it (one SVD of the coefficients, as costly as a Schur
        # form at m = 30) only every few cycles
        cap = min(r, 2 * (m + N + 1))
        self.U = np.empty((cap, r), dtype=complex)
        self.U[0] = u0 / np.linalg.norm(u0)
        self.k = 1
        self.Q = np.zeros((m + 1, N + 1, cap), dtype=complex)
        self.Q[0, :, 0] = 1.0 / math.sqrt(N + 1)

    def add(self, y):
        """Coefficients of the r-vector ``y`` on U, after U gains the part
        of ``y`` orthogonal to it (:func:`_gram_schmidt`); no column is
        added once U spans C^r, where that part is roundoff."""
        c, y, beta = _gram_schmidt(self.U[: self.k], y)
        if self.k == self.r or beta == 0.0:
            return c
        if self.k == self.U.shape[0]:
            grow = min(self.r, 2 * self.k) - self.k
            self.U = np.vstack([self.U, np.empty((grow, self.r), complex)])
            self.Q = np.concatenate(
                [self.Q, np.zeros(self.Q.shape[:2] + (grow,), complex)],
                axis=2)
        self.U[self.k] = y / beta
        self.k += 1
        return np.append(c, beta)

    def restart(self, Z, p):
        """Keep the p vectors ``Q[:m] Z`` and the last vector ``Q[m]``.
        When the m - p columns the next cycle may add would not fit in U,
        first drop from U the directions these no longer use."""
        m = Z.shape[0]
        kept = np.tensordot(Z.T, self.Q[:m], axes=1)
        self.Q[p] = self.Q[m]
        self.Q[:p] = kept
        self.Q[p + 1:] = 0.0
        k = self.k
        if k + m - p <= len(self.U):
            return
        # the rank tolerance of numpy.linalg.matrix_rank: below it a
        # singular value is the roundoff of the coefficients (past the
        # p + N + 1 columns the kept Krylov space needs, the measured ones
        # were 1e-15 and less)
        C = self.Q[: p + 1, :, :k].reshape(-1, k)
        _, s, Vh = la.svd(C, full_matrices=False)
        rank = int(np.count_nonzero(
            s > s[0] * max(C.shape) * np.finfo(float).eps))
        if rank < k:
            self.U[:rank] = Vh[:rank] @ self.U[:k]
            self.Q[: p + 1, :, :rank] = (C @ Vh[:rank].conj().T).reshape(
                p + 1, self.N + 1, rank)
            self.Q[:, :, rank:k] = 0.0
            self.k = rank

    def vectors(self, Y):
        """The full (N+1) r vectors ``Q[:m] Y`` as columns."""
        coef = np.tensordot(Y.T, self.Q[: Y.shape[0], :, : self.k], axes=1)
        return (coef @ self.U[: self.k]).reshape(Y.shape[1], -1).T


def _krylov_schur(basis, apply, m, want, tol):
    """The ``want`` Ritz values of largest magnitude, and their Ritz
    vectors, by Krylov-Schur restarts of a Krylov space of dimension ``m``
    held in ``basis``; ``apply`` maps the coefficients of a basis vector to
    those of its image.

    Each cycle extends the Krylov-Schur relation A V = V H[:m] + v_m H[m]
    to m vectors (:func:`_gram_schmidt` on the coefficients), takes one
    complex Schur form of H[:m] and moves the ``want`` largest Ritz values
    to its front.  They are done when each of these Schur vectors has
    |b_i| <= tol |theta_i|, b = H[m] Z the residual row.  Otherwise the
    next largest join them, up to want + (m - want) // 2 kept vectors, and
    the basis restarts on those.  No vector is locked: a converged one
    keeps improving while the others converge, which leaves its Ritz
    vector as accurate as ARPACK's (pencil residuals near 1e-13 at tol
    1e-10 on the r = 100 benchmark pencil, where locking left 1e-9 and
    cost a Newton step).  A Krylov space that is invariant ends the
    iteration with every Ritz value exact."""
    H = np.zeros((m + 1, m), dtype=complex)
    keep = want + (m - want) // 2
    # start from the image of the constant start, as ARPACK starts in the
    # range of the operator: with a shift on an eigenvalue (a Ritz value
    # near 5e11) the constant start alone left the other Ritz values
    # 2.6e-9 off, the image 2e-12
    w = apply(basis.Q[0, :, : basis.k])
    basis.Q[0] = (w / np.linalg.norm(w)).reshape(basis.Q.shape[1:])
    p = 0
    applied = 1
    for restarts in range(MAX_RESTARTS + 1):
        for j in range(p, m):
            w = apply(basis.Q[j, :, : basis.k])
            applied += 1
            H[: j + 1, j], w, beta = _gram_schmidt(
                basis.Q.reshape(len(basis.Q), -1)[: j + 1], w)
            H[j + 1, j] = beta
            if beta == 0.0:
                m, want = j + 1, min(want, j + 1)
                break
            basis.Q[j + 1] = (w / beta).reshape(basis.Q.shape[1:])
        T, Z = la.schur(H[:m, :m], output="complex")
        select = np.zeros(m, dtype=np.int32)
        select[np.argsort(-np.abs(np.diag(T)), kind="stable")[:want]] = 1
        T, Z, theta, *_ = _TRSEN(select, T, Z, job="N")
        b = H[m, :m] @ Z
        if np.all(np.abs(b[:want]) <= tol * np.abs(theta[:want])):
            log.debug(
                "compact Arnoldi: %d applications, %d restarts, %d basis "
                "columns", applied, restarts, basis.k)
            mu, Y = la.eig(T[:want, :want])
            return mu, basis.vectors(Z[:, :want] @ Y)
        rest = np.argsort(-np.abs(theta[want:]), kind="stable")
        select[:] = 0
        select[:want] = 1
        select[want + rest[: keep - want]] = 1
        T, Z, *_ = _TRSEN(select, T, Z, job="N")
        basis.restart(Z[:, :keep], keep)
        H[:keep, :keep] = T[:keep, :keep]
        H[keep, :keep] = H[m, :m] @ Z[:, :keep]
        H[keep + 1:] = 0.0
        H[:, keep:] = 0.0
        p = keep
    raise NonConvergenceError(
        f"compact Arnoldi did not converge in {MAX_RESTARTS} restarts")


def _gram_schmidt(V, w):
    """``(h, w - h V, ||w - h V||)`` for the orthonormal rows ``V``: one
    classical Gram-Schmidt pass, and a second when the first leaves less
    than 0.717 of ||w|| (the DGKS test, as in ARPACK)."""
    norm = math.sqrt(np.vdot(w, w).real)
    h = (V @ w.conj()).conj()
    w = w - h @ V
    beta = math.sqrt(np.vdot(w, w).real)
    if beta < 0.717 * norm:
        d = (V @ w.conj()).conj()
        w -= d @ V
        h += d
        beta = math.sqrt(np.vdot(w, w).real)
    return h, w, beta


def _factor(P):
    """Sparse LU of P, in the field of P, with COLAMD ordering and
    threshold partial pivoting (``DIAG_PIVOT_THRESH``).  An exactly zero
    pivot (P singular at a simple eigenvalue) refactors P nudged by 1e-14
    relative on the diagonal and logs a warning.  The refinement in
    :func:`bordered_solve` against the exact P absorbs the nudge; in
    :func:`_shift_invert` it moves the shift by about as much, and the
    Newton polish absorbs that."""
    P = sparse.csc_array(P)
    try:
        return splu(P, diag_pivot_thresh=DIAG_PIVOT_THRESH)
    except RuntimeError:
        nudge = 1e-14 * max(1.0, float(abs(P).max()))
        log.warning(
            "exactly singular %d x %d factor: refactoring with a diagonal "
            "nudge of %.3g", P.shape[0], P.shape[0], nudge,
        )
        shift = nudge * sparse.eye_array(P.shape[0], format="csc")
        try:
            return splu(P + shift, diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:
            raise SingularSystemError(
                f"characteristic matrix is singular: {exc}"
            ) from exc


class HeldFactor:
    """The sparse LU of one recent P, kept for the bordered solves of one
    call (a sweep, a crossing search) to reuse on the nearby P that come
    after it.  Create one per call and let it go with the call: the factor
    is as large as the LU fill.  The factor may be of the other field than
    the system it serves (a sweep that reinitializes from a real branch
    onto a complex one): :func:`_lu_solve` bridges the two."""

    def __init__(self):
        self.lu = None


def _lu_solve(lu, v):
    """lu^-1 v.  SuperLU takes no complex right-hand side on a real LU, so
    a real LU solves a complex ``v`` by its real and imaginary parts; a
    complex LU takes a real ``v`` and gives a complex result."""
    try:
        return lu.solve(v)
    except TypeError:
        return lu.solve(v.real) + 1j * lu.solve(v.imag)


def _refined_solve(lu, P, w, phi, f, t):
    """Bordered solve against the exact ``P`` on ``lu``, the LU of P or of
    a nearby matrix: from x = 0, block elimination passes on the exact
    bordered residual (b = LU^-1 w and the Schur complement phi^T b taken
    once; the first pass is the plain elimination) until that residual is
    at most 1e-13 ||(f, t)||.

    Returns ``(solution, solves, ratio, schur)``: ``(x, ds)``, the solves
    spent, the last residual ratio per pass and the Schur complement.
    ``solution`` is None, and nothing raised, when the attempt fails: a
    zero or nonfinite Schur complement or residual, or a ratio too weak to
    reach the target within ``HELD_SOLVES`` solves."""
    b = _lu_solve(lu, w)
    schur = phi @ b
    if schur == 0.0 or not np.isfinite(schur):
        return None, 1, math.nan, schur
    x, ds, rf, rt = 0.0, 0.0, f, t
    solves, ratio = 1, math.nan
    target = 1e-13 * math.hypot(np.linalg.norm(f), abs(t))
    seen = []  # the residual after each pass
    while True:
        a = _lu_solve(lu, rf)
        dds = (phi @ a - rt) / schur
        x, ds = x + (a - dds * b), ds + dds
        solves += 1
        rf, rt = f - P @ x - w * ds, t - phi @ x
        res = math.hypot(np.linalg.norm(rf), abs(rt))
        if not np.isfinite(res):
            return None, solves, ratio, schur
        if res <= target:
            return (x, ds), solves, ratio, schur
        seen.append(res)
        # the first pass carries the cancellation error of the elimination
        # (b is huge near an eigenvalue), so the contraction is read from
        # the refinement passes on, over the last two: it often alternates
        # between strong and weak from one pass to the next.  Give up as
        # soon as it cannot reach the target within the budget.
        if len(seen) > 1:
            back = min(2, len(seen) - 1)
            ratio = (res / seen[-1 - back]) ** (1.0 / back)
            if not (ratio < 1.0 and solves + math.log(target / res)
                    / math.log(ratio) <= HELD_SOLVES):
                return None, solves, ratio, schur


def bordered_solve(P, w, phi, f, t, held=None):
    """Solve the bordered system

        [[P, w], [phi^T, 0]] [x; ds] = [f; t]

    for the vector x and the scalar ds, in the field of the inputs
    (``np.result_type``): real ones give a real x and a float ds.  With
    P = P(s), w = P'(s) phi and (f, t) = (-dP/dp phi, 0) this is the
    continuation slope (dphi/dp, ds/dp); with (f, t) = -(P phi,
    (phi^T phi - 1)/2) it is the Newton step.

    A dense ndarray P is solved as the dense (r+1) bordered matrix by one
    direct LAPACK ?gesv call (a fresh LU each time; dgesv when it is
    real), outside ``np.errstate``: LAPACK raises no floating-point
    warnings.  A sparse P is solved through one sparse LU,
    real for a real P, by :func:`_refined_solve`: block elimination with
    b = LU^-1 w and the scalar Schur complement phi^T b, repeated on the
    exact bordered residual of P until it is at most 1e-13 ||(f, t)||.
    Near an eigenvalue b is huge and the plain elimination loses all
    accuracy; the refinement restores it.  A
    :class:`HeldFactor` ``held`` lends the LU of an earlier, nearby P; when
    its measured contraction cannot reach the target within
    ``HELD_SOLVES`` solves, it is dropped (one DEBUG record on the
    ``delaytrack`` logger), and P itself is factored, solved on by the same
    loop and held for the next solve.  Every sparse solve, on a fresh or a
    held factor, so meets the target or fails.  A held factor of the other
    field serves too (:func:`_lu_solve`); the real part of a complex
    solution of a real system meets the target that the solution met.

    Raises :class:`SingularSystemError` when the bordered matrix is
    singular: a zero pivot of the dense LU (``info != 0``); on a fresh
    factor of P, a zero or nonfinite Schur complement or a refinement that
    cannot reach the target; or a nonfinite result.
    """
    w, phi, f = np.asarray(w), np.asarray(phi), np.asarray(f)
    dtype = np.result_type(P.dtype, w, phi, f, t)
    if not sparse.issparse(P):
        r = P.shape[0]
        K = np.zeros((r + 1, r + 1), dtype=dtype, order="F")
        K[:r, :r] = P
        K[:r, r] = w
        K[r, :r] = phi
        z = np.empty(r + 1, dtype=dtype)
        z[:r], z[r] = f, t
        gesv = _GESV.get(dtype) or la.get_lapack_funcs("gesv", dtype=dtype)
        _, _, z, info = gesv(K, z, overwrite_a=True, overwrite_b=True)
        if info != 0 or not np.isfinite(z).all():
            raise SingularSystemError(
                f"singular bordered matrix (LAPACK info {info}) or a "
                f"nonfinite solution")
        return z[:r], z[r].item()
    with np.errstate(all="ignore"):  # nonfinite values are reported below
        solution = None
        if held is not None and held.lu is not None:
            solution, solves, ratio, _ = _refined_solve(
                held.lu, P, w, phi, f, t)
            if solution is None:
                log.debug(
                    "dropped the held %d x %d factor after %d solves "
                    "(residual ratio %.3g)", P.shape[0], P.shape[0],
                    solves, ratio,
                )
                held.lu = None  # before the new factor: one LU at a time
        if solution is None:
            lu = _factor(P)
            if held is not None:
                held.lu = lu
            solution, solves, ratio, schur = _refined_solve(
                lu, P, w, phi, f, t)
            if solution is None:
                raise SingularSystemError(
                    "bordered matrix is singular: Schur complement "
                    f"phi^T P^-1 w = {schur}, residual ratio "
                    f"{ratio:.3g} per pass after {solves} solves")
    x, ds = solution
    if dtype.kind != "c":  # a complex held LU may have solved a real system
        x, ds = x.real, ds.real
    if not (np.isfinite(ds) and np.isfinite(x).all()):
        raise SingularSystemError("nonfinite bordered solution")
    return x, ds.item()


@dataclass
class ContinuationSystem:
    """The bordered system [[P(s), P'(s) phi], [phi^T, 0]] at one eigenpair
    (s, phi), with its right-hand sides.

    ``apply`` applies a row of ``c`` (:func:`charfun.coefficients`) to phi
    over one set of slot products (:func:`charfun.slot_products`).
    ``top`` = P(s) phi, ``w`` = P'(s) phi (the border column) and
    ``residual`` = ||P(s) phi|| / ||phi|| are formed at once, ``g`` =
    -(dP/dp) phi (the parameter forcing) and ``P`` = P(s), dense or sparse
    as the ``slots`` are, on first access: the Newton corrector forms no
    forcing, and a converged pair no matrix.
    """

    slots: object
    c: np.ndarray
    phi: np.ndarray
    apply: object
    top: np.ndarray
    w: np.ndarray
    residual: float
    _P: object = field(default=None, repr=False)
    _g: object = field(default=None, repr=False)

    @property
    def P(self):
        if self._P is None:
            self._P = charfun.eval_P(self.slots, self.c[0])
        return self._P

    @property
    def g(self):
        if self._g is None:
            self._g = -self.apply(self.c[2])
        return self._g


def assemble(form, pair):
    """The :class:`ContinuationSystem` of the split form ``form`` at
    ``pair`` (anything with ``s`` and ``phi``): the coefficients of
    :func:`charfun.coefficients` over one set of slot products M_k phi."""
    c = charfun.coefficients(form, pair.s)
    apply = charfun.slot_products(form.slots, pair.phi)
    top = apply(c[0])
    return ContinuationSystem(
        slots=form.slots, c=c, phi=pair.phi, apply=apply, top=top,
        w=apply(c[1]), residual=float(np.linalg.norm(top)
                                      / np.linalg.norm(pair.phi)))


def refine_newton(form, s0, phi0, tol=1e-10, max_iter=25, held=None):
    """Polish an eigenpair on the exact characteristic function of the
    split form ``form``.

    Newton iteration on the bordered system

        F(phi, s) = [ P(s) phi ; (phi^T phi - 1) / 2 ] = 0

    with Jacobian blocks [[P(s), dP/ds phi], [phi^T, 0]], solved by
    :func:`bordered_solve`, which reuses the factor in ``held`` (a
    :class:`HeldFactor`) when one is given.  The transpose (not conjugate)
    border keeps F holomorphic, so plain complex Newton converges
    quadratically.  A real pair (:func:`in_field`) stays real on a real
    form.  Each iteration reads P(s) phi, P'(s) phi and P(s) of the system
    of :func:`assemble`, which forms P(s) only for a Newton step and the
    parameter forcing never.  Returns an :class:`Eigenpair` satisfying
    ||P(s) phi|| / ||phi|| <= tol and |phi^T phi - 1| <= tol.

    Eigenvectors that are isotropic under the transpose pairing
    (phi^T phi = 0, e.g. (1, j) of a pure rotation) admit no quadratic
    normalization at all; once the residual criterion holds they are
    returned Euclidean-normalized instead, with a logged warning.

    Raises :class:`NonConvergenceError` after ``max_iter`` iterations and
    :class:`DefectiveEigenvalueError` when the bordered Jacobian is
    singular (the fold signature).
    """
    s, phi = in_field(s0, phi0)
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

    residual = np.inf
    for _ in range(max_iter):
        system = assemble(form, Eigenpair(s, phi, math.nan))
        residual = system.residual
        quad = phi @ phi
        defect = (quad - 1.0) / 2.0
        if residual <= tol:
            if abs(2.0 * defect) <= tol:
                return Eigenpair(s, phi, residual)
            nrm = np.linalg.norm(phi)
            if abs(quad) <= 1e-12 * nrm * nrm:
                # isotropic eigenvector: no quadratic normalization exists
                log.warning(
                    "isotropic eigenvector (phi^T phi = 0) at s=%s: "
                    "returned Euclidean-normalized", s,
                )
                return Eigenpair(s, phi / nrm, residual)

        try:
            dphi, ds = bordered_solve(system.P, system.w, phi, -system.top,
                                      -defect, held)
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


# collocation degree and candidate count of an initialization, unless the
# caller names its own
INIT_DEGREE = 16
INIT_COUNT = 6


def refined_eigenpairs(form, N, shift, count, tol=1e-10):
    """Newton-refined eigenpairs of the split form ``form`` from a
    collocation pencil.

    Discretizes the form at degree ``N`` (the pair (A0, E) for a delay-free
    form), takes the ``count`` pencil eigenpairs nearest to ``shift``
    (shift-invert Arnoldi stops at ``tol`` too, since the polish meets it
    anyway) and polishes the endpoint block of each, which approximates
    phi, by :func:`refine_newton` on the form itself, so a WAMS shaping
    enters only the polish.  A candidate whose endpoint block vanishes
    (relative to its pencil vector) or whose refinement raises a
    :class:`DelayTrackError` is skipped, as is one within 1e-9 of an
    eigenvalue already kept; each skip is logged at DEBUG with the
    candidate's s and the reason.  For a real ``shift`` the conjugate
    (conj s, conj phi) of a member, an eigenpair of the real form, joins
    when the cut at ``count`` left it out.  Sorted by descending real part.
    """
    pencil = discretize(form, N if form.mu else 0)
    refined = []
    for pair in solve_discretized(pencil, shift, count, tol):
        phi0 = pair.phi[: pencil.r]
        if np.linalg.norm(phi0) < 1e-12 * np.linalg.norm(pair.phi):
            log.debug("candidate s=%s dropped: its endpoint block vanishes",
                      pair.s)
            continue
        try:
            ref = refine_newton(form, pair.s, phi0, tol=tol)
        except DelayTrackError as exc:
            log.debug("candidate s=%s dropped: %s: %s (residual %s)", pair.s,
                      type(exc).__name__, exc, getattr(exc, "residual", None))
            continue
        if any(abs(ref.s - k.s) < 1e-9 for k in refined):
            log.debug("candidate s=%s dropped: it refines to s=%s, a "
                      "duplicate of a kept eigenvalue", pair.s, ref.s)
            continue
        refined.append(ref)
    if complex(shift).imag == 0.0:
        lone = [e for e in refined
                if all(abs(k.s - e.s.conjugate()) >= 1e-9 for k in refined)]
        refined += [Eigenpair(e.s.conjugate(), e.phi.conj(), e.residual)
                    for e in lone]
    refined.sort(key=lambda e: -e.s.real)
    return refined
