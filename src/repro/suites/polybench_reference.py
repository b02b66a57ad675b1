"""Executable NumPy reference implementations of PolyBench kernels.

These serve three purposes:

* **semantic ground truth** — the IR descriptions in
  :mod:`repro.suites.polybench_la` claim operation counts and loop
  structures; the references let tests check the flop formulas against
  the actual mathematics;
* **legality ground truth** — the dependence analysis claims which loop
  orders are interchangeable; running a kernel in both orders and
  comparing results validates those verdicts numerically (a reordering
  the analysis calls legal must be bit-compatible up to FP
  reassociation; one it rejects must genuinely change results);
* **user documentation** — the precise semantics of each modelled
  kernel, runnable at any size.

All functions take small ``n`` and plain ``numpy`` arrays; they are
*not* performance code (the whole point of the study is what compilers
do to the naive loops).  numpy is not a dependency of the package:
this module needs the ``test`` extra (``pip install -e ".[test]"``),
and only ``tests/suites/test_polybench_reference.py`` imports it.
"""

from __future__ import annotations

import numpy as np


def init_array(shape: tuple, seed: int = 7) -> np.ndarray:
    """Deterministic PolyBench-style initialization."""
    rng = np.random.default_rng(seed + sum(shape))
    return rng.uniform(0.1, 1.0, size=shape)


# ---------------------------------------------------------------------------
# matmul family
# ---------------------------------------------------------------------------


def gemm(A: np.ndarray, B: np.ndarray, C: np.ndarray, alpha: float = 1.5, beta: float = 1.2) -> np.ndarray:
    """C = alpha*A@B + beta*C."""
    return alpha * (A @ B) + beta * C


def gemm_loops(A, B, C, alpha=1.5, beta=1.2, order="ijk"):
    """gemm with explicit loops in a chosen order (for legality tests)."""
    ni, nk = A.shape
    nj = B.shape[1]
    out = beta * C.copy()
    ranges = {"i": range(ni), "j": range(nj), "k": range(nk)}
    idx = {}

    def body():
        i, j, k = idx["i"], idx["j"], idx["k"]
        out[i, j] += alpha * A[i, k] * B[k, j]

    for a in ranges[order[0]]:
        idx[order[0]] = a
        for b in ranges[order[1]]:
            idx[order[1]] = b
            for c in ranges[order[2]]:
                idx[order[2]] = c
                body()
    return out


def two_mm(A, B, C, D, alpha=1.5, beta=1.2):
    """D = alpha*A@B@C + beta*D."""
    return alpha * (A @ B) @ C + beta * D


def three_mm(A, B, C, D):
    """G = (A@B) @ (C@D)."""
    return (A @ B) @ (C @ D)


def gemm_flops(ni: int, nj: int, nk: int) -> float:
    """FMA-as-2 flop count of the gemm update nest plus the beta scale."""
    return 2.0 * ni * nj * nk + ni * nj * nk + ni * nj  # fma+mul per k-iter, beta scale


# ---------------------------------------------------------------------------
# matvec family
# ---------------------------------------------------------------------------


def atax(A, x):
    """y = A^T (A x)."""
    return A.T @ (A @ x)


def bicg(A, p, r):
    """s = A^T r ; q = A p."""
    return A.T @ r, A @ p


def mvt(A, x1, x2, y1, y2):
    """x1 += A y1 ; x2 += A^T y2."""
    return x1 + A @ y1, x2 + A.T @ y2


def gesummv(A, B, x, alpha=1.5, beta=1.2):
    """y = alpha*A@x + beta*B@x."""
    return alpha * (A @ x) + beta * (B @ x)


def gemver(A, u1, v1, u2, v2, y, z, w, x, alpha=1.5, beta=1.2):
    """The four-phase gemver composite; returns (A_hat, x_out, w_out)."""
    A_hat = A + np.outer(u1, v1) + np.outer(u2, v2)
    x_out = x + beta * (A_hat.T @ y) + z
    w_out = w + alpha * (A_hat @ x_out)
    return A_hat, x_out, w_out


# ---------------------------------------------------------------------------
# solvers / factorizations
# ---------------------------------------------------------------------------


def trisolv(L, b):
    """Forward substitution: solve L x = b for lower-triangular L."""
    n = len(b)
    x = np.zeros(n)
    for i in range(n):
        x[i] = (b[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def cholesky(A):
    """In-place-style Cholesky of an SPD matrix (lower factor)."""
    n = A.shape[0]
    L = A.copy()
    for i in range(n):
        for j in range(i):
            L[i, j] = (L[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
        L[i, i] = np.sqrt(L[i, i] - L[i, :i] @ L[i, :i])
    return np.tril(L)


def lu(A):
    """Doolittle LU without pivoting; returns (L, U)."""
    n = A.shape[0]
    U = A.copy()
    L = np.eye(n)
    for k in range(n - 1):
        for i in range(k + 1, n):
            L[i, k] = U[i, k] / U[k, k]
            U[i, k:] -= L[i, k] * U[k, k:]
            U[i, k] = 0.0
    return L, U


def durbin(r):
    """Levinson-Durbin recursion for Toeplitz systems."""
    n = len(r)
    y = np.zeros(n)
    y[0] = -r[0]
    alpha, beta = -r[0], 1.0
    for k in range(1, n):
        beta *= 1.0 - alpha * alpha
        alpha = -(r[k] + r[:k][::-1] @ y[:k]) / beta
        y[:k] = y[:k] + alpha * y[:k][::-1]
        y[k] = alpha
    return y


def gramschmidt(A):
    """Modified Gram-Schmidt QR; returns (Q, R)."""
    m, n = A.shape
    Q = np.zeros((m, n))
    R = np.zeros((n, n))
    work = A.copy()
    for k in range(n):
        R[k, k] = np.linalg.norm(work[:, k])
        Q[:, k] = work[:, k] / R[k, k]
        for j in range(k + 1, n):
            R[k, j] = Q[:, k] @ work[:, j]
            work[:, j] -= R[k, j] * Q[:, k]
    return Q, R


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def jacobi_1d(A, B, tsteps=1):
    """PolyBench jacobi-1d time steps (returns updated (A, B))."""
    A, B = A.copy(), B.copy()
    for _ in range(tsteps):
        B[1:-1] = (A[:-2] + A[1:-1] + A[2:]) / 3.0
        A[1:-1] = (B[:-2] + B[1:-1] + B[2:]) / 3.0
    return A, B


def jacobi_2d(A, B, tsteps=1):
    """PolyBench jacobi-2d time steps."""
    A, B = A.copy(), B.copy()
    for _ in range(tsteps):
        B[1:-1, 1:-1] = 0.2 * (
            A[1:-1, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:] + A[:-2, 1:-1] + A[2:, 1:-1]
        )
        A[1:-1, 1:-1] = 0.2 * (
            B[1:-1, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:] + B[:-2, 1:-1] + B[2:, 1:-1]
        )
    return A, B


def seidel_2d(A, tsteps=1, row_major_order=True, nine_point=True):
    """Gauss-Seidel sweep, in place (PolyBench's 9-point form).

    With the 9-point stencil, visiting columns first
    (``row_major_order=False``) is a reordering the dependence analysis
    rejects — the ``A[i+1][j-1]`` diagonal creates a ``(<,>)``
    dependence — and indeed the results differ.  The diagonal-free
    5-point variant (``nine_point=False``) is order-insensitive, which
    the analysis also correctly reports.
    """
    A = A.copy()
    n = A.shape[0]

    def stencil(i, j):
        if nine_point:
            return (
                A[i - 1, j - 1] + A[i - 1, j] + A[i - 1, j + 1]
                + A[i, j - 1] + A[i, j] + A[i, j + 1]
                + A[i + 1, j - 1] + A[i + 1, j] + A[i + 1, j + 1]
            ) / 9.0
        return (A[i - 1, j] + A[i + 1, j] + A[i, j - 1] + A[i, j + 1] + A[i, j]) / 5.0

    for _ in range(tsteps):
        if row_major_order:
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    A[i, j] = stencil(i, j)
        else:
            for j in range(1, n - 1):
                for i in range(1, n - 1):
                    A[i, j] = stencil(i, j)
    return A


def heat_3d(A, B, tsteps=1):
    """PolyBench heat-3d time steps."""
    A, B = A.copy(), B.copy()
    for _ in range(tsteps):
        for src, dst in ((A, B), (B, A)):
            dst[1:-1, 1:-1, 1:-1] = (
                0.125 * (src[2:, 1:-1, 1:-1] - 2 * src[1:-1, 1:-1, 1:-1] + src[:-2, 1:-1, 1:-1])
                + 0.125 * (src[1:-1, 2:, 1:-1] - 2 * src[1:-1, 1:-1, 1:-1] + src[1:-1, :-2, 1:-1])
                + 0.125 * (src[1:-1, 1:-1, 2:] - 2 * src[1:-1, 1:-1, 1:-1] + src[1:-1, 1:-1, :-2])
                + src[1:-1, 1:-1, 1:-1]
            )
    return A, B


def fdtd_2d(ex, ey, hz, tsteps=1):
    """PolyBench fdtd-2d time steps."""
    ex, ey, hz = ex.copy(), ey.copy(), hz.copy()
    for _ in range(tsteps):
        ey[1:, :] -= 0.5 * (hz[1:, :] - hz[:-1, :])
        ex[:, 1:] -= 0.5 * (hz[:, 1:] - hz[:, :-1])
        hz[:-1, :-1] -= 0.7 * (
            ex[:-1, 1:] - ex[:-1, :-1] + ey[1:, :-1] - ey[:-1, :-1]
        )
    return ex, ey, hz


def floyd_warshall(path):
    """All-pairs shortest paths."""
    p = path.copy()
    n = p.shape[0]
    for k in range(n):
        p = np.minimum(p, p[:, k : k + 1] + p[k : k + 1, :])
    return p


# ---------------------------------------------------------------------------
# data mining
# ---------------------------------------------------------------------------


def covariance(data):
    """Column covariance matrix (PolyBench convention, divisor n-1)."""
    centered = data - data.mean(axis=0)
    return centered.T @ centered / (data.shape[0] - 1.0)


def correlation(data):
    """Column correlation matrix."""
    centered = data - data.mean(axis=0)
    std = np.sqrt((centered**2).mean(axis=0))
    std = np.where(std <= 0.1 / np.sqrt(data.shape[0]), 1.0, std)
    normed = centered / (np.sqrt(float(data.shape[0])) * std)
    corr = normed.T @ normed
    np.fill_diagonal(corr, 1.0)
    return corr
