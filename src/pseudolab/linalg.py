"""Shared dense solves for the regression code paths.

Every sum here runs in one fixed order (einsum with optimize=False, which
calls no BLAS), so a product or a solve gives the same bits whatever the
BLAS thread count; see Demmel and Nguyen, "Fast Reproducible Floating-Point
Summation" (ARITH 2013).
"""

from __future__ import annotations

import math

import numpy as np

JITTER = 1e-10
MAX_JITTER_RETRIES = 3


def gram(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """X.T @ Y (X.T @ X without Y) of 1-D or 2-D arrays, summed in a fixed order without BLAS."""
    if Y is None:
        Y = X
    x, y = "ij"[: X.ndim], "ik"[: Y.ndim]
    return np.einsum(f"{x},{y}->{x[1:]}{y[1:]}", X, Y, optimize=False)


def _cholesky(A: np.ndarray) -> np.ndarray | None:
    """Lower-triangular L with L @ L.T == A, column by column; None unless A is
    numerically positive definite."""
    n = A.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        row = L[j, :j]
        pivot = A[j, j] - np.einsum("i,i->", row, row, optimize=False)
        if not pivot > 0.0:  # also catches NaN
            return None
        L[j, j] = math.sqrt(pivot)
        below = A[j + 1 :, j] - np.einsum("ij,j->i", L[j + 1 :, :j], row, optimize=False)
        L[j + 1 :, j] = below / L[j, j]
    return L


def _forward(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for lower-triangular L by substitution, one row at a time."""
    x = np.empty(b.shape)
    for i in range(L.shape[0]):
        x[i] = (b[i] - np.einsum("i,i->", L[i, :i], x[:i], optimize=False)) / L[i, i]
    return x


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-(semi)definite A and a vector b.

    Factors A = L L.T and substitutes forward then back. When A is not
    positive definite numerically, retries with A + 1e-10*I up to three times
    before raising np.linalg.LinAlgError.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or b.shape != A.shape[:1] or A.shape[0] != A.shape[1]:
        raise ValueError(f"inconsistent system shapes {A.shape} and {b.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")
    attempt = A
    for retry in range(MAX_JITTER_RETRIES + 1):
        # a near-zero pivot may overflow to inf or nan; such a solve is retried
        with np.errstate(over="ignore", invalid="ignore"):
            L = _cholesky(attempt)
            # L.T x = y with its rows and columns reversed is lower-triangular
            x = None if L is None else _forward(L.T[::-1, ::-1], _forward(L, b)[::-1])[::-1]
        if x is not None and np.all(np.isfinite(x)):
            return x
        if retry == MAX_JITTER_RETRIES:
            break
        attempt = attempt + JITTER * np.eye(A.shape[0])
    raise np.linalg.LinAlgError("solve failed after jitter retries")


def clamp_scores(values: np.ndarray | float) -> np.ndarray | float:
    """Clamp predictions to the 1..7 rating scale."""
    return np.clip(values, 1.0, 7.0)
