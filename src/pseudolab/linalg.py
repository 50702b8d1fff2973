"""Shared dense solves for the regression code paths."""

from __future__ import annotations

import numpy as np

# Bound to the scipy package on the first solve: importing scipy.linalg costs
# about a third of a second, and most CLI stages never solve.
scipy = None

JITTER = 1e-10
MAX_JITTER_RETRIES = 3


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-(semi)definite system with a jitter fallback.

    Retries with A + 1e-10*I up to three times before giving up.
    """
    global scipy
    if scipy is None:
        import scipy.linalg
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")
    attempt = A
    for retry in range(MAX_JITTER_RETRIES + 1):
        try:
            x = scipy.linalg.solve(attempt, b, assume_a="pos")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            x = None
        if x is not None and np.all(np.isfinite(x)):
            return x
        if retry == MAX_JITTER_RETRIES:
            break
        attempt = attempt + JITTER * np.eye(A.shape[0])
    raise np.linalg.LinAlgError("solve failed after jitter retries")


def clamp_scores(values: np.ndarray | float) -> np.ndarray | float:
    """Clamp predictions to the 1..7 rating scale."""
    return np.clip(values, 1.0, 7.0)
