"""Elementary symmetric function algebra for curvature eigenvalue tuples.

Eigenvalue tuples are 1-D float arrays (length n = hypersurface dimension,
small: n <= 6 in practice).  Symmetric matrices are (n, n) float arrays.
The normalized functions E_m = sigma_m / C(n, m) are what the integral
identities consume; sigma_m is exposed for cone membership tests and for
brute-force oracles.

Conventions: sigma_0 = E_0 = 1, and sigma_m = E_m = 0 whenever m > n.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GardingConeError

__all__ = [
    "sigma_m",
    "e_m",
    "e_m_values",
    "e_m_matrix",
    "d_e_m",
    "cone_member",
    "newton_maclaurin_deficit",
]


def _as_tuple(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalue tuple must be a non-empty 1-D array")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue tuple contains non-finite entries")
    return lam


def _as_symmetric(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    return a


def _sigma(columns, m: int, one):
    """sigma_m of n values by the prefix recursion, zero for m > n.

    `columns` holds the n values: floats for one tuple, or equal-shape
    arrays for a stack of tuples, with `one` the matching unit (1.0 or an
    array of ones).
    """
    if m < 0:
        raise ValueError(f"order m must be non-negative, got {m}")
    if m > len(columns):
        return 0.0 * one
    # after consuming columns[i], e[j] holds sigma_j of the prefix
    e = [one] + [0.0] * m
    for i, col in enumerate(columns):
        for j in range(min(i + 1, m), 0, -1):
            e[j] = e[j] + col * e[j - 1]
    return e[m]


def sigma_m(values, m: int) -> float:
    """m-th elementary symmetric polynomial of an eigenvalue tuple."""
    return float(_sigma(_as_tuple(values).tolist(), m, 1.0))


def e_m(values, m: int) -> float:
    """Normalized symmetric function E_m = sigma_m / C(n, m)."""
    lam = _as_tuple(values)
    sig = sigma_m(lam, m)
    return sig / math.comb(lam.size, m) if m <= lam.size else sig


def e_m_values(values, m: int) -> np.ndarray:
    """E_m along the last axis of a stacked eigenvalue array.

    `values` has shape (..., n); the result has shape (...).  This is the
    vectorized path the surface integrals use, so it avoids per-node Python
    work beyond the O(n * m) recursion.
    """
    lam = np.asarray(values, dtype=float)
    if lam.ndim == 0:
        raise ValueError("expected at least one eigenvalue axis")
    n = lam.shape[-1]
    sig = _sigma(list(np.moveaxis(lam, -1, 0)), m, np.ones(lam.shape[:-1]))
    return sig / math.comb(n, m) if m <= n else sig


def e_m_matrix(matrix, m: int, method: str = "eigen") -> float:
    """E_m of a symmetric matrix.

    Two independent routes are kept on purpose so they can cross-check each
    other: "eigen" goes through the LAPACK eigenvalues (numpy.linalg.eigvalsh),
    "minors" sums the m-by-m principal minors (the antisymmetrized product
    definition).
    """
    a = _as_symmetric(matrix)
    n = a.shape[0]
    if m < 0:
        raise ValueError(f"order m must be non-negative, got {m}")
    if m == 0:
        return 1.0
    if m > n:
        return 0.0
    if method == "eigen":
        return e_m(np.linalg.eigvalsh(a), m)
    if method == "minors":
        total = 0.0
        for rows in itertools.combinations(range(n), m):
            sub = a[np.ix_(rows, rows)]
            total += float(np.linalg.det(sub))
        return total / math.comb(n, m)
    raise ValueError(f"unknown method {method!r}")


def d_e_m(matrix, m: int) -> np.ndarray:
    """Derivative matrix of E_m with respect to the matrix argument.

    Entry (i, j) is dE_m / dA_ji; for symmetric A the result is symmetric.
    Computed in the eigenbasis from numpy.linalg.eigh, where it is diagonal
    with entries sigma_{m-1} of the deleted eigenvalue tuple.  (The equivalent
    polynomial expansion sum (-1)^r sigma_{m-1-r}(A) A^r cancels digits
    badly at m close to n.)
    """
    a = _as_symmetric(matrix)
    n = a.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"order m must satisfy 1 <= m <= {n}, got {m}")
    if n == 1:
        return np.ones((1, 1))
    lam, vec = np.linalg.eigh(a)
    diag = np.array([sigma_m(np.delete(lam, i), m - 1) for i in range(n)])
    return (vec * diag) @ vec.T / math.comb(n, m)


def cone_member(values, m: int) -> bool:
    """Strict Garding cone test: sigma_i > 0 for every 1 <= i <= m."""
    lam = _as_tuple(values)
    n = lam.size
    if not 1 <= m <= n:
        raise ValueError(f"order m must satisfy 1 <= m <= {n}, got {m}")
    return all(sigma_m(lam, i) > 0.0 for i in range(1, m + 1))


def newton_maclaurin_deficit(values, m: int) -> float:
    """Deficit E_1 * E_{m-1} - E_m, non-negative inside the Garding cone.

    Vanishes exactly when all eigenvalues coincide.  Raises
    GardingConeError when the tuple is outside the order-m cone, carrying
    the offending sigma values.
    """
    lam = _as_tuple(values)
    n = lam.size
    if not 1 <= m <= n:
        raise ValueError(f"order m must satisfy 1 <= m <= {n}, got {m}")
    sigmas = [sigma_m(lam, i) for i in range(1, m + 1)]
    if any(s <= 0.0 for s in sigmas):
        raise GardingConeError(m, sigmas)
    return e_m(lam, 1) * e_m(lam, m - 1) - e_m(lam, m)
