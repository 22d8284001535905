"""Normalized elementary symmetric functions of stacked principal curvatures.

E_m = sigma_m / C(n, m) of the n principal curvatures at each node is what
the integral identities consume; `e_m_values` computes it along the last
axis of a (..., n) array by one prefix recursion, `_sigma`.

Conventions: sigma_0 = E_0 = 1, and sigma_m = E_m = 0 whenever m > n.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["e_m_values"]


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
