"""Small shared helpers: the integer and real-number rules, exact summation
and atomic file writes."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

import numpy as np

# Bounds of the vectorised path in exact_sum; outside them it falls back
# to fsum.  A level of N terms takes bits = min(51, 53 - ceil(log2 N)), the
# most with N * 2^bits <= 2^53: its terms are integers times 2^(e-bits) of
# size at most 2^bits, so np.sum adds them exactly.  Up to 2^22 terms a
# level still takes 31 bits.
_EXACT_TERMS = 1 << 22
# C = 1.5 * 2^(e+52-bits) and r + C stay finite while max|r| < 2^999.
_EXACT_TOP = 2.0 ** (1023 - 24)
# C is normal, and the grid 2^(e-bits) no finer than the subnormal step,
# only while e - bits >= -1074.
_EXACT_FLOOR = -1074


def _as_int(value, name: str) -> int:
    """value, an int or numpy integer but not a bool, as a Python int; 2.0,
    "2" and True are refused with ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(value, name: str) -> float:
    """value, an int, float or numpy real but not a bool, as a Python float;
    "1.0", None, 1j, True or 10**400 is ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {value!r} is past the float range") from None


def fsum(terms) -> float:
    """math.fsum, or NaN where it raises (a partial sum past the float range, or inf - inf)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def exact_sum(values) -> float:
    """Correctly rounded sum of a float array, the same value as `fsum`.

    Error-free extraction in levels (Rump, Ogita and Oishi, "Accurate
    floating-point summation", SISC 2008; Demmel and Nguyen, "Fast
    reproducible floating-point summation", ARITH 2013).  Each level of the
    N terms takes bits = min(51, 53 - ceil(log2 N)) bits: with max|r| < 2^e
    and C = 1.5 * 2^(e+52-bits), hi = (r + C) - C rounds every term to a
    multiple of 2^(e-bits) without error in r - hi, and np.sum(hi), at most
    N * 2^bits <= 2^53 of that grid, is exact.  The bound e comes from
    max|r| once; the remainder r - hi is at most 2^(e-bits-1), so the next
    level takes e - bits.  Levels repeat until the remainder is all zero,
    and math.fsum over the level totals rounds their exact sum once.  So the
    result does not depend on the order of the terms or on how the levels
    split them, and it is bit for bit `fsum` over the terms.

    Falls back to `fsum` over the terms for non-finite input, for more
    than 2^22 terms, when max|r| >= 2^999 (C would overflow; fsum then
    overflows or cancels on its own terms), and at the subnormal floor
    e - bits < -1074, where C would be subnormal and the grid 2^(e-bits)
    finer than the subnormal step.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size <= _EXACT_TERMS:
        # a nan propagates through max and min and fails the bound
        top = max(arr.max(), -arr.min()) if arr.size else 0.0
        if top == 0.0:
            return 0.0
        if top < _EXACT_TOP:
            bits = min(51, 53 - (arr.size - 1).bit_length())
            e = math.frexp(top)[1]
            levels = []
            r = arr
            hi = np.empty_like(arr)
            while e - bits >= _EXACT_FLOOR:
                c = math.ldexp(1.5, e + 52 - bits)
                np.add(r, c, out=hi)
                hi -= c
                levels.append(float(hi.sum()))
                # the first level leaves the caller's array alone
                r = r - hi if r is arr else np.subtract(r, hi, out=r)
                if not r.any():
                    return math.fsum(levels)
                e -= bits
    return fsum(arr.tolist())


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename, never in place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
