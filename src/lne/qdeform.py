"""q-deformed logarithm and exponential.

    log_q(x) = (x^(1-q) - 1) / (1 - q),          x > 0
    exp_q(x) = [1 + (1-q) x]^(1/(1-q))           if the bracket is >= 0,
               0                                 otherwise,

both reducing to the classical log/exp as q -> 1.  The pair is mutually
inverse, exp_q(log_q(x)) = x, and obeys the deformed product rules

    exp_q(x) exp_q(y) = exp_q(x + y + (1-q) x y),
    log_q(x y) = log_q(x) + log_q(y) + (1-q) log_q(x) log_q(y).

At q = 1 the classical functions are used; elsewhere the expm1/log1p
formulations keep full precision, however close q is to 1.
"""

from __future__ import annotations

import numpy as np

from .numkit import _min

__all__ = ["q_log", "q_exp"]


def _range(arr):
    """(min, max) of an array, nan if it holds one; (1, 1) when empty,
    which passes every check."""
    if not arr.size:
        return 1.0, 1.0
    flat = arr.ravel()
    return _min(flat), flat[flat.argmax()]


def q_log(x, q):
    """Deformed logarithm log_q(x) for x > 0.

    Accepts scalars or arrays; scalar input returns a float.
    """
    q = float(q)
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    arr = np.asarray(x, dtype=float)
    lo, hi = _range(arr)
    if not (lo > 0 and hi < np.inf):  # nan fails both
        raise ValueError("q_log requires finite x > 0")
    if q == 1.0:
        out = np.log(arr)
    else:
        out = np.expm1((1.0 - q) * np.log(arr)) / (1.0 - q)
    return float(out) if np.isscalar(x) else out


def _log_q_exp(cx, c):
    """Overwrite ``cx = c * x`` (c = 1 - q, nonzero) by log exp_q(x) =
    log1p(cx) / c, and -inf where the bracket 1 + cx is <= 0: the cutoff.

    Returns a mask of the cut entries, or None if there are none.  A nan
    stays nan and is not cut.
    """
    cut = None
    if cx.size and not cx[cx.argmin()] > -1.0:  # a cutoff, or a nan
        cut = cx <= -1.0
        cx[cut] = 0.0
    np.log1p(cx, out=cx)
    cx /= c
    if cut is None or not np.logical_or.reduce(cut):
        return None
    cx[cut] = -np.inf
    return cut


def q_exp(x, q):
    """Deformed exponential exp_q(x), with the cutoff at a negative bracket.

    Total on the reals except the single pole case: when q > 1 the
    exponent 1/(1-q) is negative, so a bracket of exactly zero is a
    domain error rather than a silent 0.
    """
    q = float(q)
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    arr = np.asarray(x, dtype=float)
    lo, hi = _range(arr)
    if not (-np.inf < lo and hi < np.inf):  # nan fails both
        raise ValueError("q_exp requires finite x")
    if q == 1.0:
        out = np.exp(arr)
    else:
        c = 1.0 - q
        flat = arr.reshape(-1)
        out = c * flat
        cut = _log_q_exp(out, c)
        if c < 0 and cut is not None and np.any(c * flat[cut] == -1.0):
            raise ValueError("q_exp pole: bracket is exactly 0 with q > 1")
        out = np.exp(out, out=out).reshape(arr.shape)
    return float(out) if np.isscalar(x) else out
