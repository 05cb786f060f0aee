"""Numerically stable primitives over finite weight vectors.

A weight vector is any 1-D array of finite, nonnegative reals with at
least one positive entry.  Probability and sub-probability vectors are
the special cases with total mass 1 and <= 1; most routines here accept
the general case because the quantities they feed are scale invariant.

All power sums are evaluated in log space by one kernel,
psi(gamma) = log sum_i w_i^gamma = lse(gamma * log w) over the positive
support, so that orders up to a few hundred neither underflow nor
overflow, and zero entries are dropped everywhere (the 0*log(0) := 0
convention).  The private helpers below take already-validated arrays,
so each public function validates its input and takes the log of its
support once.

Each psi works in one scratch array: gamma * log w is formed, shifted
by its maximum, exponentiated and summed in place, so a call on n
entries holds log w plus n more floats, not three full-size
temporaries.  Helpers that need exp(gamma * log w - psi) afterwards
build it in place too, once psi has freed its scratch.

Every exp of a full-size array goes through `_exp_inplace`, which hands
numpy's vector exp only arguments whose results are at least 2**-1021.
numpy's AVX-512 exp drops a whole SIMD vector to a slow path, about a
hundred times slower per entry, when any one lane's result is below
that, and weights with a dynamic range of 1e200 at orders of a few
units put several percent of the shifted arguments there, scattered
through the array.  The few arguments whose results are subnormal are
recomputed by np.exp on their own, those whose results are zero are
written as zeros, and every result keeps the bits np.exp gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Mass tolerance for (sub-)probability membership and the window around
# alpha == beta (and q == 1) inside which the limiting formulas are used.
TOL_MASS = 1e-9
EPS_ORDER = 1e-8

__all__ = [
    "TOL_MASS",
    "EPS_ORDER",
    "EntropyParams",
    "as_weights",
    "total_mass",
    "is_probability",
    "is_subprobability",
    "lse",
    "log_norm",
    "escort",
    "product_compose",
    "robin_hood_transfer",
    "majorizes",
]


@dataclass(frozen=True)
class EntropyParams:
    """Order pair (alpha, beta) selecting one member of the two-parameter family."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be a finite positive real, got {v!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def equal_orders(self) -> bool:
        """True when the two orders are indistinguishable at EPS_ORDER."""
        return abs(self.alpha - self.beta) <= EPS_ORDER


def as_weights(w, name="w") -> np.ndarray:
    """Validate and return ``w`` as a 1-D float64 weight vector.

    Rejects empty vectors, non-finite or negative entries, and the
    all-zero vector.
    """
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    # nan and +-inf all reach the minimum or the maximum (see _min)
    lo, hi = arr[arr.argmin()], arr[arr.argmax()]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} contains non-finite entries")
    if lo < 0:
        raise ValueError(f"{name} contains negative entries")
    if not hi > 0:
        raise ValueError(f"{name} must have at least one positive entry")
    return arr


def total_mass(w) -> float:
    return float(as_weights(w).sum())


def is_probability(w, tol=TOL_MASS) -> bool:
    return abs(total_mass(w) - 1.0) <= tol


def is_subprobability(w, tol=TOL_MASS) -> bool:
    return total_mass(w) <= 1.0 + tol


def _min(x):
    """x.min() of a nonempty vector, nan included.  argmin is no ufunc
    reduction, so it costs a fraction of min on short vectors."""
    return x[x.argmin()]


def _check_order(gamma, name="gamma") -> float:
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {gamma!r}")
    return gamma


# numpy's AVX-512 exp keeps its fast path only while every lane's result
# is at least 2**-1021, i.e. for arguments >= -1021 log 2 = -707.703...;
# below -746 every result rounds to zero.
_EXP_FAST_MIN = -707.0
_EXP_ZERO_BELOW = -746.0


def _exp_inplace(x) -> np.ndarray:
    """Overwrite the float64 vector ``x`` with np.exp(x), bit for bit.

    Arguments below _EXP_FAST_MIN are taken out before the vector exp
    runs, so no SIMD vector falls to numpy's slow path; their results
    are zero below _EXP_ZERO_BELOW and recomputed on their own above it.
    """
    if not _min(x) < _EXP_FAST_MIN:  # also true when it is nan
        return np.exp(x, out=x)
    low = np.flatnonzero(x < _EXP_FAST_MIN)
    x_low = x[low]
    x[low] = 0.0
    np.exp(x, out=x)
    x[low] = 0.0
    tiny = x_low >= _EXP_ZERO_BELOW
    x[low[tiny]] = np.exp(x_low[tiny])
    return x


def _lse_inplace(a) -> float:
    """`lse` of a nonempty float64 vector the caller hands over; ``a`` is
    overwritten."""
    i = a.argmax()  # rather than max, see _min; i is the tie when k == 1
    a_max = a[i]
    if not math.isfinite(a_max):
        return float(a_max)
    a -= a_max
    # a == 0 is exactly the set tying with the maximum
    tie = a == 0.0
    k = np.count_nonzero(tie)
    # zero the tied terms rather than dropping them: numpy's pairwise sum
    # groups terms by position, so the full length keeps every rounding
    # equal to that of the usual library logsumexp
    _exp_inplace(a)
    if k == 1:
        a[i] = 0.0
    else:
        a[tie] = 0.0
    s = a.sum()
    if s != 0.0:
        s = s / k
    return float(np.log1p(s) + (np.log(k) if k > 1 else 0.0) + a_max)


def lse(a) -> float:
    """log(sum(exp(a))) of a nonempty 1-D array, accurate and overflow-free.

    The entries tying with the maximum are taken out of the sum and added
    back through log1p (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021).  -inf entries contribute nothing; a maximum of +inf,
    -inf or nan is returned as is.
    """
    a = np.array(a, dtype=float, order="K").ravel(order="K")
    if not a.size:
        a.max()  # raises numpy's error for an empty reduction
    return _lse_inplace(a)


def _psi(logw, gamma) -> float:
    """psi(gamma) = log sum_i w_i^gamma from the log-support ``logw``."""
    return _lse_inplace(gamma * logw)


def _log_support(w) -> np.ndarray:
    """log of the positive entries of a validated weight vector."""
    return np.log(w) if _min(w) > 0 else np.log(w[w > 0])


def _log_norm(logw, gamma) -> float:
    return _psi(logw, gamma) / gamma


def _escort_support(logw, beta):
    """(e, psi): the beta-escort exp(beta * logw - psi) of the support and
    psi = psi(beta).  e is formed after psi has freed its scratch."""
    psi = _psi(logw, beta)
    e = beta * logw
    e -= psi
    return _exp_inplace(e), psi


def _escort(w, beta) -> np.ndarray:
    e, _ = _escort_support(_log_support(w), beta)
    if e.size == w.size:
        return e
    out = np.zeros_like(w)
    out[w > 0] = e
    return out


def log_norm(w, gamma) -> float:
    """log of the gamma-norm, log[(sum_i w_i^gamma)^(1/gamma)].

    Computed as lse(gamma * log w) / gamma over the positive entries,
    which keeps orders like gamma = 100 on tiny weights exact to machine
    precision.
    """
    gamma = _check_order(gamma)
    return _log_norm(_log_support(as_weights(w)), gamma)


def escort(w, beta) -> np.ndarray:
    """The beta-escort distribution w_i^beta / sum_j w_j^beta.

    Always a probability vector; zero entries of ``w`` stay zero.
    """
    beta = _check_order(beta, "beta")
    return _escort(as_weights(w), beta)


def product_compose(p, q) -> np.ndarray:
    """Weights of the independent combination, all products p_i * q_j.

    Satisfies ||p (*) q||_gamma = ||p||_gamma * ||q||_gamma for every
    gamma > 0.
    """
    p = as_weights(p, "p")
    q = as_weights(q, "q")
    return np.outer(p, q).ravel()


def robin_hood_transfer(w, src, dst, amount) -> np.ndarray:
    """Move ``amount`` of mass from a strictly larger entry to a smaller one.

    Requires w[src] > w[dst] and 0 < amount <= (w[src] - w[dst]) / 2 so
    the ordering of the pair is not overshot; the result is majorized by
    the input (it is "more uniform").
    """
    w = as_weights(w)
    n = w.size
    src, dst = int(src), int(dst)
    if not (0 <= src < n and 0 <= dst < n) or src == dst:
        raise ValueError(f"invalid index pair ({src}, {dst}) for length {n}")
    gap = w[src] - w[dst]
    if gap <= 0:
        raise ValueError(f"w[{src}]={w[src]} must strictly exceed w[{dst}]={w[dst]}")
    amount = float(amount)
    if not (0.0 < amount <= gap / 2.0):
        raise ValueError(f"amount must lie in (0, {gap / 2.0}], got {amount}")
    out = w.copy()
    out[src] -= amount
    out[dst] += amount
    return out


def majorizes(a, b, tol=0.0) -> bool:
    """True when ``a`` majorizes ``b``: equal totals and every sorted
    prefix sum of ``a`` dominates that of ``b``."""
    a = as_weights(a, "a")
    b = as_weights(b, "b")
    if a.size != b.size:
        raise ValueError("majorization requires equal lengths")
    ca = np.cumsum(np.sort(a)[::-1])
    cb = np.cumsum(np.sort(b)[::-1])
    # the full prefix is the total mass: equality there, dominance before
    if abs(ca[-1] - cb[-1]) > max(tol, 1e-12 * max(ca[-1], cb[-1])):
        return False
    return bool(np.all(ca[:-1] >= cb[:-1] - tol))
