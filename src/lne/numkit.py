"""Numerically stable primitives over finite weight vectors.

A weight vector is any 1-D array of finite, nonnegative reals with at
least one positive entry.  Probability and sub-probability vectors are
the special cases with total mass 1 and <= 1; most routines here accept
the general case because the quantities they feed are scale invariant.

All power sums are evaluated in log space by one kernel, `lse`, over
psi(gamma) = gamma * log w on the positive support, so that orders up
to a few hundred neither underflow nor overflow, and zero entries are
dropped everywhere (the 0*log(0) := 0 convention).  The private helpers
below take already-validated arrays, so each public function validates
its input and takes the log of its support once.
"""

from __future__ import annotations

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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{name} contains negative entries")
    if not np.any(arr > 0):
        raise ValueError(f"{name} must have at least one positive entry")
    return arr


def total_mass(w) -> float:
    return float(as_weights(w).sum())


def is_probability(w, tol=TOL_MASS) -> bool:
    return abs(total_mass(w) - 1.0) <= tol


def is_subprobability(w, tol=TOL_MASS) -> bool:
    return total_mass(w) <= 1.0 + tol


def _check_order(gamma, name="gamma") -> float:
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {gamma!r}")
    return gamma


def lse(a) -> float:
    """log(sum(exp(a))) of a nonempty 1-D array, accurate and overflow-free.

    The entries tying with the maximum are taken out of the sum and added
    back through log1p (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021).  -inf entries contribute nothing; a maximum of +inf,
    -inf or nan is returned as is.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    if not np.isfinite(a_max):
        return float(a_max)
    tie = a == a_max
    k = np.count_nonzero(tie)
    # zero the tied terms rather than dropping them: numpy's pairwise sum
    # groups terms by position, so the full length keeps every rounding
    # equal to that of the usual library logsumexp
    e = np.exp(a - a_max)
    e[tie] = 0.0
    s = e.sum()
    if s != 0.0:
        s = s / k
    return float(np.log1p(s) + np.log(k) + a_max)


def _log_support(w) -> np.ndarray:
    """log of the positive entries of a validated weight vector."""
    return np.log(w[w > 0])


def _log_norm(logw, gamma) -> float:
    return lse(gamma * logw) / gamma


def _escort(w, beta) -> np.ndarray:
    out = np.zeros_like(w)
    pos = w > 0
    t = beta * np.log(w[pos])
    out[pos] = np.exp(t - lse(t))
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
