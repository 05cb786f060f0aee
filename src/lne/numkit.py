"""Numerically stable primitives over finite weight vectors.

A weight vector is any 1-D array of finite, nonnegative reals with at
least one positive entry.  Probability and sub-probability vectors are
the special cases with total mass 1 and <= 1; most routines here accept
the general case because the quantities they feed are scale invariant.

All power sums are evaluated in log space by one kernel,
psi(gamma) = log sum_i w_i^gamma = lse(gamma * log w) over the positive
support, so that orders up to a few hundred neither underflow nor
overflow, and zero entries are dropped everywhere (the 0*log(0) := 0
convention).  Each public function validates its input once, which
also finds its smallest and largest entries, and takes the log of its
support once, into a `_LogSupport`.

The `_LogSupport` carries, from the validation, an estimate of the
smallest log weight, which tells each exp pass whether it has
underflowing arguments.  On supports of a few thousand entries and
more it also finds, once per call, what the log-sum-exp of each psi
would otherwise search its whole argument for: the largest log weight
and the few entries that can tie with it at any order.  Every psi of
the call then shifts by gamma times the largest and counts ties among
those few entries, and every value keeps the bits of the public `lse`,
which searches its own copy.

The psi and escorts of one call share one scratch array:
gamma * log w is formed, shifted by its maximum, exponentiated and
summed in place, so a call on n entries holds log w plus n more
floats, and calls with a single psi work in place over log w.

Every exp of a full-size array goes through `_exp_inplace`, which hands
numpy's vector exp only arguments whose results are at least 2**-1021.
numpy's AVX-512 exp drops a whole SIMD vector to a slow path, about a
hundred times slower per entry, when any one lane's result is below
that, and weights with a dynamic range of 1e200 at orders of a few
units put several percent of the shifted arguments there, scattered
through the array.  Those arguments are raised to the fast range, and
their lanes zeroed after the exp; the few whose results are subnormal
are recomputed by np.exp on their own, and every result keeps the bits
np.exp gives it.  Vectors of fewer than 2048 entries go to np.exp as
they are: the slow path costs them less than avoiding it.
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


def as_weights(w, name="w", return_range=False):
    """Validate and return ``w`` as a 1-D float64 weight vector.

    Rejects empty vectors, non-finite or negative entries, and the
    all-zero vector.  With ``return_range``, returns (w, min w, max w):
    the check finds both anyway.
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
    return (arr, lo, hi) if return_range else arr


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
# Shorter vectors go to np.exp as they are: on them the slow path costs
# less than the numpy calls that keep arguments off it (measured
# crossover 1.5k-3k entries, for 100 % and 6 % underflowing arguments).
_EXP_SPLIT_MIN_SIZE = 2048


def _exp_inplace(x, x_min=None) -> np.ndarray:
    """Overwrite the float64 vector ``x`` with np.exp(x), bit for bit.

    On vectors of at least _EXP_SPLIT_MIN_SIZE entries, arguments below
    _EXP_FAST_MIN are raised to it before the vector exp runs, so no SIMD
    vector falls to numpy's slow path, and their lanes are zeroed after
    it; the few in [_EXP_ZERO_BELOW, _EXP_FAST_MIN), whose results are
    not zero, are recomputed on their own.  ``x_min`` is x's minimum or
    an estimate of it: it only picks the path, and every path gives
    np.exp's bits.
    """
    if x.size < _EXP_SPLIT_MIN_SIZE:
        return np.exp(x, out=x)
    if x_min is None:
        x_min = _min(x)
    if not x_min < _EXP_FAST_MIN:  # also true when it is nan
        return np.exp(x, out=x)
    keep = x >= _EXP_FAST_MIN
    tiny = x >= _EXP_ZERO_BELOW
    tiny ^= keep
    tiny = np.flatnonzero(tiny)
    x_tiny = x[tiny]
    np.maximum(x, _EXP_FAST_MIN, out=x)  # nan stays nan
    np.exp(x, out=x)
    np.multiply(x, keep, out=x)
    x[tiny] = np.exp(x_tiny)
    return x


def _lse_shifted(a, a_max, tie, k) -> float:
    """lse from ``a`` = exp(terms - a_max), overwritten, where ``tie``
    indexes the k terms equal to a_max.  The tied terms are zeroed rather
    than dropped: numpy's pairwise sum groups terms by position, so the
    full length keeps every rounding equal to that of the usual library
    logsumexp."""
    a[tie] = 0.0
    s = a.sum()
    if s != 0.0:
        s = s / k
    return float(np.log1p(s) + (np.log(k) if k > 1 else 0.0) + a_max)


def _lse_inplace(a, a_lo=None) -> float:
    """`lse` of a nonempty float64 vector the caller hands over; ``a`` is
    overwritten.  ``a_lo``, if given, is min(a) or an estimate of it."""
    i = a.argmax()  # rather than max, see _min; i is the tie when k == 1
    a_max = a[i]
    if not math.isfinite(a_max):
        return float(a_max)
    a -= a_max
    # a == 0 is exactly the set tying with the maximum
    tie = a == 0.0
    k = np.count_nonzero(tie)
    _exp_inplace(a, None if a_lo is None else a_lo - a_max)
    return _lse_shifted(a, a_max, i if k == 1 else tie, k)


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


# Below this order gamma * log w can hold subnormal products, which tie
# with the maximum without being near it, so ties are counted over the
# whole array.  Nonzero entries of log w are at least 2**-54 in
# magnitude, so from here up every nonzero product is normal.
_TIE_GAMMA_MIN = 2.0**-960

# Supports shorter than this search each psi for its maximum and ties:
# there a few passes over the vector cost less than the numpy calls that
# find the summary.
_SUMMARY_MIN_SIZE = 4096


def _below(x, rel) -> float:
    """x lowered by rel relative to max(|x|, 1)."""
    return x - rel * max(abs(x), 1.0)


class _LogSupport:
    """log w over the positive support of one weight vector, and one
    scratch array that every psi and escort of the call writes into.

    ``lo`` is the log of the smallest positive weight or an estimate of
    it; gamma * lo tells each exp pass whether it has underflowing lanes.
    ``hi`` is the same for the largest.  Given ``hi``, the first psi finds
    what each psi would otherwise search its whole argument for: the
    index ``i_max`` of the largest log weight (``hi`` is then its exact
    value), and the candidates that can tie with it at any order.
    Rounding is monotone, so max(gamma * log w) = gamma * log w[i_max],
    and two products round to the same value only when their factors lie
    within a relative 2**-52 of each other: every tie is among the
    entries within 2**-48 of the maximum, usually one.  Without ``hi``
    (short supports), and without either (log-weights a caller made
    itself, like the solver's with -inf entries), each psi searches its
    argument as `lse` does.
    """

    __slots__ = ("logw", "lo", "hi", "i_max", "cand", "scratch")

    def __init__(self, logw, lo=None, hi=None):
        self.logw = logw
        self.lo = lo
        self.hi = hi
        self.cand = None
        self.scratch = None

    def _find_max(self):
        logw = self.logw
        # the entries near the estimated maximum, with room for its error;
        # the largest of them is the maximum of logw
        rough = _below(self.hi, 2.0**-40)
        cand = np.flatnonzero(logw >= rough)
        i = cand[logw[cand].argmax()] if cand.size else logw.argmax()
        self.i_max, self.hi = i, float(logw[i])
        floor = _below(self.hi, 2.0**-48)
        self.cand = cand if cand.size and floor >= rough else np.flatnonzero(logw >= floor)

    def _scaled(self, gamma, in_place=False) -> np.ndarray:
        out = self.logw if in_place else self.scratch
        self.scratch = np.multiply(self.logw, gamma, out=out)
        return self.scratch

    def psi(self, gamma, in_place=False) -> float:
        """psi(gamma) = log sum_i w_i^gamma.  With ``in_place`` log w
        itself is the scratch, so the support cannot be used again."""
        if self.hi is None:
            a = self._scaled(gamma, in_place)
            return _lse_inplace(a, None if self.lo is None else gamma * self.lo)
        if self.cand is None:
            self._find_max()
        a = self._scaled(gamma, in_place)
        a_max = self.hi * gamma
        if not math.isfinite(a_max):
            return a_max
        a -= a_max
        if gamma < _TIE_GAMMA_MIN:
            tie = a == 0.0
            k = np.count_nonzero(tie)
            if k == 1:
                tie = self.i_max
        elif self.cand.size == 1:
            tie, k = self.i_max, 1
        else:
            tie = self.cand[a[self.cand] == 0.0]
            k = tie.size
        _exp_inplace(a, gamma * self.lo - a_max)
        return _lse_shifted(a, a_max, tie, k)

    def log_norm(self, gamma, in_place=False) -> float:
        return self.psi(gamma, in_place) / gamma

    def escort(self, beta):
        """(e, psi): the beta-escort exp(beta * logw - psi) of the support,
        in the scratch array, and psi = psi(beta)."""
        psi = self.psi(beta)
        e = self._scaled(beta)
        e -= psi
        return _exp_inplace(e, None if self.lo is None else beta * self.lo - psi), psi


def _log_support(w, lo, hi, own=False) -> _LogSupport:
    """The log-support of a validated weight vector whose smallest and
    largest entries are ``lo`` and ``hi``; with ``own``, w is the
    caller's scratch and its log is taken in place."""
    if lo > 0:
        logw = np.log(w, out=w if own else None)
        log_lo = math.log(lo)
    else:
        logw = np.log(w[w > 0])
        log_lo = float(_min(logw))
    log_hi = math.log(hi) if logw.size >= _SUMMARY_MIN_SIZE else None
    return _LogSupport(logw, log_lo, log_hi)


def _escort(w, lo, hi, beta) -> np.ndarray:
    e, _ = _log_support(w, lo, hi).escort(beta)
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
    return _log_support(*as_weights(w, return_range=True)).log_norm(gamma, in_place=True)


def escort(w, beta) -> np.ndarray:
    """The beta-escort distribution w_i^beta / sum_j w_j^beta.

    Always a probability vector; zero entries of ``w`` stay zero.
    """
    beta = _check_order(beta, "beta")
    return _escort(*as_weights(w, return_range=True), beta)


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
