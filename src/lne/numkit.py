"""Numerically stable primitives over finite weight vectors.

A weight vector is any 1-D array of finite, nonnegative reals with at
least one positive entry.  Probability and sub-probability vectors are
the special cases with total mass 1 and <= 1; most routines here accept
the general case because the quantities they feed are scale invariant.

Every power sum runs over the positive support, so zero entries are
dropped everywhere (the 0*log(0) := 0 convention).  A `_LogSupport`
validates its vector, which also finds its smallest and largest entries,
and takes the log of its support once: x = log w - m with m = max log w,
so x <= 0 with x = 0 at the maximum (the log is taken of w scaled by a
power of two, so that x is exact to a few of its own ulps at any scale
of w).  Then psi(gamma) = log sum_i w_i^gamma = gamma * m + L(gamma),
where

    L(gamma) = log1p(sum_{j != i*} exp(gamma * x_j)) >= 0

leaves out one maximum i* and adds it back through log1p (Blanchard,
Higham & Higham, IMA J. Numer. Anal. 41(4), 2021), so orders up to a
few hundred neither underflow nor overflow, and L keeps its relative
accuracy when it is as small as 1e-40.  Divided differences of psi come
from the escort-CGF slope

    D(b, h) = (L(b + h) - L(b)) / h = log1p(e . expm1(h * x)) / h,

with e the b-escort and h >= 0, whose terms all have one sign.  Every
entropy and cross-entropy of the family is a short expression in m, L
and D (see `lne.entropy`), with no formula switch near the diagonal.

A call holds x and one exp array: the exp array of L(b) is also the
b-escort times its norm, which D reads only through sums, and D works in
place over x.

`_LogSupport.from_log` takes the same shift of weights given by their
logs, so that the class is the package's only log-sum-exp: the solver's
potential is log G = alpha * m + L(alpha) over the log stationary
weights (see `lne.optimize`), and `lnce` sums in log space past its
overflow bound.

An exp of a full-size array whose lanes leave the call (`escort`, the
solver's residual escort and the p it returns, the expm1 branch of
`lnce`, whose lanes are multiplied by up to DBL_MAX / k) goes through
`_exp_inplace`, which hands numpy's vector exp only arguments whose
results are at least 2**-1021.  numpy's AVX-512 exp drops a whole SIMD
vector to a slow path, about a hundred times slower per entry, when any
one lane's result is below that, and weights with a dynamic range of
1e200 at orders of a few units put several percent of the shifted
arguments there, scattered through the array.  Those arguments are
raised to the fast range, and their lanes zeroed after the exp; the few
whose results are subnormal are recomputed by np.exp on their own, and
every result keeps the bits np.exp gives it.  Every other exp pass reads
its array only through sums of its lanes times factors of at most
1 + |lo| in size: L, as `log1p_sum` takes it (`log_norm`,
`lne_min_entropy_limit`, the solver's potential and the log-space sum of
`lnce`), L(beta) of `lnce`'s log-space branch, L at the larger order
where `slope` takes the plain difference, and the b-escort times its
norm of `slope`, read through s, a . x and a . expm1(h x), with
|x| <= |lo| and expm1(h x) in (-1, 0].  It goes through `_exp_for_sum`,
which raises those results to exp(-707), about 2**-1020, and nothing
else: each sum moves by less than n * (1 + |lo|) * 2**-1019, which is
below its rounding once it is at least 2**-900 (a sum >= 1 keeps its
bits).  A pass that raised lanes is made again exactly where its sum s,
or |a . x| in `slope`, is below that.  Under 2048 entries both rules are
plain np.exp: there the slow path costs less than avoiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Mass tolerance for (sub-)probability membership.
TOL_MASS = 1e-9

__all__ = [
    "TOL_MASS",
    "EntropyParams",
    "as_weights",
    "total_mass",
    "is_probability",
    "is_subprobability",
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
        object.__setattr__(self, "alpha", _check_order(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _check_order(self.beta, "beta"))

    @property
    def equal_orders(self) -> bool:
        """True on the diagonal alpha == beta only, not next to it."""
        return self.alpha == self.beta


def _as_params(params) -> EntropyParams:
    """``params`` as EntropyParams: an instance as it is, or an (alpha, beta) pair."""
    if isinstance(params, EntropyParams):
        return params
    alpha, beta = params
    return EntropyParams(alpha, beta)


def _validate(w, name):
    """(w, min w, max w, index of max w) of ``w`` checked as a weight
    vector; see `as_weights`."""
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    # nan and +-inf all reach the minimum or the maximum (see _min)
    top = int(arr.argmax())
    lo, hi = arr[arr.argmin()], arr[top]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} contains non-finite entries")
    if lo < 0:
        raise ValueError(f"{name} contains negative entries")
    if not hi > 0:
        raise ValueError(f"{name} must have at least one positive entry")
    return arr, lo, hi, top


def as_weights(w, name="w"):
    """Validate and return ``w`` as a 1-D float64 weight vector.

    Rejects empty vectors, non-finite or negative entries, and the
    all-zero vector.
    """
    return _validate(w, name)[0]


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
    if not math.isfinite(gamma) or gamma <= 0.0:
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


def _exp_inplace(x, x_min=None, out=None) -> np.ndarray:
    """np.exp(x) of the float64 vector ``x``, bit for bit, into ``out``
    (x itself by default).

    On vectors of at least _EXP_SPLIT_MIN_SIZE entries, arguments below
    _EXP_FAST_MIN are raised to it before the vector exp runs, so no SIMD
    vector falls to numpy's slow path, and their lanes are zeroed after
    it; the few in [_EXP_ZERO_BELOW, _EXP_FAST_MIN), whose results are
    not zero, are recomputed on their own.  ``x_min`` is x's minimum or
    an estimate of it: it only picks the path, and every path gives
    np.exp's bits.
    """
    if out is None:
        out = x
    if x.size < _EXP_SPLIT_MIN_SIZE:
        return np.exp(x, out=out)
    if x_min is None:
        x_min = _min(x)
    if not x_min < _EXP_FAST_MIN:  # also true when it is nan
        return np.exp(x, out=out)
    keep = x >= _EXP_FAST_MIN
    tiny = x >= _EXP_ZERO_BELOW
    tiny ^= keep
    tiny = np.flatnonzero(tiny)
    x_tiny = x[tiny]
    np.maximum(x, _EXP_FAST_MIN, out=out)  # nan stays nan
    np.exp(out, out=out)
    np.multiply(out, keep, out=out)
    out[tiny] = np.exp(x_tiny)
    return out


def _exp_for_sum(x, x_min=None, out=None) -> np.ndarray:
    """np.exp(x) of the float64 vector ``x`` into ``out`` (x itself by
    default), for callers that read only its sum, or sums of its lanes
    times bounded factors.

    On vectors of at least _EXP_SPLIT_MIN_SIZE entries, arguments below
    _EXP_FAST_MIN are raised to it before the vector exp runs, so their
    results read exp(_EXP_FAST_MIN), below 2**-1019, instead of np.exp's
    zero or subnormal: the sum of n results moves by less than
    n * 2**-1019, which leaves a sum >= 1 unchanged.  Every other lane
    has np.exp's bits.  ``x_min``, x's minimum or an estimate of it,
    skips the raise where it is >= _EXP_FAST_MIN.
    """
    if out is None:
        out = x
    if x.size >= _EXP_SPLIT_MIN_SIZE and (x_min is None or x_min < _EXP_FAST_MIN):
        x = np.maximum(x, _EXP_FAST_MIN, out=out)  # nan stays nan
    return np.exp(x, out=out)


_NORMAL_MIN = 2.0**-1022
# A sum-only exp pass moves the sums read from it by less than
# n * (1 + |lo|) * 2**-1019; where one of them is below this bound, that
# is more than rounding, and the pass is made again exactly.
_SUM_ONLY_MIN = 2.0**-900
_LOG2 = math.log(2.0)
# exp overflows float64 above this
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class _LogSupport:
    """The positive support of the weight vector ``w``, validated as by
    `as_weights` under the name ``name``, shifted by its largest log
    weight, and the exp array of its last power sum.

    ``x`` = log w - m, with m = log(max w) taken at index ``i``, so
    x <= 0 and x[i] = 0 at every order.  The log is taken of w * 2**k,
    with k bringing max w into [1, 2), and shifted by its own maximum:
    the scaling is exact, so x is accurate to a few ulps of x itself
    rather than of log w, which on weights near 1e-100 at order 100 is
    the difference between 1e-12 and 1e-14.  Scaling down is skipped
    where it would round an entry.  ``lo`` is log(min w) - m or, with
    zeros in w, min(x): gamma * lo tells an exp pass whether it has
    underflowing lanes.  `log1p_sum` and `escort` leave their exp array
    ``a`` and that array's sum ``s``: `slope` reads them instead of a
    second exp pass, and the solver reads L from ``s`` after `escort`.
    ``w`` is the validated float64 vector.  A support built by
    `from_log` has no ``w``.
    """

    __slots__ = ("w", "x", "m", "i", "lo", "a", "s", "_lo", "_k", "_top")

    def __init__(self, w, name="w"):
        w, lo, hi, top = _validate(w, name)
        k = 1 - math.frexp(hi)[1]  # hi * 2**k in [1, 2)
        if k < 0 and not math.ldexp(lo, k) >= _NORMAL_MIN:
            k = 0
        self.w, self._lo, self._k, self._top = w, lo, k, 0.0
        # log is monotone, so w's maximum is x's; with zeros x is shorter
        self._top = self._shift(self._log(), top if lo > 0 else None)
        self.m = math.log(hi)
        self.lo = math.log(lo) - self.m if lo > 0 else float(_min(self.x))

    @classmethod
    def from_log(cls, lx):
        """The support of the weights exp(lx), from the float64 vector
        ``lx`` of log weights, -inf for a zero weight, which it overwrites
        with x = lx - m, m = max lx.  Zero weights stay in x, so its
        escorts keep the length of lx, and lo = min(x), or -inf below
        _EXP_SPLIT_MIN_SIZE entries, where no exp pass reads it.  It has no
        ``w``: `slope`, which may take the log of w again, is not for it."""
        sup = cls.__new__(cls)
        sup.m = sup._shift(lx)
        sup.lo = float(_min(sup.x)) if lx.size >= _EXP_SPLIT_MIN_SIZE else -math.inf
        return sup

    def _shift(self, x, i=None) -> float:
        """Take ``x`` as the support's x, shifted in place by its maximum at
        index i (x.argmax() unless given), and return that maximum.  A
        maximum that is not finite (every weight zero, or one overflowed)
        leaves x unshifted, so that L and psi are as infinite or nan as the
        sum itself."""
        self.i = int(x.argmax()) if i is None else i
        top = float(x[self.i])
        if math.isfinite(top):
            x -= top
        self.x, self.a = x, None
        return top

    def _log(self, out=None) -> np.ndarray:
        """log(w * 2**k) - top over the positive support, into ``out`` (a
        new array if None), with the same bits every time."""
        w = self.w
        if not self._lo > 0:
            w = out = np.compress(w > 0, w, out=out)
        if self._k:
            w = out = np.ldexp(w, self._k, out=out)
        x = np.log(w, out=out)
        if self._top:
            x -= self._top
        return x

    def _power(self, gamma, exp, out) -> np.ndarray:
        """exp(gamma * x) by the exp rule ``exp`` into ``out`` (a new array
        if None), with the maximum's lane i zeroed: the exp array a, and
        its sum s.  At gamma = 1 x goes to the exp as it is."""
        x = self.x
        if gamma != 1.0:
            x = out = np.multiply(x, gamma, out=out)
        elif out is None:
            out = np.empty_like(x)
        a = exp(x, gamma * self.lo, out)
        a[self.i] = 0.0
        self.a, self.s = a, float(np.add.reduce(a))  # what a.sum() calls
        return a

    def _raised(self, gamma) -> bool:
        """Whether a sum-only exp pass at gamma raises lanes."""
        return self.x.size >= _EXP_SPLIT_MIN_SIZE and gamma * self.lo < _EXP_FAST_MIN

    def _log1p_exact(self, gamma, a, s) -> float:
        """log1p(s), s the sum of a sum-only exp pass at gamma into a, which
        is made again exactly where s < _SUM_ONLY_MIN and it raised lanes
        (over x taken again from w, where the pass consumed it)."""
        if s < _SUM_ONLY_MIN and self._raised(gamma):
            if a is self.x:
                self._log(out=a)
            self._power(gamma, _exp_inplace, a)
            s = self.s
        return math.log1p(s)

    def log1p_sum(self, gamma, out=None) -> float:
        """L(gamma) = log1p(sum_{j != i} exp(gamma * x_j)) >= 0, so that
        psi(gamma) = log sum_i w_i^gamma = gamma * m + L(gamma).  Only the
        maximum at i is left out of the sum: one tying with it adds 1,
        and log1p of a sum >= 1 needs no tie count.  The exp array a, into
        ``out`` (a new array if None), is `_log1p_exact`'s: only its sum, or
        sums of its lanes times bounded factors, may be read.  With out = x
        it consumes x, and the support needs a ``w``."""
        return self._log1p_exact(gamma, self._power(gamma, _exp_for_sum, out), self.s)

    def escort(self, gamma) -> np.ndarray:
        """The gamma-escort w^gamma / sum w^gamma, in the exp array, from an
        exact exp pass of its own (see `_exp_inplace`)."""
        a = self._power(gamma, _exp_inplace, self.a)
        a[self.i] = 1.0
        a /= 1.0 + self.s
        return a

    def slope(self, alpha, beta):
        """(b, L(b), D) over the orders {alpha, beta}, b the smaller.

        D = (L(b + h) - L(b)) / h <= 0 with h = |alpha - beta| is the
        slope of the cumulant generating function of x under the
        b-escort e = a / (1 + s), and at h = 0 the mean e . x.  With
        R = e . exp(h x) = exp(h D), D is log1p(e . expm1(h x)) / h while
        R >= 1/2: every expm1(h x_j) lies in (-1, 0], so the sum has one
        sign and nothing cancels near the diagonal.  For R < 1/2 that sum
        has rounded R itself away, and the plain difference of L(b + h) and
        L(b), at least log 2 apart, keeps it.  By Jensen R >= exp(h e . x),
        so only pairs with h e . x < -log 2 try the difference first.
        The b-escort's array a is the sum-only one of `log1p_sum`, exact
        where s is below 2**-900: every factor that multiplies its lanes
        here is at most 1 + |lo| in size, so a raised lane moves a . x and
        a . expm1(h x) by less than n (1 + |lo|) 2**-1019, and the pass is
        made again exactly where |a . x| is below 2**-900 too (tied maxima
        at w = 1); above it, D keeps the digits an exact pass gives it,
        since |D| >= |a . x| / (norm max(1, h |lo|)) times a constant.
        Consumes x."""
        b, h = min(alpha, beta), abs(alpha - beta)
        lb = self.log1p_sum(b)
        a, x = self.a, self.x
        dot = float(a @ x)
        if -dot < _SUM_ONLY_MIN and self._raised(b):
            # tied maxima at w = 1 over an underflowing tail
            a = self._power(b, _exp_inplace, a)
            lb, dot = math.log1p(self.s), float(a @ x)
        norm = 1.0 + self.s
        mean = dot / norm
        if h < 2.0**-969:
            # h x would be subnormal for the smallest nonzero |x| (about
            # 2**-53), and |D - mean| <= h |lo| |mean| / 2 is below rounding
            return b, lb, mean
        if h * mean < -_LOG2:
            # only L(b + h) - L(b) <= -log 2 is kept, where L(b) >= log 2
            # absorbs what raised lanes add to L(b + h)
            g = max(alpha, beta)
            u = _exp_for_sum(np.multiply(x, g, out=x), g * self.lo)
            u[self.i] = 0.0
            k = math.log1p(float(u.sum())) - lb
            if k <= -_LOG2:
                return b, lb, k / h
            x = self._log(out=x)
        np.multiply(x, h, out=x)
        np.expm1(x, out=x)
        return b, lb, math.log1p(float(a @ x) / norm) / h


def _escort(w, beta) -> np.ndarray:
    """`escort` of the weight vector w at a checked order beta."""
    sup = _LogSupport(w)
    e = sup.escort(beta)
    w = sup.w
    if e.size == w.size:
        return e
    out = np.zeros_like(w)
    out[w > 0] = e
    return out


def log_norm(w, gamma) -> float:
    """log of the gamma-norm, log[(sum_i w_i^gamma)^(1/gamma)].

    Computed as m + L(gamma) / gamma over the positive entries, with
    m = log(max w), which keeps orders like gamma = 100 on tiny weights
    exact to machine precision.
    """
    gamma = _check_order(gamma)
    sup = _LogSupport(w)
    return sup.m + sup.log1p_sum(gamma, sup.x) / gamma


def escort(w, beta) -> np.ndarray:
    """The beta-escort distribution w_i^beta / sum_j w_j^beta.

    Always a probability vector; zero entries of ``w`` stay zero.
    """
    return _escort(w, _check_order(beta, "beta"))


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
