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

A call holds at most one array of the support's size: `slope` keeps x,
which it reads twice; `lnce`'s log-space branch keeps u, written in x's
place; `escort` keeps the escort it returns; `log_norm` and
`lne_min_entropy_limit` keep none.  Past B = 65,536 entries every pass
runs block by block (`_tree`): a block of 512 KiB, a quarter of a 2 MiB
L2, takes its x from w (ldexp, log, shift) or reads it, and goes on
through the order, the exp and its sums while it is in cache.  The
blocks are nodes of np.add.reduce's own pairwise split (Higham, SIAM J.
Sci. Comput. 14(4), 1993), and their sums are added up that split, so
every sum has the bits of one whole-array pass.  Only the two dot
products of D are taken block by block, and may move in the last bits
past B.  At n <= B a pass is its one block, with the numpy calls of a
whole-array pass.  The exp rules below apply to each block.

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
import operator
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
# Longer passes run block by block: 512 KiB of float64, a quarter of a
# 2 MiB L2, so that a block's chain of ufuncs reads and writes it in cache.
_BLOCK = 65_536


def _tree(n, block, *args, join=operator.add, size=_BLOCK, start=0) -> tuple:
    """The tuples block(*args, lo, hi) returns over the blocks [lo, hi) of
    the n entries from ``start``, joined elementwise by ``join``.

    The blocks are the nodes of np.add.reduce's pairwise split
    (n2 = n // 2 - (n // 2) % 8, recursively; Higham, SIAM J. Sci.
    Comput. 14(4), 1993) where it first gets down to ``size`` entries, and
    they are visited in order.  So a block's np.add.reduce is a node of
    the whole array's sum, and sums joined by addition up that split have
    the bits of np.add.reduce over the whole array.  At n <= size the one
    block is the whole array, and callers call ``block`` on it themselves:
    this call costs a few per cent of a pass over a short vector."""
    if n <= size:
        return block(*args, start, start + n)
    half = n // 2
    half -= half % 8
    left = _tree(half, block, *args, join=join, size=size, start=start)
    return tuple(map(join, left, _tree(n - half, block, *args, join=join, size=size, start=start + half)))


def _leaf(n, size=_BLOCK) -> int:
    """The size of the largest block `_tree` hands out over n entries."""
    return _tree(n, lambda start, stop: (stop - start,), join=max, size=size)[0] if n > size else n


def _dot(a, v) -> float:
    """a . v over a block of a longer array, by einsum's loop, which stays
    on one thread: numpy's matmul hands more than 10,000 entries to a
    multithreaded BLAS, which on a busy host waits for its second thread
    once per call."""
    return float(np.einsum("i,i->", a, v))


class _LogSupport:
    """The positive support of the weight vector ``w``, validated as by
    `as_weights` under the name ``name``, shifted by its largest log
    weight.

    x = log w - m over the support, with m = log(max w) taken at index
    ``i`` of the support, so x <= 0 and x[i] = 0 at every order.  The log
    is taken of w * 2**k, with k bringing max w into [1, 2), and shifted
    by its own maximum: the scaling is exact, so x is accurate to a few
    ulps of x itself rather than of log w, which on weights near 1e-100
    at order 100 is the difference between 1e-12 and 1e-14.  Scaling
    down is skipped where it would round an entry.  ``lo`` is
    log(min w) - m or, with zeros in w, min(x): gamma * lo tells an exp
    pass whether it has underflowing lanes.  ``n`` is the support's size
    and ``s`` the sum of its last power sum, which the solver reads after
    `escort`.  ``w`` is the validated float64 vector; a support built by
    `from_log` has none.

    x is not built until a caller reads it (`slope` and `lnce`, which
    read it more than once).  A pass over a support without x takes each
    block of x from w, with the same bits as the whole array would have
    (see `_log`).
    """

    __slots__ = ("w", "n", "m", "i", "lo", "s", "_x", "_zeros", "_k", "_top", "_at", "_cum")

    def __init__(self, w, name="w"):
        w, lo, hi, top = _validate(w, name)
        k = 1 - math.frexp(hi)[1]  # hi * 2**k in [1, 2)
        if k < 0 and not math.ldexp(lo, k) >= _NORMAL_MIN:
            k = 0
        self.w, self._zeros, self._k, self._x, self.m = w, not lo > 0, k, None, math.log(hi)
        if lo > 0:
            self.n, self.i, self.lo = w.size, top, math.log(lo) - self.m
            # the log of w's maximum, as the vector log takes it: from the
            # one block at n <= _BLOCK, here once for all blocks
            self._top = None if w.size <= _BLOCK else float(np.log(np.ldexp(w[top : top + 1], k))[0])
        else:
            # with zeros, x is shorter than w, and min(x) is taken of the
            # smallest positive weight, as the vector log takes it
            self.n, self.i, self._at, self._cum = int(np.count_nonzero(w)), -1, top, None  # i: see _log
            ends = np.log(np.ldexp(np.array([hi, np.min(w, where=w > 0, initial=hi)]), k))
            self._top, self.lo = float(ends[0]), float(ends[1] - ends[0])

    @classmethod
    def from_log(cls, lx):
        """The support of the weights exp(lx), from the float64 vector
        ``lx`` of log weights, -inf for a zero weight, which it overwrites
        with x = lx - m, m = max lx.  Zero weights stay in x, so its
        escorts keep the length of lx, and lo = min(x), or -inf below
        _EXP_SPLIT_MIN_SIZE entries, where no exp pass reads it.  It has no
        ``w``: `slope`, which builds x from w, is not for it.  A maximum
        that is not finite (every weight zero, or one overflowed) leaves x
        unshifted, so that L and psi are as infinite or nan as the sum
        itself."""
        sup = cls.__new__(cls)
        sup.i = int(lx.argmax())
        sup.m = top = float(lx[sup.i])
        if math.isfinite(top):
            lx -= top
        sup._x, sup.n = lx, lx.size
        sup.lo = float(_min(lx)) if lx.size >= _EXP_SPLIT_MIN_SIZE else -math.inf
        return sup

    @property
    def x(self) -> np.ndarray:
        """x over the whole support, built from w on first use."""
        if self._x is None:
            self._x = self._build()
        return self._x

    def _build(self, out=None) -> np.ndarray:
        """x over the whole support, from w into ``out`` (a new array if
        None), block by block past _BLOCK entries: a block compresses its
        own zeros, where np.compress of the whole of w would hold an index
        array the size of the support."""
        n = self.n
        if n <= _BLOCK:
            return self._log(0, n, out)
        x = np.empty(n) if out is None else out
        _tree(n, lambda start, stop: (self._log(start, stop, x[start:stop]).size,))
        return x

    def _find(self, j) -> int:
        """The index in w of the support's entry j, or w.size at j = n."""
        w = self.w
        if j == self.n:
            return w.size
        if self._cum is None:  # positive entries up to the end of each _BLOCK of w
            self._cum = np.cumsum([np.count_nonzero(w[c : c + _BLOCK]) for c in range(0, w.size, _BLOCK)])
        c = int(np.searchsorted(self._cum, j, side="right"))
        before = int(self._cum[c - 1]) if c else 0
        c *= _BLOCK
        return c + int(np.flatnonzero(w[c : c + _BLOCK])[j - before])

    def _span(self, start, stop):
        """(a, b) such that the positive entries of w[a:b], which has zeros,
        are the support's entries start to stop - 1."""
        if stop - start == self.n:
            return 0, self.w.size
        return self._find(start), self._find(stop)

    def _on_support(self, v, start, stop) -> np.ndarray:
        """The vector ``v`` of w's length over the support's entries
        [start, stop): a view, or where w has zeros a copy of the block."""
        if not self._zeros:
            return v if stop - start == v.size else v[start:stop]
        a, b = self._span(start, stop)
        return v[a:b][self.w[a:b] > 0]

    def _log(self, start, stop, out=None) -> np.ndarray:
        """x over the support's entries [start, stop), taken from w into the
        head of ``out`` (a new array if None): log(w * 2**k) - top over a
        block of w that compresses its own zeros, with the same bits every
        time.  With zeros in w, the block that holds the maximum sets ``i``."""
        w = self.w
        part = stop - start < self.n
        if part and out is not None:
            out = out[: stop - start]
        holds = False
        if self._zeros:
            a, b = self._span(start, stop)
            w = out = np.compress(w[a:b] > 0, w[a:b], out=out)
            holds = a <= self._at < b
        elif part:
            w = w[start:stop]
        if self._k:
            w = out = np.ldexp(w, self._k, out=out)
        x = np.log(w, out=out)
        if holds:
            self.i = start + int(x.argmax())
        top = self._top
        if top is None:  # the one block, without zeros
            top = self._top = float(x[self.i])
        if top:
            x -= top
        return x

    def _power(self, gamma, exp, start, stop, out=None) -> np.ndarray:
        """exp(gamma * x) over the support's entries [start, stop), by the
        exp rule ``exp``, into the head of ``out`` (a new array if None),
        with the maximum's lane zeroed.  x is read where the support holds
        it and taken from w into ``out`` where it does not.  At gamma = 1 x
        goes to the exp as it is."""
        x = self._x
        if x is None:
            x = out = self._log(start, stop, out)
        elif stop - start < x.size:  # a block of a longer support
            x = x[start:stop]
            if out is not None:
                out = out[: x.size]
        if gamma != 1.0:
            x = out = np.multiply(x, gamma, out=out)
        elif out is None:
            out = np.empty(x.size)
        a = exp(x, gamma * self.lo, out)
        if start <= self.i < stop:
            a[self.i - start] = 0.0
        return a

    def _sum(self, gamma, exp) -> float:
        """sum_{j != i} exp(gamma * x_j) by the exp rule ``exp``, block by
        block with the bits of one whole-array pass; also left in ``s``."""
        n = self.n
        if n <= _BLOCK:
            self.s = float(np.add.reduce(self._power(gamma, exp, 0, n)))
        else:
            (self.s,) = _tree(n, self._sum_block, gamma, exp, np.empty(_leaf(n)))
        return self.s

    def _sum_block(self, gamma, exp, buf, start, stop):
        """(sum of the block's exp array,), the array made in buf."""
        return (float(np.add.reduce(self._power(gamma, exp, start, stop, buf))),)

    def _raised(self, gamma) -> bool:
        """Whether a sum-only exp pass at gamma raises lanes."""
        return self.n >= _EXP_SPLIT_MIN_SIZE and gamma * self.lo < _EXP_FAST_MIN

    def _log1p_exact(self, gamma, s) -> float:
        """log1p(s), s the sum of a sum-only exp pass at gamma, which is
        made again exactly where s < _SUM_ONLY_MIN and it raised lanes."""
        if s < _SUM_ONLY_MIN and self._raised(gamma):
            s = self._sum(gamma, _exp_inplace)
        return math.log1p(s)

    def log1p_sum(self, gamma) -> float:
        """L(gamma) = log1p(sum_{j != i} exp(gamma * x_j)) >= 0, so that
        psi(gamma) = log sum_i w_i^gamma = gamma * m + L(gamma).  Only the
        maximum at i is left out of the sum: one tying with it adds 1,
        and log1p of a sum >= 1 needs no tie count.  The pass is
        `_exp_for_sum`'s, made again by `_log1p_exact`; it leaves x, where
        the support holds it, as it was."""
        return self._log1p_exact(gamma, self._sum(gamma, _exp_for_sum))

    def escort(self, gamma) -> np.ndarray:
        """The gamma-escort w^gamma / sum w^gamma from an exact exp pass
        (see `_exp_inplace`), of w's length, zero where w is; over x for a
        support without w.  Each block's exp array is written where the
        escort returns it, so the escort is the call's one full array."""
        n, zeros = self.n, self._x is None and self._zeros
        if n <= _BLOCK and not zeros:  # the one block's exp array
            out = self._power(gamma, _exp_inplace, 0, n)
            self.s = float(np.add.reduce(out))
        else:
            out = np.zeros(self.w.size) if zeros else np.empty(n)
            buf = np.empty(_leaf(n)) if zeros else None
            (self.s,) = _tree(n, self._escort_block, gamma, out, buf)
        out[self._at if zeros else self.i] = 1.0
        out /= 1.0 + self.s
        return out

    def _escort_block(self, gamma, out, buf, start, stop):
        """(sum of the block's exact exp array,), the array written where
        the escort ``out`` holds it: in place, or by way of ``buf`` past
        the zeros of w."""
        if buf is None:
            a = self._power(gamma, _exp_inplace, start, stop, out[start:stop])
        else:
            a = self._power(gamma, _exp_inplace, start, stop, buf)
            lo, hi = self._span(start, stop)
            part = out[lo:hi]
            part[self.w[lo:hi] > 0] = a
        return (float(np.add.reduce(a)),)

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
        The b-escort's array a is a sum-only one (see `_exp_for_sum`),
        exact where s or |a . x| is below 2**-900 (the latter for tied
        maxima at w = 1): every factor that multiplies its lanes here is
        at most 1 + |lo| in size, so a raised lane moves a . x and
        a . expm1(h x) by less than n (1 + |lo|) 2**-1019; above that
        bound, D keeps the digits an exact pass gives it, since
        |D| >= |a . x| / (norm max(1, h |lo|)) times a constant.

        x is the call's one full array: a is made block by block, and made
        again for the expm1 sweep, where its dot products are taken block
        by block too.  Past _BLOCK entries they may differ from whole-array
        dot products in the last bits.  Consumes x."""
        b, h = min(alpha, beta), abs(alpha - beta)
        n = self.n
        x = self._x = self._log(0, n) if n <= _BLOCK else self._build()
        buf = None if n <= _BLOCK else np.empty(_leaf(n))
        # the sum-only pass, and the exact one where it is not exact enough
        for exp in (_exp_for_sum, _exp_inplace):
            if n <= _BLOCK:
                a = self._power(b, exp, 0, n)
                s, dot = float(np.add.reduce(a)), float(a @ x)
            else:
                s, dot = _tree(n, self._moments, b, exp, buf)
            if not ((s < _SUM_ONLY_MIN or -dot < _SUM_ONLY_MIN) and self._raised(b)):
                break
        lb, norm = math.log1p(s), 1.0 + s
        mean = dot / norm
        if h < 2.0**-969:
            # h x would be subnormal for the smallest nonzero |x| (about
            # 2**-53), and |D - mean| <= h |lo| |mean| / 2 is below rounding
            return b, lb, mean
        if h * mean < -_LOG2:
            # only L(b + h) - L(b) <= -log 2 is kept, where L(b) >= log 2
            # absorbs what raised lanes add to L(b + h)
            k = math.log1p(self._sum(max(alpha, beta), _exp_for_sum)) - lb
            if k <= -_LOG2:
                return b, lb, k / h
        if n <= _BLOCK:
            x *= h
            t = float(a @ np.expm1(x, out=x))
        else:
            (t,) = _tree(n, self._expm1_dot, b, exp, buf, h)
        return b, lb, math.log1p(t / norm) / h

    def _moments(self, b, exp, buf, start, stop):
        """(sum a, a . x) over a block of a longer support, a the block's
        exp array of b x, made in buf."""
        a = self._power(b, exp, start, stop, buf)
        return float(np.add.reduce(a)), _dot(a, self._x[start:stop])

    def _expm1_dot(self, b, exp, buf, h, start, stop):
        """(a . expm1(h x),) over a block of a longer support, with its a
        made again in buf, and its block of x consumed."""
        a = self._power(b, exp, start, stop, buf)
        x = self._x[start:stop]
        x *= h
        return (_dot(a, np.expm1(x, out=x)),)


def log_norm(w, gamma) -> float:
    """log of the gamma-norm, log[(sum_i w_i^gamma)^(1/gamma)].

    Computed as m + L(gamma) / gamma over the positive entries, with
    m = log(max w), which keeps orders like gamma = 100 on tiny weights
    exact to machine precision.
    """
    gamma = _check_order(gamma)
    sup = _LogSupport(w)
    return sup.m + sup.log1p_sum(gamma) / gamma


def escort(w, beta) -> np.ndarray:
    """The beta-escort distribution w_i^beta / sum_j w_j^beta.

    Always a probability vector; zero entries of ``w`` stay zero.
    """
    beta = _check_order(beta, "beta")
    return _LogSupport(w).escort(beta)


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
