"""Cross-entropy companion of the logarithmic norm entropy.

For weight vectors P, Q of equal length and equal total mass W,

    CE_{a,b}(P, Q) = a*b/(a-b) * [(1/a) log sum_i p_i^a q_i^(b-a)
                                   - log||P||_b],          a != b,
    CE_{b,b}(P, Q) = b * sum_i p_i^b log(p_i/q_i) / sum_i p_i^b
                     - b * log||P||_b.

The family is scale invariant in P and has the escort form CE(P, Q) =
D_{a/b}(P_b || Q_b) - b log||Q||_b (b-escorts, Renyi divergence D), the
Renyi directed divergence of order a at b = 1 on probabilities; against
the uniform prior CE(P, U) = b log(n/W) - E_{a,b}(P), so its constrained
minimizer is the MaxEnt distribution (see `lne.optimize`).

The divergence takes two calls: lnce(p, q, (a, b)) + b * log_norm(q, b)
= D_{a/b}(P_b || Q_b) for equal-mass p and q.  It is >= 0, zero exactly
when P is proportional to Q, and scale invariant in P; divided by a it is
the relative (a, b)-entropy in Ghosh and Basu's normalization.  Below b
of about 1e-308 the log-norm overflows, and the sum with it.

Support convention: states with p_i = 0 never contribute; p_i > 0 with
q_i = 0 is a domain error whenever q_i carries a negative exponent
(a > b) or sits in a log ratio (a == b), and is silently dropped from
the sum where the exponent is positive, while it still counts in
||P||_b.  Such a state is a masked lane of the working vector
y = log(p/q), not a state removed from it (see `_lnce`).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .numkit import (
    _BLOCK,
    TOL_MASS,
    _LOG_FLOAT_MAX,
    _as_params,
    _exp_for_sum,
    _exp_inplace,
    _LogSupport,
    _leaf,
    _min,
    _tree,
    _validate,
)

__all__ = ["SupportError", "CrossEntropyValue", "lnce"]


class SupportError(ValueError):
    """The prior is zero on a state the first argument gives positive mass."""

    def __init__(self, index, message=None):
        self.index = int(index)
        super().__init__(message or f"support violation at state {index}: p > 0 but q = 0")


class CrossEntropyValue(float):
    """A float tagged with the order pair and the prior's total mass."""

    __slots__ = ("params", "prior_mass")

    def __new__(cls, value, params, prior_mass):
        obj = super().__new__(cls, value + 0.0)  # normalizes -0.0
        obj.params = params
        obj.prior_mass = float(prior_mass)
        return obj

    def __repr__(self):
        return (
            f"CrossEntropyValue({float(self)!r}, params={self.params!r}, "
            f"prior_mass={self.prior_mass!r})"
        )


def lnce(p, q, params, require_equal_mass=True) -> CrossEntropyValue:
    """Logarithmic norm cross-entropy of ``p`` against the prior ``q``.

    The equal-mass precondition W(p) = W(q) is checked, never silently
    renormalized; pass ``require_equal_mass=False`` to demote the check
    to a warning (the formula itself is invariant to scaling of ``p``,
    so this is safe when probing that invariance).
    """
    prm = _as_params(params)
    sup = _LogSupport(p, "p")
    q, q_min, q_max, _ = _validate(q, "q")
    if sup.w.size != q.size:
        raise ValueError(f"length mismatch: {sup.w.size} vs {q.size}")
    mass_p, mass_q = sup.w.sum(), q.sum()
    if abs(mass_p - mass_q) > TOL_MASS:
        msg = f"total masses differ: W(p)={mass_p}, W(q)={mass_q}"
        if require_equal_mass:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)
    return CrossEntropyValue(_lnce(sup, q, q_min, q_max, prm), prm, mass_q)


def _range_bounds(lo, q_min, q_max):
    """(lower, upper) bounds on range(y) for y = x - log q, with x in
    [lo, 0] reaching both ends and q in [q_min, q_max] with q_min > 0:
    range(y) lies within -lo -+ log(q_max / q_min).  They are widened by
    2**-30 of their size, far more than the roundings of x, lo and y."""
    c = math.log(q_max) - math.log(q_min)
    slack = 2.0**-30 * (1.0 + c - lo)
    return -lo - c - slack, -lo + c + slack


def _lnce(sup, q, q_min, q_max, prm) -> float:
    """`lnce` over the log-support of p and a validated q of p's length
    and mass, with q_min = min q and q_max = max q.  Consumes the support.

    With y = log p - m - log q over p's support, the beta-escort e of p
    and d = alpha - beta, CE = beta * S - psi(beta), where
    S = log(e . exp(d y)) / d is the slope of y's cumulant generating
    function over the kept states, those where q > 0, and e . y at d = 0.
    A state with q = 0 (at alpha < beta only) is a masked lane of y: it
    takes the value of the first kept lane, so that range(y) is the kept
    states' range, and its escort weight is left out of the sum.  The
    escort times its norm is at most 1 on each state, so the norm of the
    k kept states is at most k, and where |d| range(y) + log(k) stays
    below log(DBL_MAX) their sum of exp(d (y_i - y_j)) cannot overflow.
    That branch is picked before any exp pass: with a positive prior from
    the bounds of `_range_bounds` where they decide it, and from a scan
    of y where they do not or q has a zero.  The test is monotone in
    range(y), so bounds that decide it pick the scan's branch.  There
    S is taken as ybar + log1p(e . expm1(d (y - ybar))) / d with
    ybar = e . y: the mean carries the first-order part of the sum, which
    would otherwise cancel near the diagonal, so S is as accurate as ybar
    at any d.  One exact exp pass in place over x gives both L(beta) and
    the escort: its lanes are multiplied by exp(d (y - ybar)), which can
    reach DBL_MAX / k, so a raised lane of `_exp_for_sum` could move the
    sum by far more than its rounding.  Past that range, or where the
    dropped states carry more of the escort than the kept ones, the sum
    rests on entries far out in y, whose escort weights may underflow,
    and it is taken in log space, as m + L(1) of the log weights
    u = beta x + d y, -inf on the masked lanes, and L(beta) from a
    sum-only exp pass over beta x, each exact however small.

    The scan and the log-space branch run block by block (`numkit._tree`):
    y is made a block at a time beside x, and u is written in x's place,
    so that they hold one array of the support's size, with zeros in p
    too.  The expm1 branch holds x and a whole y.  Its sum of the dropped
    escort is taken pairwise over a * drop, a small block at a time."""
    alpha, beta = prm.alpha, prm.beta
    d = alpha - beta
    p, n = sup.w, sup.n
    k = n
    # the zeros of q on p's support; q is nonnegative, so only a minimum
    # of 0 means that q has a zero anywhere
    drop = None if q_min > 0 else q == 0 if n == p.size else (q == 0)[p > 0]
    if drop is None or not drop.any():
        drop = None
    else:
        if alpha >= beta:
            raise SupportError(int(np.flatnonzero((p > 0) & (q == 0))[0]))
        # a zero of q under the positive exponent beta - alpha drops its
        # state from the sum, but not from psi(beta)
        k -= int(np.count_nonzero(drop))
        if not k:
            # alpha < beta with disjoint supports: the defining sum is
            # empty and the value diverges; refuse rather than return inf.
            raise SupportError(int(np.flatnonzero(p > 0)[0]))
    log_k = math.log(k)
    x, y = sup._x, None
    # a zero anywhere in q leaves range(y) unbounded by q: scan y
    lower, upper = _range_bounds(sup.lo, q_min, q_max) if q_min > 0 else (0.0, math.inf)
    expm1 = abs(d) * upper + log_k <= _LOG_FLOAT_MAX
    if not expm1:
        # log space, or a scan: x, and y block by block beside it
        x, ybuf = np.empty(n), np.empty(_leaf(n))
        if abs(d) * lower + log_k <= _LOG_FLOAT_MAX:
            if n <= _BLOCK:
                top, neg_bottom = _scan_block(sup, x, q, ybuf, drop, 0, n)
                y = ybuf  # the scan's one block is the whole of y
            else:
                top, neg_bottom = _tree(n, _scan_block, sup, x, q, ybuf, drop, join=max)
            sup._x = x
            expm1 = abs(d) * (top + neg_bottom) + log_k <= _LOG_FLOAT_MAX
    if expm1:
        x = sup.x
        if y is None:
            ybuf = None
            qs = q if n == p.size else q[p > 0]  # q on the support of p
            y = _log_q(qs, drop, None if qs is q else qs)
            np.subtract(x, y, out=y)
            if drop is not None:
                y[drop] = y[drop.argmin()]
        # exp(beta x): L(beta), and the kept escort times norm
        a = sup._power(beta, _exp_inplace, 0, n, x)
        s = float(np.add.reduce(a))
        l_beta = math.log1p(s)  # psi(beta) = beta * m + l_beta
        a[sup.i] = 1.0
        norm, dropped = 1.0 + s, 0.0
        if drop is not None:
            # pairwise over a * drop, a small block at a time: a gather
            # would copy up to the whole support
            part = np.empty(_leaf(n, _BLOCK // 8))
            (dropped,) = _tree(n, _masked_sum, a, drop, part, size=_BLOCK // 8)
            a[drop] = 0.0
            norm = float(a.sum())
        # with norm >= dropped, norm >= 1/2: a[i] = 1 is among the two
        if norm >= dropped:
            s = float(a @ y) / norm
            if d != 0.0:
                y -= s
                y *= d
                np.expm1(y, out=y)
                s += (math.log1p(float(a @ y) / norm) - math.log1p(dropped / norm)) / d
            return beta * s - l_beta
        # the dropped states carry most of the escort (only with a zero
        # prior, which the bounds leave open): log space, over x again
        a = None
        x = sup._build(x)
    # log(e . exp(d y)) + L(beta), from u = log(p^alpha q^-d) - beta m
    if n <= _BLOCK:
        (s,) = _u_block(sup, x, y, q, ybuf, drop, d, beta, not expm1, 0, n)
    else:
        (s,) = _tree(n, _u_block, sup, x, y, q, ybuf, drop, d, beta, not expm1)
    u = y if y is not None else ybuf if n <= _BLOCK else x
    # x may hold u: an exact pass takes x from w again
    x = y = ybuf = sup._x = None
    if not expm1:
        l_beta = sup._log1p_exact(beta, s)
    sup_u = _LogSupport.from_log(u)
    return beta * (sup_u.m + sup_u.log1p_sum(1.0) - l_beta) / d - l_beta


def _log_q(q, drop, out):
    """log q into ``out`` (a new array if None), -inf without a warning
    where ``drop`` marks a zero."""
    if drop is None:
        return np.log(q, out=out)
    with np.errstate(divide="ignore"):
        return np.log(q, out=out)


def _y_block(sup, x, q, ybuf, drop, start, stop):
    """(x, y = x - log q) over the block of p's support, y in ybuf: x read
    where the support holds it, and taken from w into its place in x
    where it does not."""
    qb = sup._on_support(q, start, stop)
    if stop - start < x.size:
        x, drop = x[start:stop], None if drop is None else drop[start:stop]
    xb = x if sup._x is not None else sup._log(start, stop, x)
    yb = _log_q(qb, drop, ybuf[: stop - start] if ybuf.size > stop - start else ybuf)
    return xb, np.subtract(xb, yb, out=yb)


def _scan_block(sup, x, q, ybuf, drop, start, stop):
    """(max y, -min y) over the block's kept states, a dropped one taking
    the value of the block's first kept one."""
    yb = _y_block(sup, x, q, ybuf, drop, start, stop)[1]
    if drop is not None:
        db = drop[start:stop]
        j = int(db.argmin())
        if db[j]:  # every state of the block is dropped
            return -math.inf, -math.inf
        yb[db] = yb[j]
    return float(yb[yb.argmax()]), -float(_min(yb))


def _masked_sum(a, drop, part, start, stop):
    """(sum of a over the block's dropped states,), pairwise over a * drop
    in ``part``."""
    return (float(np.add.reduce(np.multiply(a[start:stop], drop[start:stop], out=part[: stop - start]))),)


def _u_block(sup, x, y, q, ybuf, drop, d, beta, with_l_beta, start, stop):
    """(sum of the block's exp(beta x) with the maximum's lane zeroed, or 0
    without ``with_l_beta``,), with u = d y + beta x formed over the block:
    in y's place where y is whole, and otherwise in ybuf and then in x's
    place past one block."""
    xb, yb = _y_block(sup, x, q, ybuf, drop, start, stop) if y is None else (x[start:stop], y[start:stop])
    yb *= d
    xb *= beta
    yb += xb
    if drop is not None:
        yb[drop[start:stop]] = -math.inf
    s = 0.0
    if with_l_beta:
        a = _exp_for_sum(xb, beta * sup.lo, xb)
        i = sup.i - start
        if 0 <= i < a.size:
            a[i] = 0.0
        s = float(np.add.reduce(a))
    if y is None and xb.size < x.size:
        np.copyto(xb, yb)
    return (s,)
