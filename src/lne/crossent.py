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
    TOL_MASS,
    _LOG_FLOAT_MAX,
    _as_params,
    _exp_for_sum,
    _exp_inplace,
    _LogSupport,
    _min,
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
    u = beta x + d y formed over y, -inf on the masked lanes, and L(beta)
    from a sum-only exp pass over beta x, each exact however small."""
    alpha, beta = prm.alpha, prm.beta
    d = alpha - beta
    p, x = sup.w, sup.x
    qs = q if x.size == p.size else q[p > 0]  # q on the support of p
    k = x.size
    # q is nonnegative, so a minimum of 0 means a zero
    if q_min > 0 or _min(qs) > 0:
        drop = None
        y = np.log(qs, out=None if qs is q else qs)
    else:
        if alpha >= beta:
            raise SupportError(int(np.flatnonzero((p > 0) & (q == 0))[0]))
        # a zero of q under the positive exponent beta - alpha drops its
        # state from the sum, but not from psi(beta)
        drop = qs == 0
        k -= int(np.count_nonzero(drop))
        if not k:
            # alpha < beta with disjoint supports: the defining sum is
            # empty and the value diverges; refuse rather than return inf.
            raise SupportError(int(np.flatnonzero(p > 0)[0]))
        with np.errstate(divide="ignore"):
            y = np.log(qs, out=None if qs is q else qs)
    np.subtract(x, y, out=y)
    log_k = math.log(k)
    if drop is not None:
        y[drop] = y[drop.argmin()]
    # a zero anywhere in q leaves range(y) unbounded by q: scan y
    lower, upper = _range_bounds(sup.lo, q_min, q_max) if q_min > 0 else (0.0, math.inf)
    if abs(d) * upper + log_k <= _LOG_FLOAT_MAX:
        expm1 = True
    elif abs(d) * lower + log_k > _LOG_FLOAT_MAX:
        expm1 = False
    else:
        expm1 = abs(d) * (y[y.argmax()] - _min(y)) + log_k <= _LOG_FLOAT_MAX
    if expm1:
        # exp(beta x): L(beta), and the kept escort times norm
        a = sup._power(beta, _exp_inplace, x)
        l_beta = math.log1p(sup.s)  # psi(beta) = beta * m + l_beta
        a[sup.i] = 1.0
        norm, dropped = 1.0 + sup.s, 0.0
        if drop is not None:
            # a masked sum: a[drop] would copy up to the whole support
            dropped = float(np.add.reduce(a, where=drop))
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
        # the dropped states carry most of the escort: log space, over x again
        x = sup._log(out=x)
    # log(e . exp(d y)) + L(beta), in place over y
    bx = np.multiply(x, beta, out=x)
    y *= d
    y += bx
    if drop is not None:
        y[drop] = -math.inf
    if not expm1:
        a = _exp_for_sum(bx, beta * sup.lo)
        a[sup.i] = 0.0
        l_beta = sup._log1p_exact(beta, a, float(a.sum()))
    sup_u = _LogSupport.from_log(y)  # its exp array goes into x, keeping u
    return beta * (sup_u.m + sup_u.log1p_sum(1.0, x) - l_beta) / d - l_beta
