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
(a > b) or sits in a log ratio (a == b), and is silently dropped where
the exponent is positive.
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
    q, q_min, _ = _validate(q, "q")
    if sup.w.size != q.size:
        raise ValueError(f"length mismatch: {sup.w.size} vs {q.size}")
    mass_p, mass_q = sup.w.sum(), q.sum()
    if abs(mass_p - mass_q) > TOL_MASS:
        msg = f"total masses differ: W(p)={mass_p}, W(q)={mass_q}"
        if require_equal_mass:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)
    return CrossEntropyValue(_lnce(sup, q, q_min, prm), prm, mass_q)


# Entries per block of `_kept`, which makes no temporary the size of its
# vector.
_BLOCK = 1 << 13


def _kept(v, keep):
    """v[keep] a block of v at a time, as pairs (j, b): b holds the kept
    entries of one block, and j is their offset in v[keep].  Each b is a
    copy read before the next block is, so writing it to v[j:] as it
    comes moves v[keep] to the front of v."""
    j = 0
    for lo in range(0, v.size, _BLOCK):
        b = v[lo : lo + _BLOCK][keep[lo : lo + _BLOCK]]
        yield j, b
        j += b.size


def _lnce(sup, q, q_min, prm) -> float:
    """`lnce` over the log-support of p and a validated q of p's length
    and mass, with q_min = min q.  Consumes the support.

    With y = log p - m - log q over the states where q > 0, the
    beta-escort e of p and d = alpha - beta, CE = beta * S - psi(beta),
    where S = log(e . exp(d y)) / d is the slope of y's cumulant
    generating function, and e . y at d = 0.  The branch is picked from
    y alone, before any exp pass.  The escort times its norm is at most 1
    on each state, so the norm of the kept states is at most y.size, and
    where |d| range(y) + log(y.size) stays below log(DBL_MAX) their sum
    of exp(d (y_i - y_j)) cannot overflow.  There S is taken as ybar + log1p(e .
    expm1(d (y - ybar))) / d with ybar = e . y: the mean carries the
    first-order part of the sum, which would otherwise cancel near the
    diagonal, so S is as accurate as ybar at any d.  One exact exp pass
    in place over x gives both L(beta) and the escort.  Past that range,
    or where the states dropped for q = 0 carry more of the escort than
    the kept ones, the sum rests on entries far out in y, whose escort
    weights may underflow, and it is taken in log space, as m + L(1) of
    the log weights u = beta x + d y formed over y; L(beta) then comes
    from a sum-only exp pass over beta x (see `_exp_for_sum`)."""
    alpha, beta = prm.alpha, prm.beta
    d = alpha - beta
    p, x = sup.w, sup.x
    qs = q if x.size == p.size else q[p > 0]  # q on the support of p
    # q is nonnegative, so a minimum of 0 means a zero
    if q_min > 0 or _min(qs) > 0:
        both = None
        y = np.log(qs, out=None if qs is q else qs)
        np.subtract(x, y, out=y)
    else:
        if alpha >= beta:
            raise SupportError(int(np.flatnonzero((p > 0) & (q == 0))[0]))
        both = qs > 0
        if not both.any():
            # alpha < beta with disjoint supports: the defining sum is
            # empty and the value diverges; refuse rather than return inf.
            raise SupportError(int(np.flatnonzero(p > 0)[0]))
        # a zero of q under the positive exponent beta - alpha drops its
        # state from the sum, but not from psi(beta)
        y = qs[both]
        np.log(y, out=y)
        for j, b in _kept(x, both):
            np.subtract(b, y[j : j + b.size], out=y[j : j + b.size])
    expm1 = abs(d) * (y[y.argmax()] - _min(y)) + math.log(y.size) <= _LOG_FLOAT_MAX
    if expm1:
        # exp(beta x): L(beta), and the kept escort times norm
        a = _exp_inplace(np.multiply(x, beta, out=x), beta * sup.lo)
        a[sup.i] = 0.0
        s = float(a.sum())
        l_beta = math.log1p(s)  # psi(beta) = beta * m + l_beta
        a[sup.i] = 1.0
        norm, dropped = 1.0 + s, 0.0
        if both is not None:
            dropped = float(a[~both].sum())
            for j, b in _kept(a, both):
                a[j : j + b.size] = b
            a = a[: y.size]
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
    if both is None:
        y += bx
    else:
        for j, b in _kept(bx, both):
            y[j : j + b.size] += b
    if not expm1:
        a = _exp_for_sum(bx, beta * sup.lo)
        a[sup.i] = 0.0
        l_beta = math.log1p(float(a.sum()))
    sup_u = _LogSupport.from_log(y)
    return beta * (sup_u.m + sup_u.log1p_sum(1.0, in_place=True) - l_beta) / d - l_beta
