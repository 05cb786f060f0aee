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
    _exp_inplace,
    _as_params,
    _LogSupport,
    _min,
    as_weights,
)

__all__ = ["SupportError", "CrossEntropyValue", "lnce", "relative_entropy_bridge"]


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


def _check_pair(p, q, require_equal_mass):
    """Check equal lengths and equal masses; returns the mass of q."""
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    mass_p, mass_q = p.sum(), q.sum()
    if abs(mass_p - mass_q) > TOL_MASS:
        msg = f"total masses differ: W(p)={mass_p}, W(q)={mass_q}"
        if require_equal_mass:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=3)
    return mass_q


def lnce(p, q, params, require_equal_mass=True) -> CrossEntropyValue:
    """Logarithmic norm cross-entropy of ``p`` against the prior ``q``.

    The equal-mass precondition W(p) = W(q) is checked, never silently
    renormalized; pass ``require_equal_mass=False`` to demote the check
    to a warning (the formula itself is invariant to scaling of ``p``,
    so this is safe when probing that invariance).
    """
    prm = _as_params(params)
    sup = _LogSupport(p, "p")
    q = as_weights(q, "q")
    mass_q = _check_pair(sup.w, q, require_equal_mass)
    return CrossEntropyValue(_lnce(sup, q, prm), prm, mass_q)


def _lnce(sup, q, prm) -> float:
    """`lnce` over the log-support of p and a validated q that passed
    `_check_pair`.  Consumes the support.

    With y = log p - log q, the beta-escort e of p and d = alpha - beta,
    CE = beta * S - psi(beta), where S = log(e . exp(d y)) / d is the
    slope of y's cumulant generating function, and e . y at d = 0.
    Where no exp(d (y_i - y_j)) can overflow, S is taken as
    ybar + log1p(e . expm1(d (y - ybar))) / d with ybar = e . y: the
    mean carries the first-order part of the sum, which would otherwise
    cancel near the diagonal, so S is as accurate as ybar at any d.
    Past that range the sum rests on entries far out in y, whose escort
    weights may underflow, and it is taken in log space, as m + L(1) of
    the log weights beta x + d y."""
    alpha, beta = prm.alpha, prm.beta
    p, x = sup.w, sup.x
    qs = q if x.size == p.size else q[p > 0]  # q on the support of p
    both = None
    # q is nonnegative, so a minimum of 0 means a zero
    if _min(qs) == 0:
        if alpha >= beta:
            raise SupportError(int(np.flatnonzero((p > 0) & (q == 0))[0]))
        both = qs > 0
        if not both.any():
            # alpha < beta with disjoint supports: the defining sum is
            # empty and the value diverges; refuse rather than return inf.
            raise SupportError(int(np.flatnonzero(p > 0)[0]))
    l_beta = sup.log1p_sum(beta)  # psi(beta) = beta * m + l_beta
    a = sup.a
    a[sup.i] = 1.0  # a / (1 + s) is the escort now
    norm, dropped = 1.0 + sup.s, 0.0
    if both is not None:
        # a zero of q under the positive exponent beta - alpha drops its
        # state from the sum, but not from psi(beta)
        norm, dropped = float(a[both].sum()), float(a[~both].sum())
        x, qs, a = x[both], qs[both], None
    y = np.log(qs, out=a)  # the exp array takes y - m next
    np.subtract(x, y, out=y)
    d = alpha - beta
    # with norm >= dropped, norm >= 1/2: a[i] = 1 is among the two
    if norm >= dropped and abs(d) * (y[y.argmax()] - _min(y)) + math.log(norm) <= _LOG_FLOAT_MAX:
        # exp(beta x), the kept escort times norm, over x
        a = _exp_inplace(np.multiply(x, beta, out=x), beta * sup.lo)
        s = float(a @ y) / norm
        if d != 0.0:
            y -= s
            y *= d
            np.expm1(y, out=y)
            s += (math.log1p(float(a @ y) / norm) - math.log1p(dropped / norm)) / d
        return beta * s - l_beta
    # log(e . exp(d y)) + L(beta), in place over x
    y *= d
    u = np.multiply(x, beta, out=x)
    u += y
    sup_u = _LogSupport.from_log(u)
    return beta * (sup_u.m + sup_u.log1p_sum(1.0, in_place=True) - l_beta) / d - l_beta


def relative_entropy_bridge(p, q, params, require_equal_mass=True) -> float:
    """Relative (beta, alpha)-entropy recovered from the cross-entropy via
    CE_{a,b}(P, Q) = a RE_{b,a}(P, Q) + b log||Q||_b.  By the escort form
    RE = (D_{a/b}(P_b || Q_b) - 2b log||Q||_b) / a: RE(P, P) is nonzero
    unless log||P||_b = 0."""
    prm = _as_params(params)
    sup_p, sup_q = _LogSupport(p, "p"), _LogSupport(q, "q")
    _check_pair(sup_p.w, sup_q.w, require_equal_mass)
    ce = _lnce(sup_p, sup_q.w, prm) + 0.0  # as CrossEntropyValue rounds -0.0
    # b log||Q||_b = psi(b), formed without log||Q||_b, which overflows at tiny b
    return (ce - prm.beta * sup_q.m - sup_q.log1p_sum(prm.beta, in_place=True)) / prm.alpha
