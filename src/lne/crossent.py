"""Cross-entropy companion of the logarithmic norm entropy.

For weight vectors P, Q of equal length and equal total mass W,

    CE_{a,b}(P, Q) = a*b/(a-b) * [(1/a) log sum_i p_i^a q_i^(b-a)
                                   - log||P||_b],          a != b,
    CE_{b,b}(P, Q) = b * sum_i p_i^b log(p_i/q_i) / sum_i p_i^b
                     - b * log||P||_b.

The family is scale invariant in P, reduces to the Renyi directed
divergence of order a on probability vectors at b = 1, and against the
uniform prior satisfies CE(P, U) = b log(n/W) - E_{a,b}(P), which makes
its constrained minimizer the MaxEnt distribution (see `lne.optimize`).

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
    _exp_inplace,
    _log_support,
    _lse_inplace,
    _min,
    as_weights,
)
from .entropy import _as_params

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
    p, *range_p = as_weights(p, "p", return_range=True)
    q = as_weights(q, "q")
    mass_q = _check_pair(p, q, require_equal_mass)
    return CrossEntropyValue(_lnce(p, range_p, q, prm), prm, mass_q)


def _lnce(p, range_p, q, prm) -> float:
    """`lnce` on validated weight vectors that passed `_check_pair`;
    range_p is (min p, max p)."""
    alpha, beta = prm.alpha, prm.beta
    sup = _log_support(p, *range_p)
    logp = sup.logw
    qs = q if logp.size == p.size else q[p > 0]  # q on the support of p
    # q is nonnegative, so a minimum of 0 means a zero
    if (prm.equal_orders or alpha > beta) and _min(qs) == 0:
        raise SupportError(int(np.flatnonzero((p > 0) & (q == 0))[0]))

    psi = sup.psi(beta)
    # psi's scratch takes log q next; the support is not needed again
    scratch, lo_logp = sup.scratch, sup.lo
    del sup
    log_sum_pb = beta * (psi / beta)  # beta * log_norm(p, beta), same rounding
    if prm.equal_orders:
        diff = np.log(qs, out=scratch)
        np.subtract(logp, diff, out=diff)  # log p - log q
        # the beta-escort of p, built in place over log p
        logp *= beta
        logp -= psi
        return beta * float(_exp_inplace(logp, beta * lo_logp - psi) @ diff) - log_sum_pb
    if _min(qs) == 0:
        both = qs > 0
        if not both.any():
            # alpha < beta with disjoint supports: the defining sum is
            # empty and the value diverges; refuse rather than return inf.
            raise SupportError(int(np.flatnonzero(p > 0)[0]))
        logp, qs, scratch = logp[both], qs[both], None
    d = alpha - beta
    # the terms (beta * log p - log_sum_pb) + d * (log p - log q), built
    # in place over log p; the log of the beta-escort is formed in log
    # space: an escort entry that underflows would otherwise drop a
    # dominant term
    dlog = np.log(qs, out=scratch)
    np.subtract(logp, dlog, out=dlog)
    dlog *= d
    logp *= beta
    logp -= log_sum_pb
    logp += dlog
    return (beta / d) * _lse_inplace(logp) - log_sum_pb


def relative_entropy_bridge(p, q, params, require_equal_mass=True) -> float:
    """Relative (beta, alpha)-entropy recovered from the cross-entropy via
    CE_{a,b}(P, Q) = a RE_{b,a}(P, Q) + b log||Q||_b."""
    prm = _as_params(params)
    p, *range_p = as_weights(p, "p", return_range=True)
    q, *range_q = as_weights(q, "q", return_range=True)
    _check_pair(p, q, require_equal_mass)
    ce = _lnce(p, range_p, q, prm) + 0.0  # as CrossEntropyValue rounds -0.0
    log_norm_q = _log_support(q, *range_q).log_norm(prm.beta, in_place=True)
    return (ce - prm.beta * log_norm_q) / prm.alpha
