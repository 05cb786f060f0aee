"""Entropy functionals on finite weight vectors.

The classical one- and two-parameter families (Shannon, Renyi, Tsallis,
Kapur, norm entropy, Aczel-Daroczy) together with the two-parameter
logarithmic norm entropy

    E_{a,b}(P) = a*b/(a-b) * [log||P||_b - log||P||_a],   a != b,
    E_{b,b}(P) = b * [AD_b(P) + log||P||_b],

which is scale invariant (E(cP) = E(P) for c > 0), symmetric in (a, b),
ranges over [0, log n], and equals the Renyi entropy of order a/b of the
b-escort distribution.  All values are in nats.

Order pairs within EPS_ORDER of the diagonal dispatch to the limiting
a == b form; the (a - b) denominator loses roughly eight digits there.
"""

from __future__ import annotations

import math

import numpy as np

from .numkit import (
    EPS_ORDER,
    TOL_MASS,
    EntropyParams,
    _check_order,
    _exp_inplace,
    _log_support,
    as_weights,
    lse,
)

__all__ = [
    "EntropyValue",
    "shannon",
    "renyi",
    "tsallis",
    "kapur",
    "norm_entropy",
    "aczel_daroczy",
    "lne",
    "lne_min_entropy_limit",
    "gm_subadditivity_rhs",
]


class EntropyValue(float):
    """A float tagged with the family and order parameters that produced it."""

    __slots__ = ("family", "params")

    def __new__(cls, value, family, params=()):
        obj = super().__new__(cls, value + 0.0)  # normalizes -0.0
        obj.family = family
        obj.params = tuple(float(p) for p in params)
        return obj

    def __repr__(self):
        return f"EntropyValue({float(self)!r}, family={self.family!r}, params={self.params!r})"


def _as_params(params) -> EntropyParams:
    if isinstance(params, EntropyParams):
        return params
    alpha, beta = params
    return EntropyParams(alpha, beta)


def _shannon(w, lo) -> float:
    """`shannon` of a validated w whose smallest entry is lo."""
    mass = w.sum()
    u = w / mass
    # division by mass is monotone: u has a zero exactly when lo / mass is 0
    if not lo / mass > 0:
        u = u[u > 0]
    t = np.log(u)
    t *= u
    return float(-t.sum()) - math.log(mass)


def shannon(w) -> EntropyValue:
    """Shannon entropy, -(1/W) sum_i w_i log w_i with W the total mass.

    Coincides with -sum p log p on probability vectors.  Note this is
    not the entropy of the mass-normalized vector: on sub-probabilities
    it differs from it by -log W and is not scale invariant.
    """
    w, lo, _ = as_weights(w, return_range=True)
    return EntropyValue(_shannon(w, lo), "shannon")


def renyi(w, alpha) -> EntropyValue:
    """Renyi entropy of order alpha, (1/(1-alpha)) log[sum w^alpha / sum w].

    Orders within EPS_ORDER of 1 route to the Shannon limit.
    """
    alpha = _check_order(alpha, "alpha")
    w, lo, hi = as_weights(w, return_range=True)
    if abs(alpha - 1.0) <= EPS_ORDER:
        return EntropyValue(_shannon(w, lo), "renyi", (alpha,))
    mass = w.sum()
    # division by mass is monotone, so lo / mass and hi / mass are the
    # extremes of w / mass
    lsum = _log_support(w / mass, lo / mass, hi / mass, own=True).psi(alpha, in_place=True)
    return EntropyValue(lsum / (1.0 - alpha) - math.log(mass), "renyi", (alpha,))


def tsallis(w, q) -> EntropyValue:
    """Tsallis entropy (1 - sum p^q)/(q - 1) of a probability vector.

    Defined here only on probability vectors; q within EPS_ORDER of 1
    routes to the Shannon limit.  Equals -sum p^q log_q(p).
    """
    q = float(q)
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    w, lo, hi = as_weights(w, return_range=True)
    if abs(w.sum() - 1.0) > TOL_MASS:
        raise ValueError(f"tsallis entropy requires a probability vector, mass={w.sum()}")
    if abs(q - 1.0) <= EPS_ORDER:
        return EntropyValue(_shannon(w, lo), "tsallis", (q,))
    sup = _log_support(w, lo, hi)
    a = np.multiply(sup.logw, q, out=sup.logw)
    # q * log(min w) is the smallest exponent only for q > 0
    s = float(_exp_inplace(a, q * sup.lo if q > 0 else None).sum())
    return EntropyValue((1.0 - s) / (q - 1.0), "tsallis", (q,))


def kapur(w, alpha, beta) -> EntropyValue:
    """Kapur entropy of order alpha and type beta,
    (1/(alpha-beta)) log[sum w^beta / sum w^alpha].

    Undefined on the diagonal; pairs within EPS_ORDER of alpha == beta
    are rejected (the limit is the Aczel-Daroczy entropy).
    """
    alpha, beta = _check_order(alpha, "alpha"), _check_order(beta, "beta")
    if abs(alpha - beta) <= EPS_ORDER:
        raise ValueError("kapur entropy needs alpha != beta; use aczel_daroczy for the limit")
    sup = _log_support(*as_weights(w, return_range=True))
    val = (sup.psi(beta) - sup.psi(alpha)) / (alpha - beta)
    return EntropyValue(val, "kapur", (alpha, beta))


def norm_entropy(w, alpha, beta) -> EntropyValue:
    """The (alpha, beta)-norm entropy,
    alpha*beta/(alpha-beta) * [||w||_beta - ||w||_alpha].

    Symmetric in (alpha, beta); rejects the diagonal like `kapur`.
    """
    alpha, beta = _check_order(alpha, "alpha"), _check_order(beta, "beta")
    if abs(alpha - beta) <= EPS_ORDER:
        raise ValueError("norm entropy needs alpha != beta; its scaled limit is aczel_daroczy")
    sup = _log_support(*as_weights(w, return_range=True))
    val = (
        alpha
        * beta
        / (alpha - beta)
        * (math.exp(sup.log_norm(beta)) - math.exp(sup.log_norm(alpha)))
    )
    return EntropyValue(val, "norm", (alpha, beta))


def _escort_moment(sup, beta):
    """(AD_beta, psi(beta)) from one power sum: the beta-escort mean of
    -log w and psi(beta) = log sum w^beta."""
    e, psi = sup.escort(beta)
    return -float(e @ sup.logw), psi


def aczel_daroczy(w, beta) -> EntropyValue:
    """Aczel-Daroczy entropy, -sum w^beta log w / sum w^beta.

    The common alpha -> beta limit of the Kapur and (scaled) norm
    entropies; beta = 1 gives Shannon on probability vectors.
    """
    beta = _check_order(beta, "beta")
    ad, _ = _escort_moment(_log_support(*as_weights(w, return_range=True)), beta)
    return EntropyValue(ad, "aczel_daroczy", (beta,))


def _lne_off_diagonal(p, norm_beta, norm_alpha) -> float:
    """lne for alpha != beta from log||w||_beta and log||w||_alpha."""
    return p.alpha * p.beta / (p.alpha - p.beta) * (norm_beta - norm_alpha)


def _lne(sup, p) -> float:
    if p.equal_orders:
        ad, psi = _escort_moment(sup, p.beta)
        return p.beta * (ad + psi / p.beta)
    return _lne_off_diagonal(p, sup.log_norm(p.beta), sup.log_norm(p.alpha))


def lne(w, params) -> EntropyValue:
    """Logarithmic norm entropy with orders (alpha, beta).

    ``params`` is an EntropyParams or an (alpha, beta) pair.  Pairs on
    the diagonal (within EPS_ORDER) use the limiting form
    beta * [AD_beta + log||w||_beta].
    """
    p = _as_params(params)
    val = _lne(_log_support(*as_weights(w, return_range=True)), p)
    return EntropyValue(val, "lne", (p.alpha, p.beta))


def lne_min_entropy_limit(w, beta) -> EntropyValue:
    """The alpha -> infinity limit of the logarithmic norm entropy,
    beta * [-log(max w) + log||w||_beta]: a scale-invariant min-entropy."""
    beta = _check_order(beta, "beta")
    w, lo, hi = as_weights(w, return_range=True)
    val = beta * (_log_support(w, lo, hi).log_norm(beta, in_place=True) - math.log(hi))
    return EntropyValue(val, "min_entropy_scaled", (beta,))


def gm_subadditivity_rhs(p, q, params) -> float:
    """Generalized-mean bound for the entropy of a concatenated system.

    For sub-probability vectors with combined mass <= 1 this returns

        g^{-1}[ (||p||_b^a g(E(p)) + ||q||_b^a g(E(q)))
                / (||p||_b^a + ||q||_b^a) ],

    with link g(x) = 2^{(1-a/b) x / log 2} = exp((1-a/b) x), evaluated in
    log space.  Compare against lne(concatenate(p, q)); the comparison
    direction is established empirically in the test suite.  The a == b
    case degenerates to equality through a linear link and is rejected.
    """
    prm = _as_params(params)
    if prm.equal_orders:
        raise ValueError("generalized-mean bound needs alpha != beta")
    p, *range_p = as_weights(p, "p", return_range=True)
    q, *range_q = as_weights(q, "q", return_range=True)
    if p.sum() + q.sum() > 1.0 + TOL_MASS:
        raise ValueError(f"combined mass {p.sum() + q.sum()} exceeds 1")
    sp, sq = _log_support(p, *range_p), _log_support(q, *range_q)
    lr = 1.0 - prm.alpha / prm.beta
    nb_p = sp.log_norm(prm.beta)
    nb_q = sq.log_norm(prm.beta)
    lw_p = prm.alpha * nb_p
    lw_q = prm.alpha * nb_q
    ep = _lne_off_diagonal(prm, nb_p, sp.log_norm(prm.alpha))
    eq = _lne_off_diagonal(prm, nb_q, sq.log_norm(prm.alpha))
    num = lse([lw_p + lr * ep, lw_q + lr * eq])
    den = lse([lw_p, lw_q])
    return (num - den) / lr
