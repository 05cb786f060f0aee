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
    _escort_support,
    _exp_inplace,
    _log_norm,
    _log_support,
    _psi,
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


def _shannon(w) -> float:
    mass = w.sum()
    u = w / mass
    pos = u[u > 0]
    return float(-(pos * np.log(pos)).sum()) - math.log(mass)


def shannon(w) -> EntropyValue:
    """Shannon entropy, -(1/W) sum_i w_i log w_i with W the total mass.

    Coincides with -sum p log p on probability vectors.  Note this is
    not the entropy of the mass-normalized vector: on sub-probabilities
    it differs from it by -log W and is not scale invariant.
    """
    return EntropyValue(_shannon(as_weights(w)), "shannon")


def renyi(w, alpha) -> EntropyValue:
    """Renyi entropy of order alpha, (1/(1-alpha)) log[sum w^alpha / sum w].

    Orders within EPS_ORDER of 1 route to the Shannon limit.
    """
    alpha = _check_order(alpha, "alpha")
    w = as_weights(w)
    if abs(alpha - 1.0) <= EPS_ORDER:
        return EntropyValue(_shannon(w), "renyi", (alpha,))
    mass = w.sum()
    lsum = _psi(_log_support(w / mass), alpha)
    return EntropyValue(lsum / (1.0 - alpha) - math.log(mass), "renyi", (alpha,))


def tsallis(w, q) -> EntropyValue:
    """Tsallis entropy (1 - sum p^q)/(q - 1) of a probability vector.

    Defined here only on probability vectors; q within EPS_ORDER of 1
    routes to the Shannon limit.  Equals -sum p^q log_q(p).
    """
    q = float(q)
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    w = as_weights(w)
    if abs(w.sum() - 1.0) > TOL_MASS:
        raise ValueError(f"tsallis entropy requires a probability vector, mass={w.sum()}")
    if abs(q - 1.0) <= EPS_ORDER:
        return EntropyValue(_shannon(w), "tsallis", (q,))
    s = float(_exp_inplace(q * _log_support(w)).sum())
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
    logw = _log_support(as_weights(w))
    val = (_psi(logw, beta) - _psi(logw, alpha)) / (alpha - beta)
    return EntropyValue(val, "kapur", (alpha, beta))


def norm_entropy(w, alpha, beta) -> EntropyValue:
    """The (alpha, beta)-norm entropy,
    alpha*beta/(alpha-beta) * [||w||_beta - ||w||_alpha].

    Symmetric in (alpha, beta); rejects the diagonal like `kapur`.
    """
    alpha, beta = _check_order(alpha, "alpha"), _check_order(beta, "beta")
    if abs(alpha - beta) <= EPS_ORDER:
        raise ValueError("norm entropy needs alpha != beta; its scaled limit is aczel_daroczy")
    logw = _log_support(as_weights(w))
    val = (
        alpha
        * beta
        / (alpha - beta)
        * (math.exp(_log_norm(logw, beta)) - math.exp(_log_norm(logw, alpha)))
    )
    return EntropyValue(val, "norm", (alpha, beta))


def _escort_moment(logw, beta):
    """(AD_beta, psi(beta)) from one power sum: the beta-escort mean of
    -log w and psi(beta) = log sum w^beta."""
    e, psi = _escort_support(logw, beta)
    return -float(e @ logw), psi


def aczel_daroczy(w, beta) -> EntropyValue:
    """Aczel-Daroczy entropy, -sum w^beta log w / sum w^beta.

    The common alpha -> beta limit of the Kapur and (scaled) norm
    entropies; beta = 1 gives Shannon on probability vectors.
    """
    beta = _check_order(beta, "beta")
    ad, _ = _escort_moment(_log_support(as_weights(w)), beta)
    return EntropyValue(ad, "aczel_daroczy", (beta,))


def _lne_off_diagonal(p, norm_beta, norm_alpha) -> float:
    """lne for alpha != beta from log||w||_beta and log||w||_alpha."""
    return p.alpha * p.beta / (p.alpha - p.beta) * (norm_beta - norm_alpha)


def _lne(logw, p) -> float:
    if p.equal_orders:
        ad, psi = _escort_moment(logw, p.beta)
        return p.beta * (ad + psi / p.beta)
    return _lne_off_diagonal(p, _log_norm(logw, p.beta), _log_norm(logw, p.alpha))


def lne(w, params) -> EntropyValue:
    """Logarithmic norm entropy with orders (alpha, beta).

    ``params`` is an EntropyParams or an (alpha, beta) pair.  Pairs on
    the diagonal (within EPS_ORDER) use the limiting form
    beta * [AD_beta + log||w||_beta].
    """
    p = _as_params(params)
    val = _lne(_log_support(as_weights(w)), p)
    return EntropyValue(val, "lne", (p.alpha, p.beta))


def lne_min_entropy_limit(w, beta) -> EntropyValue:
    """The alpha -> infinity limit of the logarithmic norm entropy,
    beta * [-log(max w) + log||w||_beta]: a scale-invariant min-entropy."""
    beta = _check_order(beta, "beta")
    w = as_weights(w)
    val = beta * (_log_norm(_log_support(w), beta) - math.log(w.max()))
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
    p = as_weights(p, "p")
    q = as_weights(q, "q")
    if p.sum() + q.sum() > 1.0 + TOL_MASS:
        raise ValueError(f"combined mass {p.sum() + q.sum()} exceeds 1")
    logp, logq = _log_support(p), _log_support(q)
    lr = 1.0 - prm.alpha / prm.beta
    nb_p = _log_norm(logp, prm.beta)
    nb_q = _log_norm(logq, prm.beta)
    lw_p = prm.alpha * nb_p
    lw_q = prm.alpha * nb_q
    ep = _lne_off_diagonal(prm, nb_p, _log_norm(logp, prm.alpha))
    eq = _lne_off_diagonal(prm, nb_q, _log_norm(logq, prm.alpha))
    num = lse([lw_p + lr * ep, lw_q + lr * eq])
    den = lse([lw_p, lw_q])
    return (num - den) / lr
