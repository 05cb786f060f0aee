"""Entropy functionals on finite weight vectors.

The classical one- and two-parameter families (Shannon, Renyi, Tsallis,
Kapur, norm entropy, Aczel-Daroczy) together with the two-parameter
logarithmic norm entropy

    E_{a,b}(P) = a*b/(a-b) * [log||P||_b - log||P||_a],   a != b,
    E_{b,b}(P) = b * [AD_b(P) + log||P||_b],

which is scale invariant (E(cP) = E(P) for c > 0), symmetric in (a, b),
ranges over [0, log n], and equals the Renyi entropy of order a/b of the
b-escort distribution.  All values are in nats.

Every member is an expression in the shifted log-support of `numkit`:
m = log(max w), L(b) and the escort-CGF slope D(b, h) over an order
pair, with b the smaller order and h the distance to the larger:

    E_{a,b}   = L(b) - b * D(b, h),       >= 0 term by term,
    ||w||_g   = exp(m + L(g) / g),        L(a) = L(b) + (a - b) D,
    Kapur     = -m - D,      Renyi_a = Kapur over the orders {a, 1},
    AD_b      = -m - D(b, 0),             Shannon = AD_1,

so the diagonal is the h = 0 case of the same expression, not a
separate formula, and no (a - b) denominator cancels near it.
"""

from __future__ import annotations

import math

import numpy as np

from .numkit import (
    TOL_MASS,
    _LOG_FLOAT_MAX,
    _as_params,
    _check_order,
    _LogSupport,
    as_weights,
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


def _kapur(sup, alpha, beta) -> float:
    """(psi(beta) - psi(alpha)) / (alpha - beta) = -m - D over the orders
    {alpha, beta}, and at alpha == beta its limit, the beta-escort mean of
    -log w.  Consumes the support."""
    return -sup.m - sup.slope(alpha, beta)[2]


def shannon(w) -> EntropyValue:
    """Shannon entropy, -(1/W) sum_i w_i log w_i with W the total mass.

    Coincides with -sum p log p on probability vectors.  Note this is
    not the entropy of the mass-normalized vector: on sub-probabilities
    it differs from it by -log W and is not scale invariant.
    """
    return EntropyValue(_kapur(_LogSupport(w), 1.0, 1.0), "shannon")


def renyi(w, alpha) -> EntropyValue:
    """Renyi entropy of order alpha, (1/(1-alpha)) log[sum w^alpha / sum w].

    Order 1 is the Shannon limit.
    """
    alpha = _check_order(alpha, "alpha")
    return EntropyValue(_kapur(_LogSupport(w), alpha, 1.0), "renyi", (alpha,))


def tsallis(w, q) -> EntropyValue:
    """Tsallis entropy (1 - sum p^q)/(q - 1) of a probability vector.

    Defined here only on probability vectors, and for q > 0 evaluated
    as -expm1(psi(q) - psi(1)) / (q - 1), which normalizes by sum p and
    is continuous through the Shannon limit at q = 1.  Equals
    -sum p^q log_q(p).
    """
    q = float(q)
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    # the shifted support needs a positive order; below it sum p^q as it is
    sup = _LogSupport(w) if q > 0 else None
    w = as_weights(w) if sup is None else sup.w
    if abs(w.sum() - 1.0) > TOL_MASS:
        raise ValueError(f"tsallis entropy requires a probability vector, mass={w.sum()}")
    if sup is None:
        a = np.log(w[w > 0])
        a *= q
        s = float(np.exp(a, out=a).sum())
        return EntropyValue((1.0 - s) / (q - 1.0), "tsallis", (q,))
    c = _kapur(sup, q, 1.0)  # (psi(1) - psi(q)) / (q - 1)
    val = c if q == 1.0 else -math.expm1((1.0 - q) * c) / (q - 1.0)
    return EntropyValue(val, "tsallis", (q,))


def kapur(w, alpha, beta) -> EntropyValue:
    """Kapur entropy of order alpha and type beta,
    (1/(alpha-beta)) log[sum w^beta / sum w^alpha].

    Undefined on the diagonal alpha == beta, which is rejected (the limit
    is the Aczel-Daroczy entropy); every other pair, however close, is
    evaluated to full accuracy.
    """
    alpha, beta = _check_order(alpha, "alpha"), _check_order(beta, "beta")
    if alpha == beta:
        raise ValueError("kapur entropy needs alpha != beta; use aczel_daroczy for the limit")
    return EntropyValue(_kapur(_LogSupport(w), alpha, beta), "kapur", (alpha, beta))


def norm_entropy(w, alpha, beta) -> EntropyValue:
    """The (alpha, beta)-norm entropy,
    alpha*beta/(alpha-beta) * [||w||_beta - ||w||_alpha].

    Symmetric in (alpha, beta); rejects the diagonal like `kapur`.
    Evaluated as ||w||_b * r * -expm1(-E_{a,b} / r) with b the smaller
    order and r = |ab/(a-b)|, since ||w||_a / ||w||_b = exp(-E_{a,b} / r)
    for a > b.
    """
    alpha, beta = _check_order(alpha, "alpha"), _check_order(beta, "beta")
    if alpha == beta:
        raise ValueError("norm entropy needs alpha != beta; its scaled limit is aczel_daroczy")
    sup = _LogSupport(w)
    b, lb, d = sup.slope(alpha, beta)
    # alpha * beta underflows to 0 at orders below about 1e-162
    r = abs(alpha * beta / (alpha - beta)) or abs(alpha / (alpha - beta) * beta)
    # the larger norm, at the smaller order b, times 1 - the ratio of the two
    log_norm_b, f = sup.m + lb / b, -math.expm1((b * d - lb) / r)
    val = math.exp(log_norm_b) * r * f if log_norm_b <= _LOG_FLOAT_MAX else math.inf
    if val == math.inf and r * f > 0:
        # the norm, or its product with r, overflows where the value need not
        log_val = sup.m + (lb / b + math.log(r * f))
        val = math.exp(log_val) if log_val <= _LOG_FLOAT_MAX else math.inf
    return EntropyValue(val, "norm", (alpha, beta))


def aczel_daroczy(w, beta) -> EntropyValue:
    """Aczel-Daroczy entropy, -sum w^beta log w / sum w^beta.

    The common alpha -> beta limit of the Kapur and (scaled) norm
    entropies; beta = 1 gives Shannon on probability vectors.
    """
    beta = _check_order(beta, "beta")
    return EntropyValue(_kapur(_LogSupport(w), beta, beta), "aczel_daroczy", (beta,))


def lne(w, params) -> EntropyValue:
    """Logarithmic norm entropy with orders (alpha, beta).

    ``params`` is an EntropyParams or an (alpha, beta) pair.  Evaluated as
    L(b) - b * D(b, h), which is beta * [AD_beta + log||w||_beta] on the
    diagonal.
    """
    p = _as_params(params)
    b, lb, d = _LogSupport(w).slope(p.alpha, p.beta)
    return EntropyValue(lb - b * d, "lne", (p.alpha, p.beta))


def lne_min_entropy_limit(w, beta) -> EntropyValue:
    """The alpha -> infinity limit of the logarithmic norm entropy,
    beta * [-log(max w) + log||w||_beta] = L(beta): a scale-invariant
    min-entropy."""
    beta = _check_order(beta, "beta")
    return EntropyValue(_LogSupport(w).log1p_sum(beta), "min_entropy_scaled", (beta,))


def gm_subadditivity_rhs(p, q, params) -> float:
    """Generalized-mean bound for the entropy of a concatenated system.

    For sub-probability vectors with combined mass <= 1 this returns

        g^{-1}[ (||p||_b^a g(E(p)) + ||q||_b^a g(E(q)))
                / (||p||_b^a + ||q||_b^a) ],

    with link g(x) = 2^{(1-a/b) x / log 2} = exp((1-a/b) x).  It is the
    remainder of the grouping identity lne(concatenate(p, q)) =
    lne([||p||_b, ||q||_b]) + this value, so the slack is the blocks'
    entropy, positive on both sides of the diagonal.  At a == b, where the
    link is constant and the case is rejected, the identity is Shannon's
    grouping rule H(u) + sum_k u_k E(block_k), u the b-escort block masses.

    With lr = 1 - a/b, e the softmax of a log||.||_b and E' = e . E, the
    value is E' + log1p(e . expm1(lr (E - E'))) / lr: the mean carries
    the first-order part of the sum, which would cancel near the diagonal.
    Where an lr (E_i - E') overflows exp, the sum is taken in log space,
    scaled by 1/lr, which keeps it finite where a/b overflows.
    """
    prm = _as_params(params)
    if prm.equal_orders:
        raise ValueError("generalized-mean bound needs alpha != beta")
    sups = _LogSupport(p, "p"), _LogSupport(q, "q")
    mass = sups[0].w.sum() + sups[1].w.sum()
    if mass > 1.0 + TOL_MASS:
        raise ValueError(f"combined mass {mass} exceeds 1")
    alpha, beta = prm.alpha, prm.beta
    # lr = 1 - a/b (exact numerator near the diagonal); c = 1 / lr and
    # r = c a/b stay finite where a/b overflows
    lr, c, r = (beta - alpha) / beta, beta / (beta - alpha), alpha / (beta - alpha)
    psi, ent = [], []
    for sup in sups:
        b, lb, d = sup.slope(alpha, beta)
        ent.append(lb - b * d)
        psi.append(beta * sup.m + (lb + (beta - b) * d))
    # the difference z of the log weights a/b psi(beta), and c z
    cz = r * (psi[1] - psi[0])
    z = cz / c
    small = int(z <= 0)  # the system with the smaller weight
    head = -math.log1p(math.exp(-abs(z)))  # log e of the larger one
    e = [math.exp(head)] * 2
    e[small] = math.exp(head - abs(z))
    mean = e[0] * ent[0] + e[1] * ent[1]
    x = [lr * (ent[0] - mean), lr * (ent[1] - mean)]
    if x[0] <= _LOG_FLOAT_MAX and x[1] <= _LOG_FLOAT_MAX:  # x is nan where lr overflows
        return mean + math.log1p(e[0] * math.expm1(x[0]) + e[1] * math.expm1(x[1])) / lr
    # c log sum exp(u), u = log e + lr E, from v = c u: c log e = c head - c |z|
    v = [c * head + ent[0], c * head + ent[1]]
    v[small] -= math.copysign(cz, c)
    k = int((v[1] > v[0]) == (c > 0))  # the dominant term, the larger u = v / c
    return v[k] + c * math.log1p(math.exp((v[1 - k] - v[k]) / c))
