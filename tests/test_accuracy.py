"""Every entropy and cross-entropy family against an mpmath reference.

Order pairs are drawn over [0.05, 200]^2: independent pairs, pairs with
|alpha/beta - 1| in [1e-14, 1e-6], exact diagonals and pairs with
alpha/beta or beta/alpha of 5 and more.  Weights have fewer than 8
entries, scaled by 10^[-6, 6]: uniform ones, log-uniform ones down to
1e-300, zeros, tied maxima and entries of 1e-300.  The reference
(`mp_reference`) works at 110 digits in the shifted log1p form, and
errors are relative, with values below 1e-300 held to absolute error.
`gm_subadditivity_rhs` is checked on pairs of sub-probability vectors,
near the diagonal and far from it on both sides of its overflow switch.
"""

import math

import numpy as np
import pytest

import mp_reference as R
from lne import (
    SupportError,
    aczel_daroczy,
    gm_subadditivity_rhs,
    kapur,
    lnce,
    lne,
    lne_min_entropy_limit,
    log_norm,
    norm_entropy,
    renyi,
    shannon,
    tsallis,
)

TOL = 1e-13
# the families that subtract or scale a log-norm difference
TOL_WIDE = 5e-13


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _weights(rng):
    n = int(rng.integers(1, 8))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        w = rng.uniform(0.05, 1.0, n)
    elif kind == 1:
        w = 10.0 ** rng.uniform(-300.0, 0.0, n)
    elif kind == 2:  # zeros
        w = rng.uniform(0.0, 1.0, n)
        w[rng.random(n) < 0.3] = 0.0
        w[rng.integers(n)] = 1.0
    elif kind == 3:  # tied maxima
        w = rng.uniform(0.05, 1.0, n)
        w[rng.random(n) < 0.5] = w.max()
    else:  # entries of 1e-300
        w = rng.uniform(0.05, 1.0, n)
        w[rng.random(n) < 0.4] = 1e-300
        w[rng.integers(n)] = 1.0
    return w * 10.0 ** rng.uniform(-6.0, 6.0)


def _orders(rng):
    r = rng.random()
    if r < 0.3:  # near the diagonal
        b = _log_uniform(rng, 0.05, 200.0)
        return b * (1.0 + rng.choice([-1.0, 1.0]) * _log_uniform(rng, 1e-14, 1e-6)), b
    if r < 0.45:
        b = _log_uniform(rng, 0.05, 200.0)
        return b, b
    if r < 0.65:  # far apart
        ratio = _log_uniform(rng, 5.0, 1000.0)
        lo = _log_uniform(rng, 0.05, 200.0 / ratio)
        return (lo * ratio, lo) if rng.random() < 0.5 else (lo, lo * ratio)
    return _log_uniform(rng, 0.05, 200.0), _log_uniform(rng, 0.05, 200.0)


def _check(got, ref, tol, *where):
    err = R.rel_err(got, ref)
    assert err <= tol, (err, float(got), *where)


@pytest.mark.parametrize("seed", range(4))
def test_families_match_mpmath(seed):
    rng = np.random.default_rng([31, seed])
    for case in range(40):
        w = _weights(rng)
        a, b = _orders(rng)
        where = (seed, case, w.tolist(), a, b)
        p = w / w.sum()
        q = rng.uniform(0.05, 1.0, w.size)
        if a < b and rng.random() < 0.3:
            q[rng.random(w.size) < 0.3] = 0.0
            q[-1] = max(q[-1], 0.05)
        q *= p.sum() / q.sum()

        _check(lne(w, (a, b)), R.lne(w, a, b), TOL_WIDE, "lne", *where)
        _check(lne_min_entropy_limit(w, b), R.lne_min_entropy_limit(w, b), TOL_WIDE, *where)
        _check(renyi(w, a), R.renyi(w, a), TOL, "renyi", *where)
        _check(aczel_daroczy(w, b), R.aczel_daroczy(w, b), TOL, "aczel_daroczy", *where)
        _check(log_norm(w, b), R.log_norm(w, b), TOL, "log_norm", *where)
        _check(shannon(w), R.shannon(w), TOL, "shannon", *where)
        _check(tsallis(p, a), R.tsallis(p, a), TOL, "tsallis", *where)
        if a != b:
            _check(kapur(w, a, b), R.kapur(w, a, b), TOL, "kapur", *where)
            _check(norm_entropy(w, a, b), R.norm_entropy(w, a, b), TOL_WIDE, "norm", *where)
        try:
            got = float(lnce(p, q, (a, b)))
        except SupportError:
            assert a >= b and not q[p > 0].all()
            continue
        ref = R.lnce(p, q, a, b)
        # a rounding in each input moves lnce by about 2**-52 times the
        # size of the terms it adds up, which can exceed its value
        bound = TOL_WIDE * abs(float(ref)) + 2.0**-50 * float(R.lnce_scale(p, q, a, b))
        assert abs(got - float(ref)) <= bound, (got, float(ref), "lnce", *where)


@pytest.mark.parametrize("n", [100, 10_000, 100_000])
def test_flat_bulk_under_one_maximum(n):
    # at the smaller order the bulk carries nearly all of the escort and
    # at the larger one nearly none: R = exp(h D) falls to about 1 / n,
    # below what a sum of expm1 terms near -1 can resolve
    w = np.full(n, 0.5)
    w[0] = 1.0
    for a, b in ((50.05, 0.05), (20.0, 0.1), (1.2, 0.05)):
        _check(kapur(w, a, b), R.kapur(w, a, b), TOL, "kapur", n, a, b)
        _check(renyi(w, a), R.renyi(w, a), TOL, "renyi", n, a)
        _check(lne(w, (a, b)), R.lne(w, a, b), TOL_WIDE, "lne", n, a, b)


@pytest.mark.parametrize("zeros", [0, 2])
def test_slope_when_jensen_bound_is_loose(zeros):
    # a few percent of the escort far out drags exp(h e . x) below 1/2
    # while R = exp(h D) stays near 1: the plain difference of the two L
    # is tried, found too close, and D is taken from expm1 after all
    w = np.array([0.3] * 9 + [0.3 * math.exp(-100.0)] + [0.0] * zeros)
    for a, b in ((1.01, 0.01), (3.0, 0.02)):
        _check(kapur(w, a, b), R.kapur(w, a, b), TOL, "kapur", a, b)
        _check(lne(w, (a, b)), R.lne(w, a, b), TOL_WIDE, "lne", a, b)


@pytest.mark.parametrize("seed", range(4))
def test_log_norm_near_zero_to_ulps_of_m(seed):
    # a probability vector at an order near 1 has a norm near 1: log_norm
    # = m + L / gamma cancels, so it is held to a few ulps of m = log(max w)
    # in absolute terms, not to TOL relative to a value that may be ~1e-17
    rng = np.random.default_rng([47, seed])
    for case in range(10):
        n = int(rng.integers(2, 65))
        w = rng.uniform(0.0, 1.0, n)
        w /= w.sum()
        m = math.log(w.max())
        for g in (1.0, 1.0 + 1e-8, 1.0 - 1e-8, 1.0 + 4e-4, 1.0 - 4e-4):
            got = log_norm(w, g)
            ref = R.log_norm(w, g)
            err = abs(float(ref - got))
            assert err <= 4.0 * np.spacing(abs(m)), (err, got, float(ref), seed, case, n, g)


@pytest.mark.parametrize("b", [1e-310, 2.0**-961, 1e-200])
def test_near_diagonal_at_tiny_orders(b):
    # alpha - beta is subnormal or alpha * beta underflows: h x keeps few
    # digits, and r = alpha beta / (alpha - beta) must not round to 0
    w = np.array([0.45, 0.75, 0.25, 1e-300, 0.0])
    p, q = w[:3] / 4.0, np.array([0.2, 0.1, 0.0, 0.2])
    for a in (b * (1.0 + 1e-11), b * (1.0 - 1e-9)):
        _check(kapur(w, a, b), R.kapur(w, a, b), TOL, "kapur", a, b)
        assert norm_entropy([0.0, 0.5], a, b) == 0.0
        if b < 1e-300:  # the norms overflow, and the value with them
            assert norm_entropy(w, a, b) == math.inf
        _gm_case(p, q, a, b)


def _gm_case(p, q, a, b):
    """(bound, past): the error bound of `gm_subadditivity_rhs` at (p, q,
    a, b) and whether the pair lies past its overflow switch."""
    ref = R.gm_subadditivity_rhs(p, q, a, b)
    ents = float(R.lne(p, a, b)), float(R.lne(q, a, b))
    got = gm_subadditivity_rhs(p, q, (a, b))
    # rounding in the two entropies moves the value by 2**-50 times their size
    bound = TOL_WIDE * max(abs(float(ref)), float(R.FLOOR)) + 2.0**-50 * max(ents)
    assert abs(got - float(ref)) <= bound, (got, float(ref), p.tolist(), q.tolist(), a, b)
    return abs(1.0 - a / b) * abs(ents[0] - ents[1]) > math.log(np.finfo(float).max)


@pytest.mark.parametrize("seed", range(2))
def test_gm_subadditivity_rhs_matches_mpmath(seed):
    rng = np.random.default_rng([53, seed])
    past = []
    for case in range(30):
        w, v = _weights(rng), _weights(rng)
        if case % 5 == 0:  # a single-entry system, whose entropy is 0
            v = v[:1]
        mass = rng.uniform(0.01, 1.0)
        p = w / w.sum() * mass * rng.uniform(0.0, 1.0)
        q = v / v.sum() * (1.0 - mass)
        b = _log_uniform(rng, 0.05, 200.0)
        if case % 2:
            a = b * (1.0 + rng.choice([-1.0, 1.0]) * _log_uniform(rng, 1e-14, 1e-6))
        else:
            a = b * _log_uniform(rng, 5.0, 1e4)
        past.append(_gm_case(p, q, a, b))
    assert any(past) and not all(past)


def test_gm_subadditivity_rhs_edge_systems():
    # both systems single-entry (both entropies 0), zeros, a system with
    # a weight so small that its softmax share underflows, and orders
    # whose ratio alpha/beta overflows
    for p, q in (
        ([0.3], [0.6]),
        ([0.2, 0.0, 0.1], [0.0, 0.4]),
        ([1e-300, 1e-300], [0.5, 0.25, 0.0]),
        ([0.3, 0.2], [0.1, 0.4]),
    ):
        p, q = np.array(p), np.array(q)
        pairs = ((2.0, 2.0 * (1 + 1e-12)), (0.7 * (1 - 1e-9), 0.7), (3e3, 0.5), (0.5, 40.0))
        for a, b in pairs + ((0.05, 1e-310),):
            _gm_case(p, q, a, b)
