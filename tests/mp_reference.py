"""High-precision references for the entropy and cross-entropy families.

Nothing here calls ``lne``.  Every power sum is written in the shifted
log1p form at DPS digits: with m = max log w over the positive support
and x = log w - m,

    L(g) = log1p(sum over all entries but one maximum of exp(g x)),
    psi(g) = log sum w^g = g m + L(g),

so a value near 1e-40 keeps its relative accuracy, where a plain
log(fsum(w**g)) at 50 digits does not.  Divided differences of psi are
formed from sums whose terms have one sign, so they keep their digits
however close the orders are.

A vector is taken as (distinct value, count) pairs, so a long vector
with few distinct entries costs what a short one does.  Every function
returns an mpf, or a dict of them for `escort`; `rel_err` compares a
float64 result with one.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf

DPS = 110
FLOOR = mpf("1e-300")


class Support:
    """The positive support of a weight vector as x = log w - m with counts."""

    def __init__(self, w):
        w = np.asarray(w, dtype=float).ravel()
        vals, counts = np.unique(w[w > 0], return_counts=True)
        with mp.workdps(max(DPS, mp.dps)):
            logs = [mp.log(mpf(float(v))) for v in vals]
            self.m = logs[-1]
            self.x = [v - self.m for v in logs]
        self.c = [int(k) for k in counts]

    def _sum(self, g, f=None):
        """sum over all entries but one maximum of exp(g x) (times f(x))."""
        total = mpf(self.c[-1] - 1) * (f(mpf(0)) if f else 1)
        for x, k in zip(self.x[:-1], self.c[:-1]):
            t = mp.exp(g * x)
            total += k * (t * f(x) if f else t)
        return total

    def L(self, g):
        return mp.log1p(self._sum(mpf(g)))

    def mean_x(self, g):
        """The mean of x under the g-escort."""
        g = mpf(g)
        return self._sum(g, lambda x: x) / (1 + self._sum(g))

    def slope(self, a, b):
        """(psi(a) - psi(b)) / (a - b) - m, and its limit at a == b.

        L(a) - L(b) is taken as log1p of sum exp(b x) expm1((a - b) x)
        over 1 + sum exp(b x): the terms have one sign, so the difference
        keeps its digits even where L(a) and L(b) agree to more than DPS.
        """
        if a == b:
            return self.mean_x(b)
        a, b = mpf(a), mpf(b)
        diff = self._sum(b, lambda x: mp.expm1((a - b) * x))
        return mp.log1p(diff / (1 + self._sum(b))) / (a - b)


def _run(fn):
    def wrapped(*args):
        with mp.workdps(DPS):
            return fn(*args)

    wrapped.__name__ = fn.__name__
    return wrapped


@_run
def log_norm(w, g):
    s = Support(w)
    return s.m + s.L(g) / g


@_run
def escort(w, b):
    """{v: the b-escort weight of an entry v} over the positive entries of w."""
    s = Support(w)
    norm = 1 + s._sum(mpf(b))
    vals = np.unique(np.asarray(w, dtype=float))
    vals = vals[vals > 0]
    return {float(v): mp.exp(b * x) / norm for v, x in zip(vals, s.x)}


@_run
def shannon(w):
    s = Support(w)
    return -s.m - s.mean_x(1)


@_run
def renyi(w, a):
    s = Support(w)
    return -s.m - s.slope(a, 1.0)


@_run
def tsallis(w, q):
    s = Support(w)
    if q <= 0:
        total = sum(k * mp.exp(mpf(q) * (x + s.m)) for x, k in zip(s.x, s.c))
        return (1 - total) / (mpf(q) - 1)
    c = s.m + s.slope(q, 1.0)  # (psi(q) - psi(1)) / (q - 1)
    if q == 1:
        return -c
    return -mp.expm1((mpf(q) - 1) * c) / (mpf(q) - 1)


@_run
def kapur(w, a, b):
    s = Support(w)
    return -s.m - s.slope(a, b)


@_run
def aczel_daroczy(w, b):
    s = Support(w)
    return -s.m - s.mean_x(b)


def _lne(s, a, b):
    if a == b:
        return s.L(b) - b * s.mean_x(b)
    a, b = mpf(a), mpf(b)
    return (a * s.L(b) - b * s.L(a)) / (a - b)


@_run
def lne(w, a, b):
    return _lne(Support(w), a, b)


@_run
def lne_min_entropy_limit(w, b):
    return Support(w).L(b)


@_run
def norm_entropy(w, a, b):
    s = Support(w)
    r = mpf(a) * b / (mpf(a) - b)
    # ||w||_a * r * (||w||_b / ||w||_a - 1): the two norms can agree to
    # more digits than DPS holds
    return mp.exp(s.m + s.L(a) / a) * r * mp.expm1(_lne(s, a, b) / r)


def gm_subadditivity_rhs(p, q, a, b):
    # the weighted mean of exp(lr E) can differ from 1 by far less than
    # 10^-DPS, so this one works at a precision that covers float64's range
    with mp.workdps(DPS + 700):
        a, b = mpf(a), mpf(b)
        lr = 1 - a / b
        lw, lw_e = [], []
        for v in (p, q):
            s = Support(v)
            lw.append(a * (s.m + s.L(b) / b))
            lw_e.append(lw[-1] + lr * _lne(s, a, b))
        return (_log_sum([mp.exp(v) for v in lw_e]) - _log_sum([mp.exp(v) for v in lw])) / lr


def _log_sum(terms):
    """log of a sum of nonnegative terms, with the largest taken out and
    the rest added back through log1p: summed apart from it, they keep
    their digits however far below it they lie."""
    rest = sorted(terms)
    top = rest.pop()
    return mp.log(top) + mp.log1p(mp.fsum(rest) / top)


@_run
def lnce(p, q, a, b):
    """beta * S - psi(beta) over the support of p, where S is the slope of
    the cumulant generating function of y = log(p / q) under p's
    b-escort; states with q = 0 drop out (a < b only)."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    s = Support(p)
    a, b = mpf(a), mpf(b)
    d = a - b
    pairs, counts = np.unique(np.stack([p, q], axis=1)[p > 0], axis=0, return_counts=True)
    e, ey, edy = [], [], []
    for (pi, qi), k in zip(pairs, counts):
        ei = k * mp.exp(b * (mp.log(mpf(float(pi))) - s.m))
        e.append(ei)
        if qi > 0:
            y = mp.log(mpf(float(pi))) - s.m - mp.log(mpf(float(qi)))
            ey.append(ei * y)
            edy.append(ei * mp.exp(d * y))
    if d == 0:
        slope = mp.fsum(ey) / mp.fsum(e)
    else:
        slope = (_log_sum(edy) - s.L(b)) / d  # log sum(e) = L(b)
    # y is log(p / q) - m here: beta * m cancels against psi(beta)
    return b * slope - s.L(b)


@_run
def lnce_scale(p, q, a, b):
    """L(b) + b * e . |y| with y = log(p / q) - m under p's b-escort e:
    the size of the terms `lnce` adds up, so that a relative error of one
    rounding in each input moves its value by about 2**-52 times this."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    s = Support(p)
    keep = (p > 0) & (q > 0)
    e = [mp.exp(b * (mp.log(mpf(float(x))) - s.m)) for x in p[keep]]
    y = [mp.log(mpf(float(x))) - s.m - mp.log(mpf(float(z))) for x, z in zip(p[keep], q[keep])]
    return s.L(b) + b * mp.fsum(ei * abs(yi) for ei, yi in zip(e, y)) / mp.exp(s.L(b))


def rel_err(got, ref) -> float:
    """|got - ref| / max(|ref|, FLOOR): values below FLOOR, near or past
    the end of the normal float64 range, are held to absolute accuracy.
    Values that overflow float64 must overflow alike."""
    got = float(got)
    if abs(float(ref)) == np.inf or not np.isfinite(got):
        return 0.0 if got == float(ref) else np.inf
    with mp.workdps(DPS):
        return float(abs(mpf(got) - ref) / max(abs(ref), FLOOR))
