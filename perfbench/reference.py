"""Independent references and output checks.

Nothing here calls ``lne``.  Small inputs (n <= 64) are evaluated with
mpmath at 50 significant digits; n = 1e6 vectors with np.longdouble
(64-bit mantissa on x86-64) and compensated block sums.  References are
returned as np.longdouble so errors of float64 outputs are measured far
below float64 rounding.

Errors are relative: |out - ref| / max(|ref|, FLOOR), taken elementwise
and maximised for vector outputs.  FLOOR only matters for entries that
underflow float64 (escort weights of 1e-300 at large orders).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp, mpf

DPS = 50
FLOOR = 1e-300
# A returned value whose relative error exceeds this fails.  Accurate
# log-sum-exp keeps n <= 64 power sums near 1e-15, so 1e-10 leaves wide
# room for rounding while the ~4e-9 near-diagonal error of `lne` and the
# 1e-6 perturbation the self-test plants both fail.
TOL_EVAL = 1e-10
# Scaled escort-constraint residual and |sum p - 1| of a solve.
TOL_SOLVE = 1e-8

LD = np.longdouble


def _ld(x) -> np.longdouble:
    """mpf -> longdouble, flushing values below the longdouble range."""
    if x == 0 or abs(x) < mpf("1e-4900"):
        return LD(0)
    return LD(mpmath.nstr(x, 25, min_fixed=1, max_fixed=0))


# ---------------------------------------------------------------------------
# mpmath references (n <= 64)


def _support(w):
    return [mpf(float(x)) for x in np.asarray(w, dtype=float).ravel() if x > 0]


def _psi(v, g):
    """log sum v_i^g."""
    return mp.log(mp.fsum(mp.power(x, g) for x in v))


def _escort(v, b):
    t = [mp.power(x, b) for x in v]
    s = mp.fsum(t)
    return [x / s for x in t]


def _shannon(v):
    W = mp.fsum(v)
    return -mp.fsum((x / W) * mp.log(x / W) for x in v) - mp.log(W)


def _aczel_daroczy(v, b):
    return -mp.fsum(e * mp.log(x) for e, x in zip(_escort(v, b), v))


def _lne(v, a, b):
    if a == b:
        return b * _aczel_daroczy(v, b) + _psi(v, b)
    return a * b / (a - b) * (_psi(v, b) / b - _psi(v, a) / a)


def _lnce(p, q, a, b):
    pairs = [(mpf(float(x)), mpf(float(y))) for x, y in zip(p, q) if x > 0]
    pv = [x for x, _ in pairs]
    e = _escort(pv, b)
    if a == b:
        return b * mp.fsum(ei * mp.log(x / y) for ei, (x, y) in zip(e, pairs)) - _psi(pv, b)
    d = a - b
    s = mp.fsum(ei * mp.power(x / y, d) for ei, (x, y) in zip(e, pairs) if y > 0)
    return (b / d) * mp.log(s) - _psi(pv, b)


def _q_log(x, q):
    c = 1 - q
    return mp.log(x) if c == 0 else mp.expm1(c * mp.log(x)) / c


def _q_exp(x, q):
    c = 1 - q
    if c == 0:
        return mp.exp(x)
    bracket = 1 + c * x
    return mpf(0) if bracket <= 0 else mp.exp(mp.log(bracket) / c)


def mp_value(fn, args):
    """50-digit value of the public call ``fn(*args)`` as longdouble
    (a scalar, or an array for escort / q_log / q_exp)."""
    with mp.workdps(DPS):
        return _mp_value(fn, [mpf(float(a)) if isinstance(a, float) else a for a in args])


def _mp_value(fn, args):
    w = args[0]
    if fn == "escort":
        vals = iter(_escort(_support(w), args[1]))
        return np.array([_ld(next(vals)) if x > 0 else LD(0) for x in w], dtype=LD)
    if fn in ("q_log", "q_exp"):
        f = _q_log if fn == "q_log" else _q_exp
        return np.array([_ld(f(mpf(float(x)), args[1])) for x in w], dtype=LD)
    v = _support(w)
    if fn == "shannon":
        val = _shannon(v)
    elif fn == "renyi":
        a = args[1]
        W = mp.fsum(v)
        val = _shannon(v) if a == 1 else _psi([x / W for x in v], a) / (1 - a) - mp.log(W)
    elif fn == "tsallis":
        q = args[1]
        val = _shannon(v) if q == 1 else (1 - mp.fsum(mp.power(x, q) for x in v)) / (q - 1)
    elif fn == "kapur":
        a, b = args[1], args[2]
        val = (_psi(v, b) - _psi(v, a)) / (a - b)
    elif fn == "norm_entropy":
        a, b = args[1], args[2]
        val = a * b / (a - b) * (mp.exp(_psi(v, b) / b) - mp.exp(_psi(v, a) / a))
    elif fn == "aczel_daroczy":
        val = _aczel_daroczy(v, args[1])
    elif fn == "lne":
        a, b = (mpf(float(x)) for x in args[1])
        val = _lne(v, a, b)
    elif fn == "lne_min_entropy_limit":
        b = args[1]
        val = _psi(v, b) - b * mp.log(max(v))
    elif fn == "lnce":
        a, b = (mpf(float(x)) for x in args[2])
        val = _lnce(args[0], args[1], a, b)
    elif fn == "log_norm":
        val = _psi(v, args[1]) / args[1]
    else:
        raise KeyError(fn)
    return _ld(val)


# ---------------------------------------------------------------------------
# longdouble references (n = 1e6)


def ksum(x) -> np.longdouble:
    """Compensated sum: pairwise longdouble sums over blocks, then a
    Neumaier sum of the block sums."""
    x = np.asarray(x, dtype=LD)
    blocks = np.add.reduceat(x, np.arange(0, x.size, 4096)) if x.size else np.zeros(1, LD)
    s = LD(0)
    c = LD(0)
    for b in blocks:
        t = s + b
        c += (s - t) + b if abs(s) >= abs(b) else (b - t) + s
        s = t
    return s + c


def _ld_lse(t):
    m = t.max()
    return m + np.log(ksum(np.exp(t - m)))


def ld_value(fn, args):
    """Longdouble value of the public call ``fn(*args)`` on large vectors."""
    if fn == "lnce":
        p, q = args[0], args[1]
        a, b = (LD(float(x)) for x in args[2])
        pos = p > 0
        lp = np.log(p[pos].astype(LD))
        lq = np.log(q[pos].astype(LD))
        psi_b = _ld_lse(b * lp)
        le = b * lp - psi_b  # log escort
        if a == b:
            return b * ksum(np.exp(le) * (lp - lq)) - psi_b
        d = a - b
        return (b / d) * _ld_lse(le + d * (lp - lq)) - psi_b
    w = np.asarray(args[0])
    pos = w > 0
    lw = np.log(w[pos].astype(LD))
    if fn == "escort":
        b = LD(float(args[1]))
        out = np.zeros(w.size, dtype=LD)
        out[pos] = np.exp(b * lw - _ld_lse(b * lw))
        return out
    if fn == "log_norm":
        g = LD(float(args[1]))
        return _ld_lse(g * lw) / g
    if fn == "renyi":
        a = LD(float(args[1]))
        lmass = np.log(ksum(w[pos].astype(LD)))
        return _ld_lse(a * (lw - lmass)) / (1 - a) - lmass
    if fn == "lne":
        a, b = (LD(float(x)) for x in args[1])
        psi_b = _ld_lse(b * lw)
        if a == b:
            e = np.exp(b * lw - psi_b)
            return -b * ksum(e * lw) + psi_b
        return a * b / (a - b) * (psi_b / b - _ld_lse(a * lw) / a)
    raise KeyError(fn)


def reference(fn, args):
    """Reference for one eval call: mpmath for n <= 64, longdouble above."""
    if np.asarray(args[0]).size <= 64:
        return mp_value(fn, args)
    return ld_value(fn, args)


def rel_err(out, ref) -> float:
    """Largest relative error of ``out`` against ``ref`` (inf on a shape
    mismatch or a non-finite output)."""
    o = np.asarray(out, dtype=float)
    r = np.asarray(ref, dtype=LD)
    if o.shape != r.shape or not np.all(np.isfinite(o)):
        return math.inf
    if o.size == 0:
        return 0.0
    err = np.abs(o.astype(LD) - r) / np.maximum(np.abs(r), LD(FLOOR))
    return float(err.max())


# ---------------------------------------------------------------------------
# Solves


def solve_error(args, p) -> float:
    """Scaled escort-constraint residual and normalisation error of a
    solve's distribution ``p``, recomputed in longdouble; inf when ``p``
    has the wrong shape, a negative or a non-finite entry."""
    first, g, G, alpha, beta = args
    n = first if isinstance(first, int) else len(first)
    p = np.asarray(p, dtype=float)
    if p.shape != (n,) or not np.all(np.isfinite(p)) or np.any(p < 0) or not np.any(p > 0):
        return math.inf
    pl = p.astype(LD)
    norm_err = abs(ksum(pl) - 1)
    pos = p > 0
    lw = LD(beta) * np.log(pl[pos])
    e = np.exp(lw - _ld_lse(lw))
    means = (g[:, pos].astype(LD) * e).sum(axis=1)
    resid = np.abs(means - G) / (g.max(axis=1) - g.min(axis=1))
    return float(max(norm_err, resid.max()))


# ---------------------------------------------------------------------------
# CLI output


def _digit_ok(printed, ref, digits, scale) -> bool:
    """``printed`` agrees with ``ref`` to one unit in its ``digits``-th
    significant digit, counted from max(|ref|, scale)."""
    r = float(ref)
    m = max(abs(r), scale)
    if m == 0.0:
        return printed == 0.0
    unit = 10.0 ** (math.floor(math.log10(m)) - (digits - 1))
    return abs(printed - r) <= unit


def _compare(printed, refs, digits=12, scale=1.0):
    """(all within ``digits`` digits, max relative error) over paired values.

    Entropy values are held to 12 digits of max(|value|, 1 nat): values
    near zero lose relative accuracy to cancellation (measured by
    eval-small), which is not what the CLI workload tests."""
    if len(printed) != len(refs):
        return False, math.inf
    ok = all(_digit_ok(v, r, digits, scale) for v, r in zip(printed, refs))
    return ok, max((rel_err(v, r) for v, r in zip(printed, refs)), default=0.0)


def _lines(stdout):
    return [ln for ln in stdout.splitlines() if ln.strip()]


def _entropy_ref(expect):
    fn, w, a, b = expect["fn"], expect["w"], expect["alpha"], expect["beta"]
    args = {
        "shannon": (w,),
        "renyi": (w, a),
        "tsallis": (w, a),
        "kapur": (w, a, b),
        "norm_entropy": (w, a, b),
        "aczel_daroczy": (w, b),
        "lne_min_entropy_limit": (w, b),
        "lne": (w, (a, b)),
    }[fn]
    return mp_value(fn, args)


def _binomial_pmf(n, p):
    with mp.workdps(DPS):
        pm = mpf(p)
        return [mp.binomial(n, k) * pm**k * (1 - pm) ** (n - k) for k in range(n + 1)]


def _lne_mp_weights(v, a, b):
    with mp.workdps(DPS):
        return _ld(_lne([x for x in v if x > 0], mpf(a), mpf(b)))


def cli_check(argv, expect, returncode, stdout):
    """Check one CLI run; returns (ok, max relative error, reason)."""
    if returncode != 0:
        return False, math.inf, f"exit code {returncode}"
    cmd = argv[0]
    lines = _lines(stdout)
    try:
        if cmd == "entropy":
            fields = dict(ln.split(" ", 1) for ln in lines)
            ok, err = _compare([float(fields["value"])], [_entropy_ref(expect)])
        elif cmd in ("maxent", "minxent"):
            fields = dict(ln.split(" ", 1) for ln in lines if " " in ln)
            if fields.get("converged") != "true":
                return False, math.inf, "solver did not report convergence"
            # The solver stops at a residual of 1e-13 (set in the problem
            # file); on the worst-conditioned problems that leaves p right
            # to ~1e-11, so p is held to 11 of its 12 printed digits.
            ok, err = _compare([float(x) for x in fields["p"].split()], list(expect["p"]), digits=11, scale=0.0)
        elif cmd == "curve":
            rows = [ln.split(",") for ln in lines[1:]]
            k, betas = expect["k"], expect["betas"]
            refs = []
            for i in range(k + 1):
                p = i / k
                for b in betas:
                    refs.append(_lne_mp_weights([mpf(p), mpf(1.0 - p)], expect["alpha"], b))
            ok, err = _compare([float(r[2]) for r in rows], refs)
        elif cmd == "surface":
            rows = [ln.split(",") for ln in lines[1:]]
            pmf = _binomial_pmf(expect["n"], expect["p"])
            refs = [_lne_mp_weights(pmf, a, b) for a in expect["alphas"] for b in expect["betas"]]
            ok, err = _compare([float(r[2]) for r in rows], refs)
        elif cmd == "check":
            ok = bool(lines) and all(ln.startswith("ok ") for ln in lines)
            err = 0.0
        else:
            raise KeyError(cmd)
    except (KeyError, ValueError, IndexError) as e:
        return False, math.inf, f"unparseable output: {e!r}"
    return ok, err, "" if ok else "printed value differs from the reference"
