"""Seeded input generators for the four workloads.

Each generator returns a pool of `Case`s built only from the seed; the
closed loop cycles through the pool.  A case names one public call of
the program (an ``lne`` function, or a CLI argv) and holds plain data:
numpy arrays, floats and tuples, so generation never imports ``lne``.

Inputs stay inside each function's domain:

* tsallis sees only probability vectors;
* kapur and norm_entropy see only off-diagonal order pairs;
* minxent priors are strictly positive (the bracket needs prior^(a-b)
  when a < b);
* families that are not scale invariant get probability vectors, so a
  ``- log(mass)`` term cannot cancel their value towards zero;
* a vector with tiny entries keeps at least half its entries of order
  one, so no value is driven to zero by near-degeneracy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

SMALL_FAMILIES = (
    "shannon",
    "renyi",
    "tsallis",
    "kapur",
    "norm_entropy",
    "aczel_daroczy",
    "lne",
    "lne_min_entropy_limit",
    "lnce",
    "log_norm",
    "escort",
    "q_log",
    "q_exp",
)

# Scale-invariant families get weights at a random overall scale.
SCALE_FREE = {"lne", "lne_min_entropy_limit", "escort"}

POOL_SMALL = 2048
POOL_SOLVE = 1200  # every run solves each of them at least once
LARGE_N = 1_000_000
# Orders for cli.  Its speed does not depend on the order, and the
# large-order accuracy defects are measured by eval-small.
MODERATE_ORDERS = (0.1, 10.0)
# (low, high) order pairs of the two eval-large rounds
LARGE_ORDERS = ((0.3, 2.0), (0.7, 6.0))
SOLVE_LARGE_N = 10_000

NEAR_DIAGONAL_SHARE = 0.25  # of lne pairs: |alpha - beta| in [1e-12, 1e-6]
DIAGONAL_SHARE = 0.15  # of lne / lnce pairs: alpha == beta exactly
TINY_SHARE = 0.3  # of small vectors: entries down to 1e-300
# every 25th solve (4 %) is at n = 1e4; a fixed count keeps the
# memory the pool itself takes the same from seed to seed
SOLVE_LARGE_EVERY = 25
SOLVE_DIAGONAL_SHARE = 0.1


@dataclass
class Case:
    """One public call: ``fn`` names it, ``args`` are its plain inputs."""

    fn: str
    args: tuple
    files: dict = field(default_factory=dict)  # CLI problem files: name -> JSON object


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _order(rng, lo=0.05, hi=100.0):
    return float(_log_uniform(rng, lo, hi))


def _small_n(rng):
    return int(round(float(_log_uniform(rng, 2.0, 64.0))))


def _weights(rng, n, tiny):
    w = rng.uniform(0.05, 1.0, n)
    if tiny:
        k = (n - 1) // 2
        idx = rng.choice(n, size=k, replace=False)
        w[idx] = 10.0 ** rng.uniform(-300.0, -1.0, size=k)
    return w


def _probability(w):
    return w / w.sum()


def _pair(rng, near_share, diag_share, lo=0.05, hi=100.0):
    """(alpha, beta): near-diagonal, exactly diagonal, or independent."""
    u = rng.random()
    beta = _order(rng, lo, hi)
    if u < near_share:
        delta = float(_log_uniform(rng, 1e-12, 1e-6))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return beta + sign * delta, beta
    if u < near_share + diag_share:
        return beta, beta
    return _order(rng, lo, hi), beta


def _off_diagonal_pair(rng, lo=0.05, hi=100.0):
    while True:
        a, b = _order(rng, lo, hi), _order(rng, lo, hi)
        if abs(a - b) > 1e-3 * max(a, b):
            return a, b


def _small_case(rng, family):
    n = _small_n(rng)
    tiny = rng.random() < TINY_SHARE
    w = _weights(rng, n, tiny)
    if family in SCALE_FREE:
        w = w * float(_log_uniform(rng, 1e-6, 1e6))
    else:
        w = _probability(w)
    if family in ("shannon",):
        return Case(family, (w,))
    if family in ("renyi", "tsallis", "aczel_daroczy", "lne_min_entropy_limit", "log_norm", "escort"):
        return Case(family, (w, _order(rng)))
    if family in ("kapur", "norm_entropy"):
        return Case(family, (w, *_off_diagonal_pair(rng)))
    if family == "lne":
        return Case(family, (w, _pair(rng, NEAR_DIAGONAL_SHARE, DIAGONAL_SHARE)))
    if family == "lnce":
        q = _probability(rng.uniform(0.05, 1.0, n))
        return Case(family, (w, q, _pair(rng, 0.0, DIAGONAL_SHARE)))
    q = _order(rng)
    c = 1.0 - q
    if family == "q_log":
        # keep (1-q) log x within +-200 so x^(1-q) stays finite
        lim = min(230.0, 200.0 / abs(c)) if c else 230.0
        x = np.exp(rng.uniform(-lim, lim, n))
        return Case(family, (x, q))
    # q_exp: draw the bracket 1 + (1-q) x in a band that keeps the
    # result finite and away from the pole, then solve for x
    lim = min(np.log(100.0), 200.0 * abs(c)) if c else np.log(100.0)
    x = np.expm1(rng.uniform(-lim, lim, n)) / c
    return Case(family, (x, q))


def eval_small(seed):
    rng = np.random.default_rng([seed, 1])
    fams = rng.choice(len(SMALL_FAMILIES), size=POOL_SMALL)
    return [_small_case(rng, SMALL_FAMILIES[i]) for i in fams]


def _large_vector(rng, n):
    """Bulk of order-one entries plus a log-uniform tail down to 1e-200,
    with dynamic range max/min >= 1e200 guaranteed."""
    w = rng.uniform(0.05, 1.0, n)
    tail = rng.random(n) < 0.25
    w[tail] = 10.0 ** rng.uniform(-200.0, -1.0, int(tail.sum()))
    w[rng.integers(n)] = 1e-201
    w[rng.integers(n)] = 1.0
    return w


def eval_large(seed):
    """Two rounds of the large-vector kinds, the first at low orders and
    the second at high ones.  The orders are fixed: the cost of an exp
    pass depends on how many results underflow, which depends on the
    order, so seeded orders would make each seed a different workload."""
    rng = np.random.default_rng([seed, 2])
    w = _large_vector(rng, LARGE_N) * float(_log_uniform(rng, 1e-3, 1e3))
    p = _probability(_large_vector(rng, LARGE_N))
    q = _probability(rng.uniform(0.05, 1.0, LARGE_N))
    pool = []
    # lne off the diagonal twice per round, so the median op is an lne
    # call rather than the boundary between the cheap and dear kinds
    for lo, hi in LARGE_ORDERS:
        pool += [
            Case("lne", (w, (hi, lo))),
            Case("lne", (w, (lo, 1.0))),
            Case("lne", (w, (hi, hi))),
            Case("renyi", (p, hi)),
            Case("lnce", (p, q, (lo, hi))),
            Case("escort", (w, hi)),
            Case("log_norm", (w, lo)),
        ]
    return pool


def _escort_mean(p, g, beta):
    lw = beta * np.log(p)
    e = np.exp(lw - lw.max())
    e /= e.sum()
    return g @ e


def _solve_case(rng, i):
    n = SOLVE_LARGE_N if i % SOLVE_LARGE_EVERY == 0 else int(rng.integers(2, 40))
    m = min(int(rng.integers(1, 4)), n - 1)  # m + normalisation <= n
    alpha = float(rng.uniform(0.2, 5.0))
    beta = alpha if rng.random() < SOLVE_DIAGONAL_SHARE else float(rng.uniform(0.2, 5.0))
    g = rng.standard_normal((m, n))
    target = _probability(rng.uniform(0.05, 1.0, n))
    G = _escort_mean(target, g, beta)  # feasible by construction
    if i % 2 == 0:
        return Case("solve_maxent", (n, g, G, alpha, beta))
    prior = _probability(rng.uniform(0.05, 1.0, n))
    return Case("solve_minxent", (prior, g, G, alpha, beta))


def solve(seed):
    rng = np.random.default_rng([seed, 3])
    return [_solve_case(rng, i) for i in range(POOL_SOLVE)]


# ---------------------------------------------------------------------------
# CLI problems

CLI_COMMANDS = ("entropy", "maxent", "minxent", "curve", "surface", "check")
CLI_FAMILIES = {
    # CLI family name -> (library function, needs alpha, needs beta)
    "shannon": ("shannon", False, False),
    "renyi": ("renyi", True, False),
    "tsallis": ("tsallis", True, False),
    "kapur": ("kapur", True, True),
    "norm": ("norm_entropy", True, True),
    "aczel_daroczy": ("aczel_daroczy", False, True),
    "lne": ("lne", True, True),
    "min_entropy_scaled": ("lne_min_entropy_limit", False, True),
}
CLI_ROUNDS = 2


def _fmt_list(xs):
    return ",".join(repr(float(x)) for x in xs)


def _stationary_problem(rng, minxent):
    """A MaxEnt/MinXEnt problem with one constraint whose exact solution
    p* is known.

    Pick p*, the orders and the multiplier, then solve the stationarity
    condition for the utility g: the bracket base_i + d * lambda * (g_i - G)
    must equal c * p*_i^d, with base = 1 (maxent) or prior^d (minxent) and
    c fixed so that G is the beta-escort mean of g.  On the diagonal the
    exponential form log p* - log base = lambda * (g - G) + const is used.
    """
    n = int(rng.integers(3, 13))
    alpha = float(rng.uniform(0.5, 3.0))
    if rng.random() < 0.2:
        beta = alpha
    else:
        beta = float(rng.uniform(0.5, 3.0))
        while abs(alpha - beta) < 0.2:
            beta = float(rng.uniform(0.5, 3.0))
    p = _probability(rng.uniform(0.2, 1.0, n))
    prior = _probability(rng.uniform(0.2, 1.0, n)) if minxent else np.full(n, 1.0 / n)
    lam = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
    e = p**beta / np.sum(p**beta)
    G = float(rng.uniform(-1.0, 1.0))
    d = alpha - beta
    if d == 0.0:
        s = np.log(p) - np.log(prior)
        s = s - e @ s
    else:
        base = np.ones(n) if not minxent else prior**d
        c = (e @ base) / (e @ p**d)
        s = (c * p**d - base) / d
    problem = {
        "weights": [1.0] * n,
        "params": {"alpha": alpha, "beta": beta},
        "constraints": [{"g": (G + s / lam).tolist(), "G": G}],
        # tighter than the default 1e-10, so p is right to ~1e-11
        "solver": {"tol_residual": 1e-13},
    }
    if minxent:
        problem["prior"] = prior.tolist()
    return problem, p


def _cli_case(rng, cmd, k):
    if cmd == "entropy":
        family = list(CLI_FAMILIES)[int(rng.integers(len(CLI_FAMILIES)))]
        fn, need_a, need_b = CLI_FAMILIES[family]
        w = _probability(_weights(rng, _small_n(rng), rng.random() < TINY_SHARE))
        if family == "lne":
            w = w * float(_log_uniform(rng, 1e-3, 1e3))
        if fn in ("kapur", "norm_entropy"):
            alpha, beta = _off_diagonal_pair(rng, *MODERATE_ORDERS)
        else:
            alpha, beta = _order(rng, *MODERATE_ORDERS), _order(rng, *MODERATE_ORDERS)
        name = f"entropy{k}.json"
        problem = {"weights": w.tolist(), "params": {"alpha": alpha, "beta": beta}}
        argv = ["entropy", "--input", name, "--family", family]
        expect = {"fn": fn, "w": w, "alpha": alpha if need_a else 1.0, "beta": beta if need_b else 1.0}
        return Case("cli", (argv, expect), {name: problem})
    if cmd in ("maxent", "minxent"):
        problem, p = _stationary_problem(rng, cmd == "minxent")
        name = f"{cmd}{k}.json"
        return Case("cli", ([cmd, "--input", name], {"p": p}), {name: problem})
    if cmd == "curve":
        alpha = _order(rng, *MODERATE_ORDERS)
        betas = [round(_order(rng, *MODERATE_ORDERS), 6) for _ in range(3)]
        step = [0.01, 0.02, 0.05][k % 3]
        argv = ["curve", "--alpha", repr(alpha), "--beta", _fmt_list(betas), "--step", repr(step)]
        return Case("cli", (argv, {"alpha": alpha, "betas": betas, "k": round(1.0 / step)}))
    if cmd == "surface":
        n = int(rng.integers(5, 61))
        prob = round(float(rng.uniform(0.1, 0.9)), 6)
        alphas = [round(_order(rng, *MODERATE_ORDERS), 6) for _ in range(4)]
        betas = [round(_order(rng, *MODERATE_ORDERS), 6) for _ in range(4)]
        argv = ["surface", "--n", str(n), "--p", repr(prob), "--alpha", _fmt_list(alphas), "--beta", _fmt_list(betas)]
        return Case("cli", (argv, {"n": n, "p": prob, "alphas": alphas, "betas": betas}))
    return Case("cli", (["check", "--seed", str(int(rng.integers(1000)))], {}))


def cli(seed):
    """CLI invocations, cycling through every subcommand in turn."""
    rng = np.random.default_rng([seed, 4])
    return [_cli_case(rng, cmd, k) for k in range(CLI_ROUNDS) for cmd in CLI_COMMANDS]


def write_problem_files(pool, directory):
    """Write the problem files of CLI cases into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for case in pool:
        for name, problem in case.files.items():
            with open(os.path.join(directory, name), "w") as fh:
                json.dump(problem, fh)


POOLS = {"eval-small": eval_small, "eval-large": eval_large, "solve": solve, "cli": cli}
