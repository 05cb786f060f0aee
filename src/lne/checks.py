"""Self-contained invariant suite behind the ``lne check`` subcommand.

Each check draws from its own random.Random(seed), returns (name, ok, detail),
and runs in well under a second; the CLI stops at the first failure.
This registry is the one statement of the paper's invariants: the test
suite runs every entry at seeds 0-9 (``test_acceptance.py``), so each
seed's draw is a tenth of what the tests check.

``check_solvers`` draws alpha/beta up to 4: past it the Newton iteration
can stall short of its tolerance (26 of seeds 0-999 fail at a bound of
10).  Its random problems seldom clamp a state (57 of 8,000), so a fixed
problem that clamps one puts the exp_q cutoff into every seed.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .numkit import EntropyParams, escort, log_norm, product_compose, robin_hood_transfer
from .qdeform import q_exp, q_log
from .entropy import gm_subadditivity_rhs, lne, lne_min_entropy_limit, renyi, shannon
from .crossent import lnce
from .optimize import ConstraintSet, ConvergenceError, SolverConfig, solve_maxent, solve_minxent

__all__ = ["run_checks", "CHECKS"]

# vectors with one positive state, in several lengths, places and masses
_DEGENERATE = (
    [0.0, 0.7, 0.0],
    [0.0, 0.3, 0.0, 0.0],
    [0.0, 0.4, 0.0],
    [1.0, 0.0],
    [0.0, 1.0],
    [0.2],
    [0.7],
    [1.0],
)


def _random_weights(rng, n):
    w = np.array([rng.uniform(0.02, 1.0) for _ in range(n)])
    return w / w.sum() * rng.uniform(0.2, 1.0)


def _random_params(rng):
    return EntropyParams(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))


def _params_grid():
    orders = [0.25, 0.5, 1.0, 2.0, 4.0]
    return [EntropyParams(a, b) for a in orders for b in orders]


def check_scale_invariance(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        w = _random_weights(rng, rng.randrange(2, 9))
        prm = _random_params(rng)
        c = 10.0 ** rng.uniform(-6, 3)
        e0, e1 = lne(w, prm), lne(c * w, prm)
        worst = max(worst, abs(e1 - e0) / (1.0 + abs(e0)))
    return worst <= 1e-9, f"max relative drift {worst:.3e}"


def check_escort_identity(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        w = _random_weights(rng, rng.randrange(2, 9))
        beta = rng.uniform(0.2, 3.0)
        ratio = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        alpha = beta * (1.0 + ratio) if rng.random() < 0.5 else beta * ratio
        prm = EntropyParams(alpha, beta)
        direct = lne(w, prm)
        via_escort = renyi(escort(w, beta), alpha / beta)
        worst = max(worst, abs(direct - via_escort))
        if abs(lne(w, (beta, alpha)) - direct) > 1e-12:
            return False, f"lne not symmetric at {prm}"
    # Schur concavity: a Robin Hood transfer on the escort never lowers a Renyi
    # entropy; the pair (r beta, beta), beta up to 6, widens the symmetry draw
    for _ in range(50):
        w = _random_weights(rng, rng.randrange(2, 9))
        beta = rng.uniform(0.2, 6.0)
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        e = escort(w, beta)
        i, j = int(np.argmax(e)), int(np.argmin(e))
        if i != j:  # an all-equal escort admits no transfer
            moved = robin_hood_transfer(e, i, j, rng.uniform(0.05, 1.0) * (e[i] - e[j]) / 2)
            if renyi(moved, r) < renyi(e, r) - 1e-12:
                return False, (f"a transfer lowered the order-{r:.4g} Renyi entropy "
                               f"at beta={beta:.4g}")
        if abs(lne(w, (r * beta, beta)) - lne(w, (beta, r * beta))) > 1e-12:
            return False, f"lne not symmetric at {EntropyParams(r * beta, beta)}"
    return worst <= 1e-9, f"max identity gap {worst:.3e}"


def check_extremes(seed):
    for n in range(2, 21):
        u = np.full(n, 1.0 / n)
        for prm in _params_grid():
            if abs(lne(u, prm) - math.log(n)) > 1e-12:
                return False, f"uniform n={n} missed log(n) at {prm}"
    for prm in _params_grid():
        if lne([0.0, 0.7, 0.0], prm) != 0.0:
            return False, f"degenerate vector not exactly 0 at {prm}"
    rng = random.Random(seed)
    for w in _DEGENERATE:
        for prm in [_random_params(rng) for _ in range(4)]:
            if lne(w, prm) != 0.0:
                return False, f"degenerate vector not exactly 0 at {prm}"
    for _ in range(100):
        n = rng.randrange(2, 10)
        w = np.array([rng.uniform(0.01, 1.0) for _ in range(n)])
        w /= w.sum()
        if np.max(np.abs(w - 1.0 / n)) < 1e-6:
            continue
        v = lne(w, _random_params(rng))
        if not (0.0 < v < math.log(n)):
            return False, f"value {v} outside (0, log {n})"
    # the order limits: log n as alpha -> 0, the min-entropy tail as alpha -> inf
    for _ in range(10):
        n = rng.randrange(2, 8)
        w = np.array([rng.uniform(0.05, 1.0) for _ in range(n)])
        beta = rng.uniform(0.2, 2.5)
        tail = beta * (log_norm(w, beta) - math.log(w.max()))
        if abs(lne(w, (1e-6, beta)) - math.log(n)) > 1e-4:
            return False, f"alpha = 1e-6 missed log({n}) at beta={beta}"
        if abs(lne(w, (1e4, beta)) - tail) > 1e-3:
            return False, f"alpha = 1e4 missed the min-entropy tail at beta={beta}"
        if abs(lne_min_entropy_limit(w, beta) - tail) > 1e-12:
            return False, f"lne_min_entropy_limit missed the min-entropy tail at beta={beta}"
    return True, "uniform/degenerate/interior extremes all in range"


def check_composition(seed):
    rng = random.Random(seed)
    for _ in range(50):
        p = _random_weights(rng, rng.randrange(2, 7))
        q = _random_weights(rng, rng.randrange(2, 7))
        prm = _random_params(rng)
        base = lne(p, prm)
        gap = abs(lne(product_compose(p, q), prm) - base - lne(q, prm))
        if gap > 1e-9:
            return False, f"extensivity gap {gap:.3e} at {prm}"
        if abs(lne(np.append(p, 0.0), prm) - base) > 1e-12:
            return False, "appending a zero state moved the entropy"
        if abs(lne(p[rng.sample(range(p.size), p.size)], prm) - base) > 1e-12:
            return False, "permuting the states moved the entropy"
        # grouping: lne(p + q) = lne of the blocks' beta-norms + gm_subadditivity_rhs, on the
        # diagonal Shannon's rule u . (lne(p), lne(q)), u the beta-escort of the norms
        c = rng.uniform(0.2, 1.0) / (p.sum() + q.sum())
        whole = lne(np.concatenate([c * p, c * q]), prm)
        norms = [1.0, math.exp(log_norm(q, prm.beta) - log_norm(p, prm.beta))]
        blocks = lne(norms, prm)
        rest = (escort(norms, prm.beta) @ [base, lne(q, prm)] if prm.equal_orders
                else gm_subadditivity_rhs(c * p, c * q, prm))
        gap = abs(whole - blocks - rest)
        if gap > 1e-12 * (1.0 + whole) or not blocks > 0.0:
            return False, f"grouping gap {gap:.3e} at {prm}"
    return True, "extensivity, expandability and grouping hold"


def check_qdeform(seed):
    xs = np.concatenate([np.linspace(0.05, 10.0, k) for k in (40, 80, 100)])
    for q in sorted({*np.linspace(-2.0, 3.0, 21), *np.linspace(-2.0, 3.0, 26)}):
        back = q_exp(q_log(xs, q), q)
        if np.max(np.abs(back - xs) / xs) > 1e-10:
            return False, f"inverse identity fails at q={q}"
        if _q_exp_product_gap(2.5, 0.8, q) > 1e-10:
            return False, f"product identity fails at q={q}"
    rng = random.Random(seed)
    checked = 0
    while checked < 30:
        q = rng.uniform(-2.0, 3.0)
        x, y = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        lx, ly, lxy = q_log(np.array([x, y, x * y]), q)
        if abs(lxy - (lx + ly + (1 - q) * lx * ly)) > 1e-10 * max(1.0, abs(lxy)):
            return False, f"q_log product identity fails at q={q}"
        gap = _q_exp_product_gap(rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 2.0), q)
        if gap > 1e-10:
            return False, f"product identity fails at q={q}"
        checked += gap >= 0.0
    return True, "inverse and product identities hold"


def _q_exp_product_gap(x, y, q):
    """|e_q(x) e_q(y) - e_q(x + y + (1 - q) x y)| / max(1, |rhs|), and -1
    off the positive-bracket domain, where the identity does not hold."""
    if min(1 + (1 - q) * x, 1 + (1 - q) * y) <= 1e-8:
        return -1.0
    ex, ey, rhs = q_exp(np.array([x, y, x + y + (1 - q) * x * y]), q)
    return abs(ex * ey - rhs) / max(1.0, abs(rhs))


def check_cross_entropy(seed):
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randrange(2, 8)
        p = np.array([rng.uniform(0.05, 1.0) for _ in range(n)])
        p /= p.sum()
        q = np.array([rng.uniform(0.05, 1.0) for _ in range(n)])
        q /= q.sum()
        alpha = rng.uniform(0.1, 4.0)
        if abs(alpha - 1.0) < 1e-6:
            alpha = 2.0
        for _ in range(100):  # bounded: a generator may repeat its draw
            beta = rng.uniform(0.1, 4.0)
            if abs(alpha / beta - 1.0) >= 1e-3:
                break
        else:
            beta = alpha / 2.0 if alpha > 2.0 else 2.0 * alpha
        # escort form CE = D_t(P_b || Q_b) - b log||Q||_b, D_t the Renyi divergence, t = a/b
        for prm in (EntropyParams(alpha, 1.0), EntropyParams(alpha, beta)):
            t = alpha / prm.beta
            mix = np.sum(escort(p, prm.beta) ** t * escort(q, prm.beta) ** (1.0 - t))
            div = math.log(float(mix)) / (t - 1.0) - prm.beta * log_norm(q, prm.beta)
            gap = abs(lnce(p, q, prm) - div)
            if gap > 1e-10:
                return False, f"escort-form gap {gap:.3e} at {prm}"
        # against the uniform prior of mass W, at the drawn beta: beta log(n / W) - E(p)
        mass = 1.0 if rng.random() < 0.5 else rng.uniform(0.2, 0.9)
        lhs = lnce(mass * p, np.full(n, mass / n), prm)
        rhs = prm.beta * math.log(n / mass) - lne(p, prm)
        if abs(lhs - rhs) > 1e-9:
            return False, f"uniform-prior identity gap {abs(lhs - rhs):.3e}"
    return True, "escort form and uniform-prior identity hold"


def _random_problem(rng):
    """A feasible problem: its targets are the beta-escort means of a random p.
    None where a target is not strictly inside its row's range (or the row is constant)."""
    n = rng.randrange(2, 7)
    m = 1 if n == 2 else rng.randrange(1, 3)
    beta = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
    ratio = 1.0 if rng.random() < 0.2 else math.exp(rng.uniform(math.log(0.1), math.log(4.0)))
    g = np.array([[rng.uniform(0.0, 1.0) for _ in range(n)] for _ in range(m)])
    e = escort(np.array([rng.uniform(0.1, 1.0) for _ in range(n)]), beta)
    targets = g @ e
    if not np.all((g.min(axis=1) < targets) & (targets < g.max(axis=1))):
        return None
    return ConstraintSet(g, targets), EntropyParams(beta * ratio, beta)


def _solve_fault(cset, prm, cfg):
    """(MaxEnt p, None) or (p, what fails): the residual, the branch, the law
    p ~ exp_q(lambda . (g - G)) with 1 - q = alpha - beta, or the duality."""
    sol = solve_maxent(cset.n, cset, prm, cfg)
    if not np.max(np.abs(cset.g @ escort(sol.p, prm.beta) - cset.targets)) <= 1e-10:
        return sol.p, f"constraint residual too large at {prm}"
    if (sol.branch == "exponential") != prm.equal_orders:
        return sol.p, f"{sol.branch} branch at {prm}"
    law = q_exp(sol.lambdas @ (cset.g - cset.targets[:, None]), 1.0 - (prm.alpha - prm.beta))
    live = law > 0.0
    if not np.array_equal(sol.p > 0.0, live):
        return sol.p, f"p = 0 off the exp_q cutoff at {prm}"
    if not np.ptp(np.log(sol.p[live]) - np.log(law[live])) <= 1e-10:  # nan fails too
        return sol.p, f"log p - log exp_q(lambda . (g - G)) not constant at {prm}"
    dual = solve_minxent(np.full(cset.n, 1.0 / cset.n), cset, prm, cfg)
    if np.max(np.abs(dual.p - sol.p)) > 1e-8:
        return sol.p, f"uniform-prior duality gap at {prm}"
    return sol.p, None


def check_solvers(seed):
    cfg = SolverConfig()
    rng = random.Random(seed)
    g = [[0.0, 1.0, 2.0]]
    problems = [(ConstraintSet(g, [0.8]), EntropyParams(a, b))
                for a, b in ((2.0, 1.0), (1.0, 1.0), (0.5, 2.0), (3.0, 0.5))]
    problems.append((ConstraintSet(g, [1.9]), EntropyParams(3.0, 1.0)))  # clamps state 0
    problems += filter(None, [_random_problem(rng) for _ in range(8)])
    for cset, prm in problems:
        try:
            p, fault = _solve_fault(cset, prm, cfg)
            if fault is None and prm.equal_orders:  # the power law's limit on the diagonal
                prm = EntropyParams(prm.beta * (1.0 + 1e-6), prm.beta)
                near, fault = _solve_fault(cset, prm, cfg)
                if fault is None and np.max(np.abs(near - p)) > 1e-4:
                    fault = f"power law far from its diagonal limit at {prm}"
        except ConvergenceError as err:  # a solve that misses its tolerance fails the check
            return False, f"{err} at {prm}"
        if fault is not None:
            return False, fault
    quiet = solve_maxent(5, None, EntropyParams(3.0, 0.5), cfg)
    if np.max(np.abs(quiet.p - 0.2)) != 0.0:
        return False, "unconstrained maximizer is not exactly uniform"
    if shannon(quiet.p) <= 0:
        return False, "uniform entropy not positive"
    return True, "residuals, duality, stationarity, MBG form all pass"


CHECKS = [
    ("scale_invariance", check_scale_invariance),
    ("escort_identity", check_escort_identity),
    ("extremes", check_extremes),
    ("composition", check_composition),
    ("qdeform_identities", check_qdeform),
    ("cross_entropy", check_cross_entropy),
    ("solvers", check_solvers),
]


def run_checks(seed=0):
    """Run every invariant check; yields (name, ok, detail) in order."""
    for name, fn in CHECKS:
        ok, detail = fn(seed)
        yield name, bool(ok), detail
