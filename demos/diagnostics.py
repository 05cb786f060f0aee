"""Empirical probes for the properties that are conjectured or carry
non-constructive premises, reported rather than asserted.

1. Concavity of the entropy when the order pair satisfies the stated
   premise (one order at most 1, the other's log-norm convex): the
   premise has no closed-form test, so a numerical convexity probe of
   log||.||_alpha gates a convex-combination concavity check.
2. The conjectured monotone decrease of the entropy in either order.
3. Convexity of the cross-entropy in its first argument.
"""

import numpy as np

from lne import EntropyParams, lnce, lne, log_norm

rng = np.random.default_rng(2026)


def random_prob(n):
    w = rng.uniform(0.02, 1.0, size=n)
    return w / w.sum()


# --- 1. gated concavity probe ------------------------------------------------
print("=== concavity of the entropy, gated on log-norm convexity ===")
for alpha, beta in ((2.0, 0.5), (3.0, 1.0), (1.5, 0.8), (0.9, 0.7)):
    n = 4
    convex_hits = 0
    trials = 400
    for _ in range(trials):
        p, q = random_prob(n), random_prob(n)
        lam = rng.uniform(0.0, 1.0)
        mix = lam * p + (1 - lam) * q
        lhs = log_norm(mix, alpha)
        rhs = lam * log_norm(p, alpha) + (1 - lam) * log_norm(q, alpha)
        convex_hits += lhs <= rhs + 1e-12
    gate = convex_hits == trials
    print(f"(alpha, beta) = ({alpha}, {beta}): log||.||_alpha convexity probe "
          f"{convex_hits}/{trials}" + ("" if gate else "  -> premise fails, concavity not expected"))
    if not gate:
        continue
    bad = 0
    for _ in range(trials):
        p, q = random_prob(n), random_prob(n)
        lam = rng.uniform(0.0, 1.0)
        mix = lam * p + (1 - lam) * q
        e_mix = float(lne(mix, (alpha, beta)))
        e_sides = lam * float(lne(p, (alpha, beta))) + (1 - lam) * float(lne(q, (alpha, beta)))
        bad += e_mix < e_sides - 1e-10
    print(f"   concavity over convex combinations: {trials - bad}/{trials} hold")

# --- 2. monotone decrease in the order ---------------------------------------
print()
print("=== conjecture: entropy decreases as one order grows ===")
alphas = np.array([0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 50.0, 200.0])
violations = comparisons = 0
for _ in range(300):
    w = random_prob(int(rng.integers(2, 8))) * rng.uniform(0.3, 1.0)
    beta = rng.uniform(0.1, 5.0)
    vals = [float(lne(w, (a, beta))) for a in alphas]
    diffs = np.diff(vals)
    comparisons += diffs.size
    violations += int(np.sum(diffs > 1e-10))
print(f"non-increasing along the alpha grid in {comparisons - violations}/{comparisons} steps "
      f"({violations} violations observed)")

# --- 3. cross-entropy convexity ----------------------------------------------
print()
print("=== cross-entropy convexity in P (empirical) ===")
bad = trials = 0
for _ in range(400):
    n = int(rng.integers(2, 6))
    q = random_prob(n)
    p1, p2 = random_prob(n), random_prob(n)
    prm = EntropyParams(*rng.uniform(0.3, 3.0, size=2))
    lam = rng.uniform(0.0, 1.0)
    mix = lam * p1 + (1 - lam) * p2
    lhs = float(lnce(mix, q, prm))
    rhs = lam * float(lnce(p1, q, prm)) + (1 - lam) * float(lnce(p2, q, prm))
    trials += 1
    bad += lhs > rhs + 1e-10
print(f"convex-combination inequality held in {trials - bad}/{trials} draws")

