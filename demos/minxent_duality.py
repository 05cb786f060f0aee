"""`solve_minxent` against a prior, and its MaxEnt duality.

`solve_minxent` returns the stationary point of the minxent bracket
p ~ [q^d + d s]^(1/d), d = a - b.  With a uniform prior that point is
the cross-entropy minimizer and coincides with the MaxEnt distribution
(the identity CE(P, U) = b log(n/W) - E(P) makes the two optimizations
mirror images), and on the diagonal it is the classical exponential
tilt.  Off the diagonal an informative prior still tilts the answer
toward itself while meeting the constraint, but the point need not
minimize `lnce`: at b = 1, q = (0.6, 0.3, 0.1), g = (0, 1, 2), G = 0.9
and a = 2 its p gives 0.3809, where the feasible minimum is 0.3042.
"""

import numpy as np

from lne import (
    ConstraintSet,
    EntropyParams,
    SolverConfig,
    lnce,
    normalized_q_expectation,
    solve_maxent,
    solve_minxent,
)

g = np.array([0.0, 1.0, 2.0])
cset = ConstraintSet([g], [0.8])
cfg = SolverConfig()
prm = EntropyParams(2.0, 1.0)

print("=== uniform prior: duality with MaxEnt ===")
maxent = solve_maxent(3, cset, prm, cfg)
uniform = np.full(3, 1 / 3)
dual = solve_minxent(uniform, cset, prm, cfg)
print("maxent  p:", np.round(maxent.p, 10))
print("minxent p:", np.round(dual.p, 10))
print(f"largest coordinate gap: {np.max(np.abs(maxent.p - dual.p)):.2e}")

print()
print("=== informative priors pull the solution toward themselves ===")
for prior in ([0.7, 0.2, 0.1], [0.1, 0.2, 0.7], [1.0, 1.0, 4.0]):
    sol = solve_minxent(prior, cset, prm, cfg)
    mean = normalized_q_expectation(sol.p, g, prm.beta)
    ce = float(lnce(sol.p, np.asarray(prior) / np.sum(prior), prm))
    print(f"prior {str(prior):>17} -> p = {np.round(sol.p, 6)}  "
          f"(escort mean {mean:.6f}, cross-entropy {ce:+.6f})")

print()
print("=== the diagonal subfamily: exponential tilting of the prior ===")
prm = EntropyParams(1.0, 1.0)
prior = np.array([0.7, 0.2, 0.1])
sol = solve_minxent(prior, ConstraintSet([g], [1.0]), prm, cfg)
tilt = np.log(sol.p / prior)
print("p:", np.round(sol.p, 8))
print("log(p_i / prior_i):", np.round(tilt, 8))
print("the log-ratio is affine in g: classical minimum-discrimination tilting")

print()
print("=== no constraints: the prior itself comes back ===")
sol = solve_minxent([0.3, 0.7], None, EntropyParams(1.3, 2.2), cfg)
print("p:", sol.p, "(normalized prior, Z =", sol.Z, ")")
