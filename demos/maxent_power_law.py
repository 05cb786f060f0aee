"""Constrained entropy maximization: power-law and exponential branches.

Fixes the normalized q-expectation of a utility (q equal to the second
order) and maximizes the entropy.  Away from the diagonal the solution
is the q-exponential p ~ exp_q(sum_r l_r (g_r(i) - G_r)) with 1 - q = a - b;
on the diagonal that is the exponential Maxwell-Boltzmann-Gibbs form,
even though the constraint is the nonextensive one.  At (2, 1) the
bracket is affine in g, and the solve is checked against its closed form
p = (13, 10, 7)/30.
"""

import numpy as np

from lne import (
    ConstraintSet,
    EntropyParams,
    SolverConfig,
    lne,
    normalized_q_expectation,
    q_exp,
    solve_maxent,
)

g = np.array([0.0, 1.0, 2.0])
cset = ConstraintSet([g], [0.8])
cfg = SolverConfig()

print("constraint: escort mean of g = (0, 1, 2) pinned to 0.8 over 3 states\n")

for a, b in ((2.0, 1.0), (0.5, 2.0), (1.0, 1.0), (2.0, 2.0)):
    prm = EntropyParams(a, b)
    sol = solve_maxent(3, cset, prm, cfg)
    resid = abs(normalized_q_expectation(sol.p, g, prm.beta) - 0.8)
    print(f"(alpha, beta) = ({a}, {b})  ->  {sol.branch}")
    print(f"  p = {np.round(sol.p, 8)}")
    print(f"  lambda = {np.round(sol.lambdas, 8)}, Z = {sol.Z:.8f}")
    print(f"  entropy = {float(lne(sol.p, prm)):.8f}, residual = {resid:.2e}, "
          f"iterations = {sol.report.iterations}")
    # the MaxEnt law: p ~ exp_q(lambda . (g - G)) with 1 - q = a - b, the MBG
    # exponential at q = 1
    q = 1.0 - (a - b)
    spread = np.ptp(np.log(sol.p) - np.log(q_exp(sol.lambdas @ (cset.g - 0.8), q)))
    print(f"  log p - log exp_q(lambda . (g - G)) at q = {q}: constant to {spread:.1e}")
    print()

print("checking (2, 1) against its closed form p = (13, 10, 7)/30:")
prm = EntropyParams(2.0, 1.0)
sol = solve_maxent(3, cset, prm, cfg)
exact = np.array([13.0, 10.0, 7.0]) / 30.0
print(f"  solver p = {np.round(sol.p, 6)}")
print(f"  exact  p = {np.round(exact, 6)}")
print(f"  coordinate gap {np.max(np.abs(exact - sol.p)):.2e}, "
      f"entropy gap {abs(float(lne(exact, prm)) - float(lne(sol.p, prm))):.2e}")

print()
print("an aggressive target (1.9 of max 2) clamps a state to zero:")
sol = solve_maxent(3, ConstraintSet([g], [1.9]), EntropyParams(3.0, 1.0), cfg)
print(f"  p = {np.round(sol.p, 6)}, clamped states: {list(sol.report.clamped_states)}")
