"""Entropy of binomial weight vectors over a grid of order pairs.

Shows the surface is largest toward the (0, 0) corner of the order
plane, symmetric in the two orders, peaked over the family at p = 1/2,
and exactly zero for the degenerate members.
"""

import numpy as np

from lne import lne
from lne.cli import binomial_weights

GRID = [0.1, 0.3, 1.0, 3.0, 10.0]


def surface(n, p):
    w = binomial_weights(n, p)
    return np.array([[float(lne(w, (a, b))) for b in GRID] for a in GRID])


for n, p in ((10, 0.1), (10, 0.3), (10, 0.5)):
    s = surface(n, p)
    print(f"=== Bin(n={n}, p={p}): {n + 1} states, max entropy log({n + 1}) = {np.log(n + 1):.4f} ===")
    print("      " + " ".join(f"b={b:<6g}" for b in GRID))
    for a, row in zip(GRID, s):
        print(f"a={a:<4g} " + " ".join(f"{v:8.4f}" for v in row))
    print(f"corner (0.1, 0.1) holds the max: {s[0, 0]:.4f}; transposition gap: {np.max(np.abs(s - s.T)):.2e}")
    print()

print("success probability sweep at fixed orders (alpha=2, beta=1), n=10:")
for p in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
    w = binomial_weights(10, p)
    print(f"  p={p:3.1f}: {float(lne(w, (2.0, 1.0))):.6f}")
print("zero at the degenerate ends, maximal at p = 1/2, symmetric in between")
