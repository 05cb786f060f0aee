"""Brute-force simplex oracle: an independent check of `solve_maxent`.

`oracle_maxent` enumerates the probability simplex on a grid, filters
near-feasible points, and returns the entropy-maximizing survivor.  It
shares nothing with the solver but the argument checks of
`lne.optimize._check_setup`, and it is test-scale only (n <= 4).
"""

import math

import numpy as np

from lne.optimize import InfeasibleError, _check_setup


def _composition_blocks(n, k, max_rows=1_500_000):
    """Yield blocks of all length-n compositions of k, in ascending
    lexicographic order, as integer arrays of at most ~max_rows rows."""
    if n == 1:
        yield np.array([[k]])
        return
    if n == 2:
        i = np.arange(k + 1)
        yield np.stack([i, k - i], axis=1)
        return
    if n == 3:
        counts = k + 1 - np.arange(k + 1)
        start = 0
        while start <= k:
            stop = start
            rows = 0
            while stop <= k and rows + counts[stop] <= max_rows:
                rows += counts[stop]
                stop += 1
            stop = max(stop, start + 1)
            c = counts[start:stop]
            i = np.repeat(np.arange(start, stop), c)
            off = np.repeat(np.cumsum(c) - c, c)
            j = np.arange(c.sum()) - off
            yield np.stack([i, j, k - i - j], axis=1)
            start = stop
        return
    if n == 4:
        for i in range(k + 1):
            for block in _composition_blocks(3, k - i, max_rows):
                lead = np.full((block.shape[0], 1), i)
                yield np.hstack([lead, block])
        return
    raise ValueError(f"oracle supports n <= 4, got {n}")


def _lne_rows(pts, alpha, beta, equal):
    """Row-wise entropy by the naive power-sum formulas (the whole point
    of the oracle is to be independent of the stable library path).  The
    off-diagonal formula divides by alpha - beta and loses digits as the
    orders approach each other: it is meant for pairs far apart."""
    pb = np.power(pts, beta).sum(axis=1)
    if equal:
        lp = np.where(pts > 0, np.log(np.where(pts > 0, pts, 1.0)), 0.0)
        ad = -(np.power(pts, beta) * lp).sum(axis=1) / pb
        return beta * ad + np.log(pb)
    pa = np.power(pts, alpha).sum(axis=1)
    return alpha * beta / (alpha - beta) * (np.log(pb) / beta - np.log(pa) / alpha)


def oracle_maxent(n, constraints, params, grid_step) -> np.ndarray:
    """Dense simplex search certifying `solve_maxent` at desk scale.

    Enumerates the n-state probability simplex at resolution
    ``grid_step`` (n <= 4, at most two constraints), keeps the points
    whose normalized beta-expectation residuals are all within
    10 * grid_step, and returns the entropy-maximizing survivor; ties
    within 1e-12 resolve to the lexicographically smallest point.
    """
    n, cset, params, _ = _check_setup(n, constraints, params, None)
    grid_step = float(grid_step)
    if not (1e-4 <= grid_step <= 1e-2):
        raise ValueError(f"grid_step must lie in [1e-4, 1e-2], got {grid_step}")
    if n > 4:
        raise ValueError(f"oracle supports n <= 4, got {n}")
    if cset.m > 2:
        raise ValueError(f"oracle supports at most 2 constraints, got {cset.m}")
    k = round(1.0 / grid_step)
    if math.comb(k + n - 1, n - 1) > 200_000_000:
        raise ValueError(f"grid of {math.comb(k + n - 1, n - 1)} points is too large")
    delta = 10.0 * grid_step
    beta = params.beta

    best_val = -np.inf
    best_row = None
    for block in _composition_blocks(n, k):
        pts = block / k
        if cset.m:
            pb = np.power(pts, beta)
            sb = pb.sum(axis=1)
            keep = np.ones(pts.shape[0], dtype=bool)
            for r in range(cset.m):
                em = (pb @ cset.g[r]) / sb
                keep &= np.abs(em - cset.targets[r]) <= delta
            pts = pts[keep]
        if pts.shape[0] == 0:
            continue
        vals = _lne_rows(pts, params.alpha, beta, params.equal_orders)
        top = vals.max()
        # generation is lexicographic, so the first row in the tie band
        # is the lexicographically smallest of this block
        cand = int(np.nonzero(vals >= top - 1e-12)[0][0])
        if vals[cand] > best_val + 1e-12:
            best_val = float(vals[cand])
            best_row = pts[cand].copy()
    if best_row is None:
        raise InfeasibleError(
            f"no grid point at step {grid_step} satisfies all residuals <= {delta}"
        )
    return best_row
