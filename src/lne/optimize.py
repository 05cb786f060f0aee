"""Constrained MaxEnt and minimum-cross-entropy solvers.

Constraints are normalized q-expectations with q = beta,

    <<g_r>>_beta = sum_i g_r(i) p_i^beta / sum_i p_i^beta = G_r,

i.e. ordinary means under the beta-escort distribution.  With d = a - b
and s_i = sum_r l_r (g_r(i) - G_r), the solvers return the stationary points

    maxent   p_i  ~  exp_q(s_i),
    minxent  p_i  ~  q_i exp_q(q_i^(-d) s_i)  =  [q_i^d + d s_i]_+^(1/d),

where exp_q(s) = [1 + d s]_+^(1/d) is the q-exponential of `lne.qdeform`
with 1 - q = d (an index, not the prior q_i), on the diagonal the
Maxwell-Boltzmann-Gibbs exponential exp(s).  The minxent point minimizes
`lnce` only on the diagonal or against a uniform prior: at b = 1, q =
(0.6, 0.3, 0.1), g = (0, 1, 2), G = 0.9 and a = 2 its p has `lnce`
0.3809; the feasible minimum is 0.3042.  A zero-prior state takes p_i = 0,
the q_i -> 0 limit of the bracket for a <= b and the only point in the
domain of `lnce` for a > b, so minxent solves on the prior's support.

Both branches are the minimizers of one convex potential, the Legendre
dual of the escort constraints (Tsallis, Mendes & Plastino, Physica A
261, 1998): with bracket_i(l) = 1 + d s_i, or q_i^d + d s_i against a prior,

    G(l) = sum_i bracket_i(l)_+^(a/d),     log G = a m + L(a),

with m = max_i log p_i(l) and L the shifted log1p sum of `lne.numkit`.
Its gradient is a * (sum_i p_i^b / sum_i p_i^a) times the escort
residual R_r(l) = <<g_r>>_beta(p(l)) - G_r, and its Newton system is
b * sum_i (e_i / bracket_i) dg_i dg_i^T v = -R over the beta-escort e.
For a > b a state whose bracket goes nonpositive is clamped to zero
probability, the cutoff of exp_q, and reported; for a < b the potential
is +inf there, so no state ever clamps.

The multipliers are found by Newton's method on G from l = 0 with
halving backtracks under an Armijo test on log G (Boyd & Vandenberghe,
Convex Optimization, ch. 9).  Targets outside the reachable set are
certified and raise `InfeasibleError`: a target is outside its utility's
range on the prior's support, or every state clamps, or a Newton
direction v has dg_i . v < 0 for every state, along which log G falls
without bound.  Solves are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from .numkit import _LOG_FLOAT_MAX, _as_params, _check_order, _LogSupport, _min, as_weights
from .qdeform import _log_q_exp

__all__ = [
    "InfeasibleError",
    "DegenerateConstraintError",
    "ConvergenceError",
    "ConstraintSet",
    "SolverConfig",
    "SolverReport",
    "MaxEntSolution",
    "normalized_q_expectation",
    "solve_maxent",
    "solve_minxent",
]


class InfeasibleError(ValueError):
    """A target lies outside the reachable range of its utility."""


class DegenerateConstraintError(ValueError):
    """A constant utility vector: uninformative and Jacobian-singular."""


class ConvergenceError(RuntimeError):
    """The Newton iteration stopped short of the residual tolerance, out
    of iterations or with no acceptable step; carries its last iterate
    for diagnosis."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best
        self.report = best.report


@dataclass(frozen=True)
class ConstraintSet:
    """Tabulated utilities g (m rows over n states) and targets G (length
    m).  The expectation index of the constraints is the solve's beta."""

    g: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.size == 0:
            g = g.reshape(0, 0)
        if g.ndim != 2:
            raise ValueError("g must be a list of m utility vectors over n states")
        t = np.asarray(self.targets, dtype=float).reshape(-1)
        if t.shape[0] != g.shape[0]:
            raise ValueError(f"{g.shape[0]} utilities but {t.shape[0]} targets")
        if g.size and not np.all(np.isfinite(g)):
            raise ValueError("g contains non-finite entries")
        if t.size and not np.all(np.isfinite(t)):
            raise ValueError("targets contain non-finite entries")
        for r in range(g.shape[0]):
            lo, hi = g[r].min(), g[r].max()
            if lo == hi:
                raise DegenerateConstraintError(
                    f"constraint {r} is constant ({lo}); it carries no information"
                )
            if not (lo < t[r] < hi):
                raise InfeasibleError(
                    f"target {r} = {t[r]} outside the open range ({lo}, {hi}) of g_{r}"
                )
        g.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "targets", t)

    @property
    def m(self) -> int:
        return self.g.shape[0]

    @property
    def n(self) -> int:
        return self.g.shape[1]


_EMPTY = ConstraintSet(np.empty((0, 0)), np.empty(0))


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the Newton iteration: converged once the largest
    escort residual is at most ``tol_residual``, within ``max_iter`` steps.
    """

    tol_residual: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not (self.tol_residual > 0 and np.isfinite(self.tol_residual)):
            raise ValueError(f"tol_residual must be positive, got {self.tol_residual!r}")
        try:
            max_iter = int(self.max_iter)
        except (OverflowError, ValueError):  # inf, nan
            max_iter = None
        if max_iter != self.max_iter:  # also 2.7, which int() would truncate
            raise ValueError(f"max_iter must be a finite integer, got {self.max_iter!r}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        object.__setattr__(self, "max_iter", max_iter)

    @property
    def restarts(self) -> int:
        """Always 0, and read-only: the iteration runs once, from zero
        multipliers.  Kept for code that reads the former field."""
        return 0


_DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    final_residual_norm: float
    converged: bool
    restarts_used: int
    clamped_states: tuple = ()


@dataclass(frozen=True)
class MaxEntSolution:
    p: np.ndarray
    lambdas: np.ndarray
    Z: float
    branch: str
    report: SolverReport


def normalized_q_expectation(w, g, q) -> float:
    """Normalized q-expectation sum g w^q / sum w^q (the q-escort mean).

    Scale invariant in ``w``; the ordinary mean at q = 1 on probability
    vectors.
    """
    q = _check_order(q, "q")
    e = _LogSupport(w).escort(q)
    g = np.asarray(g, dtype=float)
    if g.shape != e.shape:
        raise ValueError(f"g has shape {g.shape}, expected {e.shape}")
    return float(e @ g)


def _check_setup(n, constraints, params, cfg):
    if not (math.isfinite(n) and n == int(n) >= 1):  # also 2.7, which int() would truncate
        raise ValueError("n must be a positive integer")
    n = int(n)
    cset = _EMPTY if constraints is None else constraints
    if not isinstance(cset, ConstraintSet):
        raise TypeError("constraints must be a ConstraintSet or None")
    if cset.m and cset.n != n:
        raise ValueError(f"constraints cover {cset.n} states, problem has {n}")
    return n, cset, _as_params(params), cfg or _DEFAULT_CONFIG


def _log_weights(lam, dg, d, terms):
    """Log of the unnormalized stationary weights at multipliers ``lam``:
    log exp_q(s) with 1 - q = d and s = lam . dg (times prior^-d against a
    prior), s itself on the diagonal (d = 0), plus log prior.  ``terms``
    is (log prior, prior^-d) of a positive prior, or two Nones.

    Returns (logw, clamped) where clamped marks states cut off by exp_q
    (logw = -inf, zero probability), and is None if none is.
    """
    lw0, scale = terms
    lw = lam @ dg
    clamped = None
    if d != 0.0:  # off the diagonal, where exp_q cuts off
        # d*s = bracket / prior^d - 1, exact as d -> 0: forming prior^d + d*s
        # instead cancels when the bracket is small next to prior^d
        lw *= d
        if scale is not None:
            lw *= scale
        clamped = _log_q_exp(lw, d)
    if lw0 is not None:
        lw += lw0
    return lw, clamped


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _newton_solve(H, b):
    """np.linalg.solve(H, b) for a float64 H and 1-D b, bit for bit: its
    LAPACK gufunc under its error state, without its Python wrapper.  A
    singular H raises LinAlgError, and no float warning escapes."""
    return _lapack_solve(H, b)


def _solve_lagrange(cset, params, cfg, d, terms, branch, keep=None):
    """Newton's method with backtracking on the potential log G."""
    alpha, beta = params.alpha, params.beta
    dg = cset.g - cset.targets[:, None]
    dgT = dg.T

    def potential(lam):
        """(log G, support of the log weights, clamped) at ``lam``, with
        L(alpha) exact however small; G is +inf once a bracket with a
        negative exponent a/d reaches zero."""
        lw, clamped = _log_weights(lam, dg, d, terms)
        if d < 0 and clamped is not None:
            return np.inf, None, clamped
        sup = _LogSupport.from_log(lw)
        return alpha * sup.m + sup.log1p_sum(alpha), sup, clamped

    def residual(sup):
        """(R, max |R|, e, L(beta)): the escort residual (finite, as log G <
        +inf here), its norm, the beta-escort and psi(beta) - beta * m."""
        e = sup.escort(beta)
        R = dg @ e
        return R, max(map(abs, R.tolist())), e, math.log1p(sup.s)

    lam = np.zeros(cset.m)
    log_g, sup, clamped = potential(lam)
    iterations = 0
    while True:
        if clamped is not None and clamped.all():
            raise InfeasibleError("the targets are jointly unreachable: every state clamps")
        R, res_norm, e, lb = residual(sup)
        if res_norm <= cfg.tol_residual or iterations == cfg.max_iter:
            break
        # e_i / bracket_i, with bracket_i = exp(d * logw_i) and logw = x + m:
        # exp((beta - d) x_i - (d m + L(beta))); zero where clamped
        if d == 0.0:
            u = e
        else:
            if clamped is None:
                u = np.multiply(sup.x, beta - d)
            else:
                u = np.where(clamped, 0.0, sup.x)
                u *= beta - d
            u -= d * sup.m + lb
            np.exp(u, out=u)
            if clamped is not None:
                u[clamped] = 0.0
        # u and beta * dg * u are formed in place: on a long vector a
        # temporary costs more than the ufunc that fills it
        dgu = dg * u
        dgu *= beta
        H = dgu @ dgT
        try:
            v = _newton_solve(H, -R)
        except LinAlgError:  # too few unclamped states to span g
            v = np.linalg.lstsq(H, -R, rcond=None)[0]
        vl = v.tolist()
        if not any(vl) or not all(map(math.isfinite, vl)):  # a zero step cannot move the iterate
            break
        vd = v @ dg
        if vd[vd.argmax()] < 0.0:
            raise InfeasibleError(
                "the targets are jointly unreachable: log G falls without bound "
                "along a direction that lowers every state's utility"
            )
        slope = alpha * np.exp(beta * sup.m + lb - log_g) * float(R @ v)
        flat = 8e-16 * max(1.0, abs(log_g))
        t = 1.0
        for _ in range(60):
            cand = lam + v if t == 1.0 else lam + t * v  # t * v = v at t = 1
            log_gc, supc, clampedc = potential(cand)
            # near the minimum log G is flat to rounding: accept a step
            # that still lowers the residual there
            if log_gc <= log_g + 1e-4 * t * slope or (
                abs(log_gc - log_g) <= flat and residual(supc)[1] < res_norm
            ):
                break
            t *= 0.5
        else:
            break
        lam, log_g, sup, clamped = cand, log_gc, supc, clampedc
        iterations += 1

    p = sup.escort(1.0)
    log_z = sup.m + math.log1p(sup.s)
    if not p.all() and np.isfinite(sup.x[p == 0.0]).any():
        # a weight with a finite log underflowed (at tiny beta): the
        # residual is that of the returned p, not of the iterate
        res_norm = float(np.max(np.abs(dg @ _LogSupport(p).escort(beta))))
    converged = res_norm <= cfg.tol_residual
    states = [] if clamped is None else np.flatnonzero(clamped).tolist()
    if keep is not None:  # cut down to the prior's support: p back onto all states
        on = np.flatnonzero(keep)
        p, states = np.bincount(on, p, keep.size), on[states].tolist()
    report = SolverReport(
        iterations, res_norm, converged, restarts_used=0, clamped_states=tuple(states)
    )
    z = math.exp(log_z) if log_z <= _LOG_FLOAT_MAX else math.inf
    sol = MaxEntSolution(p=p, lambdas=lam, Z=z, branch=branch, report=report)
    if not converged:
        raise ConvergenceError(
            f"no convergence after {iterations} Newton steps "
            f"(residual {res_norm:.3e} > tol {cfg.tol_residual:.3e})", sol
        )
    return sol


def _solve(prior, n, constraints, params, cfg):
    """The solve both entry points share; ``prior`` is None for MaxEnt."""
    n, cset, params, cfg = _check_setup(n, constraints, params, cfg)
    # the diagonal is the d -> 0 limit of the bracket: the exponential branch
    d = params.alpha - params.beta
    branch = "exponential" if d == 0.0 else "power_law"
    if cset.m == 0:
        w = np.ones(n) if prior is None else prior
        z = float(w.sum())
        report = SolverReport(iterations=0, final_residual_norm=0.0, converged=True, restarts_used=0)
        return MaxEntSolution(p=w / z, lambdas=np.empty(0), Z=z, branch=branch, report=report)
    keep = None if prior is None or _min(prior) > 0.0 else prior > 0.0
    if keep is not None:  # a zero-prior state takes p = 0: solve on the prior's support
        g, t = cset.g[:, keep], cset.targets
        for r, (lo, hi) in enumerate(zip(g.min(axis=1).tolist(), g.max(axis=1).tolist())):
            if not (lo < t[r] < hi or lo == t[r] == hi):  # ConstraintSet rejects the latter
                raise InfeasibleError(
                    f"target {r} = {t[r]} outside the open range ({lo}, {hi}) of g_{r} on "
                    f"the prior's support {np.flatnonzero(keep).tolist()}")
        prior, cset = prior[keep], ConstraintSet(g, t)
    lw0 = None if prior is None else np.log(prior)
    terms = lw0, None if lw0 is None else np.exp(-d * lw0)
    return _solve_lagrange(cset, params, cfg, d, terms, branch, keep)


def solve_maxent(n, constraints, params, cfg=None) -> MaxEntSolution:
    """Distribution over ``n`` states maximizing the logarithmic norm
    entropy subject to the normalized beta-expectation constraints.

    With no constraints the maximizer is exactly uniform.  Power-law
    branch for alpha != beta, exponential (MBG) branch on the diagonal.
    """
    return _solve(None, n, constraints, params, cfg)


def solve_minxent(prior, constraints, params, cfg=None) -> MaxEntSolution:
    """Stationary point of the minxent bracket against ``prior`` subject to
    the normalized beta-expectation constraints.  It minimizes `lnce` only
    on the diagonal or against a uniform prior (see the module docstring).
    A zero-prior state takes p = 0, and a target outside the open range of
    its utility on the prior's support raises `InfeasibleError`.

    With no constraints returns the normalized prior; with a uniform
    prior coincides with `solve_maxent` under the same constraints.
    """
    prior = as_weights(prior, "prior")
    return _solve(prior, prior.size, constraints, params, cfg)

