"""Command-line front end.

Subcommands: entropy, curve, surface, maxent, minxent, check.  Problems
(weights, order parameters, constraints, prior, solver overrides) are
read from a JSON file; scalars come in through flags.  All numeric
output is printed with fixed 12 significant digits so identical inputs
produce byte-identical output.

Exit codes: 0 ok, 2 validation error, 3 solver non-convergence (the
best attempt is still printed), 4 infeasible constraints.  Set
LNE_LOG=debug|info|quiet to control diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .numkit import EntropyParams, as_weights
from .entropy import (
    aczel_daroczy,
    kapur,
    lne,
    lne_min_entropy_limit,
    norm_entropy,
    renyi,
    shannon,
    tsallis,
)
from .optimize import (
    ConstraintSet,
    ConvergenceError,
    InfeasibleError,
    SolverConfig,
    solve_maxent,
    solve_minxent,
)
from .checks import run_checks

log = logging.getLogger("lne")

# family -> (needs alpha, needs beta, evaluator on (w, alpha, beta))
_FAMILY_TABLE = {
    "shannon": (False, False, lambda w, a, b: shannon(w)),
    "renyi": (True, False, lambda w, a, b: renyi(w, a)),
    "tsallis": (True, False, lambda w, a, b: tsallis(w, a)),
    "kapur": (True, True, kapur),
    "norm": (True, True, norm_entropy),
    "aczel_daroczy": (False, True, lambda w, a, b: aczel_daroczy(w, b)),
    "lne": (True, True, lambda w, a, b: lne(w, EntropyParams(a, b))),
    "min_entropy_scaled": (False, True, lambda w, a, b: lne_min_entropy_limit(w, b)),
}
FAMILIES = tuple(_FAMILY_TABLE)


class ProblemError(ValueError):
    """Problem-file validation failure; the message names the field."""


def _fmt(v) -> str:
    """Fixed 12-significant-digit decimal, scientific outside [1e-6, 1e12)."""
    v = float(v)
    if v == 0.0:
        return "0.00000000000"
    if not math.isfinite(v):
        return str(v)
    sci = f"{v:.11e}"
    dec = 11 - int(sci[sci.index("e") + 1 :])  # the exponent after rounding
    if 0 <= dec <= 17:
        return f"{v:.{dec}f}"
    return sci


def _err(msg):
    sys.stderr.write(f"error: {msg}\n")


def _write(text, output):
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ProblemError(f"--output: cannot write {output}: {e.strerror}") from e


# ---------------------------------------------------------------------------
# Problem file


def _number(x, field):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ProblemError(f"{field}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer literal beyond the float range
        raise ProblemError(f"{field}: integer too large for a float") from None


def _number_list(x, field):
    if not isinstance(x, list) or not x:
        raise ProblemError(f"{field}: expected a nonempty list of numbers")
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(x)]


_SOLVER_FIELDS = ("tol_residual", "max_iter")


def load_problem(path):
    """Parse and validate a problem file into plain Python values."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ProblemError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:  # e.g. an integer literal past the int-to-str digit limit
        raise ProblemError(f"{path}: {e}") from e
    if not isinstance(data, dict):
        raise ProblemError("problem file must be a JSON object")
    known = {"weights", "params", "constraints", "prior", "solver"}
    for key in data:
        if key not in known:
            raise ProblemError(f"unknown field {key!r}")

    out = {"alpha": None, "beta": None, "prior": None, "constraints": None, "solver": {}}
    if "weights" not in data:
        raise ProblemError("missing field 'weights'")
    out["weights"] = _number_list(data["weights"], "weights")

    if "params" in data:
        params = data["params"]
        if not isinstance(params, dict):
            raise ProblemError("params: expected an object with alpha and beta")
        for key in params:
            if key not in ("alpha", "beta"):
                raise ProblemError(f"params.{key}: unknown field")
        if "alpha" in params:
            out["alpha"] = _number(params["alpha"], "params.alpha")
        if "beta" in params:
            out["beta"] = _number(params["beta"], "params.beta")

    if "prior" in data:
        out["prior"] = _number_list(data["prior"], "prior")

    if "constraints" in data:
        cons = data["constraints"]
        if not isinstance(cons, list):
            raise ProblemError("constraints: expected a list")
        rows, targets = [], []
        for i, c in enumerate(cons):
            if not isinstance(c, dict) or set(c) != {"g", "G"}:
                raise ProblemError(f"constraints[{i}]: expected an object with fields g and G")
            rows.append(_number_list(c["g"], f"constraints[{i}].g"))
            targets.append(_number(c["G"], f"constraints[{i}].G"))
            if len(rows[-1]) != len(out["weights"]):
                raise ProblemError(
                    f"constraints[{i}].g: length {len(rows[-1])} does not match "
                    f"weights length {len(out['weights'])}"
                )
        out["constraints"] = (rows, targets)

    if "solver" in data:
        sv = data["solver"]
        if not isinstance(sv, dict):
            raise ProblemError("solver: expected an object")
        for key, val in sv.items():
            if key not in _SOLVER_FIELDS:
                raise ProblemError(f"solver.{key}: unknown field")
            out["solver"][key] = _number(val, f"solver.{key}")
    return out


def _resolve_orders(problem, args, need_alpha=True, need_beta=True):
    alpha = args.alpha if args.alpha is not None else problem["alpha"]
    beta = args.beta if args.beta is not None else problem["beta"]
    if need_alpha and alpha is None:
        raise ProblemError("params.alpha: missing (set it in the file or pass --alpha)")
    if need_beta and beta is None:
        raise ProblemError("params.beta: missing (set it in the file or pass --beta)")
    return alpha, beta


def _solver_config(problem, args):
    fields = dict(problem["solver"])
    if args.tol is not None:
        fields["tol_residual"] = args.tol
    return SolverConfig(**fields)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_entropy(args):
    problem = load_problem(args.input)
    w = as_weights(problem["weights"], "weights")
    family = args.family
    need_alpha, need_beta, evaluate = _FAMILY_TABLE[family]
    alpha, beta = _resolve_orders(problem, args, need_alpha, need_beta)
    alpha = 1.0 if alpha is None else alpha
    beta = 1.0 if beta is None else beta
    log.info("evaluating %s entropy on %d states", family, w.size)
    val = evaluate(w, alpha, beta)
    lines = [
        f"family {family}",
        f"alpha {_fmt(alpha)}",
        f"beta {_fmt(beta)}",
        f"value {_fmt(val)}",
    ]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_curve(args):
    if not (0.0 < args.step <= 0.5):
        raise ProblemError(f"--step must lie in (0, 0.5], got {args.step}")
    betas = [EntropyParams(args.alpha, b).beta for b in args.betas]
    k = round(1.0 / args.step)
    log.info("bernoulli sweep: alpha=%s betas=%s grid=%d", args.alpha, betas, k + 1)
    rows = ["p,beta,value"]
    for i in range(k + 1):
        p = i / k
        w = np.array([p, 1.0 - p])
        for b in betas:
            rows.append(f"{_fmt(p)},{_fmt(b)},{_fmt(lne(w, EntropyParams(args.alpha, b)))}")
    _write("\n".join(rows) + "\n", args.output)
    return 0


def binomial_weights(n, p):
    """Bin(n, p) probabilities up to one common factor, with the mode at 1.

    Built outwards from the mode by the pmf ratio recurrence
    w[k+1] = w[k] (n-k)/(k+1) p/(1-p); for n <= 400, entries down to
    1e-3 of the mode stay within ~4e-15 relative of the exact pmf.  The
    entropy is scale invariant, so the missing normalisation changes
    nothing.  p = 0 and p = 1 give an exact one-hot vector.
    """
    w = np.zeros(n + 1)
    if p == 0.0 or p == 1.0:
        w[0 if p == 0.0 else n] = 1.0
        return w
    mode = min(int((n + 1) * p), n)
    k = np.arange(n + 1, dtype=float)
    up = (n - k[mode:n]) / (k[mode:n] + 1.0) * (p / (1.0 - p))
    down = k[mode:0:-1] / (n - k[mode:0:-1] + 1.0) * ((1.0 - p) / p)
    w[mode] = 1.0
    w[mode + 1 :] = np.cumprod(up)
    w[:mode] = np.cumprod(down)[::-1]
    return w


def cmd_surface(args):
    if args.n < 1:
        raise ProblemError("--n must be a positive integer")
    if not (0.0 <= args.p <= 1.0):
        raise ProblemError("--p must lie in [0, 1]")
    alphas = [EntropyParams(a, 1.0).alpha for a in args.alphas]
    betas = [EntropyParams(1.0, b).beta for b in args.betas]
    w = binomial_weights(args.n, args.p)
    log.info("binomial surface: n=%d p=%s grid=%dx%d", args.n, args.p, len(alphas), len(betas))
    rows = ["alpha,beta,value"]
    for a in alphas:
        for b in betas:
            rows.append(f"{_fmt(a)},{_fmt(b)},{_fmt(lne(w, EntropyParams(a, b)))}")
    _write("\n".join(rows) + "\n", args.output)
    return 0


def _solution_record(sol):
    lines = [
        "p " + " ".join(_fmt(v) for v in sol.p),
        ("lambda " + " ".join(_fmt(v) for v in sol.lambdas)).rstrip(),
        f"Z {_fmt(sol.Z)}",
        f"branch {sol.branch}",
        f"iterations {sol.report.iterations}",
        f"restarts_used {sol.report.restarts_used}",
        ("clamped_states " + " ".join(str(i) for i in sol.report.clamped_states)).rstrip(),
        f"residual_norm {_fmt(sol.report.final_residual_norm)}",
        f"converged {'true' if sol.report.converged else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _run_solver(args, minxent):
    problem = load_problem(args.input)
    alpha, beta = _resolve_orders(problem, args)
    params = EntropyParams(alpha, beta)
    cfg = _solver_config(problem, args)
    cset = None
    if problem["constraints"] is not None:
        rows, targets = problem["constraints"]
        cset = ConstraintSet(rows, targets)
    log.info(
        "solving %s: n=%d m=%d alpha=%s beta=%s",
        "minxent" if minxent else "maxent",
        len(problem["weights"]),
        0 if cset is None else cset.m,
        alpha,
        beta,
    )
    try:
        if minxent:
            if problem["prior"] is None:
                raise ProblemError("prior: required for minxent")
            if len(problem["prior"]) != len(problem["weights"]):
                raise ProblemError("prior: length does not match weights")
            sol = solve_minxent(np.asarray(problem["prior"]), cset, params, cfg)
        else:
            sol = solve_maxent(len(problem["weights"]), cset, params, cfg)
    except ConvergenceError as e:
        log.info("no convergence: %s", e)
        _write(_solution_record(e.best), args.output)
        _err(str(e))
        return 3
    _write(_solution_record(sol), args.output)
    return 0


def cmd_maxent(args):
    return _run_solver(args, minxent=False)


def cmd_minxent(args):
    return _run_solver(args, minxent=True)


def cmd_check(args):
    if args.seed < 0:  # random.Random would seed with |seed|
        raise ProblemError(f"--seed: expected a non-negative integer, got {args.seed}")
    lines = []
    try:
        for name, ok, detail in run_checks(seed=args.seed):
            lines.append(f"{'ok' if ok else 'FAIL'} {name}: {detail}\n")
            if not ok:
                break
    finally:  # a check that raises still leaves the lines before it
        _write("".join(lines), args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser and entry points


def _float_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lne",
        description="Scale-invariant logarithmic norm entropy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="evaluate one entropy family on a weight vector")
    p.add_argument("--input", required=True, help="problem file (JSON)")
    p.add_argument("--family", choices=FAMILIES, default="lne")
    p.add_argument("--alpha", type=float, help="order (overrides the file)")
    p.add_argument("--beta", type=float, help="type/order (overrides the file)")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("curve", help="Bernoulli entropy curves over p in [0, 1] (CSV)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", dest="betas", type=_float_list, required=True, metavar="B1,B2,...")
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("surface", help="binomial entropy over an (alpha, beta) grid (CSV)")
    p.add_argument("--n", type=int, required=True, help="binomial trial count (n+1 states)")
    p.add_argument("--p", type=float, required=True, help="success probability")
    p.add_argument("--alpha", dest="alphas", type=_float_list, required=True, metavar="A1,A2,...")
    p.add_argument("--beta", dest="betas", type=_float_list, required=True, metavar="B1,B2,...")
    p.set_defaults(func=cmd_surface)

    for name, help_text in (
        ("maxent", "constrained entropy maximization"),
        ("minxent", "constrained cross-entropy minimization against a prior"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--alpha", type=float, help="order (overrides the file)")
        p.add_argument("--beta", type=float, help="order (overrides the file)")
        p.add_argument("--tol", type=float, help="residual tolerance (overrides the file)")
        p.set_defaults(func=cmd_maxent if name == "maxent" else cmd_minxent)

    p = sub.add_parser("check", help="run the invariant suite; nonzero exit on first failure")
    p.add_argument("--seed", type=int, default=0, help="non-negative randomness seed (default 0)")
    p.set_defaults(func=cmd_check)
    for p in sub.choices.values():  # every subcommand, as its last option
        p.add_argument("--output", default="-", metavar="FILE|-", help="output target")
    return parser


def _configure_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.CRITICAL}.get(
        os.environ.get("LNE_LOG", "").lower(), logging.WARNING
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("lne: %(message)s"))
    log.handlers[:] = [handler]
    log.propagate = False
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as e:
        _err(str(e))
        return 4
    except (ProblemError, ValueError) as e:
        _err(str(e))
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
