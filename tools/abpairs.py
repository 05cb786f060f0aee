"""Alternating parent/change pairs of the benchmark, written to one file.

    python3 tools/abpairs.py --pr N --base HEAD~1 --head HEAD \\
        --run solve:1,2,3:5 --run eval-small:1:3

Both commits are exported with ``git archive`` into one temporary
directory (no network, no worktree metadata left in the repository, and
only committed files are measured), and removed afterwards.  Each
``--run WORKLOAD:SEEDS:PAIRS`` runs ``perfbench/run.py --trace 0`` of each
tree PAIRS times per seed, alternating which tree goes first, so that a
drift of the shared host lands on both sides.  For each workload and
seed, each end-to-end metric of ``BENCHMARK.json`` gets both trees'
values, medians and quartiles, the ratio of the medians, the pairs the
change won, and whether the medians differ by more than the distance
between the base's quartiles; a workload run at several seeds also gets
those figures over all its pairs ("pooled").

A side whose own eval-large ``peak_rss_mb`` runs spread by more than
3 MB is flagged, in its row of the result (``rss_flip_sides``), in the
pooled figures and in the summary lines: on a 2-core host that workload
can settle in one of two glibc heap-trim states, 76.8 or 82.4 MB, whose
``op_p50_ms`` differ by 25-35 %, and such a side has runs in both, so
its figures mix the allocator's states with the code's.  The two sides
may differ by more than that by design: a change that drops an array
moves every run.

``--interleave WORKLOAD:SEEDS:ROUNDS`` times both trees in one process,
which keeps glibc's heap state and the host's drift off the comparison:
the ``lne`` package of each tree is imported under a name of its own
(``lne_base``, ``lne_head``), the seed's pool of an ``eval-*`` or
``solve`` workload is built once, every entry runs once on each side
untimed, and then ROUNDS times on each, the side that goes first
alternating from entry to entry and round to round.  Its row gives each
side's median time per op name and the p50 and p90 over all timed ops,
as ``op_p50_ms`` and ``op_tail_ms`` take them, and the ops that raised.

``--l3-seeds`` adds the solver layer (L3) for those solve-pool seeds:
every pool entry is solved once in each tree with the solver's private
``_log_weights`` wrapped by a counter, which gives Newton steps and
evaluations of the potential (each also evaluates the residual when it
is accepted) per solve; an unwrapped pass, the best of three per entry,
gives time per solve and per Newton step, the latter also by the number
m of constraints, whose linear solve costs differ.  Each seed runs that
pass twice, base first and then head first, so that a drift of the host
lands on both sides; each side's counts must agree between its two
passes, and each time is the lower of the two.  Nothing under ``src/``
counts.

The result goes to ``BENCH_<pr>.json`` at the root of the repository,
with the commit ids, the machine and its load average before and after.
Runs last ``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says
otherwise.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import worker  # noqa: E402  (the benchmark's own pool calls and latency statistics)
from run import machine_metadata  # noqa: E402  (the benchmark's own, as its results record it)

# Run inside a tree by the L3 pass: argv is (tree, seed), and it prints one
# JSON object of per-solve counts and times.
L3_CODE = r"""
import json, statistics, sys, time
tree, seed = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import numpy as np
import lne, workloads
from lne import optimize

calls = []
for c in workloads.solve(seed):
    first, g, G, alpha, beta = c.args
    cset = lne.ConstraintSet(g, np.atleast_1d(G))
    calls.append((cset.n, cset.m, getattr(lne, c.fn), (first, cset, lne.EntropyParams(alpha, beta))))

def run(fn, args):
    try:
        return fn(*args).report
    except optimize.ConvergenceError as e:
        return e.report
    except ValueError:
        return None

inner, count = optimize._log_weights, [0]
def counted(*a):
    count[0] += 1
    return inner(*a)

rows = []
optimize._log_weights = counted
for n, m, fn, args in calls:
    count[0] = 0
    rep = run(fn, args)
    rows.append([n, m, rep is not None and rep.converged, rep.iterations if rep else 0, count[0]])
optimize._log_weights = inner
for row, (n, m, fn, args) in zip(rows, calls):
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        run(fn, args)
        best = min(best, time.perf_counter() - t)
    row.append(best)

conv = [r for r in rows if r[2]]
small = [r for r in conv if r[0] < 1000 and r[3] > 0]
print(json.dumps({
    "solves": len(rows),
    "converged": len(conv),
    "steps_mean": statistics.fmean(r[3] for r in conv),
    "evals_mean": statistics.fmean(r[4] for r in conv),
    "steps_median": statistics.median(r[3] for r in conv),
    "evals_median": statistics.median(r[4] for r in conv),
    "evals_mean_all": statistics.fmean(r[4] for r in rows),
    "small_solve_ms_median": 1e3 * statistics.median(r[5] for r in small),
    "small_step_us_median": 1e6 * statistics.median(r[5] / r[3] for r in small),
    "small_step_us_median_by_m": {m: 1e6 * statistics.median(r[5] / r[3] for r in small if r[1] == m)
                                  for m in sorted({r[1] for r in small})},
}))
"""


def _git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed: {out.stderr.strip()}")
    return out.stdout.strip()


def _export(commit, dest):
    """Write the committed files of ``commit`` into ``dest``."""
    data = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def _bench_run(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # its own session, so that an interrupted run takes its workers with it
    with subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed:\n{stderr.strip()}")
    res = json.loads(stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in res["metrics"].items()}, res["failed"], res["attempted"]


def _l3(tree, seed):
    out = subprocess.run([sys.executable, "-c", L3_CODE, tree, str(seed)], capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"L3 pass in {tree} failed:\n{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# The keys of an L3 pass that time rather than count.
L3_TIMES = ("small_solve_ms_median", "small_step_us_median", "small_step_us_median_by_m")


def _lower(a, b):
    return {m: min(a[m], b[m]) for m in a} if isinstance(a, dict) else min(a, b)


def l3_row(trees, seed):
    """The L3 row of ``seed``: `_l3` of each tree twice, base first and
    then head first, with each side's counts checked equal between its
    passes and each time the lower of the two."""
    passes = {"base": [], "head": []}
    for order in (("base", "head"), ("head", "base")):
        for side in order:
            passes[side].append(_l3(trees[side], seed))
    row = {"seed": seed}
    for side, (one, two) in passes.items():
        counts = {k: v for k, v in one.items() if k not in L3_TIMES}
        if counts != {k: v for k, v in two.items() if k not in L3_TIMES}:
            raise SystemExit(f"L3 seed {seed}: the {side} tree's counts differ between its two passes")
        row[side] = {**counts, **{k: _lower(one[k], two[k]) for k in L3_TIMES}}
    return row


def load_package(tree, name):
    """The ``lne`` package of ``tree``/src imported as the package ``name``,
    so that two trees' packages live side by side in one process (its
    modules import one another relatively)."""
    init = os.path.join(tree, "src", "lne", "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    try:
        spec.loader.exec_module(pkg)
    except BaseException:
        del sys.modules[name]
        raise
    return pkg


def pool_calls(workload, pool, pkg):
    """The pool's calls into ``pkg``, built as the benchmark's worker
    builds them."""
    if workload == "solve":
        return worker.SolveAdapter(pool, pkg).calls(pkg)
    return [functools.partial(getattr(pkg, c.fn), *c.args) for c in pool]


def interleave(calls, rounds, clock=time.perf_counter):
    """({side: [[time of entry j in each round] for j]}, {side: ops that
    raised}) of ``calls`` = {side: the same pool's calls}: one untimed
    call of every entry on each side, then ``rounds`` timed ones, the
    side that goes first alternating over entries and rounds."""
    sides = ("base", "head")
    times = {side: [[] for _ in calls["base"]] for side in sides}
    failed = dict.fromkeys(sides, 0)
    for r in range(-1, rounds):
        for j in range(len(calls["base"])):
            for side in sides if (r + j) % 2 == 0 else sides[::-1]:
                t0 = clock()
                try:
                    calls[side][j]()
                except Exception:  # noqa: BLE001 - a failed op is timed and counted, as the benchmark does
                    failed[side] += r >= 0
                if r >= 0:
                    times[side][j].append(clock() - t0)
    return times, failed


def interleave_summary(names, times, failed):
    """Per op name each side's median ms, and each side's ``op_p50_ms``
    and ``op_tail_ms`` (p90) over every timed op, as the benchmark takes
    them."""
    ops = {}
    for name in dict.fromkeys(names):
        med = {side: 1e3 * statistics.median(t for j, n in enumerate(names) if n == name for t in times[side][j])
               for side in times}
        ops[name] = {**med, "ratio": med["head"] / med["base"] if med["base"] else None}
    pool = {}
    for side, per_entry in times.items():
        stats = worker.latency_stats([t for ts in per_entry for t in ts], 1.0)
        pool[side] = {k: stats[k] for k in ("op_p50_ms", "op_tail_ms", "samples")}
    for k in ("op_p50_ms", "op_tail_ms"):
        pool[k + "_ratio"] = pool["head"][k] / pool["base"][k]
    return {"ops": ops, "pool": pool, "failed": failed}


def interleave_row(trees, workload, seed, rounds):
    """The interleaved row of one workload and seed (see the module's doc)."""
    import workloads

    if workload not in ("eval-small", "eval-large", "solve"):
        raise SystemExit(f"--interleave runs eval-small, eval-large or solve, not {workload}")
    pool = workloads.POOLS[workload](seed)
    calls = {side: pool_calls(workload, pool, load_package(tree, f"lne_{side}")) for side, tree in trees.items()}
    times, failed = interleave(calls, rounds)
    return {"workload": workload, "seed": seed, "rounds": rounds,
            **interleave_summary([c.fn for c in pool], times, failed)}


def _spread(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(base, head, better):
    """Medians, quartiles, median ratio and wins of paired samples, and
    whether the medians differ by more than the base's quartile distance."""
    sign = 1.0 if better == "lower" else -1.0
    b, h = _spread(base), _spread(head)
    return {
        "base": base,
        "head": head,
        "base_spread": b,
        "head_spread": h,
        "ratio": h["median"] / b["median"] if b["median"] else None,
        "wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
        "pairs": len(base),
        "beyond_base_iqr": abs(h["median"] - b["median"]) > b["q3"] - b["q1"],
    }


# Largest spread of one side's own peak_rss_mb runs that still reads one
# allocator state, by workload.
RSS_SPREAD_MB = {"eval-large": 3.0}


def rss_flips(workload, metrics):
    """The sides ("base", "head") whose peak_rss_mb runs in ``metrics``
    spread by more than RSS_SPREAD_MB of ``workload``."""
    spread = RSS_SPREAD_MB.get(workload)
    if spread is None:
        return []
    rss = metrics["peak_rss_mb"]
    return [side for side in ("base", "head") if max(rss[side]) - min(rss[side]) > spread]


def _flip_note(workload, sides):
    return f", peak_rss_mb runs spread by > {RSS_SPREAD_MB[workload]:g} MB within {' and '.join(sides)}"


def summary_lines(result):
    """The printed summary of ``result``: one line per workload and seed,
    one per pooled workload and one per L3 seed."""
    lines = []
    for row in result["runs"]:
        m = row["metrics"]["op_p50_ms"]
        line = (f"{row['workload']:10s} seed {row['seed']}: op_p50_ms {m['base_spread']['median']:.4g} -> "
                f"{m['head_spread']['median']:.4g} ({m['ratio']:.3f}x, {m['wins']}/{m['pairs']} wins), "
                f"failed {row['failed']['base']} -> {row['failed']['head']} of {row['attempted']}")
        if row.get("rss_flip_sides"):
            line += _flip_note(row["workload"], row["rss_flip_sides"])
        lines.append(line)
    for workload, metrics in result["pooled"].items():
        m = metrics["op_p50_ms"]
        line = (f"{workload:10s} pooled: op_p50_ms {m['ratio']:.3f}x, {m['wins']}/{m['pairs']} wins, "
                f"beyond the base's quartile distance: {m['beyond_base_iqr']}")
        flips = rss_flips(workload, metrics)
        if flips:
            line += _flip_note(workload, flips)
        lines.append(line)
    for row in result.get("interleave", []):
        pool = row["pool"]
        ops = ", ".join(f"{name} {op['base']:.3g} -> {op['head']:.3g}" for name, op in row["ops"].items())
        lines.append(f"{row['workload']:10s} seed {row['seed']} interleaved x{row['rounds']}: "
                     f"op_p50_ms {pool['base']['op_p50_ms']:.4g} -> {pool['head']['op_p50_ms']:.4g} "
                     f"({pool['op_p50_ms_ratio']:.3f}x), op_tail_ms {pool['base']['op_tail_ms']:.4g} -> "
                     f"{pool['head']['op_tail_ms']:.4g} ({pool['op_tail_ms_ratio']:.3f}x), "
                     f"failed {row['failed']['base']} -> {row['failed']['head']}; {ops}")
    for row in result["l3"]:
        b, h = row["base"], row["head"]
        by_m = ", ".join(f"m = {m}: {b['small_step_us_median_by_m'][m]:.1f} -> {us:.1f}"
                         for m, us in h["small_step_us_median_by_m"].items() if m in b["small_step_us_median_by_m"])
        lines.append(f"L3 seed {row['seed']}: steps {b['steps_mean']:.3f} -> {h['steps_mean']:.3f}, "
                     f"evals {b['evals_mean']:.3f} -> {h['evals_mean']:.3f}, "
                     f"us/step {b['small_step_us_median']:.1f} -> {h['small_step_us_median']:.1f} ({by_m})")
    return lines


def _parse_run(spec):
    try:
        workload, seeds, pairs = spec.split(":")
        return workload, [int(s) for s in seeds.split(",")], int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED[,SEED...]:PAIRS, got {spec!r}") from None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--base", default="HEAD~1", help="the parent commit (default HEAD~1)")
    ap.add_argument("--head", default="HEAD", help="the change's commit (default HEAD)")
    ap.add_argument("--run", action="append", type=_parse_run, default=[], metavar="WORKLOAD:SEEDS:PAIRS")
    ap.add_argument("--interleave", action="append", type=_parse_run, default=[],
                    metavar="WORKLOAD:SEEDS:ROUNDS", help="both trees in one process, alternating per pool entry")
    ap.add_argument("--seconds", type=float, help="seconds per benchmark run (default: BENCHMARK.json's)")
    ap.add_argument("--l3-seeds", default="", help="solve-pool seeds for the L3 counts, e.g. 1,2,3")
    args = ap.parse_args(argv)
    if not args.run and not args.interleave and not args.l3_seeds:
        ap.error("nothing to run: give --run, --interleave or --l3-seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    revs = {"base": args.base, "head": args.head}
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in revs.items()}
    result = {
        "pr": args.pr,
        "command": ["python3", "tools/abpairs.py", *(argv if argv is not None else sys.argv[1:])],
        "commits": {s: {"id": c, "subject": _git("log", "-1", "--format=%s", c)} for s, c in commits.items()},
        "seconds": seconds,
        "machine": {k: v for k, v in machine_metadata("solve").items() if k != "git_commit"},
        # glibc's allocator settings, which the benchmark's workers inherit
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "loadavg_before": os.getloadavg(),
        "runs": [],
        "pooled": {},
        "interleave": [],
        "l3": [],
    }
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that `finally` removes the trees
    tmp = tempfile.mkdtemp(prefix="abpairs-")
    try:
        trees = {}
        for side, c in commits.items():
            trees[side] = os.path.join(tmp, side)
            _export(c, trees[side])
        for workload, seeds, pairs in args.run:
            for seed in seeds:
                samples = {"base": [], "head": []}
                for i in range(pairs):
                    for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                        samples[side].append(_bench_run(trees[side], workload, seed, seconds))
                        print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: "
                              f"op_p50_ms {samples[side][-1][0]['op_p50_ms']:.4g}", file=sys.stderr, flush=True)
                row = {"workload": workload, "seed": seed, "metrics": {}}
                for name, how in better.items():
                    row["metrics"][name] = summarize(
                        [s[0][name] for s in samples["base"]], [s[0][name] for s in samples["head"]], how
                    )
                row["failed"] = {side: sorted({s[1] for s in samples[side]}) for side in samples}
                row["attempted"] = samples["base"][0][2]
                row["rss_flip_sides"] = rss_flips(workload, row["metrics"])
                result["runs"].append(row)
        for workload in {r["workload"] for r in result["runs"]}:
            rows = [r for r in result["runs"] if r["workload"] == workload]
            if len(rows) > 1:  # every pair of every seed
                pool = {name: {side: [x for r in rows for x in r["metrics"][name][side]] for side in ("base", "head")}
                        for name in better}
                result["pooled"][workload] = {
                    name: summarize(pool[name]["base"], pool[name]["head"], how) for name, how in better.items()
                }
        for workload, seeds, rounds in args.interleave:
            for seed in seeds:
                result["interleave"].append(interleave_row(trees, workload, seed, rounds))
        for seed in [int(s) for s in args.l3_seeds.split(",") if s]:
            result["l3"].append(l3_row(trees, seed))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["loadavg_after"] = os.getloadavg()

    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(*summary_lines(result), sep="\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
