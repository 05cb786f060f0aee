"""One workload process: the fresh interpreter a workload runs in.

``python3 perfbench/worker.py '<json spec>'``, started by run.py.  The
process imports the program from ``<checkout>/src``, warms it up and
prints ``READY``; run.py times that as one set-up sample.  With
``setup_only`` it stops there.  Otherwise it generates the seeded pool,
runs the closed loop (one caller, no threads) for the given seconds,
takes its peak RSS, then computes the references, checks the outputs
and prints one JSON line with the raw results.

The loop keeps the first outcome of each pool entry and checks that
every later call on that entry returns an identical outcome, so its
memory does not grow with the number of ops.  References and checks
run after the timed phase and the RSS reading.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _setup(workload):
    """Import the program and make the first timed op ready to run."""
    sys.path.insert(0, SRC)
    if workload == "cli":
        import lne.cli  # what every CLI process imports before parsing arguments

        return
    import lne

    w = [0.5, 0.3, 0.2]
    if workload == "solve":
        cset = lne.ConstraintSet([[0.0, 1.0, 2.0]], [0.8])
        lne.solve_maxent(3, cset, (2.0, 1.0))
        lne.solve_minxent(w, cset, (0.5, 1.5))
        return
    for fn, args in (
        ("shannon", (w,)),
        ("renyi", (w, 2.0)),
        ("tsallis", (w, 2.0)),
        ("kapur", (w, 2.0, 0.5)),
        ("norm_entropy", (w, 2.0, 0.5)),
        ("aczel_daroczy", (w, 2.0)),
        ("lne", (w, (2.0, 0.5))),
        ("lne", (w, (2.0, 2.0))),
        ("lne_min_entropy_limit", (w, 2.0)),
        ("lnce", (w, w[::-1], (2.0, 0.5))),
        ("log_norm", (w, 2.0)),
        ("escort", (w, 2.0)),
        ("q_log", (w, 2.0)),
        ("q_exp", (w, 2.0)),
    ):
        getattr(lne, fn)(*args)


# ---------------------------------------------------------------------------
# The closed loop


def _fingerprint(out, exc):
    """Comparable summary of one op's outcome, for the determinism check;
    bytes and text are hashed so only a number is kept per pool entry."""
    if exc is not None:
        return ("raise", type(exc).__name__, str(exc))
    if hasattr(out, "returncode"):
        return (out.returncode, hash(out.stdout))
    if hasattr(out, "p"):
        return hash(out.p.tobytes())
    if hasattr(out, "tobytes"):
        return hash(out.tobytes())
    return float(out)


class Outcomes:
    """First outcome of each pool entry, how often each entry ran, and
    whether every later outcome matched the first.

    ``compact`` shrinks every output before it is compared; ``keep``
    turns a first output into what is stored for the check.
    """

    def __init__(self, size, compact=None, keep=None):
        self.first = {}
        self._fp = {}
        self.runs = [0] * size
        self.compact = compact
        self.keep = keep
        self.deterministic = True

    def add(self, j, out, exc):
        if exc is not None:
            exc.__traceback__ = None  # do not keep the frames alive
        if self.compact is not None:
            out = self.compact(out)
        self.runs[j] += 1
        fp = _fingerprint(out, exc)
        if j in self._fp:
            self.deterministic &= fp == self._fp[j]
        else:
            self._fp[j] = fp
            self.first[j] = (out if exc is not None or self.keep is None else self.keep(j, out), exc)


def closed_loop(calls, names, seconds, outcomes, tracer=None):
    """Run ``calls`` round-robin, one at a time, until ``seconds`` pass
    and every call has run at least once.

    Returns (latencies in s, wall s).  A raised exception is a failed
    op: it is recorded in ``outcomes`` and not re-raised.
    """
    clock = time.perf_counter
    n = len(calls)
    lat = array("d")
    i = 0
    start = clock()
    deadline = start + seconds
    while True:
        j = i % n
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            if tracer is None:
                out = calls[j]()
            else:
                with tracer.span("op." + names[j]):
                    out = calls[j]()
            exc = None
        except Exception as e:  # noqa: BLE001 - the loop records every failure
            out, exc = None, e
        t1 = clock()
        lat.append(t1 - t0)
        outcomes.add(j, out, exc)
        i += 1
        if t1 >= deadline and i >= n:
            break
    return lat, clock() - start


def latency_stats(lat, wall):
    """Throughput, median and tail latency (ms) of one closed loop.

    The tail is p90 (nearest rank).  A higher percentile would sit on a
    handful of ops: in `solve` p99 falls among the 0.2-3 s solves that
    restart or fail, so it moves by a fifth from seed to seed.  p90 has
    at least ten samples beyond it whenever a run has 100 ops, which
    every workload but `cli` has; the count beyond is reported with it.
    """
    import statistics

    s = sorted(lat)
    n = len(s)
    k = -(-n * 9 // 10) - 1  # nearest rank of p90, 0-based
    return {
        "ops_per_s": n / wall,
        "op_p50_ms": statistics.median(s) * 1e3,
        "op_tail_ms": s[k] * 1e3,
        "tail_percentile": 90.0,
        "tail_beyond": n - 1 - k,
        "samples": n,
        "latency_ms_quantiles": {str(q): s[-(-n * q // 100) - 1] * 1e3 for q in (50, 90, 99)},
    }


def peak_rss_mb(children=False):
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# Workload adapters: build calls from the pool, and check outputs


class EvalAdapter:
    """eval-small / eval-large: one public library call per op."""

    keep = None

    # entries of a large vector output kept from each timed op
    SAMPLE = 64
    LARGE = 4096

    def __init__(self, pool):
        import numpy as np

        self.pool = pool
        self.names = [c.fn for c in pool]
        self.sample_idx = None
        sizes = [c.args[0].size for c in pool if c.args[0].size > self.LARGE]
        if sizes:
            self.sample_idx = np.random.default_rng(0).choice(sizes[0], self.SAMPLE, replace=False)

    def calls(self, lne):
        return [partial(getattr(lne, c.fn), *c.args) for c in self.pool]

    def compact(self, out):
        """Sample a large vector output, so the loop keeps 64 entries."""
        if self.sample_idx is not None and getattr(out, "size", 0) > self.LARGE:
            return out[self.sample_idx].copy()
        return out

    def needs_full_check(self, j):
        """Sampled outputs are recomputed after the loop and checked in full."""
        c = self.pool[j]
        return c.fn == "escort" and c.args[0].size > self.LARGE

    def error(self, j, out):
        import reference

        err = reference.rel_err(out, reference.reference(self.pool[j].fn, self.pool[j].args))
        return err, err <= reference.TOL_EVAL


class SolveAdapter:
    """solve: one solve_maxent or solve_minxent call per op."""

    compact = None

    def __init__(self, pool, lne):
        import numpy as np

        self.pool = pool
        self.names = [c.fn for c in pool]
        self.prepared = []
        for c in pool:
            first, g, G, alpha, beta = c.args
            cset = lne.ConstraintSet(g, np.atleast_1d(G))
            self.prepared.append((first, cset, lne.EntropyParams(alpha, beta)))
        self.restarts = lne.SolverConfig().restarts

    def calls(self, lne):
        return [partial(getattr(lne, c.fn), *a) for c, a in zip(self.pool, self.prepared)]

    def keep(self, j, sol):
        """Check a solution as soon as it first appears and keep only the
        verdict and the report, so memory does not grow with solves run."""
        import reference

        err = reference.solve_error(self.pool[j].args, sol.p)
        return err, err <= reference.TOL_SOLVE, sol.report

    def needs_full_check(self, j):
        return False

    def error(self, j, kept):
        return kept[0], kept[1]

    def counters(self, outcomes, runs):
        """Per-solve averages of the public SolverReport, weighting each
        pool entry by how often it ran (``runs``)."""
        keys = ("iterations", "restarts", "fallback_share", "converged_share", "clamped_share")
        total = dict.fromkeys(keys, 0.0)
        n = 0
        for j, (out, exc) in outcomes.first.items():
            rep = out[2] if exc is None else getattr(exc, "report", None)
            if rep is None or not runs[j]:
                continue
            m = self.prepared[j][1].m
            # bisection runs for m == 1 whenever every Newton start failed;
            # when it wins, the report encodes it as restarts_used == restarts + 1
            fallback = rep.restarts_used == self.restarts + 1 or (m == 1 and not rep.converged)
            for key, v in zip(keys, (rep.iterations, rep.restarts_used, fallback, rep.converged, bool(rep.clamped_states))):
                total[key] += runs[j] * float(v)
            n += runs[j]
        return {k: v / n if n else 0.0 for k, v in total.items()}


class CliAdapter:
    """cli: one cold ``python -m lne.cli`` process per op."""

    compact = keep = None

    def __init__(self, pool, workdir):
        import workloads

        self.pool = pool
        self.names = ["cli." + c.args[0][0] for c in pool]
        self.workdir = workdir
        workloads.write_problem_files(pool, workdir)
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def calls(self, _module):
        import subprocess

        return [
            partial(
                subprocess.run,
                [sys.executable, "-m", "lne.cli", *c.args[0]],
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            for c in self.pool
        ]

    def in_process_calls(self, cli):
        """Warm ``lne.cli.main`` calls on the same argv, stdout captured.
        They read the problem files relative to the working directory."""
        import contextlib
        import io
        import subprocess

        os.chdir(self.workdir)

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return subprocess.CompletedProcess(argv, code, buf.getvalue(), "")

        return [partial(run, list(c.args[0])) for c in self.pool]

    def needs_full_check(self, j):
        return False

    def error(self, j, out):
        import reference

        argv, expect = self.pool[j].args
        ok, err, _ = reference.cli_check(argv, expect, out.returncode, out.stdout)
        return err, ok


# ---------------------------------------------------------------------------
# Checking


def check(adapter, outcomes, calls):
    """Check the outcome of every pool entry.

    An op is one pool entry: its input is attempted once per run and
    timed as often as the loop came round to it.  It fails when it
    raised or its output was rejected.  Every run of an entry shares the
    verdict of its first outcome, because the loop checked that later
    outcomes are identical; the run is `correct` when they all were.
    Counting entries rather than runs makes `failed` a function of the
    seed alone, not of how many ops the machine ran in the time.
    Outputs the loop only sampled are recomputed here and checked in
    full.
    """
    failed = 0
    reasons = {}
    worst = {}
    for j, (out, exc) in outcomes.first.items():
        if adapter.needs_full_check(j):
            try:
                full, full_exc = calls[j](), None
            except Exception as e:  # noqa: BLE001 - recorded as a failure
                full, full_exc = None, e
            outcomes.deterministic &= _fingerprint(adapter.compact(full), full_exc) == _fingerprint(out, exc)
            out, exc = full, full_exc
        if exc is not None:
            ok, why = False, f"{adapter.names[j]}: raised {type(exc).__name__}"
        else:
            err, ok = adapter.error(j, out)
            name = adapter.names[j]
            worst[name] = max(worst.get(name, 0.0), err)
            why = f"{name}: output rejected"
        if not ok:
            failed += 1
            reasons[why] = reasons.get(why, 0) + 1
    if len(outcomes.first) != len(adapter.pool):
        raise RuntimeError(f"{len(adapter.pool) - len(outcomes.first)} pool entries never ran")
    return {
        "attempted": len(adapter.pool),
        "failed": failed,
        "ops_run": sum(outcomes.runs),
        "correct": outcomes.deterministic,
        "max_rel_err": max(worst.values(), default=float("nan")),
        "max_rel_err_by_call": worst,
        "failures_by_reason": reasons,
    }


# ---------------------------------------------------------------------------
# Runs


def _adapter(spec, pool, lne):
    if spec["workload"] == "cli":
        return CliAdapter(pool, os.path.join(spec["out"], f"cli-{spec['seed']}-{os.getpid()}"))
    if spec["workload"] == "solve":
        return SolveAdapter(pool, lne)
    return EvalAdapter(pool)


def run(spec):
    import workloads

    workload, seconds = spec["workload"], spec["seconds"]
    lne = sys.modules["lne"]
    adapter = _adapter(spec, workloads.POOLS[workload](spec["seed"]), lne)
    if spec["trace"]:
        return run_traced(spec, adapter, lne)

    calls = adapter.calls(lne)
    outcomes = Outcomes(len(calls), adapter.compact, adapter.keep)
    lat, wall = closed_loop(calls, adapter.names, seconds, outcomes)
    rss = peak_rss_mb(children=workload == "cli")
    if workload == "cli":
        calls = adapter.in_process_calls(sys.modules["lne.cli"])
    return {
        "peak_rss_mb": rss,
        **latency_stats(lat, wall),
        **check(adapter, outcomes, calls),
    }


def run_traced(spec, adapter, lne):
    """Untraced then traced halves of the run, on the same pool.

    For cli both halves call ``lne.cli.main`` in this process, since a
    cold child process cannot be traced from here.
    """
    import statistics

    import tracing

    workload, half = spec["workload"], spec["seconds"] / 2.0
    checks_ms = 0.0
    module = lne
    make_calls = adapter.calls
    if workload == "cli":
        import lne.checks

        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            list(lne.checks.run_checks())
            runs.append(time.perf_counter() - t0)
        checks_ms = statistics.median(runs) * 1e3
        module = sys.modules["lne.cli"]
        make_calls = adapter.in_process_calls

    calls = make_calls(module)
    outcomes = Outcomes(len(calls), adapter.compact, adapter.keep)
    lat0, _ = closed_loop(calls, adapter.names, half, outcomes)
    runs0 = list(outcomes.runs)
    tracer = tracing.Tracer()
    tracer.install()
    # same pool entries as the untraced half, so the two medians compare
    lat1, _ = closed_loop(make_calls(module), adapter.names, half, outcomes, tracer)
    runs1 = [b - a for a, b in zip(runs0, outcomes.runs)]
    spans = list(tracer.spans)
    trace_file = os.path.join(spec["out"], f"trace-{workload}-{spec['seed']}.jsonl.gz")
    tracer.write(trace_file)
    summary = check(adapter, outcomes, calls)

    ops = len(lat1)
    self_s, calls_n = tracing.summarize(spans)
    p50_plain = statistics.median(lat0) * 1e3
    p50_traced = statistics.median(lat1) * 1e3
    layer = {
        "numkit.self_ms": self_s.get("numkit", 0.0) * 1e3 / ops,
        "numkit.as_weights.calls": calls_n.get("numkit.as_weights", 0) / ops,
        "numkit.log_norm.calls": calls_n.get("numkit.log_norm", 0) / ops,
        "numkit.escort.calls": calls_n.get("numkit.escort", 0) / ops,
        "entropy.self_ms": self_s.get("entropy", 0.0) * 1e3 / ops,
        "entropy.calls": sum(v for k, v in calls_n.items() if tracing.module_of(k) == "entropy") / ops,
        "crossent.self_ms": self_s.get("crossent", 0.0) * 1e3 / ops,
        "qdeform.self_ms": self_s.get("qdeform", 0.0) * 1e3 / ops,
        "optimize.self_ms": self_s.get("optimize", 0.0) * 1e3 / ops,
        "cli.main_ms": statistics.median(lat0) * 1e3 if workload == "cli" else 0.0,
        "checks.run_ms": checks_ms,
        "trace.overhead_share": (p50_traced - p50_plain) / p50_plain,
    }
    keys = ("iterations", "restarts", "fallback_share", "converged_share", "clamped_share")
    solver = adapter.counters(outcomes, runs1) if workload == "solve" else dict.fromkeys(keys, 0.0)
    layer.update({f"optimize.{k}": solver[k] for k in keys})

    by_cmd = {}
    for i, t in enumerate(lat0):
        by_cmd.setdefault(adapter.names[i % len(calls)], []).append(t)
    return {
        "layer": layer,
        "traced_ops": ops,
        "spans": len(spans),
        "span_file": os.path.relpath(trace_file, ROOT),
        "self_ms_per_op": {k: v * 1e3 / ops for k, v in self_s.items()},
        "calls_per_op": {k: v / ops for k, v in calls_n.items()},
        "untraced_p50_ms_by_call": {k: statistics.median(v) * 1e3 for k, v in by_cmd.items()},
        "op_p50_ms_untraced": p50_plain,
        "op_p50_ms_traced": p50_traced,
        **summary,
    }


def main(argv):
    spec = json.loads(argv[1])
    _setup(spec["workload"])
    lne = sys.modules["lne"]
    if not os.path.abspath(lne.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lne was imported from {lne.__file__}, not from {SRC}")
    print("READY", flush=True)
    if spec.get("setup_only"):
        return 0
    sys.path.insert(0, HERE)
    print(json.dumps(run(spec), default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
