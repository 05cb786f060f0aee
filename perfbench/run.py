"""Benchmark entry point for the lne library and CLI.

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  Workloads: eval-small, eval-large, solve, cli (see README.md).

Each run starts fresh worker interpreters.  Each one imports the
program and warms it up, and the time from its start to its READY line
is one set-up sample.  One of them then runs the workload as a closed
loop (one caller, no threads) and checks every output against an
independent reference; SETUP_AROUND more run before it and as many
after it, so the set-up samples span the run rather than one moment
of a shared host.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` is
the number of distinct inputs in the seeded pool, each of which the
loop runs at least once, and ``failed`` the number of them whose
output was rejected, so both depend on the seed alone.  With ``--trace 0``
the metrics are the end-to-end ones: setup_s, op_p50_ms, op_tail_ms,
ok_share and peak_rss_mb; ops_per_s, fail_share and max_rel_err are
printed above it.  With ``--trace 1`` the run is split into an untraced
and a traced half, and the metrics are the per-layer ones.  Each run
also writes its full result, with machine metadata, to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("eval-small", "eval-large", "solve", "cli")
SETUP_AROUND = 2  # set-up-only workers before and after the timed one
IMPORT_SAMPLES = 3
WORKER_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "numkit.self_ms": "ms",
    "numkit.as_weights.calls": "count",
    "numkit.log_norm.calls": "count",
    "numkit.escort.calls": "count",
    "entropy.self_ms": "ms",
    "entropy.calls": "count",
    "crossent.self_ms": "ms",
    "qdeform.self_ms": "ms",
    "optimize.self_ms": "ms",
    "optimize.iterations": "count",
    "optimize.restarts": "count",
    "optimize.fallback_share": "share",
    "optimize.converged_share": "share",
    "optimize.clamped_share": "share",
    "cli.import_s": "s",
    "cli.lib_import_s": "s",
    "cli.main_ms": "ms",
    "checks.run_ms": "ms",
    "trace.overhead_share": "share",
}

# Worker environment: one caller and no worker threads, in BLAS too.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _worker(spec):
    """Start one worker; returns (set-up seconds, its last output line)."""
    cmd = [sys.executable, WORKER, json.dumps(spec)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker for {spec['workload']} failed (exit code {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def _cold_import(module):
    """Seconds a fresh interpreter spends in ``import <module>``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, SRC], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise BenchError(f"import {module} failed: {out.stderr.strip()}")
    return float(out.stdout)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_metadata(workload):
    """Versions, processor and cache sizes, thread settings and commit."""
    meta = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            meta[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            meta[pkg] = None
    meta["nproc"] = len(os.sched_getaffinity(0))
    model = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")]
    meta["cpu_model"] = model[0] if model else "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        indices = sorted(os.listdir(base))
    except OSError:
        indices = []
    for idx in indices:
        level = _read(os.path.join(base, idx, "level")).strip()
        kind = _read(os.path.join(base, idx, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, idx, "size")).strip()
    meta["caches"] = caches
    meta["blas_threads"] = THREAD_ENV["OPENBLAS_NUM_THREADS"] + " (OPENBLAS/OMP/MKL_NUM_THREADS in the worker)"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
        )
        commit = git.stdout.strip() if git.returncode == 0 else ""
    except OSError:
        commit = ""
    meta["git_commit"] = commit or "unknown (not a git checkout)"
    if workload == "eval-large":
        sys.path.insert(0, HERE)
        import workloads

        ws = 3 * workloads.LARGE_N * 8
        meta["working_set"] = (
            f"{ws / 2**20:.1f} MiB computed (three float64 vectors of n = {workloads.LARGE_N}) "
            f"against L3 = {caches.get('L3', 'unknown')}"
        )
    return meta


def run(workload, seed, seconds, trace):
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "out": OUT}
    os.makedirs(OUT, exist_ok=True)
    setups = [_worker({**spec, "setup_only": True})[0] for _ in range(SETUP_AROUND)]
    setup, line = _worker(spec)
    setups.append(setup)
    setups += [_worker({**spec, "setup_only": True})[0] for _ in range(SETUP_AROUND)]
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        raise BenchError(f"worker for {workload} printed no result") from e

    attempted, failed = res["attempted"], res["failed"]
    if trace:
        layer = res.pop("layer")
        layer["cli.import_s"] = statistics.median(_cold_import("lne.cli") for _ in range(IMPORT_SAMPLES))
        layer["cli.lib_import_s"] = statistics.median(_cold_import("lne") for _ in range(IMPORT_SAMPLES))
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setups,
        "fail_share": failed / attempted,
        **res,
        "metadata": machine_metadata(workload),
    }
    path = os.path.join(OUT, f"result-{workload}-{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "info": info}, fh, indent=1, default=float)

    for k, m in metrics.items():
        print(f"{k:26s} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(
            f"op_tail_ms is p{res['tail_percentile']:g} with {res['tail_beyond']} of {res['samples']} samples beyond it"
        )
        print(f"{'ops_per_s':26s} {res['ops_per_s']:.6g} 1/s")
        print(f"{'fail_share':26s} {failed / attempted:.6g} share ({failed} of {attempted} pool entries)")
        print(f"{'ops_run':26s} {res['ops_run']} count (each pool entry at least once)")
        print(f"{'max_rel_err':26s} {res['max_rel_err']:.6g} 1")
    print(f"full result: {os.path.relpath(path, ROOT)}")
    return {"correct": bool(res["correct"]), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lne", "__init__.py")):
        sys.stderr.write(f"error: no lne package under {SRC}; run from the root of an lne checkout\n")
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
