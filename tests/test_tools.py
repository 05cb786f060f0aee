import inspect
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from lne import ConstraintSet, optimize, solve_maxent, solve_minxent

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import abpairs  # noqa: E402
import mp_reference  # noqa: E402
from bitsweep import _REFERENCED  # noqa: E402


def test_bitsweep_smoke():
    # a short sweep: every public call family and the in-process CLI run,
    # with each referenced value's error against the mpmath reference
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bitsweep.py"), "--calls", "100", "--ref"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {line.split(" ")[1] for line in proc.stdout.splitlines()}
    assert {"q_exp", "lne", "lnce", "solve_maxent", "solve_minxent", "cli"} <= names
    assert " | ref " in proc.stdout
    # every family the sweep holds to a reference has one
    assert all(inspect.isfunction(getattr(mp_reference, name, None)) for name in _REFERENCED)


def test_solves_evaluate_the_potential_through_the_module_attribute(monkeypatch):
    # tools/abpairs.py --l3-seeds counts potential evaluations by replacing
    # optimize._log_weights: a solve must look it up there on every call
    inner, count = optimize._log_weights, [0]

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(optimize, "_log_weights", counted)
    cset = ConstraintSet([[0.0, 1.0, 2.0]], [0.8])
    sol = solve_maxent(3, cset, (2.0, 1.0))
    assert count[0] > sol.report.iterations >= 1
    count[0] = 0
    sol = solve_minxent(np.array([0.5, 0.3, 0.2]), cset, (1.0, 1.0))
    assert count[0] > sol.report.iterations >= 1


def test_abpairs_flags_pairs_in_two_allocator_states():
    # eval-large settles at about 76.8 or 82.4 MB: a side whose own runs
    # span both states is flagged, and sides that differ from each other
    # by design, a change that drops an array, are not
    def row(workload, base_rss, head_rss):
        metrics = {"op_p50_ms": abpairs.summarize([8.0, 8.1, 8.2], [7.9, 10.5, 8.0], "lower"),
                   "peak_rss_mb": abpairs.summarize(base_rss, head_rss, "lower")}
        r = {"workload": workload, "seed": 1, "metrics": metrics, "failed": {"base": [0], "head": [0]},
             "attempted": 14}
        r["rss_flip_sides"] = abpairs.rss_flips(workload, metrics)
        return r

    large = row("eval-large", [76.8, 76.9, 76.8], [76.8, 82.4, 76.9])
    smaller = row("eval-large", [76.8, 76.9, 82.4], [67.6, 67.7, 67.6])
    solve = row("solve", [40.0, 40.0, 40.0], [40.0, 50.0, 40.0])
    assert large["rss_flip_sides"] == ["head"]
    assert smaller["rss_flip_sides"] == ["base"]
    assert abpairs.rss_flips("eval-large", row("eval-large", [76.8] * 3, [67.6] * 3)["metrics"]) == []
    assert solve["rss_flip_sides"] == []  # only eval-large has the two states
    metrics = {name: abpairs.summarize(large["metrics"][name]["base"] + smaller["metrics"][name]["base"],
                                       large["metrics"][name]["head"] + smaller["metrics"][name]["head"],
                                       "lower") for name in large["metrics"]}
    result = {"runs": [large, solve, dict(smaller, seed=2)], "pooled": {"eval-large": metrics}, "l3": []}
    lines = abpairs.summary_lines(result)
    assert lines[0].endswith("peak_rss_mb runs spread by > 3 MB within head")
    assert "spread" not in lines[1]
    assert lines[2].endswith("peak_rss_mb runs spread by > 3 MB within base")
    assert lines[3].endswith("peak_rss_mb runs spread by > 3 MB within base and head")


def test_abpairs_l3_line_gives_the_step_time_by_m():
    # the m = 1 steps and the m >= 2 steps solve by different costs: the
    # summary gives each m next to the pooled median, as the JSON keys it
    def side(steps, evals, us, by_m):
        return {"steps_mean": steps, "evals_mean": evals, "small_step_us_median": us,
                "small_step_us_median_by_m": by_m}

    row = {"seed": 2,
           "base": side(4.5, 6.25, 47.04, {"1": 44.0, "2": 48.26, "3": 49.0}),
           "head": side(4.5, 6.25, 40.0, {"1": 45.2, "2": 38.0, "3": 38.5})}
    lines = abpairs.summary_lines({"runs": [], "pooled": {}, "l3": [row]})
    assert lines == ["L3 seed 2: steps 4.500 -> 4.500, evals 6.250 -> 6.250, us/step 47.0 -> 40.0 "
                     "(m = 1: 44.0 -> 45.2, m = 2: 48.3 -> 38.0, m = 3: 49.0 -> 38.5)"]


def test_abpairs_l3_alternates_the_sides(monkeypatch):
    # each seed's L3 pass runs base then head, and then head then base, so
    # that a drift of the host lands on both sides; each time is the
    # lower of a side's two passes, and its counts must agree
    calls = []
    times = {"base": iter([60.0, 50.0]), "head": iter([40.0, 45.0])}

    def l3(tree, seed):
        calls.append(tree)
        us = next(times[tree])
        return {"steps_mean": 4.5, "small_solve_ms_median": us / 10, "small_step_us_median": us,
                "small_step_us_median_by_m": {"1": us, "2": us + 1}}

    monkeypatch.setattr(abpairs, "_l3", l3)
    row = abpairs.l3_row({"base": "base", "head": "head"}, 3)
    assert calls == ["base", "head", "head", "base"]
    assert row == {"seed": 3,
                   "base": {"steps_mean": 4.5, "small_solve_ms_median": 5.0, "small_step_us_median": 50.0,
                            "small_step_us_median_by_m": {"1": 50.0, "2": 51.0}},
                   "head": {"steps_mean": 4.5, "small_solve_ms_median": 4.0, "small_step_us_median": 40.0,
                            "small_step_us_median_by_m": {"1": 40.0, "2": 41.0}}}
    # a side whose passes count differently stops the run
    steps = iter([4.5, 4.5, 4.5, 5.0])
    monkeypatch.setattr(abpairs, "_l3", lambda tree, seed: {"steps_mean": next(steps),
                                                            **dict.fromkeys(abpairs.L3_TIMES, 1.0)})
    with pytest.raises(SystemExit, match="base tree's counts differ"):
        abpairs.l3_row({"base": "base", "head": "head"}, 3)


def test_abpairs_interleave_alternates_the_sides_in_one_process(tmp_path):
    # two stub trees, each with an `lne` package of its own, imported side
    # by side; an op advances a fake clock by its side's cost, so the
    # times are exact, and logs which side ran it
    for side, cost in (("base", 2.0), ("head", 1.0)):
        pkg = tmp_path / side / "src" / "lne"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("from .ops import *\n")
        (pkg / "ops.py").write_text(
            f"COST = {cost}\n"
            "def op(clock, log, j):\n"
            "    log.append((__name__.split('.')[0], j))\n"
            "    clock.now += COST * (j + 1)\n"
            "def bad(clock, log, j):\n"
            "    log.append((__name__.split('.')[0], j))\n"
            "    raise ValueError(j)\n"
        )

    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock, log = Clock(), []
    names = ("lne_stub_base", "lne_stub_head")
    try:
        pkgs = {side: abpairs.load_package(str(tmp_path / side), name) for side, name in zip(("base", "head"), names)}
        assert (pkgs["base"].ops.COST, pkgs["head"].ops.COST) == (2.0, 1.0)
        pool = [types.SimpleNamespace(fn=fn, args=(clock, log, j)) for j, fn in enumerate(("op", "op", "bad"))]
        calls = {side: abpairs.pool_calls("eval-large", pool, pkg) for side, pkg in pkgs.items()}
        times, failed = abpairs.interleave(calls, 2, clock=clock)
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in names]:
            del sys.modules[name]
    # an untimed round, then two timed ones; the first side alternates
    # from entry to entry and from round to round
    b, h = "lne_stub_base", "lne_stub_head"
    assert log == [(h, 0), (b, 0), (b, 1), (h, 1), (h, 2), (b, 2)] + [
        (b, 0), (h, 0), (h, 1), (b, 1), (b, 2), (h, 2),
        (h, 0), (b, 0), (b, 1), (h, 1), (h, 2), (b, 2),
    ]
    assert times == {"base": [[2.0, 2.0], [4.0, 4.0], [0.0, 0.0]], "head": [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]}
    assert failed == {"base": 2, "head": 2}  # the untimed round's failures do not count
    row = {"workload": "eval-large", "seed": 1, "rounds": 2,
           **abpairs.interleave_summary([c.fn for c in pool], times, failed)}
    assert row["ops"] == {"op": {"base": 3000.0, "head": 1500.0, "ratio": 0.5},
                          "bad": {"base": 0.0, "head": 0.0, "ratio": None}}
    # the p90 is the benchmark's nearest rank: the 6th of 6 samples
    assert row["pool"]["base"] == {"op_p50_ms": 2000.0, "op_tail_ms": 4000.0, "samples": 6}
    assert row["pool"]["head"] == {"op_p50_ms": 1000.0, "op_tail_ms": 2000.0, "samples": 6}
    lines = abpairs.summary_lines({"runs": [], "pooled": {}, "interleave": [row], "l3": []})
    assert lines == ["eval-large seed 1 interleaved x2: op_p50_ms 2000 -> 1000 (0.500x), op_tail_ms 4000 -> 2000 "
                     "(0.500x), failed 2 -> 2; op 3e+03 -> 1.5e+03, bad 0 -> 0"]
