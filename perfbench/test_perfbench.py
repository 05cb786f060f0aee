"""Self-tests of the benchmark: seeded inputs, domains, checkers, tracing.

    python3 -m pytest perfbench -q

They exercise the benchmark's own code and references; none of them
imports the program.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _pools_equal(p, q):
    return len(p) == len(q) and all(
        x.fn == y.fn and _same(x.args, y.args) and _same(x.files, y.files) for x, y in zip(p, q)
    )


@pytest.mark.parametrize("name", ["eval-small", "eval-large", "solve", "cli"])
def test_same_seed_gives_identical_inputs(name):
    make = workloads.POOLS[name]
    assert _pools_equal(make(5), make(5))
    assert not _pools_equal(make(5), make(6))


def test_inputs_stay_in_each_domain():
    pool = workloads.eval_small(3)
    for case in pool:
        if case.fn == "tsallis":
            assert abs(case.args[0].sum() - 1.0) <= 1e-12
        if case.fn in ("kapur", "norm_entropy"):
            assert case.args[1] != case.args[2]
    lne_pairs = [c.args[1] for c in pool if c.fn == "lne"]
    gaps = [abs(a - b) for a, b in lne_pairs]
    assert any(g == 0.0 for g in gaps)
    assert any(1e-12 <= g <= 1e-6 for g in gaps)
    assert any(c.args[0].min() < 1e-200 for c in pool)
    for case in workloads.solve(3):
        first, g, G, alpha, beta = case.args
        if case.fn == "solve_minxent":
            assert np.all(first > 0)
        assert g.shape[0] < g.shape[1]
        assert np.all((g.min(axis=1) < G) & (G < g.max(axis=1)))
    w = workloads.eval_large(3)[0].args[0]
    assert w.size == workloads.LARGE_N and w.max() / w.min() >= 1e200


def test_checker_flags_a_perturbed_value():
    for case in workloads.eval_small(7)[:40]:
        ref = reference.reference(case.fn, case.args)
        exact = np.asarray(ref, dtype=float)
        assert reference.rel_err(exact, ref) <= reference.TOL_EVAL
        assert reference.rel_err(exact * (1 + 1e-6), ref) > reference.TOL_EVAL


def test_solve_checker_accepts_the_target_distribution_and_flags_a_perturbation():
    rng = np.random.default_rng(0)
    n = 6
    p = rng.uniform(0.1, 1.0, n)
    p /= p.sum()
    g = rng.standard_normal((2, n))
    e = p**2.0 / np.sum(p**2.0)
    args = (n, g, g @ e, 1.5, 2.0)
    assert reference.solve_error(args, p) <= 1e-14
    assert reference.solve_error(args, p * (1 + 1e-6)) > reference.TOL_SOLVE
    assert reference.solve_error(args, -p) == math.inf


def _cli_output(case):
    argv, expect = case.args
    value = float(reference._entropy_ref(expect))
    return argv, expect, f"family {argv[4]}\nalpha 1\nbeta 1\nvalue {value:.11e}\n", value


def test_cli_checker_flags_nonzero_exit_and_wrong_digits():
    case = next(c for c in workloads.cli(2) if c.args[0][0] == "entropy")
    argv, expect, text, value = _cli_output(case)
    assert reference.cli_check(argv, expect, 0, text)[0]
    assert not reference.cli_check(argv, expect, 1, text)[0]
    wrong = text.replace(f"{value:.11e}", f"{value * (1 + 1e-6):.11e}")
    assert not reference.cli_check(argv, expect, 0, wrong)[0]
    assert not reference.cli_check(argv, expect, 0, "")[0]


def test_stationary_cli_problem_is_solved_by_its_target():
    rng = np.random.default_rng(4)
    for minxent in (False, True):
        problem, p = workloads._stationary_problem(rng, minxent)
        prm = problem["params"]
        g = np.array([c["g"] for c in problem["constraints"]])
        G = np.array([c["G"] for c in problem["constraints"]])
        e = p ** prm["beta"] / np.sum(p ** prm["beta"])
        assert np.allclose(g @ e, G, atol=1e-12)


def test_self_time_subtracts_children():
    spans = [
        (0, None, 0, "op.lne", 0.0, 10.0),
        (1, 0, 0, "entropy.lne", 1.0, 9.0),
        (2, 1, 0, "numkit.log_norm", 2.0, 4.0),
        (3, 1, 0, "numkit.log_norm", 5.0, 8.0),
    ]
    self_time, calls = tracing.summarize(spans)
    assert self_time == {"op": 2.0, "entropy": 3.0, "numkit": 5.0}
    assert calls["numkit.log_norm"] == 2


def test_tracer_records_parents_and_generator_steps():
    tr = tracing.Tracer()

    def gen():
        with tr.span("inner"):
            pass
        yield 1

    wrapped = tr._wrap(gen, "checks.run")
    with tr.span("outer"):
        assert list(wrapped()) == [1]
    steps = [s for s in tr.spans if s[3] == "checks.run"]
    (inner,) = [s for s in tr.spans if s[3] == "inner"]
    (outer,) = [s for s in tr.spans if s[3] == "outer"]
    assert len(steps) == 2  # the step that yields 1, and the one that ends the generator
    assert inner[1] == steps[0][0]
    assert all(s[1] == outer[0] for s in steps)


def test_tail_is_p90_with_its_count_beyond():
    lat = [i / 1000.0 for i in range(1, 101)]
    stats = worker.latency_stats(lat, sum(lat))
    assert (stats["op_tail_ms"], stats["tail_beyond"]) == (pytest.approx(90.0), 10)
    assert stats["op_p50_ms"] == pytest.approx(50.5)
    assert stats["ops_per_s"] == pytest.approx(100 / sum(lat))
    few = worker.latency_stats(lat[:13], 1.0)
    assert (few["op_tail_ms"], few["tail_beyond"]) == (pytest.approx(12.0), 1)


def test_loop_runs_every_entry_and_failures_count_entries():
    class Pool:
        pool = list(range(5))
        names = [f"op{j}" for j in range(5)]

        def needs_full_check(self, j):
            return False

        def error(self, j, out):
            return 0.0, out != 3

    def fail_on_four():
        raise ValueError("op 4")

    calls = [lambda j=j: float(j) for j in range(4)] + [fail_on_four]
    outcomes = worker.Outcomes(len(calls))
    lat, _ = worker.closed_loop(calls, Pool.names, 0.0, outcomes)
    assert len(lat) == 5 and outcomes.runs == [1] * 5
    worker.closed_loop(calls, Pool.names, 0.0, outcomes)
    res = worker.check(Pool(), outcomes, calls)
    assert (res["attempted"], res["failed"], res["ops_run"]) == (5, 2, 10)
    assert res["correct"]
