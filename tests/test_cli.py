import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lne import (
    EntropyParams,
    SolverConfig,
    gm_subadditivity_rhs,
    lnce,
    lne,
    lne_min_entropy_limit,
    solve_maxent,
    solve_minxent,
)
from lne.checks import (
    check_composition,
    check_cross_entropy,
    check_escort_identity,
    check_extremes,
    check_solvers,
)
from lne.cli import _fmt, binomial_weights, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_problem(tmp_path, name="prob.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def parse_record(text):
    rec = {}
    for line in text.strip().splitlines():
        key, _, rest = line.partition(" ")
        rec[key] = rest
    return rec


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


class TestEntropyCommand:
    def test_uniform_lne_record(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[0.5, 0.5], params={"alpha": 2, "beta": 0.5})
        code, out, _ = run_cli(capsys, "entropy", "--input", path)
        assert code == 0
        rec = parse_record(out)
        assert rec["family"] == "lne"
        assert rec["value"] == "0.693147180560"

    def test_degenerate_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[1.0, 0.0], params={"alpha": 2, "beta": 1})
        for family in ("shannon", "renyi", "lne", "min_entropy_scaled"):
            code, out, _ = run_cli(capsys, "entropy", "--input", path, "--family", family)
            assert code == 0
            assert parse_record(out)["value"] == "0.00000000000"

    def test_derived_value_and_flag_override(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[0.75, 0.25], params={"alpha": 7, "beta": 1})
        code, out, _ = run_cli(capsys, "entropy", "--input", path, "--alpha", "2")
        assert code == 0
        assert parse_record(out)["value"] == "0.470003629246"

    def test_validation_errors_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[0.5, "x"], params={"alpha": 2, "beta": 1})
        code, _, err = run_cli(capsys, "entropy", "--input", path)
        assert code == 2 and "weights[1]" in err
        path = write_problem(tmp_path, weights=[0.5, 0.5])
        code, _, err = run_cli(capsys, "entropy", "--input", path, "--family", "kapur")
        assert code == 2 and "alpha" in err
        code, _, err = run_cli(capsys, "entropy", "--input", str(tmp_path / "missing.json"))
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{не json")
        code, _, err = run_cli(capsys, "entropy", "--input", str(bad))
        assert code == 2 and "line 1" in err

    def test_unknown_family_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[0.5, 0.5], params={"alpha": 2, "beta": 1})
        code, _, _ = run_cli(capsys, "entropy", "--input", path, "--family", "boltzmann")
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[0.5, 0.5], params={"alpha": 2, "beta": 1})
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "entropy", "--input", path, "--output", str(target))
        assert code == 0 and out == ""
        assert "value 0.693147180560" in target.read_text()


class TestCurveCommand:
    def test_shape_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--alpha", "1", "--beta", "1,2", "--step", "0.01"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "beta", "value"]
        assert len(rows) == 101 * 2
        by_key = {(r[0], r[1]): r[2] for r in rows}
        assert by_key[(0.0, 1.0)] == 0.0 and by_key[(1.0, 2.0)] == 0.0
        assert abs(by_key[(0.5, 1.0)] - math.log(2)) <= 1e-12
        for p in (0.13, 0.27, 0.4):
            for b in (1.0, 2.0):
                assert abs(by_key[(p, b)] - by_key[(round(1 - p, 2), b)]) <= 1e-12

    def test_matches_library_at_print_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--alpha", "100", "--beta", "2", "--step", "0.1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = next(r for r in rows if r[0] == 0.3)
        expected = float(lne([0.3, 0.7], EntropyParams(100.0, 2.0)))
        assert abs(row[2] - expected) <= 1e-11

    def test_bad_step(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--alpha", "1", "--beta", "1", "--step", "0.7")
        assert code == 2 and "step" in err


class TestSurfaceCommand:
    def test_two_state_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--n", "1", "--p", "0.5", "--alpha", "0.5,2", "--beta", "1,3"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(abs(r[2] - math.log(2)) <= 1e-12 for r in rows)

    def test_degenerate_p(self, capsys):
        for p in ("0", "1"):
            one_hot = np.zeros(11)
            one_hot[0 if p == "0" else 10] = 1.0
            assert np.array_equal(binomial_weights(10, float(p)), one_hot)
            code, out, _ = run_cli(
                capsys, "surface", "--n", "10", "--p", p, "--alpha", "1,2", "--beta", "1,2"
            )
            assert code == 0
            _, rows = parse_csv(out)
            assert all(r[2] == 0.0 for r in rows)

    def test_rows_match_binomial_pmf(self, capsys):
        # The ratio-recurrence weights and scipy's pmf differ in the last
        # few ulps, so a row can round its 12th digit the other way; such
        # a row must still be right at print precision (one unit in the
        # 12th significant digit of max(|value|, 1)) by a 50-digit value.
        import mpmath
        from scipy.stats import binom

        rng = np.random.default_rng(3)
        flipped = 0
        for _ in range(300):
            n, p = int(rng.integers(1, 401)), float(rng.uniform(0.0, 1.0))
            alphas, betas = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(2, 3))).tolist()
            code, out, _ = run_cli(
                capsys, "surface", "--n", str(n), "--p", repr(p),
                "--alpha", ",".join(map(repr, alphas)), "--beta", ",".join(map(repr, betas)),
            )
            assert code == 0
            got = out.splitlines()[1:]
            w = binom.pmf(np.arange(n + 1), n, p)
            pairs = [(a, b) for a in alphas for b in betas]
            for row, (a, b) in zip(got, pairs):
                if row == f"{_fmt(a)},{_fmt(b)},{_fmt(lne(w, EntropyParams(a, b)))}":
                    continue
                flipped += 1
                with mpmath.workdps(50):
                    pm = mpmath.mpf(p)
                    exact = [mpmath.binomial(n, k) * pm**k * (1 - pm) ** (n - k) for k in range(n + 1)]
                    lnorm = lambda g: mpmath.log(mpmath.fsum(x**g for x in exact)) / g
                    ref = float(a * b / (a - b) * (lnorm(mpmath.mpf(b)) - lnorm(mpmath.mpf(a))))
                value = float(row.split(",")[2])
                assert abs(value - ref) <= 1e-11 * max(abs(ref), 1.0), (n, p, a, b)
        assert flipped <= 5

    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--n", "10", "--p", "0.3", "--alpha", "2", "--beta", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        from scipy.stats import binom

        w = binom.pmf(np.arange(11), 10, 0.3)
        assert abs(rows[0][2] - float(lne(w, EntropyParams(2.0, 2.0)))) <= 1e-11

    def test_origin_corner_approaches_log_states(self, capsys):
        gaps = []
        for origin in ("0.05", "0.005"):
            code, out, _ = run_cli(
                capsys, "surface", "--n", "10", "--p", "0.3",
                "--alpha", origin, "--beta", origin,
            )
            assert code == 0
            _, rows = parse_csv(out)
            gaps.append(abs(rows[0][2] - math.log(11)))
        assert gaps[1] < gaps[0] and gaps[1] <= 1e-3

    def test_validation(self, capsys):
        code, _, _ = run_cli(capsys, "surface", "--n", "0", "--p", "0.5", "--alpha", "1", "--beta", "1")
        assert code == 2
        code, _, _ = run_cli(capsys, "surface", "--n", "3", "--p", "1.5", "--alpha", "1", "--beta", "1")
        assert code == 2


class TestImports:
    def test_cli_import_pulls_in_no_scipy(self):
        code = (
            "import sys, lne.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_check_run_pulls_in_no_numpy_random(self):
        code = (
            "import sys, lne.cli; "
            "code = lne.cli.main(['check']); "
            "print(code, 'numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == "0 False"


class TestSolverCommands:
    def test_unconstrained_maxent(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[1, 1, 1, 1], params={"alpha": 2, "beta": 1})
        code, out, _ = run_cli(capsys, "maxent", "--input", path)
        assert code == 0
        rec = parse_record(out)
        assert rec["p"].split() == ["0.250000000000"] * 4
        assert rec["branch"] == "power_law"
        assert rec["converged"] == "true"

    def test_derived_case_record(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 0.8}],
        )
        code, out, _ = run_cli(capsys, "maxent", "--input", path)
        assert code == 0
        rec = parse_record(out)
        p = [float(tok) for tok in rec["p"].split()]
        np.testing.assert_allclose(p, [13 / 30, 10 / 30, 7 / 30], atol=1e-11)
        assert float(rec["residual_norm"]) <= 1e-10
        assert float(rec["Z"]) > 0

    def test_minxent_requires_prior(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 0.8}],
        )
        code, _, err = run_cli(capsys, "minxent", "--input", path)
        assert code == 2 and "prior" in err

    def test_uniform_prior_minxent_reproduces_maxent(self, tmp_path, capsys):
        kwargs = dict(
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 0.8}],
        )
        path_a = write_problem(tmp_path, name="a.json", **kwargs)
        path_b = write_problem(tmp_path, name="b.json", prior=[1, 1, 1], **kwargs)
        _, out_a, _ = run_cli(capsys, "maxent", "--input", path_a)
        _, out_b, _ = run_cli(capsys, "minxent", "--input", path_b)
        pa = [float(t) for t in parse_record(out_a)["p"].split()]
        pb = [float(t) for t in parse_record(out_b)["p"].split()]
        np.testing.assert_allclose(pa, pb, atol=1e-9)

    def test_infeasible_exit_four(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 9.0}],
        )
        code, _, err = run_cli(capsys, "maxent", "--input", path)
        assert code == 4 and "outside" in err

    def test_zero_prior_below_the_diagonal_prints_zero(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            prior=[0.5, 0, 0.5],
            params={"alpha": 1, "beta": 2},
            constraints=[{"g": [0, 1, 2], "G": 1.2}],
        )
        code, out, _ = run_cli(capsys, "minxent", "--input", path)
        assert code == 0
        rec = parse_record(out)
        assert rec["p"].split()[1] == "0.00000000000"
        assert rec["converged"] == "true"

    def test_target_outside_the_support_exit_four(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            prior=[0.5, 0.5, 0],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 1.2}],
        )
        code, out, err = run_cli(capsys, "minxent", "--input", path)
        assert code == 4 and "prior's support" in err and out == ""

    def test_jointly_infeasible_exit_four(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 0.5], "G": 0.9}, {"g": [1, 0, 0.5], "G": 0.9}],
        )
        code, out, err = run_cli(capsys, "maxent", "--input", path)
        assert code == 4 and "jointly unreachable" in err and out == ""

    def test_non_convergence_exit_three_still_prints(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1, 1],
            params={"alpha": 3, "beta": 1},
            constraints=[
                {"g": [0, 1, 2, 3], "G": 2.1},
                {"g": [1, 0, 1, 0], "G": 0.3},
            ],
            solver={"max_iter": 1},
        )
        code, out, err = run_cli(capsys, "maxent", "--input", path)
        assert code == 3
        rec = parse_record(out)
        assert rec["converged"] == "false"
        assert float(rec["residual_norm"]) > 1e-10
        assert "no convergence" in err

    @pytest.mark.parametrize("bad", ["1e400", "NaN", "2.7"])
    def test_non_finite_max_iter_exit_two(self, tmp_path, capsys, bad):
        path = tmp_path / "prob.json"
        path.write_text(
            '{"weights": [1, 1, 1], "params": {"alpha": 2, "beta": 1}, '
            '"constraints": [{"g": [0, 1, 2], "G": 0.8}], '
            f'"solver": {{"max_iter": {bad}}}}}'
        )
        code, out, err = run_cli(capsys, "maxent", "--input", str(path))
        assert code == 2 and "max_iter" in err and out == ""

    def test_seed_and_tol_flags(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 0.8}],
        )
        code, out, _ = run_cli(capsys, "maxent", "--input", path, "--tol", "1e-12")
        assert code == 0
        assert float(parse_record(out)["residual_norm"]) <= 1e-12
        # solves are deterministic: there is no seed to set
        code, out, _ = run_cli(capsys, "maxent", "--input", path, "--seed", "7")
        assert code == 2 and out == ""
        path = write_problem(
            tmp_path,
            weights=[1, 1, 1],
            params={"alpha": 2, "beta": 1},
            constraints=[{"g": [0, 1, 2], "G": 0.8}],
            solver={"restarts": 0},
        )
        code, out, err = run_cli(capsys, "maxent", "--input", path)
        assert code == 2 and out == "" and "solver.restarts: unknown field" in err


_PROBLEM = {
    "weights": [1, 1, 1],
    "params": {"alpha": 2, "beta": 1},
    "constraints": [{"g": [0, 1, 2], "G": 0.8}],
}


def _problem(**fields):
    return {**_PROBLEM, **fields}


@pytest.mark.parametrize(
    "problem, argv, message",
    [
        ([1, 2, 3], ["maxent"], "problem file must be a JSON object"),
        (_problem(extra=1), ["maxent"], "unknown field 'extra'"),
        ({"params": {"alpha": 2, "beta": 1}}, ["maxent"], "missing field 'weights'"),
        (_problem(weights=[]), ["maxent"], "weights: expected a nonempty list of numbers"),
        (_problem(weights="1,1,1"), ["maxent"], "weights: expected a nonempty list of numbers"),
        (_problem(params=[2, 1]), ["maxent"], "params: expected an object with alpha and beta"),
        (_problem(params={"alpha": 2, "beta": 1, "gamma": 3}), ["maxent"], "params.gamma: unknown field"),
        (_problem(constraints={"g": [0, 1, 2], "G": 0.8}), ["maxent"], "constraints: expected a list"),
        (
            _problem(constraints=[{"g": [0, 1, 2]}]),
            ["maxent"],
            "constraints[0]: expected an object with fields g and G",
        ),
        (
            _problem(constraints=[{"g": [0, 1], "G": 0.5}]),
            ["maxent"],
            "constraints[0].g: length 2 does not match weights length 3",
        ),
        (_problem(solver=[1]), ["maxent"], "solver: expected an object"),
        *[
            (_problem(solver={key: 1}), ["maxent"], f"solver.{key}: unknown field")
            for key in ("damping", "fd_step", "restarts", "seed", "tolerance")
        ],
        (_problem(params={"alpha": 2}), ["maxent"], "params.beta: missing"),
        (_problem(prior=[0.5, 0.5]), ["minxent"], "prior: length does not match weights"),
        (None, ["curve", "--alpha", "2", "--beta", "0.5,x"], "not a comma-separated number list"),
        (None, ["surface", "--n", "3", "--p", "0.5", "--alpha", ",", "--beta", "1"], "empty list"),
        (None, ["check", "--tol", "1e-3"], "unrecognized arguments: --tol"),
        (None, ["check", "--seed", "-1"], "--seed: expected a non-negative integer"),
        (_problem(weights=[10**400, 1, 1]), ["entropy"], "weights[0]: integer too large for a float"),
        (_problem(), ["entropy", "--output", "/nonexistent/dir/out.txt"], "--output: cannot write"),
        (None, ["check", "--output", "/nonexistent/dir/out.txt"], "--output: cannot write"),
    ],
)
def test_rejections_exit_two_naming_the_field(tmp_path, capsys, problem, argv, message):
    if problem is not None:
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(problem))
        argv = [*argv, "--input", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "raw, message",
    [
        # json.loads refuses an integer literal of more than 4,300 digits
        (b'{"weights": [' + b"9" * 5000 + b", 1, 1]}", "Exceeds the limit (4300 digits)"),
        (b'\xff{"weights": [1]}', "codec can't decode byte 0xff"),
    ],
    ids=["long_integer", "non_utf8_byte"],
)
def test_undecodable_file_exits_two_naming_the_file(tmp_path, capsys, raw, message):
    path = tmp_path / "prob.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "entropy", "--input", str(path))
    assert code == 2 and out == ""
    assert f"{path}: " in err and message in err


@pytest.mark.parametrize(
    "value, text",
    [
        (1.5, "1.50000000000"),
        (123456789012.4, "123456789012"),
        (-2.5e-7, "-2.50000000000e-07"),
        # rounding carries into the next decade: still 12 significant digits
        (999999.9999999, "1000000.00000"),
        (0.99999999999999, "1.00000000000"),
        (9.9999999999999e-06, "0.0000100000000000"),
        (999999999999.7, "1.00000000000e+12"),
        (-0.0, "0.00000000000"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
    ],
)
def test_fmt_prints_twelve_significant_digits(value, text):
    assert _fmt(value) == text


class TestDeterminismAndRoundTrip:
    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            weights=[0.2, 0.5, 0.3],
            params={"alpha": 3, "beta": 0.5},
            constraints=[{"g": [0, 0.5, 1], "G": 0.55}],
        )
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "maxent", "--input", path)
            assert code == 0
            outs.append(out.encode())
        assert outs[0] == outs[1]
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "curve", "--alpha", "2", "--beta", "0.5,1", "--step", "0.05")
            assert code == 0
            outs.append(out.encode())
        assert outs[0] == outs[1]

    def test_printed_numbers_reparse_to_library_values(self, tmp_path, capsys):
        path = write_problem(tmp_path, weights=[0.6, 0.25, 0.15], params={"alpha": 2.5, "beta": 0.8})
        code, out, _ = run_cli(capsys, "entropy", "--input", path)
        assert code == 0
        printed = float(parse_record(out)["value"])
        exact = float(lne([0.6, 0.25, 0.15], EntropyParams(2.5, 0.8)))
        assert abs(printed - exact) <= 10.0 ** (math.floor(math.log10(abs(exact))) - 11)


class TestCheckCommand:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "1")
        assert code == 0
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert names == [
            "ok scale_invariance",
            "ok escort_identity",
            "ok extremes",
            "ok composition",
            "ok qdeform_identities",
            "ok cross_entropy",
            "ok solvers",
        ]

    def test_output_file_holds_every_line(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "1")
        target = tmp_path / "check.txt"
        code_f, out_f, _ = run_cli(capsys, "check", "--seed", "1", "--output", str(target))
        assert code == code_f == 0 and out_f == ""
        assert target.read_text() == out

    def test_unreachable_tol_fails_the_solver_check(self, capsys, monkeypatch):
        # no solve meets a residual of 1e-300: a FAIL line and exit 1, not a traceback
        strict = SolverConfig(tol_residual=1e-300)
        monkeypatch.setattr("lne.checks.SolverConfig", lambda: strict)
        code, out, err = run_cli(capsys, "check")
        assert code == 1
        last = out.strip().splitlines()[-1]
        assert last.startswith("FAIL solvers:") and "residual" in last and "alpha=" in last
        assert "Traceback" not in err

    def test_solver_check_fails_multipliers_that_are_not_the_mbg_exponent(self, monkeypatch):
        # halved multipliers leave log p affine in lambda . g, but not equal to
        # log exp_q(lambda . (g - G)) plus a constant
        def halved_at(pick):
            def solve(n, cset, prm, cfg):
                sol = solve_maxent(n, cset, prm, cfg)
                return replace(sol, lambdas=sol.lambdas / 2) if pick(prm) else sol

            return solve

        law = "log p - log exp_q(lambda . (g - G)) not constant"
        monkeypatch.setattr("lne.checks.solve_maxent", halved_at(lambda prm: prm.equal_orders))
        ok, detail = check_solvers(0)
        assert not ok
        assert detail.startswith(law) and "alpha=1" in detail
        # off the diagonal, where the law is a power law, each pair alone
        for off in (EntropyParams(2.0, 1.0), EntropyParams(0.5, 2.0)):
            monkeypatch.setattr("lne.checks.solve_maxent", halved_at(lambda prm: prm == off))
            ok, detail = check_solvers(0)
            assert not ok
            assert detail == f"{law} at {off}"

    def test_composition_check_fails_a_shifted_generalized_mean(self, monkeypatch):
        # the grouping identity holds to 1e-12, so rhs (1 + 1e-9) breaks it
        def shifted(p, q, prm):
            return gm_subadditivity_rhs(p, q, prm) * (1.0 + 1e-9)

        monkeypatch.setattr("lne.checks.gm_subadditivity_rhs", shifted)
        for seed in range(10):
            ok, detail = check_composition(seed)
            assert not ok and detail.startswith("grouping gap"), seed

    def test_cross_entropy_check_fails_a_shifted_value_off_beta_one(self, monkeypatch):
        # neither the beta = 1 reduction nor the uniform-prior identity sees
        # lnce + 1e-6 at beta != 1 against a non-uniform prior; the escort form does
        def shifted(p, q, prm):
            value = lnce(p, q, prm)
            return value + 1e-6 if prm.beta != 1.0 and np.ptp(q) > 0 else value

        monkeypatch.setattr("lne.checks.lnce", shifted)
        for seed in range(10):
            ok, detail = check_cross_entropy(seed)
            assert not ok and detail.startswith("escort-form gap"), seed
            assert "beta=1.0)" not in detail

    def test_solver_check_fails_a_shifted_minxent_with_two_constraints(self, monkeypatch):
        # duality is checked on random problems, some with two constraints
        def shifted(prior, cset, prm, cfg):
            sol = solve_minxent(prior, cset, prm, cfg)
            return replace(sol, p=sol.p + 1e-7) if cset.m == 2 else sol

        monkeypatch.setattr("lne.checks.solve_minxent", shifted)
        for seed in range(10):
            ok, detail = check_solvers(seed)
            assert not ok and detail.startswith("uniform-prior duality gap"), seed

    def test_solver_check_fails_mass_past_the_cutoff(self, monkeypatch):
        # every seed solves a problem that clamps state 0, where exp_q is 0
        def leaky(n, cset, prm, cfg):
            sol = solve_maxent(n, cset, prm, cfg)
            return replace(sol, p=np.where(sol.p == 0.0, 1e-300, sol.p))

        monkeypatch.setattr("lne.checks.solve_maxent", leaky)
        for seed in range(10):
            ok, detail = check_solvers(seed)
            assert not ok
            assert detail == f"p = 0 off the exp_q cutoff at {EntropyParams(3.0, 1.0)}", seed

    def test_extremes_check_fails_a_shifted_min_entropy_limit(self, monkeypatch):
        def shifted(w, beta):
            return lne_min_entropy_limit(w, beta) + 1e-11

        monkeypatch.setattr("lne.checks.lne_min_entropy_limit", shifted)
        for seed in range(10):
            ok, detail = check_extremes(seed)
            assert not ok and detail.startswith("lne_min_entropy_limit missed"), seed

    def test_escort_check_fails_a_transfer_from_small_to_large(self, monkeypatch):
        # the reverse of a Robin Hood transfer (capped to keep the smallest
        # entry positive) spreads the escort out
        def reverse(w, src, dst, amount):
            out = np.array(w, dtype=float)
            amount = min(amount, out[dst] / 2)
            out[src] += amount
            out[dst] -= amount
            return out

        monkeypatch.setattr("lne.checks.robin_hood_transfer", reverse)
        for seed in range(10):
            ok, detail = check_escort_identity(seed)
            assert not ok and detail.startswith("a transfer lowered"), seed


class TestLogging:
    def test_debug_env_writes_to_stderr_only(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, weights=[0.5, 0.5], params={"alpha": 2, "beta": 1})
        monkeypatch.setenv("LNE_LOG", "debug")
        code, out, err = run_cli(capsys, "entropy", "--input", path)
        assert code == 0
        assert "lne:" in err and "lne:" not in out
        monkeypatch.setenv("LNE_LOG", "quiet")
        code, out, err = run_cli(capsys, "entropy", "--input", path)
        assert code == 0 and err == ""
