import os
import subprocess
import sys

import numpy as np

from lne import ConstraintSet, optimize, solve_maxent, solve_minxent

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bitsweep_smoke():
    # a short sweep: every public call family and the in-process CLI run
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bitsweep.py"), "--calls", "100"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {line.split(" ")[1] for line in proc.stdout.splitlines()}
    assert {"q_exp", "lne", "lnce", "solve_maxent", "solve_minxent", "cli"} <= names


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
