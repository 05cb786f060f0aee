import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    [
        "maxent_power_law.py",
        "minxent_duality.py",
        "diagnostics.py",
        "entropy_families.py",
        "binomial_surface.py",
    ],
)
def test_solver_demo_runs(demo):
    # a fresh interpreter, as a user runs it: the solver demos use
    # SolverConfig and the report fields, which no other test reaches from
    # outside. bernoulli_curves.py writes a CSV next to itself and is left out
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
