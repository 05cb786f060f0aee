import os
import shutil
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
    # outside
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_bernoulli_curves_writes_its_grid_beside_itself(tmp_path):
    # the demo writes its CSV next to itself, so it runs from a copy
    demos = os.path.join(ROOT, "demos")
    before = sorted(os.listdir(demos))
    shutil.copy(os.path.join(demos, "bernoulli_curves.py"), tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bernoulli_curves.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "bernoulli_curves.csv").read_text().splitlines()
    assert lines[0] == "alpha,beta,p,value" and len(lines) == 1 + 6 * 5 * 201
    assert sorted(os.listdir(demos)) == before
