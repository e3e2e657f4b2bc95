"""The package behaves the same under ``python -O``, which strips asserts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chamberwalk

PACKAGE_DIR = Path(chamberwalk.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_count_stdout_identical_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    args = ["-m", "chamberwalk.cli", "count", "--kind", "axis", "--k", "2",
            "--weights", "1,1,1", "--u", "1,2", "--v", "2,3", "--n", "2:8:3",
            "--method", "both"]
    plain = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    optimized = subprocess.run([sys.executable, "-O", *args], env=env, capture_output=True,
                               text=True)
    assert plain.returncode == optimized.returncode == 0, (plain.stderr, optimized.stderr)
    assert plain.stdout and plain.stdout == optimized.stdout


def test_dp_budget_refusal_under_optimize():
    """The DP's work check is no assert: the 20000-step walk is refused under -O too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-m", "chamberwalk.cli", "count", "--kind",
                          "diagonal", "--k", "1", "--weights", "0,1", "--u", "1", "--v", "1",
                          "--n", "20000", "--method", "dp"], env=env, capture_output=True,
                         text=True, timeout=10)
    assert res.returncode == 3 and "budget" in res.stderr and not res.stdout
