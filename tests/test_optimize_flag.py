"""The package behaves the same under ``python -O``, which strips asserts."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chamberwalk

PACKAGE_DIR = Path(chamberwalk.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    return env


def _count_with_and_without_asserts(*count_args):
    """stdout of ``chamberwalk count`` run plainly, after checking that -O prints the same."""
    env = _env()
    args = ["-m", "chamberwalk.cli", "count", *count_args, "--method", "both"]
    plain = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    optimized = subprocess.run([sys.executable, "-O", *args], env=env, capture_output=True,
                               text=True)
    assert plain.returncode == optimized.returncode == 0, (plain.stderr, optimized.stderr)
    assert plain.stdout and plain.stdout == optimized.stdout
    return plain.stdout


def test_count_stdout_identical_under_optimize():
    _count_with_and_without_asserts("--kind", "axis", "--k", "2", "--weights", "1,1,1",
                                    "--u", "1,2", "--v", "2,3", "--n", "2:8:3")


@pytest.mark.parametrize("kind,u", [("axis", "1,2,4"), ("diagonal", "1,3,7")])
def test_free_endpoint_stdout_identical_under_optimize(kind, u):
    """The free-endpoint Pfaffian and the DP agree, with and without asserts."""
    out = _count_with_and_without_asserts("--kind", kind, "--k", "3", "--weights", "1,0,2",
                                          "--u", u, "--n", "0:6:3")
    assert all(json.loads(line)["match"] for line in out.splitlines())


@pytest.mark.parametrize("v", [["--v", "2,3"], []], ids=["fixed", "free"])
def test_rational_weights_stdout_identical_under_optimize(v):
    """The entry's scaling by D and division by D^n rest on no assert."""
    out = _count_with_and_without_asserts("--kind", "axis", "--k", "2", "--weights", "1/2,1/3",
                                          "--u", "1,2", *v, "--n", "0:6:3")
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["match"] for r in records) and "/" in records[-1]["count"]


def test_negative_length_refused_under_optimize():
    """The entry's check of n is no assert: n = -1 is a usage error under -O too."""
    res = subprocess.run([sys.executable, "-O", "-m", "chamberwalk.cli", "count", "--kind",
                          "axis", "--k", "1", "--weights", "1/2,1/3", "--u", "1", "--v", "1",
                          "--n", "-1", "--method", "both"], env=_env(), capture_output=True,
                         text=True, timeout=10)
    assert res.returncode == 2 and "walk length n must be >= 0, got -1" in res.stderr
    assert not res.stdout


def test_dp_budget_refusal_under_optimize():
    """The DP's work check is no assert: the 20000-step walk is refused under -O too."""
    res = subprocess.run([sys.executable, "-O", "-m", "chamberwalk.cli", "count", "--kind",
                          "diagonal", "--k", "1", "--weights", "0,1", "--u", "1", "--v", "1",
                          "--n", "20000", "--method", "dp"], env=_env(), capture_output=True,
                         text=True, timeout=10)
    assert res.returncode == 3 and "budget" in res.stderr and not res.stdout
