"""CLI contract: commands, output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from click.testing import CliRunner

import chamberwalk
from chamberwalk import exact, verify
from chamberwalk.cli import main


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def _odd(k):
    return ",".join(str(2 * j + 1) for j in range(k))


class TestCount:
    def test_catalan(self):
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "6", "--method", "both")
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["count"] == "5" and rec["match"] is True

    def test_hand_dp(self):
        res = run("count", "--kind", "axis", "--k", "1", "--weights", "1,1,1",
                  "--u", "1", "--v", "1", "--n", "2", "--method", "dp")
        assert json.loads(res.output)["count"] == "6"

    def test_zero_steps(self):
        res = run("count", "--kind", "axis", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "0")
        assert json.loads(res.output)["count"] == "1"

    def test_range_emits_json_lines(self):
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "2:6:2")
        counts = [json.loads(line)["count"] for line in res.output.splitlines()]
        assert counts == ["1", "2", "5"]

    def test_free_endpoint(self):
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--n", "4")
        assert json.loads(res.output)["count"] == "6"

    def test_fractional_count_string(self):
        res = run("count", "--kind", "axis", "--k", "1", "--weights", "1/2,1/3",
                  "--u", "1", "--v", "1", "--n", "2")
        assert json.loads(res.output)["count"] == "13/36"

    def test_usage_error_exit_2(self):
        res = run("count", "--kind", "axis", "--k", "2", "--weights", "0,1",
                  "--u", "1", "--v", "1,2", "--n", "2")
        assert res.exit_code == 2

    @pytest.mark.parametrize("method", ["dp", "reflection", "both"])
    @pytest.mark.parametrize("n_text", ["-1", "-2:4:2"])
    def test_negative_length_exit_2(self, method, n_text):
        res = run("count", "--kind", "axis", "--k", "2", "--weights", "1,1,1",
                  "--u", "1,2", "--v", "1,3", "--n", n_text, "--method", method)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "walk length n must be >= 0" in res.output

    def test_deep_axis_reflection(self):
        res = run("count", "--kind", "axis", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "1200", "--method", "reflection")
        assert res.exit_code == 0 and res.exception is None
        assert "Traceback" not in res.output
        assert json.loads(res.output)["count"] == str(math.comb(1200, 600) // 601)

    def test_count_above_int_str_limit(self):
        # 4811 digits: past the interpreter's default int-to-str limit of 4300
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "16000", "--method", "reflection")
        assert res.exit_code == 0, res.output
        count = json.loads(res.output)["count"]
        assert len(count) == 4811 and Decimal(count) == math.comb(16000, 8000) // 8001

    def test_resource_error_exit_3(self):
        res = run("count", "--kind", "axis", "--k", "3", "--weights", "0,1",
                  "--u", "1,2,3", "--v", "1,2,3", "--n", "1000000")
        assert res.exit_code == 3

    @pytest.mark.parametrize("args", [
        ("count", "--kind", "axis", "--k", "3", "--weights", "1,1,1", "--u", "1,2,3",
         "--v", "1,2,3", "--n", "400", "--method", "reflection"),
        ("count", "--kind", "diagonal", "--k", "6", "--weights", "0,1",
         "--u", "1,3,5,7,9,11", "--n", "60", "--method", "reflection"),
        ("compare", "--kind", "axis", "--k", "3", "--weights", "1,1,1", "--u", "1,2,3",
         "--v", "1,2,3", "--grid", "100:400:100"),
        ("preset", "tangled-isolated", "--k", "3", "--n", "400"),
    ], ids=["axis-reflection", "free-reflection", "compare", "preset"])
    def test_reflection_budget_exit_3(self, args):
        res = run(*args)
        assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
        assert "budget" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("kind,weights,u,v", [
        ("diagonal", "0,1", "1,2", "1,3"),      # off the diagonal lattice
        ("axis", "0,1", "1.5,3", "1,2"),        # not an integer point
        ("axis", "0,1", "0,2", "1,2"),          # on the wall
        ("diagonal", "0,1", "1,3", "3,1"),      # outside the chamber
        ("axis", "0,1", "1,2,3", "1,2"),        # wrong dimension
        ("axis", "1,0,0", "1,2", "1,2"),        # no moving weight
        ("diagonal", "0,-1", "1,3", "1,3"),     # negative weight
    ])
    def test_invalid_input_exit_2(self, kind, weights, u, v):
        res = run("count", "--kind", kind, "--k", "2", "--weights", weights,
                  "--u", u, "--v", v, "--n", "4", "--method", "both")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output


class TestAsym:
    def test_supported(self):
        res = run("asym", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "16")
        rec = json.loads(res.output)
        assert rec["supported"] is True
        assert abs(rec["value"] - 1634.0676) < 0.01

    def test_unsupported_has_no_value(self):
        res = run("asym", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "15")
        rec = json.loads(res.output)
        assert rec["supported"] is False and "value" not in rec

    def test_free(self):
        res = run("asym", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--n", "100")
        assert json.loads(res.output)["supported"] is True


class TestCompare:
    def test_json(self):
        res = run("compare", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--grid", "16:128:16")
        rec = json.loads(res.output)
        assert -1.6 < rec["slope"] < -0.6
        assert len(rec["rows"]) >= 4

    def test_csv(self):
        res = run("compare", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--grid", "16:64:16", "--format", "csv")
        lines = res.output.splitlines()
        assert lines[0] == "n,exact_log,asym_log,ratio,delta,slope"
        assert len(lines) == 5     # header + inclusive grid 16,32,48,64

    def test_too_few_points_exit_2(self):
        res = run("compare", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--grid", "16:32:16")
        assert res.exit_code == 2


    def test_negative_grid_exit_2(self):
        res = run("compare", "--kind", "axis", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--grid", "-4:8:4")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "walk length n must be >= 0" in res.output


class TestPreset:
    def test_watermelon(self):
        res = run("preset", "watermelon", "--k", "2", "--n", "10")
        rec = json.loads(res.output)
        assert rec["count"] == "37975756"
        assert rec["steps"] == 20
        assert 0 < rec["ratio"] < 2

    def test_negative_length_exit_2(self):
        res = run("preset", "random-turns-fixed", "--k", "2", "--n", "-3",
                  "--u", "1,2", "--v", "1,2")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "walk length n must be >= 0" in res.output

    def test_unknown_preset_exit_2(self):
        res = run("preset", "pineapple", "--k", "2", "--n", "10")
        assert res.exit_code == 2


class TestVerify:
    def test_exact_suites_pass(self):
        res = run("verify", "--suite", "det,schur,consistency", "--seed", "7")
        assert res.exit_code == 0
        assert json.loads(res.output)["pass"] is True

    def test_unknown_suite_exit_2(self):
        res = run("verify", "--suite", "nonsense", "--seed", "7")
        assert res.exit_code == 2

    def test_unknown_suite_rejected_before_any_suite_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "run_suite", lambda name, seed: ran.append(name) or [])
        res = run("verify", "--suite", "oracle,nonsense", "--seed", "7")
        assert res.exit_code == 2 and "unknown suite 'nonsense'" in res.output
        assert ran == []

    def test_schur_passes_at_every_seed(self):
        for seed in range(12):
            res = run("verify", "--suite", "schur", "--seed", str(seed))
            assert res.exit_code == 0, (seed, res.output)
            assert json.loads(res.output)["pass"] is True

    def test_deterministic_output(self):
        args = ("verify", "--suite", "det,dsin", "--seed", "3")
        assert run(*args).output == run(*args).output



class TestErrorContract:
    @pytest.mark.parametrize("args,code", [
        (("asym", "--kind", "diagonal", "--k", "16", "--weights", "0,1",
          "--u", _odd(16), "--v", _odd(16), "--n", "100"), 0),
        (("asym", "--kind", "diagonal", "--k", "22", "--weights", "0,1",
          "--u", _odd(22), "--v", _odd(22), "--n", "100"), 0),
        (("count", "--kind", "diagonal", "--k", "9", "--weights", "0,1",
          "--u", _odd(9), "--v", _odd(9), "--n", "2", "--method", "reflection"), 3),
        (("preset", "watermelon", "--k", "9", "--n", "2"), 3),
        (("count", "--kind", "diagonal", "--k", "6", "--weights", "0,1",
          "--u", _odd(6), "--n", "30", "--method", "reflection"), 3),
        (("count", "--kind", "diagonal", "--k", "2", "--weights", "0,1,1",
          "--u", "1,3", "--n", "1000000", "--method", "reflection"), 3),
        (("count", "--kind", "diagonal", "--k", "2", "--weights", "0,1,1",
          "--u", "1,3", "--v", "1,3", "--n", "1000000", "--method", "reflection"), 3),
    ], ids=["asym-k16", "asym-k22", "signed-sum-k9", "preset-k9", "free-lockstep-k6",
            "free-long-walk", "long-walk-bits"])
    def test_large_k_answers_or_refuses_quickly(self, args, code):
        env = dict(os.environ)
        package_root = str(Path(chamberwalk.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-m", "chamberwalk.cli", *args], env=env,
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        if code == 0:
            assert json.loads(res.stdout)["supported"] is True
        else:
            assert "budget" in res.stderr and not res.stdout

    def test_internal_error_exit_4(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(exact, "count_confined", broken)
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "4")
        assert res.exit_code == 4 and isinstance(res.exception, SystemExit)
        assert res.output == "internal error: RuntimeError: boom\n"

    def test_verify_value_error_is_internal(self, monkeypatch):
        def broken(seed):
            raise ValueError("bad quadrature")

        monkeypatch.setitem(verify._SUITE_FNS, "det", broken)
        res = run("verify", "--suite", "det", "--seed", "7")
        assert res.exit_code == 4
        assert res.output == "internal error: ValueError: bad quadrature\n"
