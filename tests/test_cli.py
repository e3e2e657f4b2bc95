"""CLI contract: commands, output formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import chamberwalk
from chamberwalk import detlab, exact, presets, verify
from chamberwalk.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str                           # stdout and stderr, interleaved as written
    exception: Optional[BaseException]    # what ended the run; None on exit 0


class _Stream(io.StringIO):
    """One stream of a run, each write also copied into the run's interleaved output."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


def run(*args):
    """Runs the CLI in this process on ``args``."""
    output = io.StringIO()
    out, err = _Stream(output), _Stream(output)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except (Exception, KeyboardInterrupt) as exc:   # escaped main: a test failure
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), output.getvalue(), exception)


def _odd(k):
    return ",".join(str(2 * j + 1) for j in range(k))


def _wall(k):
    return ",".join(str(j) for j in range(1, k + 1))


class TestCount:
    def test_catalan(self):
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "6", "--method", "both")
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["count"] == "5" and rec["match"] is True

    def test_free_count_far_from_the_wall(self):
        """The Pfaffian reads no row past n*degree: a far start matches the DP at once."""
        res = run("count", "--kind", "axis", "--k", "3", "--weights", "0,1",
                  "--u", "1,2,100000000", "--n", "4", "--method", "both")
        assert res.exit_code == 0, res.output
        rec = json.loads(res.output)
        assert rec["count"] == "188" and rec["match"] is True

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

    def test_range_flushes_each_record(self):
        """Each record reaches the reader as it is written, before the next length is counted."""
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushed = []

            def flush(self):
                self.flushed.append(self.getvalue())

        out = Recorder()
        with contextlib.redirect_stdout(out):
            main(["count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "2:6:2"])
        lines = out.getvalue().splitlines(keepends=True)
        assert len(lines) == 3
        assert out.flushed[:3] == ["".join(lines[:i + 1]) for i in range(3)]

    def test_free_endpoint(self):
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--n", "4")
        assert json.loads(res.output)["count"] == "6"

    def test_fractional_count_string(self):
        res = run("count", "--kind", "axis", "--k", "1", "--weights", "1/2,1/3",
                  "--u", "1", "--v", "1", "--n", "2")
        assert json.loads(res.output)["count"] == "13/36"

    def test_usage_error_exit_2(self):
        """A value that begins with '-' reaches the program's own check, as any other does."""
        for u, message in [("1", "--u must have 2 coordinates"),
                           ("-1,2", "(-1, 2) is not strictly inside the chamber")]:
            res = run("count", "--kind", "axis", "--k", "2", "--weights", "0,1",
                      "--u", u, "--v", "1,2", "--n", "2")
            assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
            assert message in res.stderr and "Traceback" not in res.output

    def test_count_process_imports_no_click(self):
        """The parser is the standard library's argparse: a count process loads no click."""
        env = dict(os.environ)
        package_root = str(Path(chamberwalk.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-X", "importtime", "-m", "chamberwalk.cli",
                              "count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                              "--u", "1", "--v", "1", "--n", "6"], env=env, capture_output=True,
                             text=True, timeout=30)
        assert res.returncode == 0 and json.loads(res.stdout)["count"] == "5"
        modules = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
        assert "chamberwalk.exact" in modules and "argparse" in modules
        assert not {name for name in modules if name.split(".")[0] == "click"}

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

    @pytest.mark.parametrize("method", ["dp", "reflection", "both"])
    def test_out_of_reach_end_point_is_zero(self, method):
        """An end point no walk of n steps reaches is 0 at once, not a budget refusal."""
        res = run("count", "--kind", "axis", "--k", "3", "--weights", "1,1,1", "--u", "1,2,3",
                  "--v", "500,600,700", "--n", "400", "--method", method)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["count"] == "0"

    @pytest.mark.parametrize("method", ["reflection", "both"])
    @pytest.mark.parametrize("args", [
        # every coordinate of v is 1000 > n*degree from u
        ("--kind", "diagonal", "--k", "6", "--weights", "0,1,1", "--u", "1,3,5,7,9,11",
         "--v", "1001,1003,1005,1007,1009,1011"),
        # one step from u, but every walk makes an even number of atomic steps
        ("--kind", "axis", "--k", "7", "--weights", "0,1", "--u", "1,2,3,4,5,6,7",
         "--v", "1,2,3,4,5,6,8"),
    ], ids=["diagonal-far", "axis-parity"])
    def test_unreachable_end_point_is_zero_by_reflection(self, args, method):
        """The signed sum answers 0 before it prices its work, as the DP does."""
        res = run("count", *args, "--n", "400", "--method", method)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["count"] == "0"

    def test_resource_error_exit_3(self):
        res = run("count", "--kind", "axis", "--k", "3", "--weights", "0,1",
                  "--u", "1,2,3", "--v", "1,2,3", "--n", "1000000")
        assert res.exit_code == 3

    def test_huge_range_streams_until_refused(self):
        """A range is never expanded: lengths are counted in order until the budget refuses."""
        res = run("count", "--kind", "diagonal", "--k", "6", "--weights", "0,1",
                  "--u", _odd(6), "--v", _odd(6), "--n", f"0:{10 ** 18}:1", "--method", "dp")
        assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
        assert "budget" in res.output and "Traceback" not in res.output
        lines = res.output.splitlines()
        lengths = [json.loads(line)["n"] for line in lines if line.startswith("{")]
        assert lengths == list(range(len(lengths))) and len(lengths) > 20

    @pytest.mark.parametrize("end", [["--v", _odd(25)], []], ids=["fixed", "free"])
    def test_dp_takes_no_step_at_length_zero(self, end):
        """n = 0 costs nothing, at any k: the DP is not refused for steps it never takes."""
        res = run("count", "--kind", "diagonal", "--k", "25", "--weights", "0,1",
                  "--u", _odd(25), *end, "--n", "0", "--method", "dp")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["count"] == "1"

    @pytest.mark.parametrize("args", [
        ("count", "--kind", "axis", "--k", "3", "--weights", "1,1,1", "--u", "1,2,3",
         "--v", "1,2,3", "--n", "400", "--method", "reflection"),
        ("count", "--kind", "axis", "--k", "2", "--weights", "1,1,1",
         "--u", "1,2", "--n", "10000", "--method", "reflection"),
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

    def test_length_zero_unsupported(self):
        res = run("asym", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "0")
        assert res.exit_code == 0 and json.loads(res.output)["supported"] is False


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

    def test_grid_skips_length_zero(self):
        res = run("compare", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--grid", "0:6:2")
        assert res.exit_code == 0, res.output
        assert [row["n"] for row in json.loads(res.output)["rows"]] == [2, 4, 6]

    def test_huge_grid_is_walked_until_refused(self, monkeypatch):
        monkeypatch.setattr(exact, "DEFAULT_STATE_BUDGET", 10)
        res = run("compare", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--grid", f"1:{10 ** 18}:1")
        assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
        assert "budget" in res.output and "Traceback" not in res.output

    def test_grid_within_the_point_budget_is_priced_point_by_point(self, monkeypatch):
        """500 points fit a budget of 1000; the signed sum of a later point is refused."""
        monkeypatch.setattr(exact, "DEFAULT_STATE_BUDGET", 1000)
        res = run("compare", "--kind", "axis", "--k", "2", "--weights", "1,1,1",
                  "--u", "1,2", "--v", "1,2", "--grid", "2:1000:2")
        assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("signed sum work: estimate") and not res.stdout

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

    def test_negative_length_quotes_the_typed_n(self):
        """--n is checked before it is scaled into atomic steps (2n for watermelon)."""
        res = run("preset", "watermelon", "--k", "1", "--n", "-1")
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
        assert "walk length n must be >= 0, got -1" in res.output

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_default_end_points(self, name, k):
        res = run("preset", name, "--k", str(k), "--n", "6")
        assert res.exit_code == 0, res.output
        inst = presets.preset_spec(name, k)
        rec = json.loads(res.output)
        assert rec["u"] == list(inst.u) and rec.get("v") == (inst.v and list(inst.v))

    def test_length_zero_has_no_estimate(self):
        res = run("preset", "star", "--k", "2", "--n", "0")
        assert res.exit_code == 0, res.output
        rec = json.loads(res.output)
        assert rec["count"] == "1" and rec["supported"] is False and "ratio" not in rec

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
        with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
            verify.run_suite("nonsense", 0)

    @pytest.mark.parametrize("suite_text", ["", ",", " , "])
    def test_empty_suite_list_exit_2(self, suite_text, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "run_suite", lambda name, seed: ran.append(name) or [])
        res = run("verify", "--suite", suite_text, "--seed", "7")
        assert res.exit_code == 2 and "names no suite" in res.output
        assert ran == []

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

    def test_every_suite_passes_and_serializes_strictly(self):
        """Every record is JSON as it stands: the report needs no fallback encoder."""
        for seed in range(25):
            for name in verify.SUITES:
                records = verify.run_suite(name, seed)
                assert all(r["pass"] for r in records), (name, seed)
                json.dumps(records, allow_nan=False)

    def test_a_vanishing_mixed_vandermonde_fails_its_record(self, monkeypatch):
        real = detlab.mixed_vandermonde_det

        def vanishing(u, a):
            with monkeypatch.context() as patch:
                patch.setattr(detlab, "det_exact", lambda rows: 0)
                return real(u, a)

        monkeypatch.setattr(detlab, "mixed_vandermonde_det", vanishing)
        res = run("verify", "--suite", "det", "--seed", "7")
        assert res.exit_code == 1 and "Traceback" not in res.output
        report = json.loads(res.output)
        assert report["pass"] is False and report["failures"]
        assert {r["identity"] for r in report["failures"]} == {"mixed-vandermonde-nonzero"}

    def test_selberg_suite_runs_no_quadrature(self):
        """The Selberg checks are exact: the process never loads numpy.polynomial."""
        env = dict(os.environ)
        package_root = str(Path(chamberwalk.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-X", "importtime", "-m", "chamberwalk.cli",
                              "verify", "--suite", "selberg"], env=env, capture_output=True,
                             text=True, timeout=30)
        assert res.returncode == 0 and json.loads(res.stdout)["pass"] is True
        assert "chamberwalk.detlab" in res.stderr and "numpy.polynomial" not in res.stderr



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
          "--u", _odd(6), "--n", "200000", "--method", "reflection"), 3),
        (("count", "--kind", "diagonal", "--k", "2", "--weights", "0,1,1",
          "--u", "1,3", "--n", "1000000", "--method", "reflection"), 3),
        (("count", "--kind", "diagonal", "--k", "2", "--weights", "0,1,1",
          "--u", "1,3", "--v", "1,3", "--n", "1000000", "--method", "reflection"), 3),
        (("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
          "--u", "1", "--v", "1", "--n", "20000", "--method", "dp"), 3),
        (("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
          "--u", "1", "--n", "20000", "--method", "dp"), 3),
        (("compare", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
          "--u", "1", "--v", "1", "--grid", "1:1000000000000:1"), 3),
        (("asym", "--kind", "axis", "--k", "1000", "--weights", "0,1",
          "--u", _wall(1000), "--v", _wall(1000), "--n", "10"), 3),
        (("asym", "--kind", "axis", "--k", "1000", "--weights", "0,1",
          "--u", _wall(1000), "--n", "10"), 3),
        (("preset", "star", "--k", "2000", "--n", "10"), 3),
        (("preset", "lock-step-fixed", "--k", "2000", "--n", "1"), 3),
        (("preset", "random-turns-fixed", "--k", "1700", "--n", "1"), 3),
        (("preset", "random-turns-fixed", "--k", "100000", "--n", "1"), 3),
        (("preset", "tangled-isolated", "--k", "2000", "--n", "1"), 3),
        (("preset", "tangled-isolated", "--k", "5000", "--n", "1"), 3),
        (("preset", "tangled-isolated", "--k", "100000", "--n", "1"), 3),
    ], ids=["asym-k16", "asym-k22", "signed-sum-k9", "preset-k9", "free-lockstep-k6",
            "free-long-walk", "long-walk-bits", "dp-long-walk", "dp-free-long-walk",
            "compare-huge-grid", "asym-k1000", "asym-free-k1000", "star-k2000",
            "lock-step-fixed-k2000", "random-turns-fixed-k1700", "random-turns-fixed-k100000",
            "tangled-isolated-k2000", "tangled-isolated-k5000", "tangled-isolated-k100000"])
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

    @pytest.mark.parametrize("args,code", [
        (("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1", "--u", "1", "--v", "1",
          "--n", str(10 ** 400), "--method", "reflection"), 3),
        (("preset", "lock-step-fixed", "--k", "1", "--n", str(10 ** 400)), 3),
        (("asym", "--kind", "diagonal", "--k", "1", "--weights", "0,1", "--u", "1", "--v", "1",
          "--n", str(10 ** 400)), 2),
        (("asym", "--kind", "diagonal", "--k", "20", "--weights", "0,1", "--u", _odd(20),
          "--v", _odd(20), "--n", str(10 ** 308)), 2),
        (("count", "--kind", "diagonal", "--k", "2", "--weights", f"0,{10 ** 400}",
          "--u", "1,3", "--v", "1,3", "--n", "4", "--method", "both"), 0),
        (("count", "--kind", "axis", "--k", "1", "--weights", f"1/{10 ** 400},1",
          "--u", "1", "--v", "1", "--n", "2", "--method", "both"), 0),
        (("compare", "--kind", "diagonal", "--k", "1", "--weights", f"0,{10 ** 400}",
          "--u", "1", "--v", "1", "--grid", "2:6:2"), 0),
    ], ids=["huge-n-count", "huge-n-preset", "huge-n-asym", "infinite-asym",
            "huge-weight-diagonal", "tiny-weight-axis", "huge-weight-compare"])
    def test_outside_input_is_answered_or_refused(self, args, code):
        """Lengths and weights past a float's range: a count is refused by its budget (exit 3)
        or answered, an estimate that no finite float holds is a usage error (exit 2)."""
        env = dict(os.environ)
        package_root = str(Path(chamberwalk.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-m", "chamberwalk.cli", *args], env=env,
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        if code == 0:
            record = json.loads(res.stdout, parse_constant=lambda name: pytest.fail(name))
            assert record["match"] is True if args[0] == "count" else len(record["rows"]) == 3
        else:
            assert ("budget" if code == 3 else "float's range") in res.stderr and not res.stdout

    def test_dp_parity_exit_is_immediate(self):
        """An odd walk cannot return to its start: the DP answers 0 without walking a layer."""
        env = dict(os.environ)
        package_root = str(Path(chamberwalk.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-m", "chamberwalk.cli", "count", "--kind",
                              "diagonal", "--k", "1", "--weights", "0,1", "--u", "1", "--v", "1",
                              "--n", "4469", "--method", "dp"], env=env, capture_output=True,
                             text=True, timeout=10)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["count"] == "0"

    def test_closed_stdout_exits_141_quietly(self):
        """A reader that closes the pipe early, as `| head -c 300` does, ends the stream of
        an endless range with exit 141 (128 + SIGPIPE) and nothing on stderr."""
        env = dict(os.environ)
        package_root = str(Path(chamberwalk.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "chamberwalk.cli", "count", "--kind",
                                 "diagonal", "--k", "1", "--weights", "0,1", "--u", "1", "--v",
                                 "1", "--n", "1:1000000000000:1", "--method", "reflection"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(300)
        proc.stdout.close()
        try:
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
        assert head.startswith(b'{"count": "0"') and proc.stderr.read() == b""
        proc.stderr.close()

    def test_internal_error_exit_4(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(exact, "count_confined", broken)
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "4")
        assert res.exit_code == 4 and isinstance(res.exception, SystemExit)
        assert res.output == "internal error: RuntimeError: boom\n"

    def test_interrupt_exits_1_without_traceback(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(exact, "count_confined", interrupted)
        res = run("count", "--kind", "diagonal", "--k", "1", "--weights", "0,1",
                  "--u", "1", "--v", "1", "--n", "4")
        assert res.exit_code == 1 and res.output == "\nAborted!\n"

    def test_verify_value_error_is_internal(self, monkeypatch):
        def broken(seed):
            raise ValueError("bad quadrature")

        monkeypatch.setitem(verify.SUITES, "det", broken)
        res = run("verify", "--suite", "det", "--seed", "7")
        assert res.exit_code == 4
        assert res.output == "internal error: ValueError: bad quadrature\n"


# ---------------------------------------------------------------------------
# every input: a right answer or a documented refusal, driven through the CLI

GOOD_WEIGHTS = ["0,1", "0,1,1", "1,0,2", "1/2,1/3", "1,1", "0,0,1", "1,1,1", "2/3,0,1/5"]
BAD_WEIGHTS = ["0", "0,0", "0,0,0", "1,0,0", "0,-1", "1,x", "1/0", "", "1,,1"]
PRESET_KINDS = {name: presets.preset_spec(name, 1).spec.kind.value for name in presets.PRESET_NAMES}


def _text(point):
    return ",".join(map(str, point))


@st.composite
def _chamber_point(draw, kind, k):
    """A point strictly inside the chamber and on the kind's lattice."""
    gap = 2 if kind == "diagonal" else 1
    point = [draw(st.integers(1, 3))]
    for _ in range(k - 1):
        point.append(point[-1] + gap * draw(st.integers(1, 2)))
    return point


@st.composite
def _bad_point(draw, kind, k):
    """Off the diagonal lattice, not integers, outside the chamber (one text that begins
    with '-', as `-1,2` does), of the wrong dimension."""
    point = draw(_chamber_point(kind, k))
    return draw(st.sampled_from([
        _text(point[:-1] + [point[-1] + 1]),
        _text([-point[0]] + point[1:]),
        _text(point[:-1]) + ("," if k > 1 else "") + "1.5",
        _text([0] + point[1:]),
        _text(point[::-1]) if k > 1 else "-1",
        _text(point + [point[-1] + 2]),
        "a", "",
    ]))


@st.composite
def _lengths(draw, grid=False, top=40):
    """One length or a range (a grid of 3 or more), some invalid; the largest length too."""
    n = draw(st.integers(0, top))
    step = draw(st.integers(1, 10))
    stop = n + step * draw(st.integers(2 if grid else 0, 4))
    good = [(f"{n}:{stop}:{step}", stop)] if grid else [(str(n), n), (f"{n}:{stop}:{step}", stop)]
    return draw(st.sampled_from(good * 4 + [
        ("-1", None), (f"-2:{stop}:2", None), (f"{stop + 1}:{n}:1", None),
        (f"{n}:{stop}:0", None), ("1:2", None), ("x", None),
    ]))


@st.composite
def _cli_case(draw):
    """An argument vector, and whether the count it asks for is 0 by reach or parity."""
    command = draw(st.sampled_from(["count", "count", "count", "asym", "compare", "preset"]))
    k = draw(st.integers(1, 3))
    if command == "preset":
        name = draw(st.sampled_from(presets.PRESET_NAMES))
        args = ["preset", name, "--k", str(k), "--n", str(draw(st.integers(-2, 40)))]
        for opt in ("--u", "--v"):
            choice = draw(st.sampled_from(["none", "good", "bad"]))
            if choice == "good":
                args += [opt, _text(draw(_chamber_point(PRESET_KINDS[name], k)))]
            elif choice == "bad":
                args += [opt, draw(_bad_point(PRESET_KINDS[name], k))]
        return args, False
    kind = draw(st.sampled_from(["axis", "diagonal"]))
    end = draw(st.sampled_from(["free", "chamber", "far", "parity", "bad"]))
    weights = "0,1" if end == "parity" else draw(st.sampled_from(GOOD_WEIGHTS * 4 + BAD_WEIGHTS))
    good_u = draw(st.integers(0, 5)) > 0 or end in ("far", "parity")
    u = draw(_chamber_point(kind, k)) if good_u else None
    # a zero count is drawn long enough that a route pricing it first would refuse it
    zero_ends = command == "count" and end in ("far", "parity")
    n_text, n_max = draw(_lengths(grid=command == "compare", top=400 if zero_ends else 40))
    if end == "parity" and command == "count":
        # one atomic step per step: an axis walk moves the coordinate sum by the
        # parity of n, a diagonal walk every coordinate
        n_max = 2 * draw(st.integers(0, 200)) + (kind == "diagonal")
        n_text = str(n_max)
    v = None
    if end == "chamber":
        v = _text(draw(_chamber_point(kind, k)))
    elif end == "bad":
        v = draw(_bad_point(kind, k))
    elif end == "far":  # an even shift stays on the diagonal lattice
        v = _text(u[:-1] + [u[-1] + 2 * (n_max or 0) * (len(weights.split(",")) - 1) + 2])
    elif end == "parity":
        v = _text(u[:-1] + [u[-1] + (2 if kind == "diagonal" else 1)])
    args = [command, "--kind", kind, "--k", str(k), "--weights", weights,
            "--u", _text(u) if good_u else draw(_bad_point(kind, k))]
    if v is not None:
        args += ["--v", v]
    if command == "count":
        args += ["--n", n_text, "--method", draw(st.sampled_from(["dp", "reflection", "both"]))]
    elif command == "asym":
        args += ["--n", str(draw(st.integers(-2, 60)))]
    else:
        args += ["--grid", n_text]
    return args, zero_ends and weights in GOOD_WEIGHTS and n_max is not None


@settings(deadline=None, max_examples=400)
@given(case=_cli_case())
@example(case=(["count", "--kind", "axis", "--k", "3", "--weights", "1,1,1", "--u", "1,2,3",
                "--v", "1,2,803", "--n", "200", "--method", "dp"], True))
@example(case=(["count", "--kind", "diagonal", "--k", "2", "--weights", "0,1", "--u", "1,3",
                "--v", "1,5", "--n", "201", "--method", "both"], True))
def test_every_input_is_answered_or_refused(case):
    """Exit 0, 2 or 3, never a traceback; `both` always matches; a 0 by reach or parity
    is answered, never refused.  A small budget keeps each example fast."""
    args, zero = case
    with mock.patch.object(exact, "DEFAULT_STATE_BUDGET", 10 ** 5):
        res = run(*args)
    assert res.exit_code in (0, 2, 3), (args, res.output, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 3:
        assert "budget" in res.stderr
    if args[0] == "count" and res.exit_code != 2:
        records = [json.loads(line) for line in res.stdout.splitlines()]
        assert all(r["match"] for r in records if r["method"] == "both"), (args, records)
    if zero:
        assert res.exit_code == 0, (args, res.output)
        assert all(r["count"] == "0" and r.get("count_reflection", "0") == "0"
                   for r in records), (args, records)
