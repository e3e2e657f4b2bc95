"""Benchmark of the chamberwalk command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chamberwalk checkout; the program is used from
``src/`` as it stands, nothing is installed.  Each workload is a fixed list
of CLI operations (see ``workloads.py``), run as a closed loop with one
client: one ``python3 -m chamberwalk.cli`` process at a time, each with a
timeout and its own resource usage from ``os.wait4``.  The list is run
pass after pass until ``--seconds`` have gone by, and every operation's
output is checked against a reference computed before the first pass, in a
child process (``workloads.py``), so that the runner never loads the package.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, in calibrated seconds (below):

* ``setup_s``: median time of a ``chamberwalk --help`` process, which only
  imports and exits;
* ``wall_s``: time of the whole operation list, each operation at its
  median over the passes;
* ``peak_rss_mb``: largest max RSS of any single operation's process.  A
  child begins with the runner's own peak RSS as its floor (Linux carries
  the old memory's high-water mark across ``exec``), so the run is marked
  not correct unless the figure is clearly above the runner's.

The report above the JSON line also prints ``op_p50_s``, the median over
the operations of their median time, with the operation count.

Calibration.  The 2-vCPU sandbox this was tuned on switches between a fast
phase and one up to 1.5 times slower, each lasting seconds, so raw times
drift from run to run with the share of slow phase a run happens to see.
Before and after every operation the loop therefore runs ``CALIBRATION``,
a fixed program that does not use the package, and the operation is
reported as ``wall / calibration wall * CAL_REF_S``, with the faster of the
two calibrations around it (a calibration hit by a short stall would
otherwise skew the operation): its time in units of the calibration
process, scaled to the calibration's time in a fast phase.  The report
above the JSON line also gives the raw times.

With ``--trace 1`` it holds the per-layer metrics of ``layers.py``: untraced
and traced passes alternate, every operation of a traced pass runs under
``trace_runner.py``, and each reflection operation also gets a cold kernel
probe in its own process.  The traced run also checks the attribution
(``attribution_checks``); a failed check marks the run not correct.  The
lines above the JSON are a readable report, including the error rate and
the known defects listed in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
WORKLOADS = ("reflection-deep", "signed-sum-wide", "dp-oracle", "short-ops")
# The calibration process: it imports numpy and convolves a 2-D walk in a
# dict of tuples, the same mix of start-up and big-int dict work as the CLI.
CALIBRATION = """import numpy
dist = {(0, 0): 1}
for _ in range(40):
    out = {}
    for (a, b), m in dist.items():
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            out[a + da, b + db] = out.get((a + da, b + db), 0) + m
    dist = out
"""
CAL_REF_S = 0.15         # the calibration's wall time in a fast phase of the sandbox
SETUP_EVERY_S = 1.0      # how often a `--help` start-up sample follows a calibration
OP_TIMEOUT_S = 60.0
# no operation starts later than this after the run began, so that a run
# with hanging operations still ends well inside three minutes
HARD_STOP_S = 100.0
# peak_rss_mb must exceed the runner's own peak RSS by this factor to count
RSS_FLOOR_FACTOR = 1.5
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


@dataclass
class Result:
    name: str
    code: Optional[int]           # None after a timeout
    wall: float
    rss_mb: float
    outcome: str                  # "ok", "known" (recorded defect) or "failed"
    reason: Optional[str] = None
    trace: Optional[dict] = None
    kernel_s: float = 0.0
    cal: float = CAL_REF_S        # wall time of the faster calibration run around it

    @property
    def calibrated(self) -> float:
        return self.wall / self.cal * CAL_REF_S


def spawn(work: Path, argv: list[str], timeout: float = OP_TIMEOUT_S):
    """Runs ``python3 ARGV`` to completion: exit code, wall s, max RSS MB, stdout, stderr."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], ENV, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        exited = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                exited = bool(select.select([pidfd], [], [], timeout)[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if exited else None
    return code, wall, usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text()


def run_op(work: Path, op, traced: bool) -> Result:
    trace_path = work / "trace.json"
    if traced:
        trace_path.unlink(missing_ok=True)
        argv = [str(BENCH / "trace_runner.py"), str(trace_path), "--", *op.argv]
    else:
        argv = ["-m", "chamberwalk.cli", *op.argv]
    code, wall, rss_mb, out, err = spawn(work, argv)
    result = Result(op.name, code, wall, rss_mb, "ok")
    if code is None:
        result.outcome, result.reason = "failed", f"timeout after {OP_TIMEOUT_S} s"
        return result
    try:
        result.reason = op.check(code, out, err)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        result.reason = f"unreadable output: {exc!r}"
    if result.reason is not None:
        result.outcome = "known" if op.hit_known_defect(code, out, err) else "failed"
    if traced:
        if trace_path.exists():
            result.trace = json.loads(trace_path.read_text())
        else:
            result.outcome, result.reason = "failed", "trace runner wrote no spans"
        if op.kernel_probe:
            code, _, _, _, err = spawn(work, [str(BENCH / "trace_runner.py"), str(trace_path),
                                        "--kernel-probe", *op.kernel_probe])
            if code == 0:
                result.kernel_s = json.loads(trace_path.read_text())["kernel_s"]
            else:
                result.outcome, result.reason = "failed", f"kernel probe failed: {err[-200:]}"
    return result


class Loop:
    """The closed loop: passes over the operations, one process at a time."""

    def __init__(self, work: Path, ops, started: float):
        self.work = work
        self.ops = ops
        self.started = started
        self.setup: list[float] = []   # calibrated `--help` times
        self.cal_walls: list[float] = []
        self.last_setup = -SETUP_EVERY_S

    def _run(self, argv: list[str]) -> float:
        code, wall, _, _, err = spawn(self.work, argv)
        if code != 0:
            raise RuntimeError(f"python3 {' '.join(argv)[:60]} exited {code}: {err[-500:]}")
        return wall

    def calibrate(self) -> float:
        """Runs the calibration, and a `--help` start-up sample about once a second."""
        cal = self._run(["-c", CALIBRATION])
        self.cal_walls.append(cal)
        if time.monotonic() - self.last_setup >= SETUP_EVERY_S:
            self.setup.append(self._run(["-m", "chamberwalk.cli", "--help"]) / cal * CAL_REF_S)
            self.last_setup = time.monotonic()
        return cal

    def run_pass(self, traced: bool, stop_at: float) -> list[Result]:
        """One pass over the operations; no operation starts after ``stop_at``.

        An operation is calibrated by the faster of the calibrations just
        before and just after it.
        """
        results = []
        cal = self.calibrate()
        for op in self.ops:
            if time.monotonic() > min(stop_at, self.started + HARD_STOP_S):
                break
            result = run_op(self.work, op, traced)
            after = self.calibrate()
            result.cal = min(cal, after)
            cal = after
            results.append(result)
        return results


def per_op(passes: list[list[Result]], value) -> list[list[float]]:
    """``value`` of each operation's results, over the passes that reached it."""
    return [[value(p[i]) for p in passes if len(p) > i]
            for i in range(max(len(p) for p in passes))]


def list_time(passes: list[list[Result]]) -> float:
    """Calibrated time of the operation list, each operation at its median."""
    return sum(statistics.median(v) for v in per_op(passes, lambda r: r.calibrated))


def attribution_checks(workload: str, metrics: dict, per_pass: list[dict],
                       traced: list[list[Result]]) -> list[tuple[str, bool]]:
    """The traced run's attribution checks: (description, passed) pairs."""
    value = {name: v for name, (v, _) in metrics.items()}
    found = []
    for i, (m, p) in enumerate(zip(per_pass, traced)):
        terms = m["exact.signed_sum_terms"]
        full = layers.full_signed_sums([r.trace for r in p])
        found.append((f"traced pass {i + 1}: exact.signed_sum_terms {terms:.0f} == sum of "
                       f"k!*2^k over count_reflection calls {full}", terms == full))
    if workload == "dp-oracle":
        found.append((f"exact.reflection_s {value['exact.reflection_s']:.6g} s == 0 "
                       f"on dp-oracle", value["exact.reflection_s"] == 0))
    if workload == "reflection-deep":
        share = value["exact.kernel_s"] / value["exact.reflection_s"] \
            if value["exact.reflection_s"] else 0.0
        found.append((f"exact.kernel_s is {share:.1%} of exact.reflection_s, > 50 % "
                       f"on reflection-deep", share > 0.5))
    return found


def report(args, ops, passes, traced_passes, setup, loop_cal) -> tuple[dict, list[str]]:
    """Prints the readable report; returns the metrics for the JSON line and the
    reasons, if any, that the run is not correct besides failed operations."""
    results = [r for p in passes + traced_passes for r in p]
    failed = [r for r in results if r.outcome == "failed"]
    known = Counter((r.name, r.reason) for r in results if r.outcome == "known")
    print(f"chamberwalk bench: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} untraced + {len(traced_passes)} traced passes of {len(ops)} "
          f"operations, one CLI process at a time")
    peak = max(r.rss_mb for r in results)
    metrics: dict[str, tuple[float, str]] = {}
    problems = []
    if args.trace:
        done = [p for p in traced_passes if len(p) == len(ops)] or traced_passes
        traced = [[r for r in p if r.trace] for p in done]
        per_pass = [layers.compute([r.trace for r in p], [r.wall for r in p],
                                   sum(r.kernel_s for r in p)) for p in traced]
        for name, (unit, *_) in layers.METRICS.items():
            metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
        metrics["trace.overhead_ratio"] = (list_time(done) / list_time(passes), "ratio")
        for name, (unit, _, moves, workload, what) in layers.METRICS.items():
            print(f"  {name:36s} {metrics[name][0]:14.6g} {unit:5s}  moves {moves} "
                  f"on {workload}: {what}")
        for what, passed in attribution_checks(args.workload, metrics, per_pass, traced):
            print(f"  attribution {'PASS' if passed else 'FAIL'}: {what}")
            if not passed:
                problems.append(f"attribution check failed: {what}")
    else:
        op_medians = [statistics.median(v) for v in per_op(passes, lambda r: r.calibrated)]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(op_medians), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        # printed, not in the JSON line: it follows the one or two middle
        # operations, so its spread over seeds is about twice wall_s's
        printed = {**metrics, "op_p50_s": (statistics.median(op_medians), "s")}
        raw_pass = statistics.median(sum(r.wall for r in p) for p in passes)
        notes = {"setup_s": f"median of {len(setup)} `chamberwalk --help` processes",
                 "wall_s": f"median of each operation over {len(passes)} passes "
                           f"(raw median pass {raw_pass:.4f} s)",
                 "op_p50_s": f"median over the {len(op_medians)} operations' medians "
                             f"(not in the JSON line)",
                 "peak_rss_mb": "largest max RSS of one operation"}
        for name, (value, unit) in printed.items():
            print(f"  {name:12s} {value:12.6f} {unit:3s}  {notes[name]}")
        print(f"  calibration  {statistics.median(loop_cal):12.6f} s    median raw wall of "
              f"{len(loop_cal)} calibration processes (reference {CAL_REF_S} s)")
        raw = per_op(passes, lambda r: r.wall)
        cal = per_op(passes, lambda r: r.calibrated)
        for op, raw_i, cal_i in zip(ops, raw, cal):
            print(f"    {op.name:28s} {statistics.median(cal_i):8.4f} s calibrated, raw "
                  f"median {statistics.median(raw_i):8.4f} s  {' '.join(op.argv)}")
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  runner max RSS {floor:.1f} MB: the floor of every child's max RSS; "
          f"peak_rss_mb {peak:.1f} MB must exceed {RSS_FLOOR_FACTOR} x the floor")
    if peak <= RSS_FLOOR_FACTOR * floor:
        problems.append(f"peak_rss_mb {peak:.1f} MB is not clearly above the runner's "
                        f"max RSS {floor:.1f} MB, so it measures the runner")
    rate = (len(failed) + sum(known.values())) / len(results)
    print(f"  {'error_rate':12s} {rate:12.6f} ratio  ({len(failed)} failed + "
          f"{sum(known.values())} known defects) / {len(results)} attempted")
    for (name, reason), count in sorted(known.items()):
        print(f"  known defect x{count}: {name}: {reason}")
    for r in failed:
        print(f"  FAILED {r.name} (exit {r.code}): {r.reason}")
    for problem in problems:
        print(f"  NOT CORRECT: {problem}")
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            problems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "chamberwalk" / "cli.py").is_file():
        print(f"bench: {SRC / 'chamberwalk'} is missing; run from a chamberwalk checkout",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        code, _, _, out, err = spawn(work, [str(BENCH / "workloads.py"), args.workload,
                                            str(args.seed)])
        if code != 0:
            print(f"bench: building the {args.workload} operations failed (exit {code}): "
                  f"{err[-500:]}", file=sys.stderr)
            return 1
        ops = [checks.Op(**op) for op in json.loads(out)]
        return measure(args, Loop(work, ops, time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, loop: Loop) -> int:
    passes: list[list[Result]] = []
    traced_passes: list[list[Result]] = []
    try:
        loop.calibrate()           # byte-compiles the package; not counted
        loop.setup.clear()
        loop.cal_walls.clear()
        # the first pass of each kind is complete; later ones stop at the deadline
        deadline = time.monotonic() + args.seconds
        stop_at = math.inf
        while time.monotonic() < min(deadline, loop.started + HARD_STOP_S):
            passes.append(loop.run_pass(traced=False, stop_at=stop_at))
            if args.trace:
                traced_passes.append(loop.run_pass(traced=True, stop_at=stop_at))
            stop_at = deadline
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics, problems = report(args, loop.ops, passes, traced_passes, loop.setup,
                               loop.cal_walls)
    results = [r for p in passes + traced_passes for r in p]
    failed = sum(r.outcome == "failed" for r in results)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
