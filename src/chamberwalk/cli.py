"""Command-line front end.

Subcommands: count, asym, compare, preset, verify.  Streams are emitted as
JSON lines, each flushed as it is written, reports as single JSON documents,
tables optionally as CSV.  Exact counts are always serialized as strings so
arbitrary precision survives the trip through JSON.

The parser is the standard library's ``argparse``, one subparser a command.
Every option but ``--help`` takes one value, the next argument, whatever it
begins with (``_join_values``): ``--n -2:4:2`` and ``--u -1,2`` reach the
program's own checks, where argparse alone would read them as options.

Exit codes: 0 success, 1 verification/match failure, 2 usage error (including invalid
model input), 3 resource-budget refusal of an exact route, 4 internal error (one line on
stderr, no traceback), 141 stdout closed by its reader (nothing on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from chamberwalk import asym, exact, presets, verify
from chamberwalk.stepmodel import AtomicKind, CompositeSpec

EXIT_FAIL = 1
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Invalid command-line input: exit 2 with the command's usage and the message."""


def _parse_point(text: str, k: int, what: str) -> tuple[int, ...]:
    try:
        pt = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--{what} must be a comma-separated integer list")
    if len(pt) != k:
        raise UsageError(f"--{what} must have {k} coordinates")
    return pt


def _parse_weights(text: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError("--weights must be comma-separated rationals like 0,1 or 1/2,1")


def _model(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str]) -> tuple:
    """(spec, u, v) of the model options, v None for a free end point, parsed in that order."""
    spec = CompositeSpec(AtomicKind(kind), k, _parse_weights(weights))
    u = _parse_point(u_text, k, "u")
    return spec, u, None if v_text is None else _parse_point(v_text, k, "v")


def _parse_n_values(text: str) -> Sequence[int]:
    """Either a single integer or an inclusive start:stop:step range, never expanded."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("range must be start:stop:step")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise UsageError("range must be start:stop:step with integers")
        if step < 1 or stop < start:
            raise UsageError("range requires step >= 1 and stop >= start")
        return range(start, stop + 1, step)
    try:
        return [int(text)]
    except ValueError:
        raise UsageError("--n must be an integer or start:stop:step")


def _emit(record: dict) -> None:
    """One JSON document on its own line, flushed at once, so that a range streams."""
    print(json.dumps(record, sort_keys=True), flush=True)


def cmd_count(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str],
              n_text: str, method: str) -> None:
    """Exact confined counts, one JSON line per length."""
    spec, u, v = _model(kind, k, weights, u_text, v_text)
    mismatch = False
    for n in _parse_n_values(n_text):
        record = {"kind": kind, "k": k, "weights": [exact.format_count(w) for w in spec.weights],
                  "u": list(u), "n": n, "method": method}
        if v is not None:
            record["v"] = list(v)
        if method in ("dp", "both"):
            cnt = exact.count_confined(spec, u, v, n) if v is not None \
                else exact.count_confined_free(spec, u, n)
            record["count"] = exact.format_count(cnt)
        if method in ("reflection", "both"):
            ref = exact.count_reflection(spec, u, v, n) if v is not None \
                else exact.count_reflection_free(spec, u, n)
            key = "count_reflection" if method == "both" else "count"
            record[key] = exact.format_count(ref)
        if method == "both":
            record["match"] = record["count"] == record["count_reflection"]
            mismatch = mismatch or not record["match"]
        _emit(record)
    if mismatch:
        sys.exit(EXIT_FAIL)


def cmd_asym(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str],
             n_value: int) -> None:
    """Leading-order asymptotic estimate as a single JSON record."""
    spec, u, v = _model(kind, k, weights, u_text, v_text)
    est = asym.leading_order(spec, u, v, n_value)
    record = {"kind": kind, "k": k, "u": list(u), "n": n_value,
              "supported": est.supported}
    if v is not None:
        record["v"] = list(v)
    if est.supported:
        record["log10"] = est.log10_value
        if est.value is not None:
            record["value"] = est.value
    _emit(record)


def cmd_compare(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str],
                grid: str, fmt: str) -> None:
    """Exact-vs-asymptotic convergence table with a fitted decay slope."""
    spec, u, v = _model(kind, k, weights, u_text, v_text)
    report = asym.compare_series(spec, u, v, _parse_n_values(grid))
    rows = [{"n": r.n, "exact_log": r.exact_log, "asym_log": r.asym_log,
             "ratio": r.ratio, "delta": r.delta} for r in report.rows]
    if fmt == "json":
        _emit({"rows": rows, "slope": report.fitted_slope,
               "intercept": report.fitted_intercept})
        return
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "exact_log", "asym_log", "ratio", "delta", "slope"])
    for row in rows:
        writer.writerow([row["n"], repr(row["exact_log"]), repr(row["asym_log"]),
                         repr(row["ratio"]), repr(row["delta"]),
                         repr(report.fitted_slope)])


def cmd_preset(name: str, k: int, n_value: int, u_text: Optional[str],
               v_text: Optional[str]) -> None:
    """Exact count, asymptotic estimate, and their ratio for a named model."""
    u = _parse_point(u_text, k, "u") if u_text is not None else None
    v = _parse_point(v_text, k, "v") if v_text is not None else None
    inst = presets.preset_spec(name, k, u=u, v=v)
    steps = inst.steps(n_value)
    if inst.v is None:
        cnt = exact.count_reflection_free(inst.spec, inst.u, steps)
    else:
        cnt = exact.count_reflection(inst.spec, inst.u, inst.v, steps)
    est = presets.preset_asym(inst, n_value)
    record = {"preset": name, "k": k, "n": n_value, "steps": steps,
              "u": list(inst.u), "count": exact.format_count(cnt),
              "supported": est.supported}
    if inst.v is not None:
        record["v"] = list(inst.v)
    if est.supported:
        record["asym_log10"] = est.log10_value
        if cnt > 0:
            record["ratio"] = math.exp(asym.log_exact(cnt) - est.log_value)
    _emit(record)


def cmd_verify(suite_text: str, seed: int) -> None:
    """Runs the named verification suites; exits 0 iff everything passes."""
    names = [s.strip() for s in suite_text.split(",") if s.strip()]
    unknown = [name for name in names if name not in verify.SUITES]
    if unknown or not names:
        what = f"unknown suite {unknown[0]!r}" if unknown else "--suite names no suite"
        raise UsageError(f"{what}; choose from {', '.join(verify.SUITES)}")
    failures = []
    summary = {}
    for name in names:
        records = verify.run_suite(name, seed)
        ok = all(r["pass"] for r in records)
        summary[name] = {"checks": len(records), "pass": ok}
        if not ok:
            failures.extend(r for r in records if not r["pass"])
    report = {"seed": seed, "suites": summary, "pass": not failures}
    if failures:
        report["failures"] = failures
    _emit(report)
    if failures:
        sys.exit(EXIT_FAIL)


_DEFAULT = "(default: %(default)s)"


def _command(commands, name: str, fn) -> argparse.ArgumentParser:
    """The subparser of ``name``, which runs ``fn`` and is described by its docstring."""
    parser = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                 add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.set_defaults(command=fn, parser=parser)
    return parser


def _model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=["axis", "diagonal"], required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--weights", required=True,
                        help="Comma-separated step-count weights, e.g. 0,1 or 1,1,1.")
    parser.add_argument("--u", dest="u_text", metavar="U", required=True,
                        help="Start point, comma-separated.")
    parser.add_argument("--v", dest="v_text", metavar="V",
                        help="End point; omit for a free endpoint.")


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Walk counting and asymptotics in the chamber 0 < x1 < ... < xk.",
        add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", required=True)

    count = _command(commands, "count", cmd_count)
    _model_options(count)
    count.add_argument("--n", dest="n_text", metavar="N", required=True,
                       help="Length, or start:stop:step.")
    count.add_argument("--method", choices=["dp", "reflection", "both"], default="dp",
                       help=_DEFAULT)

    asym_ = _command(commands, "asym", cmd_asym)
    _model_options(asym_)
    asym_.add_argument("--n", dest="n_value", metavar="N", type=int, required=True)

    compare = _command(commands, "compare", cmd_compare)
    _model_options(compare)
    compare.add_argument("--grid", required=True, help="Lengths as start:stop:step.")
    compare.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json",
                         help=_DEFAULT)

    preset = _command(commands, "preset", cmd_preset)
    preset.add_argument("name", choices=presets.PRESET_NAMES)
    preset.add_argument("--k", type=int, required=True)
    preset.add_argument("--n", dest="n_value", metavar="N", type=int, required=True)
    preset.add_argument("--u", dest="u_text", metavar="U")
    preset.add_argument("--v", dest="v_text", metavar="V")

    verify_ = _command(commands, "verify", cmd_verify)
    verify_.add_argument("--suite", dest="suite_text", metavar="SUITES",
                         default=",".join(verify.SUITES),
                         help=f"Comma-separated suite names. {_DEFAULT}")
    verify_.add_argument("--seed", type=int, default=0, help=_DEFAULT)
    return parser


def _join_values(args: Sequence[str]) -> list[str]:
    """Each ``--option value`` pair as ``--option=value``.

    argparse reads a separate value that begins with ``-`` and is not a
    plain number (``-2:4:2``, ``-1,2``) as an option; a joined value is
    the option's, whatever it begins with.
    """
    joined, rest = [], iter(args)
    for arg in rest:
        if arg.startswith("--") and "=" not in arg and arg not in ("--", "--help"):
            value = next(rest, None)
            if value is not None:
                arg = f"{arg}={value}"
        joined.append(arg)
    return joined


def main(args: Optional[Sequence[str]] = None, prog_name: Optional[str] = None) -> None:
    """Runs the command ``args`` names (default ``sys.argv[1:]``) and maps what it raises
    to the documented exit codes; returns on success."""
    options = vars(_parser(prog_name or "chamberwalk").parse_args(
        _join_values(sys.argv[1:] if args is None else args)))
    command, parser = options.pop("command"), options.pop("parser")
    try:
        command(**options)
    except UsageError as err:
        parser.error(str(err))
    except BrokenPipeError:  # the reader closed stdout: exit 128 + SIGPIPE, as if killed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # no error at exit
        sys.exit(141)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(EXIT_FAIL)
    except exact.ResourceBudgetError as err:
        print(err, file=sys.stderr)
        sys.exit(EXIT_RESOURCE)
    except Exception as err:
        # a ValueError is invalid model input, except under verify,
        # which checks its suite names first and builds its own models
        if isinstance(err, ValueError) and command is not cmd_verify:
            parser.error(str(err))
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(EXIT_INTERNAL)


if __name__ == "__main__":
    main()
