"""Command-line front end.

Subcommands: count, asym, compare, preset, verify.  Streams are emitted as
JSON lines, reports as single JSON documents, tables optionally as CSV.
Exact counts are always serialized as strings so arbitrary precision
survives the trip through JSON.

Exit codes: 0 success, 1 verification/match failure, 2 usage error
(including invalid model input), 3 resource-budget refusal of an exact
route, 4 internal error (one line on stderr, no traceback).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import click

from chamberwalk import asym, exact, presets, verify
from chamberwalk.stepmodel import AtomicKind, CompositeSpec

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _parse_point(text: str, k: int, what: str) -> tuple[int, ...]:
    try:
        pt = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise click.UsageError(f"--{what} must be a comma-separated integer list")
    if len(pt) != k:
        raise click.UsageError(f"--{what} must have {k} coordinates")
    return pt


def _parse_weights(text: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("--weights must be comma-separated rationals like 0,1 or 1/2,1")


def _build_spec(kind: str, k: int, weights: str) -> CompositeSpec:
    return CompositeSpec(AtomicKind(kind), k, _parse_weights(weights))


def _parse_n_values(text: str) -> list[int]:
    """Either a single integer or an inclusive start:stop:step range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError("range must be start:stop:step")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise click.UsageError("range must be start:stop:step with integers")
        if step < 1 or stop < start:
            raise click.UsageError("range requires step >= 1 and stop >= start")
        return list(range(start, stop + 1, step))
    try:
        return [int(text)]
    except ValueError:
        raise click.UsageError("--n must be an integer or start:stop:step")


def _emit(record: dict) -> None:
    click.echo(json.dumps(record, sort_keys=True))


_MODEL_OPTIONS = [
    click.option("--kind", type=click.Choice(["axis", "diagonal"]), required=True),
    click.option("--k", "k", type=int, required=True),
    click.option("--weights", required=True,
                 help="Comma-separated step-count weights, e.g. 0,1 or 1,1,1."),
    click.option("--u", "u_text", required=True, help="Start point, comma-separated."),
    click.option("--v", "v_text", default=None,
                 help="End point; omit for a free endpoint."),
]


def _model_options(fn):
    for opt in reversed(_MODEL_OPTIONS):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    """Maps what a command raises to the documented exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.exceptions.Abort):
            raise
        except exact.ResourceBudgetError as err:
            click.echo(str(err), err=True)
            sys.exit(EXIT_RESOURCE)
        except Exception as err:
            # a ValueError is invalid model input, except under verify,
            # which checks its suite names first and builds its own models
            name = ctx.invoked_subcommand
            if isinstance(err, ValueError) and name != "verify":
                command = click.Context(self.commands[name], parent=ctx, info_name=name)
                raise click.UsageError(str(err), command)
            click.echo(f"internal error: {type(err).__name__}: {err}", err=True)
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Main)
def main() -> None:
    """Walk counting and asymptotics in the chamber 0 < x1 < ... < xk."""


@main.command("count")
@_model_options
@click.option("--n", "n_text", required=True, help="Length, or start:stop:step.")
@click.option("--method", type=click.Choice(["dp", "reflection", "both"]), default="dp",
              show_default=True)
def cmd_count(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str],
              n_text: str, method: str) -> None:
    """Exact confined counts, one JSON line per length."""
    spec = _build_spec(kind, k, weights)
    u = _parse_point(u_text, k, "u")
    v = _parse_point(v_text, k, "v") if v_text is not None else None
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


@main.command("asym")
@_model_options
@click.option("--n", "n_value", type=int, required=True)
def cmd_asym(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str],
             n_value: int) -> None:
    """Leading-order asymptotic estimate as a single JSON record."""
    spec = _build_spec(kind, k, weights)
    u = _parse_point(u_text, k, "u")
    v = _parse_point(v_text, k, "v") if v_text is not None else None
    est = asym.asym_free(spec, u, n_value) if v is None else asym.asym_fixed(spec, u, v, n_value)
    record = {"kind": kind, "k": k, "u": list(u), "n": n_value,
              "supported": est.supported}
    if v is not None:
        record["v"] = list(v)
    if est.supported:
        record["log10"] = est.log10_value
        if est.value is not None:
            record["value"] = est.value
    _emit(record)


@main.command("compare")
@_model_options
@click.option("--grid", required=True, help="Lengths as start:stop:step.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def cmd_compare(kind: str, k: int, weights: str, u_text: str, v_text: Optional[str],
                grid: str, fmt: str) -> None:
    """Exact-vs-asymptotic convergence table with a fitted decay slope."""
    spec = _build_spec(kind, k, weights)
    u = _parse_point(u_text, k, "u")
    v = _parse_point(v_text, k, "v") if v_text is not None else None
    report = asym.compare_series(spec, u, v, _parse_n_values(grid))
    rows = [{"n": r.n, "exact_log": r.exact_log, "asym_log": r.asym_log,
             "ratio": r.ratio, "delta": r.delta} for r in report.rows]
    if fmt == "json":
        _emit({"rows": rows, "slope": report.fitted_slope,
               "intercept": report.fitted_intercept})
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "exact_log", "asym_log", "ratio", "delta", "slope"])
    for row in rows:
        writer.writerow([row["n"], repr(row["exact_log"]), repr(row["asym_log"]),
                         repr(row["ratio"]), repr(row["delta"]),
                         repr(report.fitted_slope)])


@main.command("preset")
@click.argument("name", type=click.Choice(presets.PRESET_NAMES))
@click.option("--k", "k", type=int, required=True)
@click.option("--n", "n_value", type=int, required=True)
@click.option("--u", "u_text", default=None)
@click.option("--v", "v_text", default=None)
def cmd_preset(name: str, k: int, n_value: int, u_text: Optional[str],
               v_text: Optional[str]) -> None:
    """Exact count, asymptotic estimate, and their ratio for a named model."""
    u = _parse_point(u_text, k, "u") if u_text is not None else None
    v = _parse_point(v_text, k, "v") if v_text is not None else None
    inst = presets.preset_spec(name, k, u=u, v=v)
    steps = inst.steps(n_value)
    if inst.free_endpoint:
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


@main.command("verify")
@click.option("--suite", "suite_text", default=",".join(verify.SUITES),
              show_default=True, help="Comma-separated suite names.")
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_verify(suite_text: str, seed: int) -> None:
    """Runs the named verification suites; exits 0 iff everything passes."""
    names = [s.strip() for s in suite_text.split(",") if s.strip()]
    for name in names:
        if name not in verify.SUITES:
            raise click.UsageError(
                f"unknown suite {name!r}; choose from {', '.join(verify.SUITES)}")
    failures = []
    summary = {}
    for name in names:
        records = verify.run_suite(name, seed)
        ok = verify.suite_passed(records)
        summary[name] = {"checks": len(records), "pass": ok}
        if not ok:
            failures.extend(r for r in records if not r["pass"])
    report = {"seed": seed, "suites": summary, "pass": not failures}
    if failures:
        report["failures"] = failures
    click.echo(json.dumps(report, sort_keys=True, default=str))
    if failures:
        sys.exit(EXIT_FAIL)


if __name__ == "__main__":
    main()
