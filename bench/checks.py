"""The benchmark's operations and the checks of their outcomes.

An operation is a CLI argument list with its expected outcome.  The
expectation is plain data (``[check, *parameters]``), so that the
operations and their reference values can be built in a short-lived child
process (``workloads.py``) and read back as JSON: the runner then never
imports the package, and its own memory stays small.  That matters for
``peak_rss_mb``, because a child started by the runner begins with the
runner's peak RSS as the floor of its own.

Some operations hit defects recorded in README.md.  Each such operation
names the signature of its defect; a run that shows exactly that signature
is reported as a known defect instead of a failure, and any other wrong
outcome is a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass
class Op:
    name: str
    argv: list[str]
    expect: list                               # [check name, *parameters]
    known_defect: Optional[str] = None         # a key of KNOWN_DEFECTS
    kernel_probe: Optional[list[str]] = None   # KIND K WEIGHTS U V N for the traced run

    def check(self, code: int, out: str, err: str) -> Optional[str]:
        """None when the outcome is right, else the reason it is wrong."""
        name, *params = self.expect
        return CHECKS[name](*params, code, out, err)

    def hit_known_defect(self, code: int, out: str, err: str) -> bool:
        return self.known_defect is not None and KNOWN_DEFECTS[self.known_defect](code, out, err)


def _no_traceback(err: str) -> Optional[str]:
    return "traceback on stderr" if "Traceback" in err else None


def _records(code: int, out: str, err: str, expected_code: int = 0):
    if code != expected_code:
        last = err.strip().splitlines()[-1:] or [""]
        return None, f"exit {code}, expected {expected_code}: {last[0][:200]}"
    bad = _no_traceback(err)
    if bad:
        return None, bad
    try:
        return [json.loads(line) for line in out.splitlines() if line.strip()], None
    except json.JSONDecodeError:
        return None, "stdout is not JSON lines"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def counts(ns: list[int], refs: list[str], code, out, err):
    records, bad = _records(code, out, err)
    if bad:
        return bad
    got = [(r.get("n"), Fraction(r.get("count", "nan"))) for r in records]
    want = list(zip(ns, (Fraction(x) for x in refs)))
    return None if got == want else f"counts {got} != reference {want}"


def verify(code, out, err):
    records, bad = _records(code, out, err)
    if bad:
        return bad
    passed = len(records) == 1 and records[0].get("pass") is True
    return None if passed else "verify pass is not true"


def exit_code(expected: int, needle: str, code, out, err):
    if code != expected:
        last = (err.strip() or out.strip()).splitlines()[-1:] or [""]
        return f"exit {code}, expected {expected}: {last[0][:200]}"
    bad = _no_traceback(err)
    if bad:
        return bad
    return None if needle in err else f"stderr lacks {needle!r}"


def preset(ref: str, code, out, err):
    records, bad = _records(code, out, err)
    if bad:
        return bad
    got = Fraction(records[0].get("count", "nan")) if len(records) == 1 else None
    return None if got == Fraction(ref) else f"count {got} != reference {ref}"


def asym(log10_ref: float, code, out, err):
    records, bad = _records(code, out, err)
    if bad:
        return bad
    got = records[0].get("log10") if len(records) == 1 else None
    return None if got is not None and _close(got, log10_ref) \
        else f"log10 {got} != preset formula {log10_ref}"


def compare(rows: list[list], code, out, err):
    records, bad = _records(code, out, err)
    if bad:
        return bad
    got = records[0].get("rows", []) if len(records) == 1 else []
    ok = len(got) == len(rows) and all(
        g["n"] == n and _close(g["exact_log"], ex) and _close(g["asym_log"], asy)
        for g, (n, ex, asy) in zip(got, rows))
    return None if ok and math.isfinite(records[0]["slope"]) \
        else f"rows {got} != reference {rows}"


CHECKS = {"counts": counts, "verify": verify, "exit": exit_code, "preset": preset,
          "asym": asym, "compare": compare}

# The signatures of the defects recorded in README.md.
KNOWN_DEFECTS = {
    "schur-zero-division": lambda code, out, err: code == 1 and "ZeroDivisionError" in err,
    "negative-n-dp-count": lambda code, out, err:
        code == 0 and '"n": -1' in out and '"count"' in out,
    "negative-n-recursion": lambda code, out, err: code == 1 and "RecursionError" in err,
}
