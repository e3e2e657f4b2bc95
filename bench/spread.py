"""Runs the untraced benchmark once per seed and prints each metric's median and spread.

    python3 bench/spread.py --workloads short-ops,dp-oracle --seeds 1-10 [--out F]

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median; for end-to-end metrics it is shown against a third of the
metric's bound in BENCHMARK.json.  Runs go one after another, never in
parallel.  ``--out`` writes the medians and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "unit": units[name], "spread": spread}
            if name in bounds:
                flag = "ok" if spread < bounds[name] / 3 else "WIDE"
                print(f"  {workload:16s} {name:12s} median {median:.6g} {units[name]:3s} "
                      f"spread {spread:.4f} (bound/3 {bounds[name] / 3:.4f}) {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
