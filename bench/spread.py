"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--out bench/out/spread.json]

Runs the command of BENCHMARK.json once per (workload, seed) for its
``run_seconds``, one process at a time, and prints for every end-to-end
metric the median, the quartiles and the spread (quartile distance over the
median), next to a third of the bound that BENCHMARK.json fixes for it.
With ``--out`` it also writes every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for seed in seeds_of(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            result = json.loads(lines[-1]) if lines[-1].startswith("{") else {}
            context = next((json.loads(line[8:]) for line in lines if line.startswith("context ")), {})
            if proc.returncode or not result.get("correct"):
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            runs[workload].append({"seed": seed, "exit": proc.returncode, "context": context, **result})

        print(f"\n{workload}: {len(runs[workload])} runs")
        names = sorted({k for r in runs[workload] for k in r.get("metrics", {})})
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[workload] if name in r.get("metrics", {})]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
            flag = "  OVER" if bound and name != "setup_s" and spread > bound / 3 else ""
            print(f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{limit}{flag}")
        walls = [r["context"]["wall_op_s_p50"] for r in runs[workload] if "wall_op_s_p50" in r["context"]]
        if len(walls) >= 2:
            q1, _, q3 = statistics.quantiles(walls, n=4)
            med = statistics.median(walls)
            print(f"  {'(wall seconds, not a metric) op_s_p50':40s} median {med:.6g}  spread {(q3 - q1) / med:.4f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
