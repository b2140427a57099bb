"""Run bench/run.py over several seeds and summarize; run from the repo root.

    python3 bench/sweep.py --workloads catalog_sweep,socle_large --seeds 1-10 \
        [--trace-seed 1] [--out summary.json]

For each workload and end-to-end metric it prints the median over the seeds
and the spread, the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. With --trace-seed it adds one traced run
per workload. --out writes every value as JSON, in the layout of
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(invoke(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1].items()}, flush=True)
        entry = summary[workload] = {"seeds": args.seeds, "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            entry["end_to_end"][name] = {"median": statistics.median(values),
                                         "spread": spread(values) if len(values) > 1 else 0.0,
                                         "values": values}
            print(f"  {workload} {name:14s} median {statistics.median(values):12.5g} "
                  f"spread {entry['end_to_end'][name]['spread']:.4f} bound {bound}", flush=True)
        if args.trace_seed is not None:
            entry["per_layer"] = invoke(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["trace_seed"] = args.trace_seed
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
