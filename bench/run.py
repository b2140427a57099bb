"""Benchmark entry point; run it from the root of a modsocle checkout.

    python3 bench/run.py --workload catalog_sweep --seed 1 --seconds 20 --trace 0

prints a readable report, then as its last line one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. `--workload all` runs
every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "modsocle" / "__init__.py").is_file():
        print(f"error: no modsocle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, check=False).returncode != 0:
                return 1
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    result = measure(SRC, args.workload, args.seed, args.seconds, bool(args.trace),
                     out_dir=Path(__file__).resolve().parent / "out")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{'correct' if result.correct else 'INCORRECT'}")
    for note in result.notes:
        print(f"  {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
