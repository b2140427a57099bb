"""Record bench/golden.json from the current checkout; run from its root.

    python3 bench/record_golden.py

Each job's canonical JSON digest is recorded, for large_prime at every prime
of the band. The stdout of the real CLI for each catalog_sweep command is
recorded too, after checking that the job outputs replayed through the CLI
reproduce it byte for byte. Run this only at a commit whose outputs are
known to be right: the benchmark counts any later difference as a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import GOLDEN_PATH, digest, load_modsocle  # noqa: E402
from workloads import (CLI_COMMANDS, LARGE_PRIMES, WORKLOADS, cli_replay,  # noqa: E402
                       large_prime_jobs)


def main() -> int:
    golden: dict = {"jobs": {}, "cli": {}}
    for workload, build in WORKLOADS.items():
        ms = load_modsocle(ROOT / "src")
        jobs = ([j for p in LARGE_PRIMES for j in large_prime_jobs(ms, p)]
                if workload == "large_prime" else build(ms, 0))
        texts = [job.call() for job in jobs]
        for job, text in zip(jobs, texts):
            if job.check is not None and not job.check(text):
                raise SystemExit(f"{job.id}: output fails its analytic check")
            golden["jobs"][job.id] = digest(text)
        print(f"{workload}: {len(jobs)} jobs", flush=True)
        if workload != "catalog_sweep":
            continue
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for segment, argv in CLI_COMMANDS:
            real = subprocess.run([sys.executable, "-m", "modsocle.cli", *argv], env=env,
                                  capture_output=True, text=True, check=True).stdout
            picked = [(j, t) for j, t in zip(jobs, texts) if j.id.startswith(segment + ":")]
            replayed = cli_replay(ms, argv, [j for j, _ in picked], [t for _, t in picked])
            if replayed != real:
                raise SystemExit(f"{' '.join(argv)}: job outputs do not reproduce the CLI stdout")
            golden["cli"][" ".join(argv)] = digest(real)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
