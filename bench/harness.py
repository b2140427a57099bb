"""Closed-loop timing of one workload, output checks and metric assembly.

One run: import modsocle afresh, build the workload's input groups (set-up),
then run its jobs one at a time in the seed's order, each starting when the
previous one finishes. Everything is timed with `time.perf_counter`.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import CLI_COMMANDS, WORKLOADS, Job, cli_replay

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

MIN_RUNS = 3        # untraced runs per invocation, whatever --seconds says
MIN_SETUPS = 5      # set-ups per untraced invocation; extra ones run no jobs
TAIL_BEYOND = 10    # samples a tail percentile must have above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_modsocle(src: Path) -> SimpleNamespace:
    """Import modsocle afresh from `src`, dropping any earlier import, so a run
    gets new module state and new caches, as a new CLI process would."""
    for name in [m for m in sys.modules if m == "modsocle" or m.startswith("modsocle.")]:
        del sys.modules[name]
    importlib.import_module("modsocle")
    ms = SimpleNamespace(**{layer: importlib.import_module(f"modsocle.{layer}")
                            for layer in spans.LAYERS})
    where = Path(ms.cli.__file__).resolve().parent
    if where != (src / "modsocle").resolve():
        raise ImportError(f"modsocle was imported from {where}, not from {src}")
    return ms


def job_order(count: int, seed: int) -> list[int]:
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


@dataclass
class Run:
    ms: SimpleNamespace
    jobs: list[Job]
    texts: list[str | None]
    latencies: list[float]
    errors: dict[int, str]
    setup_s: float
    run_s: float
    tracer: spans.Tracer | None = None


def setup(src: Path, workload: str, seed: int,
          tracer: spans.Tracer | None = None) -> tuple[SimpleNamespace, list[Job], float]:
    started = perf_counter()
    ms = load_modsocle(src)
    if tracer is not None:
        spans.install(tracer)
    jobs = WORKLOADS[workload](ms, seed)
    return ms, jobs, perf_counter() - started


def one_run(src: Path, workload: str, seed: int, traced: bool = False) -> Run:
    tracer = spans.Tracer() if traced else None
    ms, jobs, setup_s = setup(src, workload, seed, tracer)
    texts: list[str | None] = [None] * len(jobs)
    latencies = [0.0] * len(jobs)
    errors: dict[int, str] = {}
    started = perf_counter()
    for i in job_order(len(jobs), seed):
        if tracer is not None:
            tracer.job = i
        t0 = perf_counter()
        try:
            texts[i] = jobs[i].call()
        except Exception:  # a raising job is a failed job; the loop goes on
            errors[i] = traceback.format_exc()
        latencies[i] = perf_counter() - t0
    run_s = perf_counter() - started
    return Run(ms, jobs, texts, latencies, errors, setup_s, run_s, tracer)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def failed_jobs(run: Run, golden: dict) -> dict[int, str]:
    """Jobs that raised, or whose canonical JSON differs from its digest in
    golden.json, or fails the job's own check."""
    failed = dict(run.errors)
    for i, (job, text) in enumerate(zip(run.jobs, run.texts)):
        if i in failed:
            continue
        if golden["jobs"].get(job.id) != digest(text):
            failed[i] = f"{job.id}: output digest differs from the golden digest"
        elif job.check is not None and not job.check(text):
            failed[i] = f"{job.id}: output fails the workload's analytic check"
    return failed


def cli_problems(run: Run, golden: dict) -> list[str]:
    """For catalog_sweep: the job outputs, replayed through the CLI in CLI
    order, must reproduce its stdout byte for byte, as recorded in golden.json."""
    problems = []
    for segment, argv in CLI_COMMANDS:
        picked = [(j, t) for j, t in zip(run.jobs, run.texts) if j.id.startswith(segment + ":")]
        try:
            stdout = cli_replay(run.ms, argv, [j for j, _ in picked], [t for _, t in picked])
        except AssertionError as exc:
            problems.append(str(exc))
            continue
        if digest(stdout) != golden["cli"][" ".join(argv)]:
            problems.append(f"{' '.join(argv)}: stdout differs from the recorded CLI stdout")
    return problems


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples above its
    nearest-rank sample; 50 when no rung qualifies."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= TAIL_BEYOND:
            return q
    return 50.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_value(values: list[float]) -> float:
    """The sample at the tail percentile; the plain median when no rung
    above the median qualifies."""
    if len(values) < 2 * TAIL_BEYOND:
        return statistics.median(values)
    return nearest_rank(values, tail_percentile(len(values)))


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}})


def measure(src: Path, workload: str, seed: int, seconds: float, trace: bool,
            out_dir: Path | None = None) -> Result:
    """Run `workload` in a closed loop for about `seconds`.

    Untraced (trace False): end-to-end metrics from MIN_RUNS or more runs.
    Traced: untraced and traced runs alternate; per-layer metrics come from
    the traced ones, and their run_s difference is the tracing overhead.
    A run is dropped once it is checked, so it holds no memory afterwards.
    """
    golden = load_golden()
    started = perf_counter()
    plain: list[tuple[float, float, list[float]]] = []   # setup_s, run_s, latencies
    traced_run_s: list[float] = []
    layer_runs: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    tracer = None
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            run = one_run(src, workload, seed, traced=is_traced)
            bad = failed_jobs(run, golden)
            attempted += len(run.jobs)
            failed += len(bad)
            problems.extend(bad.values())
            if workload == "catalog_sweep" and not plain and not is_traced and not bad:
                problems.extend(cli_problems(run, golden))
            if is_traced:
                tracer = run.tracer
                layer_runs.append(spans.aggregate(tracer.spans))
                traced_run_s.append(run.run_s)
            else:
                plain.append((run.setup_s, run.run_s, run.latencies))
            del run
            gc.collect()
        elapsed = perf_counter() - started
        # Start another round only if it would end closer to the deadline.
        if (trace or len(plain) >= MIN_RUNS) and elapsed + elapsed / len(plain) / 2 > seconds:
            break
    notes = [p.splitlines()[-1] if "Traceback" in p else p for p in problems[:5]]
    correct = failed == 0 and not problems
    run_s = statistics.median(r for _, r, _ in plain)
    if trace:
        if out_dir is not None:
            tracer.write(out_dir / f"spans-{workload}.jsonl")
        # Times are medians over the traced runs; counts repeat exactly.
        metrics = {name: (statistics.median(r[name] for r in layer_runs), "s")
                   if name.endswith("_s") else (value, spans.COUNTERS.get(name, "count"))
                   for name, value in layer_runs[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(traced_run_s) - run_s, "s")
        return Result(correct, attempted, failed, metrics, notes)
    setups = [s for s, _, _ in plain]
    setups += [setup(src, workload, seed)[2] for _ in range(MIN_SETUPS - len(setups))]
    latencies_ms = [t * 1000 for _, _, lat in plain for t in lat]
    q = tail_percentile(len(latencies_ms))
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_ms": (statistics.median(latencies_ms), "ms"),
        "job_tail_ms": (tail_value(latencies_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "job_ok_ratio": (1 - failed / attempted, "ratio"),
    }
    beyond = len(latencies_ms) - math.ceil(q / 100 * len(latencies_ms))
    notes.insert(0, f"{len(plain)} runs, {len(setups)} set-ups, {attempted} jobs, "
                    f"job_fail_ratio {failed}/{attempted} = {failed / attempted:.6g}, "
                    f"job_tail_ms at p{q:g} of {len(latencies_ms)} samples ({beyond} beyond)")
    return Result(correct, attempted, failed, metrics, notes)
