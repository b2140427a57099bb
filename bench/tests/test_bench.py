"""Tests of the benchmark's own logic; run from the repository root with

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(ms, seed):
    """Small inputs that still reach rref, the lattice and the radical."""
    jobs = workloads._analyze_jobs(ms, [("dihedral:8", 2), ("name:S4", 2)])
    return jobs + workloads._analyze_jobs(ms, [("name:S4", 5)], workloads.semisimple_check)


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    ms = harness.load_modsocle(SRC)
    golden = {"jobs": {j.id: harness.digest(j.call()) for j in tiny(ms, 0)}, "cli": {}}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(harness, "GOLDEN_PATH", path)
    return path


@pytest.mark.parametrize("n, expected", [
    (20000, 99.9), (2000, 99.0), (1000, 99.0), (999, 95.0), (100, 90.0),
    (40, 75.0), (39, 50.0), (20, 50.0), (19, 50.0), (2, 50.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected
    samples = [float(i) for i in range(n)]
    beyond = sum(v > harness.nearest_rank(samples, expected) for v in samples)
    assert beyond >= 10 or (expected == 50.0 and n < 20)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["verify.census_record", 0.0, 10.0, -1, 0, None],
        ["groups.derived_subgroup", 1.0, 4.0, 0, 0, None],
        ["groups.Subgroup.__init__", 2.0, 3.0, 1, 0, None],
        ["algebra.GroupAlgebra.jacobson_center", 5.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.aggregate(recorded)
    assert metrics["verify.self_s"] == 3.0
    assert metrics["groups.self_s"] == 3.0 and metrics["groups.calls"] == 2
    assert metrics["groups.characteristic.self_s"] == 2.0
    assert metrics["groups.subgroups_created"] == 1
    assert metrics["algebra.jacobson_center.calls"] == 1


def test_tracer_links_nested_calls_to_their_parent():
    tracer = spans.Tracer()
    inner = tracer.wrap("fplin.rref", lambda m: ([], (0, 1)))
    outer = tracer.wrap("fplin.nullspace", lambda: inner([[1, 0], [0, 1]]))
    outer()
    inner([[1, 1]])
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("fplin.nullspace", -1), ("fplin.rref", 0), ("fplin.rref", -1)]
    metrics = spans.aggregate(tracer.spans)
    assert metrics["fplin.rref.rows_in"] == 3
    assert metrics["fplin.rref.max_cells"] == 4
    assert metrics["fplin.rref.elim_ops"] == 2 * 2 * 2 + 1 * 2 * 2


def test_corrupted_golden_digest_counts_as_failed_job(tiny_workload):
    good = harness.measure(SRC, "tiny", 1, 0.0, trace=False)
    assert good.correct and good.failed == 0
    assert good.attempted == 3 * harness.MIN_RUNS
    golden = json.loads(tiny_workload.read_text())
    golden["jobs"]["analyze:dihedral:8:p2"] = "0" * 64
    tiny_workload.write_text(json.dumps(golden))
    bad = harness.measure(SRC, "tiny", 1, 0.0, trace=False)
    assert not bad.correct and bad.failed == harness.MIN_RUNS
    assert bad.metrics["job_ok_ratio"][0] == pytest.approx(2 / 3)


def test_cli_replay_matches_the_cli_and_catches_a_dropped_job():
    ms = harness.load_modsocle(SRC)
    jobs = [j for j in workloads.catalog_sweep(ms, 0) if j.id.startswith("census-p3:")]
    texts = [j.call() for j in jobs]
    argv = ["census", "--prime", "3"]
    stdout = workloads.cli_replay(ms, argv, jobs, texts)
    assert harness.digest(stdout) == harness.load_golden()["cli"]["census --prime 3"]
    with pytest.raises(AssertionError):
        workloads.cli_replay(ms, argv, jobs[1:], texts[1:])


def test_semisimple_check_rejects_a_wrong_dimension():
    ms = harness.load_modsocle(SRC)
    job = tiny(ms, 0)[-1]
    text = job.call()
    assert job.check(text)
    doc = json.loads(text)
    doc["dimensions"]["socle_center"] -= 1
    assert not job.check(json.dumps(doc))


def test_traced_run_outputs_equal_untraced_and_counters_repeat(tiny_workload):
    plain = harness.one_run(SRC, "tiny", 3)
    first = harness.one_run(SRC, "tiny", 3, traced=True)
    second = harness.one_run(SRC, "tiny", 3, traced=True)
    assert first.texts == plain.texts == second.texts
    names = {s[0] for s in first.tracer.spans}
    assert {"cli.analysis_document", "fplin.rref", "groups.all_subgroups",
            "algebra.GroupAlgebra.jacobson_center", "groups.make_group"} <= names
    a, b = spans.aggregate(first.tracer.spans), spans.aggregate(second.tracer.spans)
    assert {k: a[k] for k in spans.COUNTERS} == {k: b[k] for k in spans.COUNTERS}
    assert a["algebra.soc_is_ideal.calls"] == 3
    # S4 appears at two primes: three calls on three distinct (group, p).
    assert a["algebra.soc_is_ideal.distinct_ratio"] == 1.0


def test_traced_measure_reports_every_per_layer_metric(tiny_workload):
    result = harness.measure(SRC, "tiny", 1, 0.0, trace=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert result.correct
    assert {m["name"] for m in declared} == set(result.metrics)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "socle_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
