"""Self-tests of the benchmark's own checks and accounting.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from run import run_ops, tail_percentile
from tracing import LAYER_UNITS
from workloads import (
    LOCK_FILE,
    ROOT,
    WORKLOADS,
    OpPlan,
    RecomputeTracker,
    Session,
    Workload,
    check_op,
    make_inputs,
)

# The noop workload's checks on the small baseline template, so a test runs in seconds.
SMALL_NOOP = Workload("noop-small", "baseline", None, "noop", why="self-test")


def test_flipped_byte_in_committed_out_counts_in_error_rate(tmp_path):
    session = Session(SMALL_NOOP, make_inputs(5), tmp_path / "work")
    try:
        session.setup()
        lock = json.loads((session.project / LOCK_FILE).read_text())
        digest = lock["stages"]["synth"]["outs"]["data/raw.csv"]["hash"]
        obj = session.project / ".locpipe" / "cache" / "sha256" / digest[:2] / digest[2:]
        data = bytearray(obj.read_bytes())
        data[len(data) // 2] ^= 0x01
        obj.write_bytes(bytes(data))

        result = run_ops(session, seconds=0)
    finally:
        session.close()
    assert result["ops"] == 1
    assert result["failed"] == 1
    assert result["readings"]["error_rate"] == (1.0, "ratio")
    assert "workspace out data/raw.csv differs from the reference" in result["failures"]


def _lock(**fingerprints: str) -> dict:
    return {stage: {"fingerprint": fp, "outs": {}} for stage, fp in fingerprints.items()}


def test_alpha_toggle_counts_in_recomputed_stages():
    tracker = RecomputeTracker()
    project = Path("project")
    edited = ["gridsearch", "report"]
    # set-up commits alpha A, then alpha B
    tracker.observe(project, _lock(synth="s", gridsearch="gA", report="rA"), ["synth", *edited], False)
    tracker.observe(project, _lock(synth="s", gridsearch="gB", report="rB"), edited, False)
    # back to A: both stages re-execute work committed two runs earlier
    assert tracker.observe(project, _lock(synth="s", gridsearch="gA", report="rA"), edited, False) == 2
    # a value never seen before is new work, and a forced run is never counted
    assert tracker.observe(project, _lock(synth="s", gridsearch="gC", report="rC"), edited, False) == 0
    assert tracker.observe(project, _lock(synth="s", gridsearch="gC", report="rC"), edited, True) == 0
    # fingerprints are tracked per project directory
    assert tracker.observe(Path("other"), _lock(gridsearch="gA"), ["gridsearch"], False) == 0


def test_tail_percentile_omitted_without_enough_samples():
    assert tail_percentile([1.0] * 5) is None
    # with 21 or 22 samples, the one that leaves ten above it is a median sample
    assert tail_percentile([float(i) for i in range(21)]) is None
    assert tail_percentile([float(i) for i in range(22)]) is None
    assert tail_percentile([float(i) for i in range(1, 24)]) == (56, 13.0)
    assert tail_percentile([float(i) for i in range(40, 0, -1)]) == (75, 30.0)


def test_noop_that_executes_a_stage_fails(tmp_path):
    plan = OpPlan(tmp_path, force=False, expect_noop=True, reference={})
    results = [{"stage": "synth", "action": "executed"}, {"stage": "prepare", "action": "cached"}]
    assert check_op(plan, 0, results, {}) == ["no-op executed stage synth"]
    assert check_op(plan, 1, None, {}) == ["exit code 1", "no run manifest"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    assert {m["name"] for m in doc["end_to_end"]} == {"repro_s.p50", "cpu_s.p50", "peak_rss_mb", "setup_s"}


def test_inputs_follow_the_seed():
    assert make_inputs(3) == make_inputs(3)
    assert make_inputs(3) != make_inputs(4)
    first, second = make_inputs(3).alphas
    assert first != second


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
