"""Acceptance suite: the qualitative guarantees, restated as hard checks.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run with ``-s`` or
``-v`` to see them live). Criteria with stated runtime budgets assert them.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import time

import pytest

from conftest import edit_params, executed_stages, run, tree_snapshot
from locpipe.configmodel import StageSpec
from locpipe.loctk.metrics import score_columns, truth_columns
from locpipe.loctk.models import RidgeStats
from locpipe.loctk.split import kfold_folds
from locpipe.runner import ExecOptions, Project, metrics_show, repro
from locpipe.store import (
    LockEntry,
    ObjectStore,
    commit_outputs,
    derive_fingerprint,
    hash_bytes,
    load_lock,
    restore_outputs,
)
from locpipe.templates import init_experiment
from oracles import brute_metrics, ridge_reference
from test_split import check_partition


def acceptance(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return decorate


def out_hashes(project: Project) -> dict[str, dict[str, str]]:
    lock = load_lock(project.lock_path)
    return {stage: {path: rec.hash for path, rec in entry.outs.items()} for stage, entry in lock.items()}


def manifest_executed(report) -> set[str]:
    doc = json.loads(report.manifest_path.read_text())
    return {r["stage"] for r in doc["results"] if r["action"] == "executed"}


@acceptance("1 exact-rerun")
def test_1_exact_rerun_bit_identical(make_project):
    start = time.perf_counter()
    project = make_project("baseline")
    first = run(project, force=True)
    assert first.failed == 0 and first.executed == 6
    hashes_one = out_hashes(project)
    report_one = (project.root / "report" / "report.md").read_bytes()
    cv_one = (project.root / "out" / "cv_results.json").read_bytes()
    preds_one = (project.root / "out" / "predictions.csv").read_bytes()
    model_one = (project.root / "out" / "model.json").read_bytes()

    second = run(project, force=True)
    assert second.failed == 0 and second.executed == 6
    assert out_hashes(project) == hashes_one, "out hashes must be bit-identical across forced reruns"
    assert (project.root / "report" / "report.md").read_bytes() == report_one
    assert (project.root / "out" / "cv_results.json").read_bytes() == cv_one
    assert (project.root / "out" / "predictions.csv").read_bytes() == preds_one
    assert (project.root / "out" / "model.json").read_bytes() == model_one
    assert time.perf_counter() - start < 30.0


@acceptance("2 cache-hit")
def test_2_repeated_repro_serves_cache(make_project):
    project = make_project("scaling")
    edit_params(project, "scale.factor", 10)
    start = time.perf_counter()
    first = run(project)
    first_wall = time.perf_counter() - start
    assert first.failed == 0 and first.executed == 7

    start = time.perf_counter()
    second = run(project)
    second_wall = time.perf_counter() - start
    assert second.executed == 0, "immediately repeated repro must execute nothing"
    assert second.cached == 7
    assert second_wall < 0.10 * first_wall, (
        f"no-op wall {second_wall:.3f}s is not < 10% of first run {first_wall:.3f}s"
    )


@acceptance("3 selective-recomputation")
def test_3_changed_stage_and_dependents_only(make_project):
    project = make_project("baseline")
    run(project)

    edit_params(project, "model.grid.ridge.alpha", [0.1])
    report = run(project)
    assert manifest_executed(report) == {"gridsearch", "report"}
    assert executed_stages(report) == {"gridsearch", "report"}

    edit_params(project, "split.seed", 8)
    report = run(project)
    assert manifest_executed(report) == {"split", "gridsearch", "report"}


@acceptance("4 baseline-shape")
def test_4_baseline_grid_shape(make_project):
    start = time.perf_counter()
    project = make_project("baseline")

    import yaml

    params = yaml.safe_load(project.params_path.read_text())
    assert params["model"]["grid"] == {"ridge": {"alpha": [0.0], "fit_intercept": [True, False]}}
    assert params["split"] == {"strategy": "kfold", "k": 5, "seed": 7}
    assert params["model"]["primary_metric"] == "rmse"

    report = run(project)
    assert report.exit_code == 0
    cv = json.loads((project.root / "out" / "cv_results.json").read_text())
    assert len(cv["rows"]) == 10, "2 candidates x 5 folds"
    assert len(cv["aggregates"]) == 2
    assert cv["selected"] in (0, 1)

    rows = metrics_show(project)
    keys = {(r.stage, r.key) for r in rows}
    assert ("gridsearch", "cv.rmse") in keys
    assert ("gridsearch", "selected_candidate") in keys
    assert time.perf_counter() - start < 10.0


CHANGE_TEMPLATES = ["change-estimator", "change-dataset", "change-cv", "change-external"]


@acceptance("5 config-only-changes")
def test_5_change_fixtures_differ_only_in_config(tmp_path):
    base_dir = tmp_path / "base"
    init_experiment(base_dir, "baseline")
    base_tree = tree_snapshot(base_dir)
    for name in CHANGE_TEMPLATES:
        fixture_dir = tmp_path / name
        init_experiment(fixture_dir, name)
        fixture_tree = tree_snapshot(fixture_dir)
        assert set(fixture_tree) == set(base_tree), f"{name}: file set must match baseline"
        differing = {path for path in base_tree if base_tree[path] != fixture_tree[path]}
        assert differing, f"{name}: fixture must actually change something"
        assert differing <= {"pipeline.yaml", "params.yaml"}, (
            f"{name}: only config files may differ, got {differing}"
        )
        report = repro(Project(root=fixture_dir), ExecOptions())
        assert report.exit_code == 0, f"{name}: repro must exit 0"


@acceptance("6 oracle-equivalence")
def test_6_brute_force_oracles():
    rng = random.Random(20260808)

    # metrics vs independent brute force, 1000 random instances, 1e-12 relative
    for _ in range(1000):
        n = rng.randint(1, 30)
        truth = [(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]
        pred = [(x + rng.gauss(0, 10), y + rng.gauss(0, 10)) for x, y in truth]
        ours = score_columns(*zip(*pred), truth_columns(*zip(*truth)))
        reference = brute_metrics(pred, truth)
        for key, expected in reference.items():
            scale = max(abs(expected), 1e-9)
            assert abs(ours[key] - expected) <= 1e-12 * scale, (key, ours[key], expected)

    # ridge vs independent normal-equation solve, 100 instances, 1e-9 relative
    for _ in range(100):
        n = rng.randint(10, 40)
        m = rng.randint(1, 6)
        alpha = rng.choice([0.0, 0.1, 1.0, 10.0])
        fit_intercept = rng.random() < 0.5
        x_rows = [[rng.uniform(-10, 10) for _ in range(m)] for _ in range(n)]
        y_rows = [
            [sum(row) * 0.5 + rng.gauss(0, 2), sum(row) * -0.25 + rng.gauss(0, 2)]
            for row in x_rows
        ]
        model = RidgeStats.from_columns(list(zip(*x_rows)), list(zip(*y_rows))).solve(alpha, fit_intercept)
        for t in (0, 1):
            ref_coef, ref_icept = ridge_reference(x_rows, [y[t] for y in y_rows], alpha, fit_intercept)
            for j in range(m):
                scale = max(abs(ref_coef[j]), 1.0)
                assert abs(model.coef[j][t] - ref_coef[j]) <= 1e-9 * scale
            assert abs(model.intercept[t] - ref_icept) <= 1e-9 * max(abs(ref_icept), 1.0)

    # kfold partition law on 500 random (n, k, seed) triples
    for _ in range(500):
        n = rng.randint(2, 200)
        k = rng.randint(2, n)
        seed = rng.getrandbits(64)
        check_partition(kfold_folds(n, k, seed), n)


RSS_SLACK_BYTES = 1_000_000


@acceptance("7 scaling-properties")
def test_7_scaling_bench_properties(make_project):
    from locpipe.bench import run_scaling_bench

    start = time.perf_counter()
    project = make_project("scaling")
    rows = run_scaling_bench(project, [1, 5, 10], repeats=3)
    by_factor = {row.factor: row for row in rows}

    # prepare wall time is factor-invariant (scaling happens after prepare)
    prepare_walls = [by_factor[f].stage_wall["prepare"] for f in (1, 5, 10)]
    assert max(prepare_walls) <= 3.0 * min(prepare_walls), (
        f"prepare max/min wall ratio {max(prepare_walls) / min(prepare_walls):.2f} > bound 3.0 "
        f"(walls at factors 1, 5, 10: {', '.join(f'{w:.4f}s' for w in prepare_walls)})"
    )

    # featurize/split grow at most linearly x 1.5
    for stage in ("featurize", "split"):
        base = by_factor[1].stage_wall[stage]
        for factor in (5, 10):
            bound = 1.5 * factor * base
            actual = by_factor[factor].stage_wall[stage]
            assert actual <= bound, (
                f"{stage} at {factor}x: {actual:.3f}s > bound {bound:.3f}s "
                f"(1.5 x {factor} x {base:.3f}s at 1x)"
            )

    # memory above the report stage's peak (the orchestrator pages every
    # forked stage shares, and no data) grows at most as the data does, 2x
    # from factor 5 to 10, plus an allowance for allocator granularity
    base = {f: by_factor[f].stage_rss["report"] for f in (5, 10)}
    for stage in by_factor[10].stage_rss:
        above_5, above_10 = (by_factor[f].stage_rss[stage] - base[f] for f in (5, 10))
        bound = 2.0 * max(above_5, 0) + RSS_SLACK_BYTES
        assert above_10 <= bound, (
            f"{stage} peak RSS above report's at 10x: {above_10 / 1e6:.2f} MB > bound {bound / 1e6:.2f} MB "
            f"(2 x {above_5 / 1e6:.2f} MB at 5x + {RSS_SLACK_BYTES / 1e6:.1f} MB)"
        )

    # no-op repro stays under 10% of the full run at every factor
    for factor, row in by_factor.items():
        assert row.noop_wall_s < 0.10 * row.full_wall_s, (
            f"factor {factor}: no-op/full {row.noop_wall_s / row.full_wall_s:.3f} >= bound 0.10 "
            f"(no-op {row.noop_wall_s:.3f}s, full {row.full_wall_s:.3f}s)"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"scaling bench took {elapsed:.1f}s >= bound 600s"


@acceptance("8 store-round-trip")
def test_8_store_round_trip_and_fingerprint_sensitivity(tmp_path):
    rng = random.Random(99)
    store = ObjectStore(tmp_path / "cache")
    workspace = tmp_path / "ws"

    # 200 random commit -> delete -> restore cases (files and trees)
    for case in range(200):
        if workspace.exists():
            shutil.rmtree(workspace)
        workspace.mkdir()
        if case % 4 == 0:  # directory out
            out_name = "outdir"
            stage = StageSpec(name="s", cmd="do", outs=(out_name,))
            files = {
                f"{out_name}/f{i}": rng.randbytes(rng.randint(0, 256))
                for i in range(rng.randint(1, 5))
            }
            for rel, content in files.items():
                path = workspace / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)
        else:
            out_name = "out.bin"
            stage = StageSpec(name="s", cmd="do", outs=(out_name,))
            files = {out_name: rng.randbytes(rng.randint(0, 512))}
            (workspace / out_name).write_bytes(files[out_name])
        want = LockEntry(hash_bytes(f"fp{case}".encode()), {"cmd": "do"}, {}, "{}", stage.outs)
        entry = commit_outputs(store, want, workspace)
        shutil.rmtree(workspace)
        workspace.mkdir()
        restore_outputs(store, entry, workspace)
        for rel, content in files.items():
            assert (workspace / rel).read_bytes() == content, f"case {case}: {rel}"

    # the store is self-verifying: every object hashes to its address
    assert store.verify() == []

    # 500 single-byte dep flips always change the fingerprint
    stage = StageSpec(name="s", cmd="do", deps=("dep.bin",), outs=("out",))
    for _ in range(500):
        data = bytearray(rng.randbytes(rng.randint(1, 128)))
        before = derive_fingerprint(
            LockEntry(None, {"cmd": "do"}, {"dep.bin": hash_bytes(bytes(data))}, "{}", stage.outs)
        )
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        after = derive_fingerprint(
            LockEntry(None, {"cmd": "do"}, {"dep.bin": hash_bytes(bytes(data))}, "{}", stage.outs)
        )
        assert before != after


@acceptance("9 isolation")
def test_9_fresh_process_isolation(make_project, tmp_path, monkeypatch):
    # consecutive executed stages record distinct process ids
    project = make_project("baseline")
    report = run(project)
    pids = [r.pid for r in report.results if r.action == "executed"]
    assert len(pids) == 6 and len(set(pids)) == len(pids)

    # an undeclared parent-shell variable is invisible; the probe stage itself
    # asserts absence (it fails if the variable leaks through)
    monkeypatch.setenv("LOCPIPE_PROBE_XYZ", "leaky")
    import yaml

    probe_root = tmp_path / "probe"
    probe_root.mkdir()
    (probe_root / "pipeline.yaml").write_text(yaml.safe_dump({
        "version": 1,
        "stages": {
            "probe": {
                "cmd": 'test -z "$LOCPIPE_PROBE_XYZ" && echo clean > probe.txt',
                "outs": ["probe.txt"],
            },
        },
    }))
    report = repro(Project(root=probe_root), ExecOptions())
    assert report.exit_code == 0, "probe stage saw an undeclared environment variable"
    assert (probe_root / "probe.txt").read_text() == "clean\n"
