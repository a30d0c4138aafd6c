"""Traced in-process ops: spans around locpipe's layers, recorded from outside.

Nothing under `src/` changes. For the length of one op the tracer rebinds
the names `locpipe.runner` imports from the store (`hash_path`,
`cache_lookup`, `restore_outputs`, `commit_outputs`, `write_lock`) and
`Project.load`, then calls `runner.repro()` in this process. Stages still run
in fresh child processes, which the tracer cannot see into; so each executed
builtin is then replayed here through `loctk.run_builtin` on the same
`StageRequest`, with spans on the table, model, metric and canonical-dump
functions each builtin module imports.

Spans carry a name, start, end, parent and op id. They stay in memory and
are written out when the run ends; self times are computed from them.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# builtin id suffix of every loctk module, in pipeline order
BUILTINS = ("synth", "prepare", "scale", "featurize", "split", "gridsearch", "report")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS: dict[str, str] = {
    "cli.startup_s": "s",
    "configmodel.load_s": "s",
    "store.hash_s": "s",
    "store.hash_calls": "count",
    "store.hash_bytes": "bytes",
    "store.restore_s": "s",
    "store.restore_bytes": "bytes",
    "store.lookup_s": "s",
    "store.lookup_calls": "count",
    "store.hit_ratio": "ratio",
    "store.commit_s": "s",
    "store.commit_bytes": "bytes",
    "store.lock_write_s": "s",
    "store.lock_writes": "count",
    "runner.spawn_s": "s",
    "runner.spawn_overhead_s": "s",
    "runner.self_s": "s",
    "runner.stages_executed": "count",
    "runner.stages_cached": "count",
    "runner.stages_failed": "count",
    "runner.child_cpu_s": "core-s",
    "runner.child_peak_rss_mb": "MB",
    **{f"loctk.{name}.run_s": "s" for name in BUILTINS},
    "loctk.tables.read_s": "s",
    "loctk.tables.read_rows": "count",
    "loctk.tables.write_s": "s",
    "loctk.models.fit_s": "s",
    "loctk.models.fit_calls": "count",
    "loctk.models.predict_s": "s",
    "loctk.metrics.compute_s": "s",
    "canonical.dump_s": "s",
    "trace.overhead_share": "ratio",
    "recomputed_stages": "count",
    "error_rate": "ratio",
}

# span name -> per-layer time metric it sums into
SPAN_METRICS = {
    "configmodel.load": "configmodel.load_s",
    "store.hash": "store.hash_s",
    "store.restore": "store.restore_s",
    "store.lookup": "store.lookup_s",
    "store.commit": "store.commit_s",
    "store.lock_write": "store.lock_write_s",
    **{f"loctk.{name}.run": f"loctk.{name}.run_s" for name in BUILTINS},
    "loctk.tables.read": "loctk.tables.read_s",
    "loctk.tables.write": "loctk.tables.write_s",
    "loctk.models.fit": "loctk.models.fit_s",
    "loctk.models.predict": "loctk.models.predict_s",
    "loctk.metrics.compute": "loctk.metrics.compute_s",
    "canonical.dump": "canonical.dump_s",
}


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans, and counters summed over all ops. Single-threaded use
    only: every wrapped call runs on the thread that called `runner.repro()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[Span] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        """span id -> its duration minus the part its direct children cover."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {span.id: span.duration - child_time[span.id] for span in self.spans}

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        doc = [
            {
                "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                "start": s.start, "end": s.end, "self_s": selfs[s.id],
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(doc), encoding="utf-8")


def _out_bytes(outs: dict) -> int:
    return sum(rec.size for rec in outs.values())


def _on_hash(tracer, args, result):
    tracer.count("store.hash_calls")
    tracer.count("store.hash_bytes", result[2])


def _on_lookup(tracer, args, result):
    tracer.count("store.lookup_calls")
    tracer.count("store.lookup_hits", result is not None)


def _on_restore(tracer, args, result):
    tracer.count("store.restore_bytes", _out_bytes(args[1].outs))


def _on_commit(tracer, args, result):
    tracer.count("store.commit_bytes", _out_bytes(result.outs))


def _on_lock_write(tracer, args, result):
    tracer.count("store.lock_writes")


def _on_read_table(tracer, args, result):
    tracer.count("loctk.tables.read_rows", result.n_rows)


def _on_fit(tracer, args, result):
    tracer.count("loctk.models.fit_calls")


@contextmanager
def _patched(patches):
    """Set each (owner, attribute, replacement); restore the originals on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def runner_patches(tracer: Tracer) -> list:
    from locpipe import runner

    hooks = {
        "hash_path": ("store.hash", _on_hash),
        "cache_lookup": ("store.lookup", _on_lookup),
        "restore_outputs": ("store.restore", _on_restore),
        "commit_outputs": ("store.commit", _on_commit),
        "write_lock": ("store.lock_write", _on_lock_write),
    }
    patches = [
        (runner, attr, tracer.wrap(span, getattr(runner, attr), hook))
        for attr, (span, hook) in hooks.items()
    ]
    patches.append((runner.Project, "load", tracer.wrap("configmodel.load", runner.Project.load)))
    return patches


def builtin_patches(tracer: Tracer) -> list:
    import importlib

    from locpipe.loctk import models

    hooks = {
        "read_table": ("loctk.tables.read", _on_read_table),
        "write_table": ("loctk.tables.write", None),
        "fit_model": ("loctk.models.fit", _on_fit),
        "compute_metrics": ("loctk.metrics.compute", None),
        "dump_canonical": ("canonical.dump", None),
    }
    patches = []
    for name in BUILTINS:
        module = importlib.import_module(f"locpipe.loctk.{name}")
        for attr, (span, hook) in hooks.items():
            if hasattr(module, attr):
                patches.append((module, attr, tracer.wrap(span, getattr(module, attr), hook)))
    for model in (models.RidgeModel, models.KnnModel):
        patches.append((model, "predict", tracer.wrap("loctk.models.predict", model.predict)))
    return patches


@contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@dataclass
class TracedOp:
    root: Span              # the in-process runner.repro() call
    results: list[dict]     # RunReport results, as the run manifest records them
    exit_code: int
    replay_s: float         # in-process replay of the executed builtins


def traced_op(tracer: Tracer, project: Path, force: bool) -> TracedOp:
    """Run one `repro` in-process under the tracer, then replay its executed
    builtins in-process on the same requests."""
    from locpipe import loctk, runner
    from locpipe.configmodel import select_params
    from locpipe.runner import ExecOptions, Project

    with _patched(runner_patches(tracer)):
        with tracer.span("runner.repro") as root:
            report = runner.repro(Project(root=project), ExecOptions(force=force, jobs=1))
    results = [r.to_json() for r in report.results]

    spec, params = Project(root=project).load()
    replay_s = 0.0
    with _patched(builtin_patches(tracer)), _cwd(project):
        for result in report.results:
            stage = spec.stages[result.stage]
            if result.action != "executed" or stage.builtin is None:
                continue
            request = loctk.StageRequest(
                stage=stage.name,
                builtin=stage.builtin,
                params=select_params(params, stage.params, stage=stage.name),
                deps=stage.deps,
                outs=stage.outs,
            )
            suffix = stage.builtin.split(".", 1)[1]
            with tracer.span(f"loctk.{suffix}.run") as span:
                loctk.run_builtin(stage.builtin, request)
            replay_s += span.duration
    return TracedOp(root, results, report.exit_code, replay_s)


def layer_metrics(
    tracer: Tracer,
    ops: list[TracedOp],
    failed: list[bool],
    recomputed: list[int],
    startup_s: float,
    untraced_p50: float,
) -> dict[str, float]:
    """Per-op per-layer figures: means over the traced ops, peak RSS as a max."""
    n = len(ops)
    selfs = tracer.self_times()
    sums: Counter = Counter(tracer.counts)
    for span in tracer.spans:
        if span.name in SPAN_METRICS:
            sums[SPAN_METRICS[span.name]] += span.duration
    peak_rss = 0
    for op in ops:
        executed = [r for r in op.results if r["action"] == "executed"]
        spawn_s = sum(r["wall_s"] for r in executed)
        sums["runner.spawn_s"] += spawn_s
        sums["runner.spawn_overhead_s"] += spawn_s - op.replay_s
        sums["runner.self_s"] += selfs[op.root.id] - spawn_s
        sums["runner.stages_executed"] += len(executed)
        sums["runner.stages_cached"] += sum(r["action"] == "cached" for r in op.results)
        sums["runner.stages_failed"] += sum(r["action"] == "failed" for r in op.results)
        sums["runner.child_cpu_s"] += sum(r["cpu_s"] for r in executed)
        peak_rss = max([peak_rss, *(r["peak_rss_bytes"] for r in op.results)])

    metrics = {name: sums[name] / n for name in LAYER_UNITS}
    metrics["cli.startup_s"] = startup_s
    lookups = sums["store.lookup_calls"]
    metrics["store.hit_ratio"] = sums["store.lookup_hits"] / lookups if lookups else 0.0
    metrics["runner.child_peak_rss_mb"] = peak_rss / 1e6
    in_process = sum(op.root.duration for op in ops) / n
    metrics["trace.overhead_share"] = in_process / (untraced_p50 - startup_s) - 1.0
    metrics["recomputed_stages"] = sum(recomputed) / n
    metrics["error_rate"] = sum(failed) / n
    return metrics
