"""The orchestrator: plan, execute, record.

Per stage: fingerprint -> cache check -> fresh-process execution with a
scrubbed environment -> output verification -> commit. Cached stages have
their outputs restored from the store instead. Every invocation writes a run
manifest (one JSON file per run, timings and process accounting included),
even when stages fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .canonical import canonical_bytes
from .configmodel import (
    PipelineSpec,
    StageSpec,
    canonicalize,
    parse_params,
    parse_pipeline,
    select_params,
)
from .errors import ConfigError, StoreError
from .graph import (
    ACTION_BLOCKED,
    ACTION_CACHED,
    ACTION_RUN,
    ExecutionPlan,
    PlanEntry,
    StageGraph,
    build_graph,
    topo_order,
    upstream_closure,
)
from .loctk import StageRequest, builtin_version
from .store import (
    ContentHash,
    LockEntry,
    LockFile,
    ObjectStore,
    cache_lookup,
    commit_outputs,
    hash_file,
    hash_path,
    load_lock,
    parse_manifest,
    restore_outputs,
    stage_fingerprint,
    write_lock,
)

PIPELINE_FILE = "pipeline.yaml"
PARAMS_FILE = "params.yaml"
LOCK_FILE = "pipeline.lock.json"
DOT_DIR = ".locpipe"

# Environment scrubbing: stages see only this allowlist plus names they
# declare in `env`, so nothing can silently depend on ambient variables.
ENV_ALLOWLIST = ("PATH", "HOME", "TMPDIR")


@dataclass(frozen=True)
class Project:
    root: Path

    @property
    def pipeline_path(self) -> Path:
        return self.root / PIPELINE_FILE

    @property
    def params_path(self) -> Path:
        return self.root / PARAMS_FILE

    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_FILE

    @property
    def dot_dir(self) -> Path:
        return self.root / DOT_DIR

    @property
    def cache_dir(self) -> Path:
        return self.dot_dir / "cache"

    @property
    def runs_dir(self) -> Path:
        return self.dot_dir / "runs"

    @property
    def logs_dir(self) -> Path:
        return self.dot_dir / "logs"

    @property
    def tmp_dir(self) -> Path:
        return self.dot_dir / "tmp"

    @staticmethod
    def discover(start: Path | str | None = None) -> "Project":
        """Locate the project root by walking upward until pipeline.yaml is found."""
        current = Path(start or Path.cwd()).resolve()
        for candidate in (current, *current.parents):
            if (candidate / PIPELINE_FILE).is_file():
                return Project(root=candidate)
        raise ConfigError(f"no {PIPELINE_FILE} found in {current} or any parent directory")

    def load(self) -> tuple[PipelineSpec, dict]:
        try:
            pipeline_text = self.pipeline_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"missing {self.pipeline_path}") from None
        spec = parse_pipeline(pipeline_text, PIPELINE_FILE)
        if self.params_path.exists():
            params = parse_params(self.params_path.read_text(encoding="utf-8"), PARAMS_FILE)
        else:
            params = {}
        return spec, params


@dataclass(frozen=True)
class ExecOptions:
    targets: tuple[str, ...] = ()
    force: bool = False
    dry_run: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class StageResult:
    stage: str
    action: str                    # executed | cached | failed | skipped
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_bytes: int = 0        # 0 = unavailable
    exit_code: int | None = None
    pid: int | None = None
    reason: str = ""
    log_out: str | None = None
    log_err: str | None = None

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "action": self.action,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_bytes": self.peak_rss_bytes,
            "exit_code": self.exit_code,
            "pid": self.pid,
            "reason": self.reason,
            "log_out": self.log_out,
            "log_err": self.log_err,
        }


@dataclass
class RunReport:
    run_id: str
    results: list[StageResult]
    total_wall_s: float
    manifest_path: Path | None = None

    def count(self, action: str) -> int:
        return sum(1 for r in self.results if r.action == action)

    @property
    def executed(self) -> int:
        return self.count("executed")

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def failed(self) -> int:
        return self.count("failed")

    @property
    def skipped(self) -> int:
        return self.count("skipped")

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


# ---------------------------------------------------------------------------
# Advisory project lock (one orchestrator per project; reentrant in-process)

_held_locks: set[str] = set()
_held_guard = threading.Lock()


@contextmanager
def project_lock(project: Project):
    lock_file = project.dot_dir / "orchestrator.lock"
    key = str(lock_file.resolve()) if lock_file.parent.exists() else str(lock_file)
    with _held_guard:
        reentrant = key in _held_locks
        if not reentrant:
            _held_locks.add(key)
    if reentrant:
        yield
        return
    lock_file.parent.mkdir(parents=True, exist_ok=True)
    handle = open(lock_file, "a+")
    try:
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:  # pragma: no cover - non-POSIX
            pass
        except OSError:
            raise StoreError(
                f"another orchestrator process holds the project lock ({lock_file})"
            ) from None
        yield
    finally:
        handle.close()
        with _held_guard:
            _held_locks.discard(key)


# ---------------------------------------------------------------------------
# Planning


def _planned_stages(spec: PipelineSpec, graph: StageGraph, targets: tuple[str, ...]) -> list[str]:
    order = topo_order(graph)
    if not targets:
        return order
    for target in targets:
        if target not in spec.stages:
            raise ConfigError(f"unknown target stage '{target}'")
    needed = upstream_closure(graph, targets)
    return [name for name in order if name in needed]


def _validate_resolvable(spec: PipelineSpec, params: dict, planned: list[str]) -> None:
    """Fail fast, before anything runs: params resolvable, builtins known."""
    for name in planned:
        stage = spec.stages[name]
        select_params(params, stage.params, stage=name)
        if stage.builtin is not None:
            builtin_version(stage.builtin)


def _stage_kind(stage: StageSpec) -> dict:
    if stage.builtin is not None:
        return {"builtin": stage.builtin, "builtin_version": builtin_version(stage.builtin)}
    return {"cmd": stage.cmd}


@dataclass
class _StagePrep:
    stage: StageSpec
    dep_hashes: dict[str, ContentHash]
    params_canonical: bytes
    fingerprint: ContentHash
    cache_entry: LockEntry | None
    missing_deps: list[str]


def _prepare_stage(
    stage: StageSpec,
    params: dict,
    lock: LockFile,
    store: ObjectStore,
    root: Path,
) -> _StagePrep:
    dep_hashes: dict[str, ContentHash] = {}
    missing: list[str] = []
    for dep in stage.deps:
        path = root / dep
        if not path.exists():
            missing.append(dep)
            continue
        dep_hashes[dep] = hash_path(path)[0]
    if missing:
        return _StagePrep(stage, dep_hashes, b"", ContentHash(""), None, missing)
    params_canonical = canonicalize(select_params(params, stage.params, stage=stage.name))
    version = builtin_version(stage.builtin) if stage.builtin is not None else None
    fingerprint = stage_fingerprint(stage, dep_hashes, params_canonical, version)
    entry = cache_lookup(lock, store, stage.name, fingerprint)
    return _StagePrep(stage, dep_hashes, params_canonical, fingerprint, entry, [])


def _predicted_dep_hash(
    dep: str, predicted_outs: dict[str, tuple[str, bool]], store: ObjectStore
) -> ContentHash | None:
    """Resolve a dep against outs a cached upstream stage will restore."""
    if dep in predicted_outs:
        return ContentHash(predicted_outs[dep][0])
    for out, (hexd, is_tree) in predicted_outs.items():
        if is_tree and dep.startswith(out + "/"):
            rel = dep[len(out) + 1:]
            for member_rel, member_hex in parse_manifest(store.read_bytes(hexd)):
                if member_rel == rel:
                    return ContentHash(member_hex)
            return None
    return None


def plan(project: Project, opts: ExecOptions = ExecOptions()) -> ExecutionPlan:
    """Predict the action for every planned stage without touching the workspace.

    A stage downstream of one that will run is itself marked ``run``: its
    true fingerprint is unknowable until the upstream outputs exist. The
    executor re-evaluates fingerprints stage by stage, so a re-run that
    regenerates identical outputs still turns downstream stages into cache
    hits.
    """
    spec, params = project.load()
    graph = build_graph(spec)
    planned = _planned_stages(spec, graph, opts.targets)
    _validate_resolvable(spec, params, planned)
    lock = load_lock(project.lock_path)
    store = ObjectStore(project.cache_dir)
    producers = graph.producers()

    # a dep nobody produces is a source file: it must exist on disk no matter what
    produced = [out for stage_name in planned for out in spec.stages[stage_name].outs]

    def is_source(dep: str) -> bool:
        return not any(dep == out or dep.startswith(out + "/") for out in produced)

    entries: list[PlanEntry] = []
    actions: dict[str, str] = {}
    predicted_outs: dict[str, tuple[str, bool]] = {}
    for name in planned:
        stage = spec.stages[name]
        upstream = [p for p in producers[name] if p in actions]
        blocked_up = [p for p in upstream if actions[p] == ACTION_BLOCKED]
        running_up = [p for p in upstream if actions[p] == ACTION_RUN]
        source_missing = [
            dep for dep in stage.deps if is_source(dep) and not (project.root / dep).exists()
        ]
        if blocked_up:
            entries.append(PlanEntry(name, ACTION_BLOCKED, f"upstream blocked: {blocked_up[0]}"))
            actions[name] = ACTION_BLOCKED
            continue
        if source_missing:
            entries.append(PlanEntry(name, ACTION_BLOCKED, f"missing dependency: {source_missing[0]}"))
            actions[name] = ACTION_BLOCKED
            continue
        if opts.force:
            entries.append(PlanEntry(name, ACTION_RUN, "forced"))
            actions[name] = ACTION_RUN
            continue
        if running_up:
            entries.append(PlanEntry(name, ACTION_RUN, f"upstream will run: {running_up[0]}"))
            actions[name] = ACTION_RUN
            continue

        dep_hashes: dict[str, ContentHash] = {}
        missing: list[str] = []
        for dep in stage.deps:
            path = project.root / dep
            predicted = _predicted_dep_hash(dep, predicted_outs, store)
            if predicted is not None:
                dep_hashes[dep] = predicted
            elif path.exists():
                dep_hashes[dep] = hash_path(path)[0]
            else:
                missing.append(dep)
        if missing:
            entries.append(PlanEntry(name, ACTION_BLOCKED, f"missing dependency: {missing[0]}"))
            actions[name] = ACTION_BLOCKED
            continue
        params_canonical = canonicalize(select_params(params, stage.params, stage=name))
        version = builtin_version(stage.builtin) if stage.builtin is not None else None
        fingerprint = stage_fingerprint(stage, dep_hashes, params_canonical, version)
        entry = cache_lookup(lock, store, name, fingerprint)
        if entry is not None:
            entries.append(PlanEntry(name, ACTION_CACHED))
            actions[name] = ACTION_CACHED
            for out, rec in entry.outs.items():
                predicted_outs[out] = (rec.hash, rec.tree)
        else:
            reason = "never run" if name not in lock else "changed"
            entries.append(PlanEntry(name, ACTION_RUN, reason))
            actions[name] = ACTION_RUN
    return ExecutionPlan(tuple(entries))


# ---------------------------------------------------------------------------
# Execution


def _package_src_dir() -> str:
    return str(Path(__file__).resolve().parent.parent)


def _child_env(stage: StageSpec, for_builtin: bool) -> dict[str, str]:
    env: dict[str, str] = {}
    for key in (*ENV_ALLOWLIST, *stage.env):
        if key in os.environ:
            env[key] = os.environ[key]
    if for_builtin:
        # Internal invocation: the child must be able to import this package.
        env["PYTHONPATH"] = _package_src_dir()
    return env


@dataclass
class _ExecOutcome:
    wall_s: float
    cpu_s: float
    peak_rss_bytes: int
    exit_code: int
    pid: int


def _wait_with_accounting(proc: subprocess.Popen) -> tuple[int, float, int]:
    """Reap the child, returning (exit_code, cpu_s, peak_rss_bytes)."""
    if hasattr(os, "wait4"):
        _, status, usage = os.wait4(proc.pid, 0)
        exit_code = os.waitstatus_to_exitcode(status)
        proc.returncode = exit_code  # keep Popen consistent after the manual reap
        rss_scale = 1 if sys.platform == "darwin" else 1024
        return exit_code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * rss_scale
    return proc.wait(), 0.0, 0  # pragma: no cover - non-POSIX fallback


def _spawn_stage(
    stage: StageSpec,
    request_path: Path | None,
    root: Path,
    log_out: Path,
    log_err: Path,
) -> _ExecOutcome:
    for out in stage.outs:
        (root / out).parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with open(log_out, "wb") as stdout, open(log_err, "wb") as stderr:
        if stage.builtin is not None:
            argv = [
                sys.executable, "-m", "locpipe", "run-builtin", stage.builtin,
                "--request", str(request_path),
            ]
            proc = subprocess.Popen(
                argv, cwd=root, env=_child_env(stage, for_builtin=True),
                stdout=stdout, stderr=stderr,
            )
        else:
            proc = subprocess.Popen(
                stage.cmd, shell=True, cwd=root, env=_child_env(stage, for_builtin=False),
                stdout=stdout, stderr=stderr,
            )
        pid = proc.pid
        exit_code, cpu_s, rss = _wait_with_accounting(proc)
    return _ExecOutcome(
        wall_s=time.perf_counter() - start,
        cpu_s=cpu_s,
        peak_rss_bytes=rss,
        exit_code=exit_code,
        pid=pid,
    )


def _make_run_id() -> str:
    now = datetime.now(timezone.utc)
    salt = hashlib.sha256(
        f"{os.getpid()}:{time.perf_counter_ns()}:{os.urandom(8).hex()}".encode()
    ).hexdigest()[:8]
    return now.strftime("%Y%m%dT%H%M%S%fZ") + "-" + salt


def _config_hashes(project: Project) -> dict[str, str]:
    hashes = {}
    for path in (project.pipeline_path, project.params_path):
        if path.exists():
            hashes[path.name] = hash_file(path).hex
    return hashes


def repro(project: Project, opts: ExecOptions = ExecOptions()) -> RunReport:
    """Execute the plan. Raises ConfigError/StoreError for environment-level
    problems; stage failures are reported through the returned RunReport."""
    if opts.dry_run:
        raise ValueError("repro() does not take dry_run options; call plan() instead")
    start = time.perf_counter()
    spec, params = project.load()
    graph = build_graph(spec)
    planned = _planned_stages(spec, graph, opts.targets)
    _validate_resolvable(spec, params, planned)

    run_id = _make_run_id()
    project.runs_dir.mkdir(parents=True, exist_ok=True)
    run_logs = project.logs_dir / run_id  # created when the first stage executes
    project.tmp_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, StageResult] = {}
    with project_lock(project):
        store = ObjectStore(project.cache_dir)
        lock = load_lock(project.lock_path)
        producers = graph.producers()
        planned_set = set(planned)
        try:
            with ThreadPoolExecutor(max_workers=opts.jobs) as pool:
                pending = list(planned)
                running: dict = {}

                def finalize(prep: _StagePrep, outcome: _ExecOutcome) -> None:
                    stage = prep.stage
                    result = StageResult(
                        stage=stage.name,
                        action="executed",
                        wall_s=outcome.wall_s,
                        cpu_s=outcome.cpu_s,
                        peak_rss_bytes=outcome.peak_rss_bytes,
                        exit_code=outcome.exit_code,
                        pid=outcome.pid,
                        log_out=os.path.relpath(run_logs / f"{stage.name}.out", project.root),
                        log_err=os.path.relpath(run_logs / f"{stage.name}.err", project.root),
                    )
                    if outcome.exit_code != 0:
                        result.action = "failed"
                        result.reason = f"command exited with status {outcome.exit_code}"
                        results[stage.name] = result
                        return
                    missing = [o for o in stage.outs if not (project.root / o).exists()]
                    if missing:
                        result.action = "failed"
                        result.reason = f"declared out not produced: {missing[0]}"
                        results[stage.name] = result
                        return
                    # A stage must not rewrite its own inputs; that would make
                    # the recorded fingerprint a lie.
                    for dep, before in prep.dep_hashes.items():
                        after = hash_path(project.root / dep)[0]
                        if after.hex != before.hex:
                            result.action = "failed"
                            result.reason = f"stage modified its own dependency: {dep}"
                            results[stage.name] = result
                            return
                    entry = commit_outputs(
                        store, stage, prep.fingerprint, _stage_kind(stage),
                        prep.dep_hashes, prep.params_canonical, project.root,
                    )
                    lock[stage.name] = entry
                    write_lock(lock, project.lock_path)
                    results[stage.name] = result

                while pending or running:
                    dispatched = False
                    for name in list(pending):
                        ups = [p for p in producers[name] if p in planned_set]
                        if not all(p in results for p in ups):
                            continue
                        bad = [p for p in ups if results[p].action in ("failed", "skipped")]
                        if bad:
                            results[name] = StageResult(
                                stage=name, action="skipped",
                                reason=f"upstream failure: {bad[0]}",
                            )
                            pending.remove(name)
                            dispatched = True
                            continue
                        prep = _prepare_stage(spec.stages[name], params, lock, store, project.root)
                        if prep.missing_deps:
                            results[name] = StageResult(
                                stage=name, action="failed",
                                reason=f"missing dependency: {prep.missing_deps[0]}",
                            )
                            pending.remove(name)
                            dispatched = True
                            continue
                        if prep.cache_entry is not None and not opts.force:
                            restore_start = time.perf_counter()
                            restore_outputs(store, prep.cache_entry, project.root)
                            results[name] = StageResult(
                                stage=name, action="cached",
                                wall_s=time.perf_counter() - restore_start,
                            )
                            pending.remove(name)
                            dispatched = True
                            continue
                        if len(running) < opts.jobs:
                            request_path = None
                            stage = prep.stage
                            if stage.builtin is not None:
                                request_path = project.tmp_dir / f"{run_id}-{name}.json"
                                StageRequest(
                                    stage=name,
                                    builtin=stage.builtin,
                                    params=select_params(params, stage.params, stage=name),
                                    deps=stage.deps,
                                    outs=stage.outs,
                                ).to_json_file(request_path)
                            run_logs.mkdir(parents=True, exist_ok=True)
                            future = pool.submit(
                                _spawn_stage, stage, request_path, project.root,
                                run_logs / f"{name}.out", run_logs / f"{name}.err",
                            )
                            running[future] = (prep, request_path)
                            pending.remove(name)
                            dispatched = True
                        else:
                            break
                    if running and (not dispatched or not pending or len(running) >= opts.jobs):
                        done, _ = wait(running, return_when=FIRST_COMPLETED)
                        for future in done:
                            prep, request_path = running.pop(future)
                            try:
                                finalize(prep, future.result())
                            finally:
                                if request_path is not None:
                                    Path(request_path).unlink(missing_ok=True)
                    elif not running and not dispatched and pending:  # pragma: no cover
                        raise StoreError(f"scheduler stalled on stages: {pending}")
        finally:
            ordered = [results[name] for name in planned if name in results]
            report = RunReport(
                run_id=run_id,
                results=ordered,
                total_wall_s=time.perf_counter() - start,
            )
            manifest = {
                "run_id": run_id,
                "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
                "options": {
                    "targets": list(opts.targets),
                    "force": opts.force,
                    "dry_run": opts.dry_run,
                    "jobs": opts.jobs,
                },
                "results": [r.to_json() for r in ordered],
                "tool_version": __version__,
                "config_hashes": _config_hashes(project),
            }
            manifest_path = project.runs_dir / f"{run_id}.json"
            manifest_path.write_bytes(canonical_bytes(manifest) + b"\n")
            report.manifest_path = manifest_path
    report.total_wall_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Status and metrics views


@dataclass(frozen=True)
class StageStatus:
    stage: str
    state: str                  # unchanged | changed | never-run
    reasons: tuple[str, ...] = ()


def _diff_paths(prefix: str, recorded: object, current: object) -> list[str]:
    """Deepest dotted paths where two param values differ."""
    if isinstance(recorded, dict) and isinstance(current, dict):
        paths = []
        for key in sorted(set(recorded) | set(current)):
            if key not in recorded or key not in current:
                paths.append(f"{prefix}.{key}")
            elif recorded[key] != current[key]:
                paths.extend(_diff_paths(f"{prefix}.{key}", recorded[key], current[key]))
        return paths
    return [prefix] if recorded != current else []


def status(project: Project) -> list[StageStatus]:
    """Per-stage change report against the lock file (content, never mtimes)."""
    spec, params = project.load()
    graph = build_graph(spec)
    lock = load_lock(project.lock_path)
    out: list[StageStatus] = []
    for name in topo_order(graph):
        stage = spec.stages[name]
        entry = lock.get(name)
        if entry is None:
            out.append(StageStatus(stage=name, state="never-run"))
            continue
        reasons: list[str] = []
        if _stage_kind(stage) != entry.kind:
            reasons.append("builtin" if stage.builtin is not None else "cmd")
        recorded_deps = entry.deps
        for dep in stage.deps:
            if dep not in recorded_deps:
                reasons.append(f"deps: {dep} (added)")
                continue
            path = project.root / dep
            if not path.exists():
                reasons.append(f"deps: {dep} (missing)")
            elif hash_path(path)[0].hex != recorded_deps[dep]:
                reasons.append(f"deps: {dep}")
        for dep in recorded_deps:
            if dep not in stage.deps:
                reasons.append(f"deps: {dep} (removed)")
        current = select_params(params, stage.params, stage=name)
        recorded = json.loads(entry.params)
        for key in stage.params:
            if key not in recorded:
                reasons.append(f"params: {key} (added)")
            elif current[key] != recorded[key]:
                reasons.extend(f"params: {p}" for p in _diff_paths(key, recorded[key], current[key]))
        for key in recorded:
            if key not in stage.params:
                reasons.append(f"params: {key} (removed)")
        if sorted(stage.outs) != sorted(entry.outs):
            reasons.append("outs")
        state = "changed" if reasons else "unchanged"
        out.append(StageStatus(stage=name, state=state, reasons=tuple(reasons)))
    return out


@dataclass(frozen=True)
class MetricRow:
    stage: str
    path: str
    key: str
    value: object


def _flatten_scalars(doc: object, prefix: str, where: str) -> list[tuple[str, object]]:
    if isinstance(doc, (bool, int, float, str)):
        return [(prefix, doc)]
    if isinstance(doc, dict):
        rows: list[tuple[str, object]] = []
        for key in sorted(doc):
            dotted = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten_scalars(doc[key], dotted, where))
        return rows
    raise ConfigError(f"unparseable metric file {where}: not an object of scalar leaves")


def metrics_show(project: Project) -> list[MetricRow]:
    """Flat (stage, path, key, value) table over every declared metric file."""
    spec, _ = project.load()
    rows: list[MetricRow] = []
    for name, stage in spec.stages.items():
        for metric in stage.metrics:
            path = project.root / metric
            if not path.exists():
                continue
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"unparseable metric file {metric}: {exc}") from None
            if not isinstance(doc, dict):
                raise ConfigError(f"unparseable metric file {metric}: not a JSON object")
            for key, value in _flatten_scalars(doc, "", metric):
                rows.append(MetricRow(stage=name, path=metric, key=key, value=value))
    rows.sort(key=lambda r: (r.stage, r.path, r.key))
    return rows
