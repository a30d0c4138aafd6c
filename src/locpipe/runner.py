"""The orchestrator: plan, execute, record.

Per stage: fingerprint -> cache check -> execution in a child forked from
this single-threaded scheduler, with a scrubbed environment -> output
verification -> commit. Cached stages have their outputs restored from the
store instead; a hit the run cache serves also becomes the stage's lock
entry. Every invocation writes a run manifest (one JSON file per run,
timings and process accounting included), even when stages fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NoReturn

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
from .errors import ConfigError, LocpipeError, StoreError
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
from .loctk import StageRequest, builtin_version, run_builtin
from .store import (
    ContentHash,
    LockEntry,
    LockFile,
    ObjectStore,
    OutRecord,
    cache_lookup,
    commit_outputs,
    hash_file,
    hash_path,
    load_lock,
    missing_outs,
    parse_manifest,
    record_run,
    restore_outputs,
    stage_fingerprint,
    stage_kind,
    write_lock,
)

PIPELINE_FILE = "pipeline.yaml"
PARAMS_FILE = "params.yaml"
LOCK_FILE = "pipeline.lock.json"
DOT_DIR = ".locpipe"

# The reason a stage with no lock entry misses the cache.
NEVER_RUN = "never run"

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
        """Builtin request files that older versions wrote; `gc` sweeps them."""
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


@dataclass
class StageState:
    """One stage resolved against the lock and the store.

    `fingerprint` and `hit` are None when a dep is missing. `reasons` say why
    the stage misses the cache; they are empty exactly when `hit` is set.
    """

    kind: dict
    dep_hashes: dict[str, ContentHash]
    params_canonical: bytes
    fingerprint: ContentHash | None
    missing_deps: tuple[str, ...]
    hit: LockEntry | None
    reasons: tuple[str, ...] = ()


def resolve_stage(
    stage: StageSpec,
    params: dict,
    lock: LockFile,
    store: ObjectStore,
    dep_hash: Callable[[str], ContentHash | None],
) -> StageState:
    """The one place dep hashes become a fingerprint and a cache decision.

    `dep_hash` gives the content hash a dep will have when the stage runs,
    or None if it will be missing.
    """
    found = {dep: dep_hash(dep) for dep in stage.deps}
    dep_hashes = {dep: ch for dep, ch in found.items() if ch is not None}
    missing = [dep for dep, ch in found.items() if ch is None]
    current = select_params(params, stage.params, stage=stage.name)
    params_canonical = canonicalize(current)
    version = builtin_version(stage.builtin) if stage.builtin is not None else None
    kind = stage_kind(stage, version)
    fingerprint = hit = None
    if not missing:
        fingerprint = stage_fingerprint(stage, dep_hashes, params_canonical, version)
        hit = cache_lookup(lock, store, stage.name, fingerprint)
    state = StageState(kind, dep_hashes, params_canonical, fingerprint, tuple(missing), hit)
    if hit is None:
        state.reasons = _miss_reasons(stage, state, current, lock.get(stage.name), store)
    return state


def _param_diffs(prefix: str, recorded: object, current: object) -> list[str]:
    """Deepest dotted paths where two param values differ in canonical bytes."""
    if isinstance(recorded, dict) and isinstance(current, dict):
        paths = []
        for key in sorted(set(recorded) | set(current)):
            if key not in recorded or key not in current:
                paths.append(f"{prefix}.{key}")
            else:
                paths.extend(_param_diffs(f"{prefix}.{key}", recorded[key], current[key]))
        return paths
    return [prefix] if canonical_bytes(recorded) != canonical_bytes(current) else []


def _miss_reasons(
    stage: StageSpec, state: StageState, current: dict, entry: LockEntry | None, store: ObjectStore
) -> tuple[str, ...]:
    """Why a stage misses the cache, named against its lock entry."""
    if entry is None:
        return (NEVER_RUN,)
    reasons: list[str] = []
    if state.kind != entry.kind:
        reasons.append("builtin" if stage.builtin is not None else "cmd")
    for dep in stage.deps:
        if dep not in entry.deps:
            reasons.append(f"deps: {dep} (added)")
        elif dep not in state.dep_hashes:
            reasons.append(f"deps: {dep} (missing)")
        elif state.dep_hashes[dep].hex != entry.deps[dep]:
            reasons.append(f"deps: {dep}")
    reasons.extend(f"deps: {dep} (removed)" for dep in entry.deps if dep not in stage.deps)
    recorded = json.loads(entry.params)
    for key in stage.params:
        if key not in recorded:
            reasons.append(f"params: {key} (added)")
        else:
            reasons.extend(f"params: {p}" for p in _param_diffs(key, recorded[key], current[key]))
    reasons.extend(f"params: {key} (removed)" for key in recorded if key not in stage.params)
    if sorted(stage.outs) != sorted(entry.outs):
        reasons.append("outs")
    if not reasons and state.fingerprint is not None and state.fingerprint.hex == entry.fingerprint:
        reasons = [f"outs: {out} (missing from store)" for out in missing_outs(store, entry)]
    # a lock entry whose fingerprint disagrees with its own recorded fields
    return tuple(reasons) or ("fingerprint",)


def _workspace_hash(root: Path, dep: str) -> ContentHash | None:
    path = root / dep
    return hash_path(path)[0] if path.exists() else None


def _predicting_resolver(project: Project, params: dict) -> Callable[[StageSpec], StageState]:
    """`resolve_stage` for stages given in topological order, against the
    workspace as `repro` will find it and without touching it: a dep that a
    cached upstream stage will restore gets the hash of the restored out, any
    other dep its workspace hash."""
    lock = load_lock(project.lock_path)
    store = ObjectStore(project.cache_dir)
    restored: dict[str, OutRecord] = {}

    def dep_hash(dep: str) -> ContentHash | None:
        if dep in restored:
            return ContentHash(restored[dep].hash)
        for out, rec in restored.items():
            if rec.tree and dep.startswith(out + "/"):
                member = dict(parse_manifest(store.read_bytes(rec.hash))).get(dep[len(out) + 1:])
                return ContentHash(member) if member is not None else None
        return _workspace_hash(project.root, dep)

    def resolve(stage: StageSpec) -> StageState:
        state = resolve_stage(stage, params, lock, store, dep_hash)
        if state.hit is not None:
            restored.update(state.hit.outs)
        return state

    return resolve


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
    producers = graph.producers()
    resolve = _predicting_resolver(project, params)

    # a dep nobody produces is a source file: it must exist on disk no matter what
    produced = [out for stage_name in planned for out in spec.stages[stage_name].outs]

    def is_source(dep: str) -> bool:
        return not any(dep == out or dep.startswith(out + "/") for out in produced)

    entries: dict[str, PlanEntry] = {}
    for name in planned:
        stage = spec.stages[name]
        upstream = [p for p in producers[name] if p in entries]
        blocked_up = [p for p in upstream if entries[p].action == ACTION_BLOCKED]
        running_up = [p for p in upstream if entries[p].action == ACTION_RUN]
        source_missing = [
            dep for dep in stage.deps if is_source(dep) and not (project.root / dep).exists()
        ]
        if blocked_up:
            entry = PlanEntry(name, ACTION_BLOCKED, f"upstream blocked: {blocked_up[0]}")
        elif source_missing:
            entry = PlanEntry(name, ACTION_BLOCKED, f"missing dependency: {source_missing[0]}")
        elif opts.force:
            entry = PlanEntry(name, ACTION_RUN, "forced")
        elif running_up:
            entry = PlanEntry(name, ACTION_RUN, f"upstream will run: {running_up[0]}")
        else:
            state = resolve(stage)
            if state.missing_deps:
                entry = PlanEntry(name, ACTION_BLOCKED, f"missing dependency: {state.missing_deps[0]}")
            elif state.hit is not None:
                entry = PlanEntry(name, ACTION_CACHED)
            else:
                entry = PlanEntry(name, ACTION_RUN, "; ".join(state.reasons))
        entries[name] = entry
    return ExecutionPlan(tuple(entries.values()))


# ---------------------------------------------------------------------------
# Execution


def _spawn_stage(
    stage: StageSpec,
    request: StageRequest | None,
    root: Path,
    log_out: Path,
    log_err: Path,
) -> int:
    """Fork the child that runs one stage, and return its pid.

    Only the calling thread exists in a forked child, so the caller must be
    a process that has started no threads. A builtin runs `request` in the
    child; a `cmd` stage (request None) execs `/bin/sh -c`.
    """
    for out in stage.outs:
        (root / out).parent.mkdir(parents=True, exist_ok=True)
    env = {key: os.environ[key] for key in (*ENV_ALLOWLIST, *stage.env) if key in os.environ}
    # bytes buffered here must not reach a stage log through the child's copy
    sys.stdout.flush()
    sys.stderr.flush()
    with open(log_out, "wb") as stdout, open(log_err, "wb") as stderr:
        pid = os.fork()
        if pid == 0:
            _run_child(stage, request, root, env, stdout.fileno(), stderr.fileno())
    return pid


def _run_child(
    stage: StageSpec, request: StageRequest | None, root: Path, env: dict[str, str], out_fd: int, err_fd: int
) -> NoReturn:
    """The forked child: stage logs on fds 1 and 2, no other fd from 3 up,
    the project root as cwd and the scrubbed env. It never returns."""
    status = 1
    try:
        os.dup2(out_fd, 1)
        os.dup2(err_fd, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", errors="backslashreplace", closefd=False)
        os.chdir(root)
        os.environ.clear()
        os.environ.update(env)
        if request is None:
            # the signal dispositions a shell started by Popen gets
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
            os.execve("/bin/sh", ["/bin/sh", "-c", stage.cmd], env)
        run_builtin(request.builtin, request)
        status = 0
    except LocpipeError as exc:
        sys.stderr.write(f"error: {exc}\n")
    except BaseException:  # the child's top level: report, then leave through os._exit
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _reap_first(pids: list[int]) -> tuple[int, int, os.struct_rusage]:
    """Wait for the first of `pids` to exit and reap it: (pid, status, usage).

    Only these pids are waited on. A lone child is waited on blocking;
    several are polled, since no single call waits for the first of them.
    """
    flags = 0 if len(pids) == 1 else os.WNOHANG
    while True:
        for pid in pids:
            reaped, status, usage = os.wait4(pid, flags)
            if reaped:
                return pid, status, usage
        time.sleep(0.001)


def _stage_failure(stage: StageSpec, state: StageState, exit_code: int, root: Path) -> str | None:
    """Why a stage that ran must not be committed, or None if it may be."""
    if exit_code != 0:
        return f"command exited with status {exit_code}"
    missing = [o for o in stage.outs if not (root / o).exists()]
    if missing:
        return f"declared out not produced: {missing[0]}"
    # A stage must not rewrite its own inputs; that would make the recorded
    # fingerprint a lie.
    for dep, before in state.dep_hashes.items():
        if hash_path(root / dep)[0].hex != before.hex:
            return f"stage modified its own dependency: {dep}"
    return None


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
    start = time.perf_counter()
    spec, params = project.load()
    graph = build_graph(spec)
    planned = _planned_stages(spec, graph, opts.targets)
    _validate_resolvable(spec, params, planned)

    run_id = _make_run_id()
    project.runs_dir.mkdir(parents=True, exist_ok=True)
    run_logs = project.logs_dir / run_id  # created when the first stage executes

    results: dict[str, StageResult] = {}
    with project_lock(project):
        store = ObjectStore(project.cache_dir)
        lock = load_lock(project.lock_path)
        producers = graph.producers()
        planned_set = set(planned)
        pending = list(planned)
        # pid -> (stage, state, start) of every child not yet reaped
        running: dict[int, tuple[StageSpec, StageState, float]] = {}
        try:
            while pending or running:
                progressed = False
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
                        progressed = True
                        continue
                    if len(running) >= opts.jobs:
                        break  # resolve a stage only once a slot is free to run it
                    pending.remove(name)
                    progressed = True
                    stage = spec.stages[name]
                    state = resolve_stage(
                        stage, params, lock, store, lambda dep: _workspace_hash(project.root, dep)
                    )
                    if state.missing_deps:
                        results[name] = StageResult(
                            stage=name, action="failed",
                            reason=f"missing dependency: {state.missing_deps[0]}",
                        )
                    elif state.hit is not None and not opts.force:
                        restore_start = time.perf_counter()
                        restore_outputs(store, state.hit, project.root)
                        results[name] = StageResult(
                            stage=name, action="cached",
                            wall_s=time.perf_counter() - restore_start,
                        )
                        if state.hit is not lock.get(name):  # served by the run cache
                            lock[name] = state.hit
                            write_lock(lock, project.lock_path)
                            results[name].reason = "run cache"
                    else:
                        request = None
                        if stage.builtin is not None:
                            request = StageRequest(
                                stage=name,
                                builtin=stage.builtin,
                                params=select_params(params, stage.params, stage=name),
                                deps=stage.deps,
                                outs=stage.outs,
                            )
                        run_logs.mkdir(parents=True, exist_ok=True)
                        started = time.perf_counter()
                        pid = _spawn_stage(
                            stage, request, project.root,
                            run_logs / f"{name}.out", run_logs / f"{name}.err",
                        )
                        running[pid] = (stage, state, started)
                if running and (not progressed or not pending or len(running) >= opts.jobs):
                    pid, wait_status, usage = _reap_first(list(running))
                    stage, state, started = running.pop(pid)
                    result = StageResult(
                        stage=stage.name,
                        action="executed",
                        wall_s=time.perf_counter() - started,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_bytes=usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024),
                        exit_code=os.waitstatus_to_exitcode(wait_status),
                        pid=pid,
                        reason="forced" if opts.force else "; ".join(state.reasons),
                        log_out=os.path.relpath(run_logs / f"{stage.name}.out", project.root),
                        log_err=os.path.relpath(run_logs / f"{stage.name}.err", project.root),
                    )
                    failure = _stage_failure(stage, state, result.exit_code, project.root)
                    if failure is not None:
                        result.action = "failed"
                        result.reason = f"{result.reason}; {failure}"
                    else:
                        entry = commit_outputs(
                            store, stage, state.fingerprint, state.kind,
                            state.dep_hashes, state.params_canonical, project.root,
                        )
                        record_run(store, entry)
                        lock[stage.name] = entry
                        write_lock(lock, project.lock_path)
                    results[stage.name] = result
                elif not running and not progressed and pending:  # pragma: no cover
                    raise StoreError(f"scheduler stalled on stages: {pending}")
        finally:
            for pid in running:  # an error left these running: let them end, then reap
                os.waitpid(pid, 0)
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


def status(project: Project) -> list[StageStatus]:
    """Per-stage change report against the lock file (content, never mtimes).

    Each stage is resolved as `plan` resolves it, against its own lock entry:
    a stage is never reported changed only because an upstream stage is.
    """
    spec, params = project.load()
    resolve = _predicting_resolver(project, params)
    out: list[StageStatus] = []
    for name in topo_order(build_graph(spec)):
        state = resolve(spec.stages[name])
        if state.hit is not None:
            out.append(StageStatus(stage=name, state="unchanged"))
        else:
            changed = state.reasons != (NEVER_RUN,)
            out.append(StageStatus(name, "changed" if changed else "never-run", state.reasons))
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
