"""The orchestrator: plan, execute, record.

`_load_plan` orders the planned stages, and `resolve_stage` turns a stage's
dep hashes into a fingerprint and a cache decision. `plan` resolves each
stage once against the workspace `repro` will find, and `status` reads its
reasons. `repro` runs one loop that either dispatches the next ready stage
(skip, fail, restore, or fork through `launch.spawn_stage`) or reaps a child
and commits its outs. Every invocation writes a run manifest, even when
stages fail.

`plan`, `status` and `repro` find a dep's hash by one rule, `dep_hash`: a
dep that overlaps an out the run has restored or committed (in `plan`, will
restore) gets the hash of that out's recorded bytes, so `repro` never hashes
such an out again. After a stage runs, `_stage_failure` hashes each of its
deps in the workspace, and a dep that does not hold its recorded bytes fails
the stage. Only then, to give the true reason, are the store objects of the
outs recorded under that dep hashed: a damaged one is named. The stage's
outs are judged by `commit_outputs` alone. Any StoreError from these checks
(an out the commit refuses, a dep replaced by a symlink) fails that stage
with its cause named, and the run goes on.

A run that forks nothing imports only what it runs. `Project.load` serves
the config from the parse memo (`configmodel.load_config`) when the files'
bytes are unchanged, so PyYAML is never imported on a hit; only `repro`
stores a fresh parse's memo entry, so `plan`, `status` and the read-only
commands change nothing on disk. `launch`, which brings in the fork
machinery and the builtin modules, is imported when the first stage is
forked. The records here are named tuples, not dataclasses, for the same
reason.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, NamedTuple

from . import __version__
from .canonical import canonical_bytes
from .configmodel import (
    PARAMS_FILE,
    PIPELINE_FILE,
    PipelineSpec,
    StageSpec,
    canonicalize,
    load_config,
    memo_key,
    paths_overlap,
    select_params,
)
from .errors import EXIT_OK, EXIT_STAGE_FAILURE, ConfigError, StoreError
from .graph import StageGraph, build_graph, topo_order, upstream_closure
from .loctk import StageRequest, builtin_version, table_memo_dir
from .store import (
    LockEntry,
    LockFile,
    ObjectStore,
    OutRecord,
    cache_lookup,
    commit_outputs,
    config_memo_path,
    hash_path,
    load_lock,
    missing_outs,
    record_run,
    restore_outputs,
    restored_hash,
    stage_fingerprint,
    stage_kind,
    write_atomic,
    write_lock,
)

LOCK_FILE = "pipeline.lock.json"
DOT_DIR = ".locpipe"

# The reason a stage with no lock entry misses the cache.
NEVER_RUN = "never run"


# The parse-memo entry the last `Project.load` built from a fresh YAML
# parse, as (key, entry), for `repro` to store; None after a memo hit. Every
# load sets it, and `repro` reads it right after its own load, so no other
# load's entry can reach it.
_fresh_config: tuple[str, bytes] | None = None


class Project(NamedTuple):
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

    @staticmethod
    def discover(start: Path | str | None = None) -> "Project":
        """Locate the project root by walking upward until pipeline.yaml is found."""
        current = Path(start or Path.cwd()).resolve()
        for candidate in (current, *current.parents):
            if (candidate / PIPELINE_FILE).is_file():
                return Project(root=candidate)
        raise ConfigError(f"no {PIPELINE_FILE} found in {current} or any parent directory")

    def load(self, config_hashes: dict[str, str] | None = None) -> tuple[PipelineSpec, dict]:
        """Parse and validate both config files, through the parse memo.
        `config_hashes`, when given, receives the SHA-256 of the bytes
        parsed, keyed by file name."""
        global _fresh_config
        _fresh_config = None
        pipeline, params = self._config_bytes(config_hashes)
        key = memo_key(pipeline, params)
        try:
            memo = config_memo_path(ObjectStore(self.cache_dir), key).read_bytes()
        except OSError:
            memo = None
        spec, tree, entry = load_config(pipeline, params, memo)
        if entry is not None:
            _fresh_config = (key, entry)
        return spec, tree

    def config_key(self) -> str:
        """The parse-memo key of the config files as they are now."""
        return memo_key(*self._config_bytes())

    def _config_bytes(self, config_hashes: dict[str, str] | None = None) -> tuple[bytes, bytes | None]:
        """Both config files' bytes, params None when there is no params
        file; their SHA-256 go to `config_hashes` when given."""
        try:
            pipeline = _read_config(self.pipeline_path, config_hashes)
        except FileNotFoundError:
            raise ConfigError(f"missing {self.pipeline_path}") from None
        if not self.params_path.exists():
            return pipeline, None
        return pipeline, _read_config(self.params_path, config_hashes)


def _read_config(path: Path, config_hashes: dict[str, str] | None) -> bytes:
    """A config file's bytes; their SHA-256 goes to `config_hashes` when given."""
    data = path.read_bytes()
    if config_hashes is not None:
        config_hashes[path.name] = hashlib.sha256(data).hexdigest()
    return data


class ExecOptions(NamedTuple):
    targets: tuple[str, ...] = ()
    force: bool = False
    jobs: int = 1  # checked by `_load_plan`, which every plan and run starts with


class StageResult(NamedTuple):
    stage: str
    action: str                    # executed | cached | failed | skipped
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_bytes: int = 0        # 0 = unavailable
    # the orchestrator's resident set when it forked the stage, which the
    # child's peak includes; None for a stage not forked, 0 = unavailable
    orchestrator_rss_bytes: int | None = None
    exit_code: int | None = None
    pid: int | None = None
    reason: str = ""
    log_out: str | None = None
    log_err: str | None = None

    def to_json(self) -> dict:
        doc = self._asdict()
        if self.orchestrator_rss_bytes is None:
            del doc["orchestrator_rss_bytes"]
        return doc


class RunReport(NamedTuple):
    run_id: str
    results: list[StageResult]
    manifest_path: Path | None = None

    def _count(self, action: str) -> int:
        return sum(1 for r in self.results if r.action == action)

    @property
    def executed(self) -> int:
        return self._count("executed")

    @property
    def cached(self) -> int:
        return self._count("cached")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def skipped(self) -> int:
        return self._count("skipped")

    @property
    def exit_code(self) -> int:
        return EXIT_STAGE_FAILURE if self.failed else EXIT_OK


# ---------------------------------------------------------------------------
# Advisory project lock (one orchestrator per project)


@contextmanager
def project_lock(project: Project):
    lock_file = project.dot_dir / "orchestrator.lock"
    lock_file.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_file, "a+") as handle:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise StoreError(
                f"another orchestrator process holds the project lock ({lock_file})"
            ) from None
        yield


# ---------------------------------------------------------------------------
# Planning


class PlanEntry(NamedTuple):
    stage: str
    action: str  # run | cached | blocked
    reason: str = ""
    reasons: tuple[str, ...] = ()  # the stage's own miss reasons (`StageState.reasons`)


class ExecutionPlan(NamedTuple):
    entries: tuple[PlanEntry, ...]


def _load_plan(
    project: Project, opts: ExecOptions, config_hashes: dict[str, str] | None = None
) -> tuple[PipelineSpec, dict, StageGraph, list[str]]:
    """Load the config (see `Project.load` for `config_hashes`) and order the
    planned stages: the targets and their upstream closure, or every stage.
    Fails fast, before anything runs, on an unknown target, an unresolvable
    param, an unknown builtin or a `jobs` below 1."""
    if opts.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {opts.jobs}")
    spec, params = project.load(config_hashes)
    graph = build_graph(spec)
    planned = topo_order(graph)
    if opts.targets:
        for target in opts.targets:
            if target not in spec.stages:
                raise ConfigError(f"unknown target stage '{target}'")
        needed = upstream_closure(graph, opts.targets)
        planned = [name for name in planned if name in needed]
    for name in planned:
        stage = spec.stages[name]
        select_params(params, stage.params, stage=name)
        if stage.builtin is not None:
            builtin_version(stage.builtin)
    return spec, params, graph, planned


class StageState(NamedTuple):
    """One stage resolved against the lock and the store.

    `fingerprint` and `hit` are None when a dep is missing. `reasons` say why
    the stage misses the cache; they are empty exactly when `hit` is set.
    """

    kind: dict
    dep_hashes: dict[str, str]
    params_canonical: bytes
    fingerprint: str | None
    missing_deps: tuple[str, ...]
    hit: LockEntry | None
    reasons: tuple[str, ...] = ()


def dep_hash(store: ObjectStore, known: Mapping[str, OutRecord], root: Path, dep: str) -> str | None:
    """The hash `dep` has when its stage runs, or None if it is missing.

    `known` maps the path of every out this run has restored or committed so
    far (or, in `plan`, will restore) to its record. A dep that overlaps one
    of them gets the hash those recorded bytes give it; any other dep is
    hashed in the workspace. So no out is hashed again once it is recorded.
    """
    if any(paths_overlap(dep, out) for out in known):
        return restored_hash(store, known, root, dep)
    path = root / dep
    return hash_path(path)[0] if path.exists() else None


def resolve_stage(
    stage: StageSpec,
    params: dict,
    lock: LockFile,
    store: ObjectStore,
    root: Path,
    known: Mapping[str, OutRecord],
) -> StageState:
    """The one place dep hashes become a fingerprint and a cache decision;
    each dep is hashed by `dep_hash`."""
    found = {dep: dep_hash(store, known, root, dep) for dep in stage.deps}
    dep_hashes = {dep: ch for dep, ch in found.items() if ch is not None}
    missing = [dep for dep, ch in found.items() if ch is None]
    current = select_params(params, stage.params, stage=stage.name)
    params_canonical = canonicalize(current)
    kind = stage_kind(stage)
    fingerprint = hit = None
    if not missing:
        fingerprint = stage_fingerprint(stage, dep_hashes, params_canonical)
        hit = cache_lookup(lock, store, stage.name, fingerprint)
    state = StageState(kind, dep_hashes, params_canonical, fingerprint, tuple(missing), hit)
    if hit is None:
        state = state._replace(reasons=_miss_reasons(stage, state, current, lock.get(stage.name), store))
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
        elif state.dep_hashes[dep] != entry.deps[dep]:
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
    if not reasons and state.fingerprint == entry.fingerprint:
        reasons = [f"outs: {out} (missing from store)" for out in missing_outs(store, entry)]
    # a lock entry whose fingerprint disagrees with its own recorded fields
    return tuple(reasons) or ("fingerprint",)


def plan(project: Project, opts: ExecOptions = ExecOptions()) -> ExecutionPlan:
    """Predict the action for every planned stage without touching the workspace.

    Every stage is resolved once, in order; its action then follows from its
    state, its upstream actions and `force`. A stage downstream of one that
    will run is itself marked ``run``: its true fingerprint is unknowable
    until the upstream outputs exist. The executor re-evaluates fingerprints
    stage by stage, so a re-run that regenerates identical outputs still
    turns downstream stages into cache hits.
    """
    spec, params, graph, planned = _load_plan(project, opts)
    producers = graph.producers()
    lock = load_lock(project.lock_path)
    store = ObjectStore(project.cache_dir)
    known: dict[str, OutRecord] = {}  # every out a cached stage will restore
    entries: dict[str, PlanEntry] = {}
    for name in planned:
        state = resolve_stage(spec.stages[name], params, lock, store, project.root, known)
        if state.hit is not None:
            known.update(state.hit.outs)
        blocked_up = [p for p in producers[name] if entries[p].action == "blocked"]
        running_up = [p for p in producers[name] if entries[p].action == "run"]
        # a missing dep is waited for only if an upstream stage that will run may produce it
        upcoming = [out for p in running_up for out in spec.stages[p].outs]
        missing = [d for d in state.missing_deps if not any(paths_overlap(d, o) for o in upcoming)]
        if blocked_up:
            action, reason = "blocked", f"upstream blocked: {blocked_up[0]}"
        elif missing:
            action, reason = "blocked", f"missing dependency: {missing[0]}"
        elif opts.force:
            action, reason = "run", "forced"
        elif running_up:
            action, reason = "run", f"upstream will run: {running_up[0]}"
        elif state.hit is not None:
            action, reason = "cached", ""
        else:
            action, reason = "run", "; ".join(state.reasons)
        entries[name] = PlanEntry(name, action, reason, state.reasons)
    return ExecutionPlan(tuple(entries.values()))


# ---------------------------------------------------------------------------
# Execution


def spawn_stage(
    stage: StageSpec, request: StageRequest | None, root: Path, log_out: Path, log_err: Path
) -> tuple[int, int]:
    """`launch.spawn_stage`, with `launch` imported on the first fork."""
    from .launch import spawn_stage

    return spawn_stage(stage, request, root, log_out, log_err)


def _stage_failure(
    state: StageState, exit_code: int, root: Path, store: ObjectStore, known: Mapping[str, OutRecord]
) -> str | None:
    """Why a stage that ran must not be committed, or None if it may be; its
    outs are judged by `commit_outputs` alone.

    `known` maps every out this run restored or committed to its record.
    """
    if exit_code != 0:
        return f"command exited with status {exit_code}"
    # A stage must not rewrite its own inputs, nor run on a dep whose bytes
    # differ from its recorded hash (a restore from a damaged store object);
    # either would make the recorded fingerprint a lie.
    for dep, before in state.dep_hashes.items():
        if not (root / dep).exists() or hash_path(root / dep)[0] != before:
            damaged = _damaged_object(store, known, dep)
            if damaged is not None:
                return f"dependency {dep} was restored from a damaged store object: {damaged}"
            return f"stage modified its own dependency: {dep}"
    return None


def _damaged_object(store: ObjectStore, known: Mapping[str, OutRecord], dep: str) -> str | None:
    """The first store object recorded at or under `dep` (a file out, or a
    tree out's manifest or member) whose bytes no longer hash to its name;
    None if all are intact."""
    for out, rec in sorted(known.items()):
        if not paths_overlap(dep, out):
            continue
        if not store.intact(rec.hash):
            return rec.hash
        if rec.tree:
            for rel, member in store.members(rec.hash):
                if paths_overlap(dep, f"{out}/{rel}") and not store.intact(member):
                    return member
    return None


def _make_run_id() -> str:
    now = datetime.now(timezone.utc)
    salt = hashlib.sha256(
        f"{os.getpid()}:{time.perf_counter_ns()}:{os.urandom(8).hex()}".encode()
    ).hexdigest()[:8]
    return now.strftime("%Y%m%dT%H%M%S%fZ") + "-" + salt


def repro(project: Project, opts: ExecOptions = ExecOptions()) -> RunReport:
    """Execute the plan. Raises ConfigError/StoreError for environment-level
    problems; stage failures are reported through the returned RunReport."""
    config_hashes: dict[str, str] = {}  # of the bytes parsed, not of the files as the run leaves them
    spec, params, graph, planned = _load_plan(project, opts, config_hashes)
    producers = graph.producers()

    run_id = _make_run_id()
    run_logs = project.logs_dir / run_id  # created when the first stage executes

    results: dict[str, StageResult] = {}
    with project_lock(project):
        store = ObjectStore(project.cache_dir)
        if _fresh_config is not None:  # the config load above parsed YAML
            key, entry = _fresh_config
            store.write(config_memo_path(store, key), entry)
        lock = load_lock(project.lock_path)
        known: dict[str, OutRecord] = {}  # every out restored or committed so far
        pending = list(planned)
        # pid -> (stage, state, start, orchestrator RSS) of every child not yet reaped
        running: dict[int, tuple[StageSpec, StageState, float, int]] = {}
        try:
            while pending or running:
                # the first pending stage whose producers all have results
                name = next((n for n in pending if all(p in results for p in producers[n])), None)
                if name is None or len(running) >= opts.jobs:
                    # reap: a stage is resolved only once a slot is free to run it
                    if not running:  # pragma: no cover
                        raise StoreError(f"scheduler stalled on stages: {pending}")
                    from .launch import reap_first  # loaded by the fork of every running stage

                    pid, wait_status, usage = reap_first(list(running))
                    stage, state, started, rss = running.pop(pid)
                    result = StageResult(
                        stage=stage.name,
                        action="executed",
                        wall_s=time.perf_counter() - started,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_bytes=usage.ru_maxrss * (1 if sys.platform == "darwin" else 1024),
                        orchestrator_rss_bytes=rss,
                        exit_code=os.waitstatus_to_exitcode(wait_status),
                        pid=pid,
                        reason="forced" if opts.force else "; ".join(state.reasons),
                        log_out=os.path.relpath(run_logs / f"{stage.name}.out", project.root),
                        log_err=os.path.relpath(run_logs / f"{stage.name}.err", project.root),
                    )
                    try:  # a StoreError here is this stage's fault: a dep or out the store refuses
                        failure = _stage_failure(state, result.exit_code, project.root, store, known)
                        if failure is None:
                            entry = commit_outputs(
                                store, stage, state.fingerprint, state.kind,
                                state.dep_hashes, state.params_canonical, project.root,
                            )
                    except StoreError as exc:
                        failure = str(exc)
                    if failure is not None:
                        result = result._replace(action="failed", reason=f"{result.reason}; {failure}")
                    else:
                        record_run(store, entry)
                        known.update(entry.outs)
                        lock[stage.name] = entry
                        write_lock(lock, project.lock_path)
                    results[stage.name] = result
                    continue

                # dispatch: skip, fail on a missing dep, restore, or fork
                pending.remove(name)
                bad = [p for p in producers[name] if results[p].action in ("failed", "skipped")]
                if bad:
                    results[name] = StageResult(name, "skipped", reason=f"upstream failure: {bad[0]}")
                    continue
                stage = spec.stages[name]
                state = resolve_stage(stage, params, lock, store, project.root, known)
                if state.missing_deps:
                    results[name] = StageResult(
                        name, "failed", reason=f"missing dependency: {state.missing_deps[0]}"
                    )
                elif state.hit is not None and not opts.force:
                    restore_start = time.perf_counter()
                    restore_outputs(store, state.hit, project.root)
                    known.update(state.hit.outs)
                    served = state.hit is not lock.get(name)  # by the run cache
                    results[name] = StageResult(
                        name, "cached", wall_s=time.perf_counter() - restore_start,
                        reason="run cache" if served else "",
                    )
                    if served:
                        lock[name] = state.hit
                        write_lock(lock, project.lock_path)
                else:
                    request = None
                    if stage.builtin is not None:
                        request = StageRequest(
                            stage=name,
                            builtin=stage.builtin,
                            params=select_params(params, stage.params, stage=name),
                            deps=stage.deps,
                            outs=stage.outs,
                            table_memo=table_memo_dir(project.cache_dir.absolute()),
                        )
                    run_logs.mkdir(parents=True, exist_ok=True)
                    started = time.perf_counter()
                    pid, rss = spawn_stage(
                        stage, request, project.root,
                        run_logs / f"{name}.out", run_logs / f"{name}.err",
                    )
                    running[pid] = (stage, state, started, rss)
        finally:
            for pid in running:  # an error left these running: let them end, then reap
                os.waitpid(pid, 0)
            ordered = [results[name] for name in planned if name in results]
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
                "config_hashes": config_hashes,
            }
            manifest_path = project.runs_dir / f"{run_id}.json"
            write_atomic(manifest_path, canonical_bytes(manifest) + b"\n")
    return RunReport(run_id=run_id, results=ordered, manifest_path=manifest_path)


# ---------------------------------------------------------------------------
# Status and metrics views


class StageStatus(NamedTuple):
    stage: str
    state: str                  # unchanged | changed | never-run
    reasons: tuple[str, ...] = ()


def status(project: Project) -> list[StageStatus]:
    """Per-stage change report against the lock file (content, never mtimes).

    It reads `plan`'s own reasons for each stage, named against the stage's
    own lock entry: a stage is never reported changed only because an
    upstream stage is.
    """
    states = {(): "unchanged", (NEVER_RUN,): "never-run"}
    return [StageStatus(e.stage, states.get(e.reasons, "changed"), e.reasons) for e in plan(project).entries]


class MetricRow(NamedTuple):
    stage: str
    path: str
    key: str
    value: object


def metrics_show(project: Project) -> list[MetricRow]:
    """Flat (stage, path, key, value) table over every declared metric file,
    flattened as `loc.report` flattens a metrics file."""
    from .loctk.report import flatten, is_flat_scalars

    spec, _ = project.load()
    rows: list[MetricRow] = []
    for name, stage in spec.stages.items():
        for metric in stage.metrics:
            path = project.root / metric
            if not path.exists():
                continue
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise ConfigError(f"unparseable metric file {metric}: {exc}") from None
            if not is_flat_scalars(doc):
                raise ConfigError(f"unparseable metric file {metric}: not an object of scalar leaves")
            rows.extend(MetricRow(name, metric, key, value) for key, value in flatten(doc))
    rows.sort(key=lambda r: (r.stage, r.path, r.key))
    return rows
