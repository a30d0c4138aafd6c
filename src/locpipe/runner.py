"""The orchestrator: plan, execute, record.

`_load_plan` orders the planned stages and selects each one's params, once,
and `resolve_stage` turns a stage's dep hashes and params into the
`LockEntry` it is about to run, fingerprinted by `store.derive_fingerprint`,
and a cache decision; its commit fills in the outs of that same record and
keeps it in the run cache. `plan` resolves each stage once against the
workspace `repro` will find, and `status` reads its reasons. `repro` runs
one loop that either dispatches the next ready stage (skip, fail, restore,
or fork through `launch.spawn_stage`) or reaps a child through
`launch.reap_first` and commits its outs. Every invocation writes a run
manifest, even when stages fail or an error stops the run: a child an error
leaves running is reaped the same way and recorded as failed.

Each builtin stage's request carries its share of the CPUs this process may
use, ``max(1, usable // jobs)`` (`_usable_cpus`), which `loc.gridsearch`
spends on its candidates; `plan` blocks a stage whose outs
`check_out_parents` refuses, with the refusal `repro` would meet, and
`status` reports it. While a child runs, `repro` imports the module of the
next pending builtin stage (`_preload_next`), so its compile overlaps that
child rather than delaying the next fork.

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
bytes are unchanged, so PyYAML is never imported on a hit. The load hands
its parse over in the `record` its caller passes, with no state kept
between calls: `repro` stores the fresh memo entry from its own record, so
`plan`, `status` and the read-only commands change nothing on disk, and
`gc` keeps the entry under its own load's key. `launch`, which brings in
the fork machinery and the builtin modules, is imported when the first
stage is forked. The records here are named tuples, not dataclasses, for
the same reason.
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
from .canonical import canonical_bytes, canonical_json
from .configmodel import (
    DOT_DIR,
    LOCK_FILE,
    PARAMS_FILE,
    PIPELINE_FILE,
    PipelineSpec,
    StageSpec,
    load_config,
    memo_key,
    paths_overlap,
    select_params,
)
from .errors import EXIT_OK, EXIT_STAGE_FAILURE, ConfigError, StoreError
from .graph import StageGraph, build_graph, topo_order, upstream_closure
from .loctk import StageRequest, builtin_version, exit_text, load_builtin, table_memo_dir
from .store import (
    LockEntry,
    LockFile,
    ObjectStore,
    OutRecord,
    cache_lookup,
    check_out_parents,
    commit_outputs,
    config_memo_path,
    derive_fingerprint,
    hash_path,
    load_lock,
    missing_outs,
    open_regular,
    out_files,
    restore_outputs,
    restored_hash,
    stage_kind,
    write_atomic,
    write_lock,
)

# The reason a stage with no lock entry misses the cache.
NEVER_RUN = "never run"


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
        """Locate the project root by walking upward to the first directory
        where pipeline.yaml exists in any form; `load` refuses one that is
        not a regular file or a symlink to one."""
        current = Path(start or Path.cwd()).resolve()
        for candidate in (current, *current.parents):
            if os.path.lexists(candidate / PIPELINE_FILE):
                return Project(root=candidate)
        raise ConfigError(f"no {PIPELINE_FILE} found in {current} or any parent directory")

    def load(self, record: dict | None = None) -> tuple[PipelineSpec, dict]:
        """Parse and validate both config files, through the parse memo.
        `record`, when given, receives `hashes`, the SHA-256 of the bytes
        parsed by file name; `key`, their parse-memo key; and `fresh`, the memo
        entry a fresh parse built, None after a memo hit. A config file exists
        in any form, and `_read_config` refuses one that is not a regular file
        or a symlink to one; an absent params file means none."""
        if not os.path.lexists(self.pipeline_path):
            raise ConfigError(f"missing {self.pipeline_path}")
        files = {PIPELINE_FILE: _read_config(self.pipeline_path)}
        if os.path.lexists(self.params_path):
            files[PARAMS_FILE] = _read_config(self.params_path)
        key = memo_key(files[PIPELINE_FILE], files.get(PARAMS_FILE))
        try:
            with open_regular(config_memo_path(ObjectStore(self.cache_dir), key)) as handle:
                memo = handle.read()
        except (OSError, StoreError):
            memo = None  # an absent or refused entry is a miss, which `repro` writes anew
        spec, tree, fresh = load_config(files[PIPELINE_FILE], files.get(PARAMS_FILE), memo)
        if record is not None:
            hashes = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
            record.update(hashes=hashes, key=key, fresh=fresh)
        return spec, tree


def _read_config(path: Path) -> bytes:
    """A config file's bytes, read through `open_regular` once its symlinks
    are followed, so a FIFO, a directory or a dangling or looping symlink is
    refused unread."""
    with open_regular(Path(os.path.realpath(path))) as handle:
        return handle.read()


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
    # the stage's own miss reasons (`StageState.reasons`); for a stage whose
    # outs `check_out_parents` refuses, blocked by it, that refusal alone
    reasons: tuple[str, ...] = ()

    @property
    def refused(self) -> bool:
        return self.action == "blocked" and self.reasons == (self.reason,)


class ExecutionPlan(NamedTuple):
    entries: tuple[PlanEntry, ...]


def _load_plan(
    project: Project, opts: ExecOptions, record: dict | None = None
) -> tuple[PipelineSpec, StageGraph, dict[str, dict]]:
    """Load the config (see `Project.load` for `record`) and select the
    params of each planned stage, in order: the targets and their upstream
    closure, or every stage. Fails fast, before anything runs, on an unknown
    target, an unresolvable param, an unknown builtin or a `jobs` below 1."""
    if opts.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {opts.jobs}")
    spec, params = project.load(record)
    graph = build_graph(spec)
    planned = topo_order(graph)
    if opts.targets:
        for target in opts.targets:
            if target not in spec.stages:
                raise ConfigError(f"unknown target stage '{target}'")
        needed = upstream_closure(graph, opts.targets)
        planned = [name for name in planned if name in needed]
    selected: dict[str, dict] = {}  # planned stage -> its param subset
    for name in planned:
        stage = spec.stages[name]
        selected[name] = select_params(params, stage.params, stage=name)
        if stage.builtin is not None:
            builtin_version(stage.builtin)
    return spec, graph, selected


class StageState(NamedTuple):
    """One stage resolved against the lock and the store.

    `want` is the execution the stage is about to run, in the record its
    commit fills in: its `outs` name the declared outs until `commit_outputs`
    replaces them with their records. The fingerprint covers only the out
    names, so `want` and the committed entry derive the same one. Its
    `fingerprint`, and `hit`, are None when a dep is missing. `reasons` say
    why the stage misses the cache; they are empty exactly when `hit` is set.
    """

    want: LockEntry
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
    current: dict,
    lock: LockFile,
    store: ObjectStore,
    root: Path,
    known: Mapping[str, OutRecord],
) -> StageState:
    """The one place dep hashes become a fingerprint and a cache decision;
    each dep is hashed by `dep_hash`. `current` is the stage's param subset,
    as `_load_plan` selects it."""
    found = {dep: dep_hash(store, known, root, dep) for dep in stage.deps}
    found_deps = {dep: ch for dep, ch in found.items() if ch is not None}
    missing = tuple(dep for dep, ch in found.items() if ch is None)
    want = LockEntry(None, stage_kind(stage), found_deps, canonical_json(current), stage.outs)
    hit = None
    if not missing:
        want = want._replace(fingerprint=derive_fingerprint(want))
        hit = cache_lookup(lock, store, stage.name, want.fingerprint)
    state = StageState(want, missing, hit)
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
    if state.want.kind != entry.kind:
        reasons.append("builtin" if stage.builtin is not None else "cmd")
    for dep in stage.deps:
        if dep not in entry.deps:
            reasons.append(f"deps: {dep} (added)")
        elif dep not in state.want.deps:
            reasons.append(f"deps: {dep} (missing)")
        elif state.want.deps[dep] != entry.deps[dep]:
            reasons.append(f"deps: {dep}")
    reasons.extend(f"deps: {dep} (removed)" for dep in entry.deps if dep not in stage.deps)
    try:
        recorded = json.loads(entry.params)
    except (TypeError, ValueError, RecursionError):
        recorded = None
    if not isinstance(recorded, dict):
        reasons.append("params")
    else:
        for key in stage.params:
            if key not in recorded:
                reasons.append(f"params: {key} (added)")
            else:
                reasons.extend(f"params: {p}" for p in _param_diffs(key, recorded[key], current[key]))
        reasons.extend(f"params: {key} (removed)" for key in recorded if key not in stage.params)
    if sorted(stage.outs) != sorted(entry.outs):
        reasons.append("outs")
    if not reasons and state.want.fingerprint == entry.fingerprint:
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
    spec, graph, selected = _load_plan(project, opts)
    producers = graph.producers()
    lock = load_lock(project.lock_path)
    store = ObjectStore(project.cache_dir)
    known: dict[str, OutRecord] = {}  # every out a cached stage will restore
    entries: dict[str, PlanEntry] = {}
    for name, current in selected.items():
        state = resolve_stage(spec.stages[name], current, lock, store, project.root, known)
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
        elif (refusal := _out_refusal(project.root, spec.stages[name])) is not None:
            action, reason = "blocked", refusal
            state = state._replace(reasons=(refusal,))
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


def _out_refusal(root: Path, stage: StageSpec) -> str | None:
    """The refusal `check_out_parents` gives the first out of `stage` it
    refuses, which `repro` would meet restoring or forking the stage; None
    if it refuses none."""
    try:
        for out in stage.outs:
            check_out_parents(root, out)
    except StoreError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Execution


def _stage_failure(
    state: StageState, exit_code: int, root: Path, store: ObjectStore, known: Mapping[str, OutRecord]
) -> str | None:
    """Why a stage that ran must not be committed, or None if it may be; its
    outs are judged by `commit_outputs` alone.

    `known` maps every out this run restored or committed to its record.
    """
    if exit_code != 0:
        return f"command {exit_text(exit_code)}"
    # A stage must not rewrite its own inputs, nor run on a dep whose bytes
    # differ from its recorded hash (a restore from a damaged store object);
    # either would make the recorded fingerprint a lie.
    for dep, before in state.want.deps.items():
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
        for path, hexd in out_files(store, out, rec):  # a file out's own object is checked above
            if hexd != rec.hash and paths_overlap(dep, path) and not store.intact(hexd):
                return hexd
    return None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _preload_next(spec: PipelineSpec, pending: list[str]) -> None:
    """Import the module of the first pending builtin stage while children
    run, so its compile overlaps them instead of delaying its fork. A
    failed import is left for that fork, whose child reports it."""
    builtin = next((spec.stages[n].builtin for n in pending if spec.stages[n].builtin is not None), None)
    if builtin is not None:
        try:
            load_builtin(builtin)
        except (Exception, SystemExit):
            pass


def _make_run_id() -> str:
    now = datetime.now(timezone.utc)
    salt = hashlib.sha256(
        f"{os.getpid()}:{time.perf_counter_ns()}:{os.urandom(8).hex()}".encode()
    ).hexdigest()[:8]
    return now.strftime("%Y%m%dT%H%M%S%fZ") + "-" + salt


def repro(project: Project, opts: ExecOptions = ExecOptions()) -> RunReport:
    """Execute the plan. Raises ConfigError/StoreError for environment-level
    problems; stage failures are reported through the returned RunReport."""
    record: dict = {}  # of the config bytes parsed, not of the files as the run leaves them
    spec, graph, selected = _load_plan(project, opts, record)
    producers = graph.producers()

    run_id = _make_run_id()
    run_logs = project.logs_dir / run_id  # created when the first stage executes

    results: dict[str, StageResult] = {}
    with project_lock(project):
        store = ObjectStore(project.cache_dir)
        if record["fresh"] is not None:  # the config load above parsed YAML
            write_atomic(config_memo_path(store, record["key"]), record["fresh"])
        lock = load_lock(project.lock_path)
        known: dict[str, OutRecord] = {}  # every out restored or committed so far
        pending = list(selected)
        cpus = max(1, _usable_cpus() // opts.jobs)  # each builtin's share, with `jobs` stages at once
        # pid -> (stage, state, start, orchestrator RSS) of every child not yet reaped
        running: dict[int, tuple[StageSpec, StageState, float, int]] = {}

        def reap() -> tuple[StageState, StageResult]:
            """Reap the first running child to exit: its state and its executed result."""
            from .launch import reap_first  # loaded by the fork of every running stage

            pid, wait_status, usage = reap_first(list(running))
            stage, state, started, rss = running.pop(pid)
            return state, StageResult(
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

        try:
            while pending or running:
                # the first pending stage whose producers all have results
                name = next((n for n in pending if all(p in results for p in producers[n])), None)
                if name is None or len(running) >= opts.jobs:
                    # reap: a stage is resolved only once a slot is free to run it
                    if not running:  # pragma: no cover
                        raise StoreError(f"scheduler stalled on stages: {pending}")
                    _preload_next(spec, pending)
                    state, result = reap()
                    try:  # a StoreError here is this stage's fault: a dep or out the store refuses
                        failure = _stage_failure(state, result.exit_code, project.root, store, known)
                        if failure is None:  # the commit also keeps the entry in the run cache
                            entry = commit_outputs(store, state.want, project.root)
                    except StoreError as exc:
                        failure = str(exc)
                    if failure is not None:
                        result = result._replace(action="failed", reason=f"{result.reason}; {failure}")
                    else:
                        known.update(entry.outs)
                        lock[result.stage] = entry
                        write_lock(lock, project.lock_path)
                    results[result.stage] = result
                    continue

                # dispatch: skip, fail on a missing dep, restore, or fork
                pending.remove(name)
                bad = [p for p in producers[name] if results[p].action in ("failed", "skipped")]
                if bad:
                    results[name] = StageResult(name, "skipped", reason=f"upstream failure: {bad[0]}")
                    continue
                stage = spec.stages[name]
                state = resolve_stage(stage, selected[name], lock, store, project.root, known)
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
                            params=selected[name],
                            deps=stage.deps,
                            outs=stage.outs,
                            table_memo=table_memo_dir(project.cache_dir.absolute()),
                            cpus=cpus,
                        )
                    for out in stage.outs:  # each out whose parents the fork makes
                        check_out_parents(project.root, out)
                    from .launch import spawn_stage  # the first fork imports the fork machinery

                    run_logs.mkdir(parents=True, exist_ok=True)
                    started = time.perf_counter()
                    pid, rss = spawn_stage(
                        stage, request, project.root,
                        run_logs / f"{name}.out", run_logs / f"{name}.err",
                    )
                    running[pid] = (stage, state, started, rss)
        except BaseException as exc:
            # an error left these running: let them end, reap them, and commit none
            stopped = f"run stopped by {type(exc).__name__}: {exc}"
            while running:
                result = reap()[1]
                results[result.stage] = result._replace(action="failed", reason=stopped)
            raise
        finally:
            ordered = [results[name] for name in selected if name in results]
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
                "config_hashes": record["hashes"],
            }
            manifest_path = project.runs_dir / f"{run_id}.json"
            write_atomic(manifest_path, canonical_bytes(manifest) + b"\n")
    return RunReport(run_id=run_id, results=ordered, manifest_path=manifest_path)


# ---------------------------------------------------------------------------
# Status and metrics views


class StageStatus(NamedTuple):
    stage: str
    state: str                  # unchanged | changed | never-run | blocked
    reasons: tuple[str, ...] = ()


def status(project: Project) -> list[StageStatus]:
    """Per-stage change report against the lock file (content, never mtimes).

    It reads `plan`'s own reasons for each stage, named against the stage's
    own lock entry: a stage is never reported changed only because an
    upstream stage is. A stage whose outs `repro` would refuse is
    ``blocked``, with the refusal as its reason.
    """
    states = {(): "unchanged", (NEVER_RUN,): "never-run"}
    return [
        StageStatus(e.stage, "blocked" if e.refused else states.get(e.reasons, "changed"), e.reasons)
        for e in plan(project).entries
    ]


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
            if not os.path.lexists(path):
                continue
            with open_regular(path) as handle:
                data = handle.read()
            try:
                doc = json.loads(data.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise ConfigError(f"unparseable metric file {metric}: {exc}") from None
            if not is_flat_scalars(doc):
                raise ConfigError(f"unparseable metric file {metric}: not an object of scalar leaves")
            rows.extend(MetricRow(name, metric, key, value) for key, value in flatten(doc))
    rows.sort(key=lambda r: (r.stage, r.path, r.key))
    return rows
