"""Workloads of the locpipe benchmark: project set-up, one op, and the checks on it.

Every workload drives one locpipe project directory through `locpipe repro`.
A `Session` builds the project from a template and a seed, records the
reference digests of every committed out, and then hands out ops. An op is
planned (untimed: a fresh directory, or a params edit), executed (timed, by
the caller: a fresh CLI process or an in-process traced call), and finished
(untimed: correctness checks and recomputation accounting).

The program sees only the generated `params.yaml`; nothing else about the
seed reaches it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LOCK_FILE = "pipeline.lock.json"
RUNS_DIR = Path(".locpipe") / "runs"


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    factor: int | None   # scale.factor of the scaling template; None for baseline
    mode: str            # cold | force | edit | noop: what each op does, see Session.next_op
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cold-baseline", "baseline", None, "cold",
            why="full run of the 6-stage baseline in a fresh directory; tiny stages, "
                "so fresh-process spawn and imports dominate",
        ),
        Workload(
            "force-scale40", "scaling", 40, "force",
            why="forced run of the scaling template at factor 40 (24k rows); grid search "
                "and the store's write path dominate, spawn is small",
        ),
        Workload(
            "edit-cycle", "baseline", None, "edit",
            why="toggle between two ridge alphas on a warmed baseline; cache hits and "
                "restores beside re-executed gridsearch and report",
        ),
        Workload(
            "noop-scale40", "scaling", 40, "noop",
            why="fully cached factor-40 project; no stage runs, so CLI start-up, "
                "config load, dep hashing and restore dominate",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    synth_seed: int
    split_seed: int
    alphas: tuple[float, float]


def make_inputs(seed: int) -> Inputs:
    """Derive every generated parameter from the workload seed."""
    rng = random.Random(seed)
    synth_seed = rng.randrange(1, 2**31)
    split_seed = rng.randrange(1, 2**31)
    first = round(rng.uniform(0.05, 2.0), 4)
    second = round(first + rng.uniform(0.05, 2.0), 4)
    return Inputs(synth_seed, split_seed, (first, second))


def cli_env() -> dict[str, str]:
    """The caller's environment, with the checkout's sources importable."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def locpipe_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "locpipe", *args]


def repro_argv(force: bool) -> list[str]:
    return locpipe_argv("repro", "--jobs", "1", *(["--force"] if force else []))


def read_lock_stages(project: Path) -> dict:
    path = project / LOCK_FILE
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["stages"]


def committed_outs(lock_stages: dict) -> dict[str, str]:
    """out path -> committed content hash, over every stage of a lock file."""
    return {
        out: rec["hash"]
        for entry in lock_stages.values()
        for out, rec in entry["outs"].items()
    }


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class OpPlan:
    project: Path
    force: bool
    expect_noop: bool
    reference: dict[str, str]   # out path -> expected committed hash


def check_op(plan: OpPlan, exit_code: int, results: list[dict] | None, lock_stages: dict) -> list[str]:
    """Every reason this op failed; an empty list means it was correct."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    if results is None:
        failures.append("no run manifest")
        results = []
    for result in results:
        if result["action"] in ("failed", "skipped"):
            failures.append(f"stage {result['stage']} {result['action']}")
        elif plan.expect_noop and result["action"] == "executed":
            failures.append(f"no-op executed stage {result['stage']}")
    committed = committed_outs(lock_stages)
    for out in sorted(set(committed) | set(plan.reference)):
        if committed.get(out) != plan.reference.get(out):
            failures.append(f"committed out {out} differs from the reference")
    for out, digest in sorted(plan.reference.items()):
        path = plan.project / out
        if not path.is_file() or sha256_file(path) != digest:
            failures.append(f"workspace out {out} differs from the reference")
    return failures


class RecomputeTracker:
    """Counts executed stages whose fingerprint was committed earlier in the
    same project directory (PAPER.md: identical work is never recomputed)."""

    def __init__(self) -> None:
        self._seen: dict[Path, set[str]] = {}

    def observe(self, project: Path, lock_stages: dict, executed: list[str], forced: bool) -> int:
        seen = self._seen.setdefault(project, set())
        recomputed = 0
        if not forced:
            recomputed = sum(
                1 for stage in executed
                if stage in lock_stages and lock_stages[stage]["fingerprint"] in seen
            )
        seen.update(entry["fingerprint"] for entry in lock_stages.values())
        return recomputed


@dataclass
class CliRun:
    wall_s: float
    cpu_s: float
    peak_rss_bytes: int
    exit_code: int
    results: list[dict] | None


def run_cli(project: Path, force: bool, stderr_path: Path) -> CliRun:
    """One `locpipe repro` as a fresh process, with its CPU and peak RSS.

    CPU is the RUSAGE_CHILDREN delta around the op, which covers the CLI
    process and every stage child it reaped. Peak RSS is the larger of the
    CLI's own (from wait4) and each stage's, from the run manifest.
    """
    runs_dir = project / RUNS_DIR
    before = set(os.listdir(runs_dir)) if runs_dir.is_dir() else set()
    usage_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            repro_argv(force), cwd=project, env=cli_env(),
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    usage_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (usage_after.ru_utime + usage_after.ru_stime) - (usage_before.ru_utime + usage_before.ru_stime)
    rss_scale = 1 if sys.platform == "darwin" else 1024
    peak = usage.ru_maxrss * rss_scale

    new = sorted(set(os.listdir(runs_dir)) - before) if runs_dir.is_dir() else []
    results = None
    if new:
        manifest = json.loads((runs_dir / new[-1]).read_text(encoding="utf-8"))
        results = manifest["results"]
        peak = max([peak, *(r["peak_rss_bytes"] for r in results)])
    return CliRun(wall_s, cpu_s, peak, proc.returncode, results)


class SetupError(RuntimeError):
    pass


@dataclass
class Session:
    """One workload's project state: set up once or more, then driven op by op."""

    workload: Workload
    inputs: Inputs
    work_dir: Path
    tracker: RecomputeTracker = field(default_factory=RecomputeTracker)
    project: Path | None = None
    references: dict[object, dict[str, str]] = field(default_factory=dict)
    consistent: bool = True     # every repeated set-up reproduced the first one's digests
    _params: dict = field(default_factory=dict)
    _setups: int = 0
    _ops: int = 0

    @property
    def stderr_path(self) -> Path:
        return self.work_dir / "cli.err"

    def _write_params(self, project: Path, alpha: float | None = None) -> None:
        if alpha is not None:
            self._params["model"]["grid"]["ridge"]["alpha"] = [alpha]
        (project / "params.yaml").write_text(
            yaml.safe_dump(self._params, sort_keys=False), encoding="utf-8"
        )

    def _scaffold(self, dest: Path) -> None:
        subprocess.run(
            locpipe_argv("init", str(dest), "--template", self.workload.template),
            env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
        )
        params = yaml.safe_load((dest / "params.yaml").read_text(encoding="utf-8"))
        params["synth"]["seed"] = self.inputs.synth_seed
        params["split"]["seed"] = self.inputs.split_seed
        if self.workload.factor is not None:
            params["scale"]["factor"] = self.workload.factor
        self._params = params
        self._write_params(dest)

    def _setup_run(self, project: Path, key: object) -> None:
        run = run_cli(project, force=False, stderr_path=self.stderr_path)
        bad = [r for r in run.results or [] if r["action"] in ("failed", "skipped")]
        if run.exit_code != 0 or run.results is None or bad:
            detail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise SetupError(f"{self.workload.name}: set-up repro failed ({run.exit_code}): {detail}")
        lock = read_lock_stages(project)
        self.tracker.observe(
            project, lock, [r["stage"] for r in run.results if r["action"] == "executed"], False,
        )
        outs = committed_outs(lock)
        if key in self.references and self.references[key] != outs:
            self.consistent = False
        self.references.setdefault(key, outs)

    def setup(self) -> float:
        """Build the state the ops start from; returns its wall time.

        Repeating it starts over in a new directory; the last one is kept.
        """
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if self.project is not None:
            shutil.rmtree(self.project)
        self._setups += 1
        project = self.work_dir / f"setup-{self._setups}"
        start = time.perf_counter()
        self._scaffold(project)
        if self.workload.mode == "cold":
            ref = self.work_dir / "reference"
            shutil.copytree(project, ref)
            self._setup_run(ref, None)
            shutil.rmtree(ref)
        elif self.workload.mode == "edit":
            for alpha in self.inputs.alphas:
                self._write_params(project, alpha)
                self._setup_run(project, alpha)
        else:
            self._setup_run(project, None)
        elapsed = time.perf_counter() - start
        self.project = project
        return elapsed

    def next_op(self) -> OpPlan:
        """Untimed preparation of the next op.

        cold: a fresh directory holding only the generated config files;
        edit: params.yaml switched to the other alpha; force and noop: the
        project as the previous op left it.
        """
        index = self._ops
        self._ops += 1
        project = self.project
        key = None
        if self.workload.mode == "cold":
            project = self.work_dir / f"op-{index}"
            project.mkdir()
            for name in ("pipeline.yaml", "params.yaml"):
                shutil.copyfile(self.project / name, project / name)
        elif self.workload.mode == "edit":
            # set-up left the second alpha in place, so op 0 returns to the first
            key = self.inputs.alphas[index % 2]
            self._write_params(project, key)
        return OpPlan(
            project=project,
            force=self.workload.mode == "force",
            expect_noop=self.workload.mode == "noop",
            reference=self.references[key],
        )

    def finish_op(self, plan: OpPlan, exit_code: int, results: list[dict] | None) -> tuple[list[str], int]:
        """Untimed checks after an op: (failure reasons, recomputed stages)."""
        lock = read_lock_stages(plan.project)
        failures = check_op(plan, exit_code, results, lock)
        executed = [r["stage"] for r in results or [] if r["action"] == "executed"]
        recomputed = self.tracker.observe(plan.project, lock, executed, plan.force)
        if self.workload.mode == "cold":
            shutil.rmtree(plan.project)
        return failures, recomputed

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
