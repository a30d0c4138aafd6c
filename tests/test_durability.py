"""Durable writes: every file locpipe writes itself goes through
`store.write_atomic`, a process killed at any of its renames leaves nothing
that `status`, `gc` and the next `repro` cannot handle, and a file that is
not a regular one (a FIFO) is refused by name instead of blocking a read."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from locpipe import cli, runner, store
from locpipe.store import TMP_PREFIX, ObjectStore, gc, load_lock, write_atomic

from conftest import run, write_params, write_pipeline
from test_golden import GOLDEN

SRC = Path(runner.__file__).resolve().parents[1]


def temp_files(root: Path) -> list[Path]:
    return sorted(path for path in root.rglob(TMP_PREFIX + "*"))


# ---------------------------------------------------------------------------
# The one writer


def test_os_replace_is_called_by_write_atomic_alone():
    sources = {path: path.read_text() for path in SRC.joinpath("locpipe").rglob("*.py")}
    callers = [path.name for path, text in sources.items() if "os.replace(" in text]
    assert callers == ["store.py"]
    assert sources[SRC / "locpipe" / "store.py"].count("os.replace(") == 1


def test_failed_write_leaves_old_bytes_and_no_temp(tmp_path):
    dest = tmp_path / "f.json"
    write_atomic(dest, b"old")

    def chunks():
        yield b"new, partly"
        raise OSError("disk gone")

    with pytest.raises(OSError, match="disk gone"):
        write_atomic(dest, chunks())
    assert dest.read_bytes() == b"old"
    assert temp_files(tmp_path) == []


def test_destination_known_after_the_write(tmp_path):
    digest = hashlib.sha256()

    def chunks():
        for chunk in (b"x", b"y"):
            digest.update(chunk)
            yield chunk

    write_atomic(lambda: tmp_path / "a" / digest.hexdigest(), chunks(), tmp_path / "tmp")
    assert (tmp_path / "a" / hashlib.sha256(b"xy").hexdigest()).read_bytes() == b"xy"
    assert list((tmp_path / "tmp").iterdir()) == []


def test_gc_sweeps_temps_wherever_a_write_can_leave_them(make_project):
    project = make_project("baseline")
    assert run(project).failed == 0
    lock = load_lock(project.lock_path)
    planted = [
        project.root / f"{TMP_PREFIX}1-lock",
        project.runs_dir / f"{TMP_PREFIX}1-manifest",
        project.root / "data" / f"{TMP_PREFIX}1-restore",
        project.root / "report" / f"{TMP_PREFIX}1-restore",
        project.cache_dir / "tmp" / f"{TMP_PREFIX}1-object",
    ]
    for path in planted:
        path.write_bytes(b"killed mid-write")
    kept = project.root / "data" / "not-a-temp.txt"
    kept.write_bytes(b"user file")

    gc(lock, ObjectStore(project.cache_dir), project.config_key(), project)

    assert temp_files(project.root) == []
    assert kept.exists()


def test_gc_sweeps_temps_inside_tree_outs(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    write_pipeline(root, {"emit": {"cmd": "mkdir -p d/e && echo 1 > d/e/a", "outs": ["d"]}})
    write_params(root, {})
    project = runner.Project(root=root)
    assert run(project).executed == 1
    leftover = root / "d" / "e" / f"{TMP_PREFIX}1-restore"
    leftover.write_bytes(b"partial")
    gc(load_lock(project.lock_path), ObjectStore(project.cache_dir), project=project)
    assert not leftover.exists()
    assert (root / "d" / "e" / "a").exists()


# ---------------------------------------------------------------------------
# Crash injection: SIGKILL at the rename of each kind of durable write


def _site(project: runner.Project, name: str):
    """Whether a rename onto `dest` is a write of kind `name`."""
    cache = project.cache_dir.absolute()
    return {
        "object": lambda dest: cache / "sha256" in dest.parents,
        "run-cache entry": lambda dest: dest.parent == cache / "runcache",
        "config-memo entry": lambda dest: dest.parent == cache / "config",
        "table-memo entry": lambda dest: cache / "tables" in dest.parents,
        "restore": lambda dest: dest == project.root / "data" / "features.csv",
        "lock": lambda dest: dest == project.lock_path,
        "manifest": lambda dest: dest.parent == project.runs_dir,
    }[name]


def _repro_killed_at(project: runner.Project, name: str) -> int:
    """Run `repro` in a forked child whose first rename onto a write of kind
    `name` SIGKILLs the process doing it; returns the child's wait status."""
    hit = _site(project, name)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        code = 70
        try:
            replace = os.replace

            def killing_replace(src, dst):
                if hit(Path(dst).absolute()):
                    os.kill(os.getpid(), signal.SIGKILL)
                replace(src, dst)

            store.os.replace = killing_replace
            code = runner.repro(project).exit_code
        finally:
            os._exit(code)
    return os.waitpid(pid, 0)[1]


@pytest.mark.parametrize("site", [
    "object", "run-cache entry", "config-memo entry", "table-memo entry", "restore", "lock", "manifest",
])
def test_kill_at_each_durable_write_is_recovered(make_project, monkeypatch, capsys, site):
    project = make_project("baseline")
    if site == "restore":
        assert run(project).failed == 0
        (project.root / "data" / "features.csv").unlink()
    wait_status = _repro_killed_at(project, site)
    if site == "table-memo entry":  # the stage child was killed: that stage fails
        assert os.waitstatus_to_exitcode(wait_status) == 1
    else:
        assert os.WIFSIGNALED(wait_status) and os.WTERMSIG(wait_status) == signal.SIGKILL
    assert temp_files(project.root), "the kill left no temp file"

    monkeypatch.chdir(project.root)
    assert cli.main(["status"]) == 0
    assert cli.main(["gc"]) == 0
    tmp_dir = project.cache_dir / "tmp"
    assert not tmp_dir.exists() or list(tmp_dir.iterdir()) == []
    assert temp_files(project.root) == []
    for manifest in project.runs_dir.glob("*"):
        json.loads(manifest.read_bytes())

    capsys.readouterr()
    assert cli.main(["repro"]) == 0, capsys.readouterr()
    outs = [out for entry in load_lock(project.lock_path).values() for out in entry.outs]
    digests = {out: hashlib.sha256((project.root / out).read_bytes()).hexdigest() for out in outs}
    assert digests == GOLDEN["baseline"]


# ---------------------------------------------------------------------------
# A FIFO among the deps or outs is refused, never read


def _locpipe(root: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess, so that a read blocking on a FIFO fails
    the test instead of hanging it."""
    return subprocess.run(
        [sys.executable, "-m", "locpipe", *args], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )


def test_fifo_in_a_source_dep_directory_is_a_store_error(tmp_path):
    root = tmp_path / "proj"
    (root / "src").mkdir(parents=True)
    (root / "src" / "a.txt").write_text("a\n")
    os.mkfifo(root / "src" / "p")
    write_pipeline(root, {"cat": {"cmd": "cat src/a.txt > o.txt", "deps": ["src"], "outs": ["o.txt"]}})
    write_params(root, {})
    for command in ("status", "repro"):
        proc = _locpipe(root, command)
        assert proc.returncode == 3, proc
        assert f"not a regular file: {root / 'src' / 'p'}" in proc.stderr


@pytest.mark.parametrize("cmd, out, refusal", [
    ("mkdir outdir && echo x > outdir/a && mkfifo outdir/p", "outdir",
     "declared out outdir refused: not a regular file: {root}/outdir/p"),
    ("mkfifo o", "o", "declared out o refused: not a regular file: {root}/o"),
    (f"{sys.executable} -c 'import socket; socket.socket(socket.AF_UNIX).bind(\"o\")'", "o",
     "declared out o refused: not a regular file: {root}/o"),
])
def test_fifo_or_socket_out_fails_only_its_stage(tmp_path, cmd, out, refusal):
    root = tmp_path / "proj"
    root.mkdir()
    write_pipeline(root, {
        "make": {"cmd": cmd, "outs": [out]},
        "other": {"cmd": "echo ok > other.txt", "outs": ["other.txt"]},
    })
    write_params(root, {})
    proc = _locpipe(root, "repro")
    assert proc.returncode == 1, proc
    refusal = refusal.format(root=root)
    assert f"make: failed (never run; {refusal})\n" in proc.stdout
    [manifest] = (root / ".locpipe" / "runs").iterdir()
    results = {r["stage"]: r["action"] for r in json.loads(manifest.read_bytes())["results"]}
    assert results == {"make": "failed", "other": "executed"}
