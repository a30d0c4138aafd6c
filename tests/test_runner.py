"""Orchestrator behavior on small hand-built pipelines (real child processes)."""

import errno
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from pathlib import Path

import pytest

from conftest import edit_params, executed_stages, run, tree_snapshot, write_params, write_pipeline
from locpipe import cli, launch, loctk, runner
from locpipe.configmodel import StageSpec
from locpipe.errors import ConfigError
from locpipe.graph import build_graph, upstream_closure
from locpipe.runner import ExecOptions, Project, metrics_show, plan, repro, status
from locpipe.store import TMP_PREFIX, ObjectStore, load_lock
from locpipe.templates import init_experiment
from test_store import _listing


@pytest.fixture
def shell_project(tmp_path):
    """Three-stage shell pipeline: generate -> transform -> summarize."""
    root = tmp_path / "proj"
    root.mkdir()
    (root / "seed.txt").write_text("alpha\n")
    write_pipeline(root, {
        "generate": {
            "cmd": "cat seed.txt seed.txt > gen.txt",
            "deps": ["seed.txt"],
            "outs": ["gen.txt"],
        },
        "transform": {
            "cmd": "tr a-z A-Z < gen.txt > upper.txt",
            "deps": ["gen.txt"],
            "outs": ["upper.txt"],
        },
        "summarize": {
            "cmd": "wc -l < upper.txt > count.txt",
            "deps": ["upper.txt"],
            "outs": ["count.txt"],
        },
    })
    write_params(root, {})
    return Project(root=root)


class TestRepro:
    def test_fresh_run_executes_all(self, shell_project):
        report = run(shell_project)
        assert report.executed == 3 and report.failed == 0
        assert report.exit_code == 0
        assert (shell_project.root / "count.txt").read_text().strip() == "2"
        lock = load_lock(shell_project.lock_path)
        assert set(lock) == {"generate", "transform", "summarize"}

    def test_second_run_all_cached(self, shell_project):
        run(shell_project)
        report = run(shell_project)
        assert report.executed == 0 and report.cached == 3

    def test_noop_run_adds_no_log_directory(self, shell_project):
        first = run(shell_project)
        logs = sorted(p.name for p in shell_project.logs_dir.iterdir())
        assert logs == [first.run_id]
        second = run(shell_project)
        assert second.executed == 0
        assert sorted(p.name for p in shell_project.logs_dir.iterdir()) == logs

    def test_cached_stage_restores_deleted_outs(self, shell_project):
        run(shell_project)
        (shell_project.root / "upper.txt").unlink()
        report = run(shell_project)
        assert report.executed == 0
        assert (shell_project.root / "upper.txt").read_text() == "ALPHA\nALPHA\n"

    def test_content_change_propagates_downstream(self, shell_project):
        run(shell_project)
        (shell_project.root / "seed.txt").write_text("beta\ngamma\n")
        report = run(shell_project)
        assert executed_stages(report) == {"generate", "transform", "summarize"}
        assert (shell_project.root / "count.txt").read_text().strip() == "4"

    def test_touch_without_byte_change_stays_cached(self, shell_project):
        run(shell_project)
        seed = shell_project.root / "seed.txt"
        seed.write_text(seed.read_text())  # rewrite identical bytes
        os.utime(seed, (time.time() + 100, time.time() + 100))
        report = run(shell_project)
        assert report.executed == 0 and report.cached == 3

    def test_force_reruns_everything(self, shell_project):
        run(shell_project)
        report = run(shell_project, force=True)
        assert report.executed == 3

    def test_identical_regenerated_upstream_keeps_downstream_cached(self, shell_project):
        run(shell_project)
        # force only the first stage: it regenerates identical bytes, so
        # downstream stages must still be served from cache
        report = run(shell_project, targets=("generate",), force=True)
        assert executed_stages(report) == {"generate"}
        report = run(shell_project)
        assert report.executed == 0

    def test_targets_limit_plan(self, shell_project):
        report = run(shell_project, targets=("transform",))
        assert {r.stage for r in report.results} == {"generate", "transform"}

    def test_unknown_target(self, shell_project):
        with pytest.raises(ConfigError, match="unknown target"):
            run(shell_project, targets=("nope",))

    def test_failing_stage_skips_dependents(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "boom": {"cmd": "exit 3", "outs": ["never.txt"]},
            "after": {"cmd": "cat never.txt > out.txt", "deps": ["never.txt"], "outs": ["out.txt"]},
        })
        write_params(root, {})
        report = run(Project(root=root))
        by_stage = {r.stage: r for r in report.results}
        assert by_stage["boom"].action == "failed"
        assert by_stage["boom"].exit_code == 3
        assert by_stage["after"].action == "skipped"
        assert report.exit_code == 1
        assert "boom" not in load_lock(Project(root=root).lock_path)

    def test_failure_keeps_independent_stages_running(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "bad": {"cmd": "false", "outs": ["a.txt"]},
            "good": {"cmd": "echo ok > b.txt", "outs": ["b.txt"]},
        })
        write_params(root, {})
        report = run(Project(root=root))
        by_stage = {r.stage: r.action for r in report.results}
        assert by_stage == {"bad": "failed", "good": "executed"}

    def test_missing_declared_out_fails(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {"ghost": {"cmd": "echo hi", "outs": ["missing.txt"]}})
        write_params(root, {})
        report = run(Project(root=root))
        assert report.results[0].action == "failed"
        assert "missing.txt" in report.results[0].reason

    def test_missing_source_dep_fails_with_diagnostic(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "needs": {"cmd": "cat absent.csv > out.txt", "deps": ["absent.csv"], "outs": ["out.txt"]},
        })
        write_params(root, {})
        report = run(Project(root=root))
        assert report.results[0].action == "failed"
        assert "absent.csv" in report.results[0].reason

    def test_stage_modifying_own_dep_fails(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "input.txt").write_text("original")
        write_pipeline(root, {
            "selfish": {
                "cmd": "echo mutated > input.txt && echo out > out.txt",
                "deps": ["input.txt"],
                "outs": ["out.txt"],
            },
        })
        write_params(root, {})
        report = run(Project(root=root))
        assert report.results[0].action == "failed"
        assert "modified its own dependency" in report.results[0].reason

    def test_manifest_written_even_on_failure(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {"bad": {"cmd": "false", "outs": ["x"]}})
        write_params(root, {})
        report = run(Project(root=root))
        assert report.manifest_path is not None and report.manifest_path.exists()
        doc = json.loads(report.manifest_path.read_text())
        assert doc["results"][0]["action"] == "failed"
        assert doc["tool_version"]
        assert set(doc["config_hashes"]) == {"pipeline.yaml", "params.yaml"}

    def test_manifest_hashes_the_config_bytes_parsed(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "edit": {"cmd": "echo '# edited' >> params.yaml && echo x > o.txt", "outs": ["o.txt"]},
        })
        write_params(root, {"knob": 1})
        parsed = {
            name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in ("pipeline.yaml", "params.yaml")
        }
        report = run(Project(root=root))
        assert report.executed == 1
        assert hashlib.sha256((root / "params.yaml").read_bytes()).hexdigest() != parsed["params.yaml"]
        assert json.loads(report.manifest_path.read_text())["config_hashes"] == parsed

    def test_param_fingerprinting(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "emit": {
                "cmd": "echo done > out.txt",
                "params": ["knob.value"],
                "outs": ["out.txt"],
            },
        })
        write_params(root, {"knob": {"value": 1}})
        project = Project(root=root)
        run(project)
        assert run(project).cached == 1
        edit_params(project, "knob.value", 2)
        assert run(project).executed == 1
        # reformatting without value change keeps the cache hit
        project.params_path.write_text("knob: {value: 2}\n")
        assert run(project).cached == 1

    def test_unresolvable_param_is_config_error(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "emit": {"cmd": "echo x > o", "params": ["missing.key"], "outs": ["o"]},
        })
        write_params(root, {})
        with pytest.raises(ConfigError, match="missing.key"):
            run(Project(root=root))


class TestProcessIsolation:
    def test_distinct_process_ids(self, shell_project):
        report = run(shell_project)
        pids = [r.pid for r in report.results if r.action == "executed"]
        assert len(pids) == 3
        assert len(set(pids)) == 3

    def test_sleep_wall_vs_cpu(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "nap": {"cmd": "sleep 1 && echo ok > out.txt", "outs": ["out.txt"]},
        })
        write_params(root, {})
        result = run(Project(root=root)).results[0]
        assert result.wall_s >= 1.0
        assert result.cpu_s < result.wall_s / 2

    def test_spin_cpu_accounting(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        spin = (
            # spins until it has burnt 1.5 core-s itself, however long a
            # loaded host makes that take
            "python3 -c 'import time; "
            'exec("while time.process_time()<1.5: pass")\' '
            "&& echo done > spin.txt"
        )
        write_pipeline(root, {"spin": {"cmd": spin, "outs": ["spin.txt"]}})
        write_params(root, {})
        result = run(Project(root=root)).results[0]
        assert result.action == "executed"
        # the child's own 1.5 core-s plus its shell's and its start-up's
        # (child-process accounting)
        assert abs(result.cpu_s - 1.5) <= 0.3, (
            f"child CPU {result.cpu_s:.3f} core-s over {result.wall_s:.3f}s wall, "
            "bound 1.5 +/- 0.3 core-s"
        )
        assert result.peak_rss_bytes > 0

    def test_undeclared_env_invisible_declared_passthrough_visible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOCPIPE_SECRET_PROBE", "boo")
        monkeypatch.setenv("LOCPIPE_ALLOWED", "fine")
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "probe": {
                "cmd": "env | sort > env.txt",
                "outs": ["env.txt"],
                "env": ["LOCPIPE_ALLOWED"],
            },
        })
        write_params(root, {})
        report = run(Project(root=root))
        assert report.executed == 1
        text = (root / "env.txt").read_text()
        assert "LOCPIPE_SECRET_PROBE" not in text
        assert "LOCPIPE_ALLOWED=fine" in text
        assert "PATH=" in text

    def test_stage_logs_captured(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "noisy": {"cmd": "echo to-stdout && echo to-stderr >&2 && echo x > o.txt", "outs": ["o.txt"]},
        })
        write_params(root, {})
        report = run(Project(root=root))
        result = report.results[0]
        assert (root / result.log_out).read_text() == "to-stdout\n"
        assert (root / result.log_err).read_text() == "to-stderr\n"

    def test_noop_leaves_correct_outs_untouched(self, shell_project):
        run(shell_project)
        outs = ["gen.txt", "upper.txt", "count.txt"]
        before = {out: (shell_project.root / out).stat() for out in outs}
        assert run(shell_project).cached == 3
        for out in outs:
            after = (shell_project.root / out).stat()
            assert (after.st_ino, after.st_mtime_ns) == (before[out].st_ino, before[out].st_mtime_ns)


# a module global a probe stage may set; each stage's child has its own copy
_PROBE_GLOBAL: list[str] = []


def _open_fds() -> list[int]:
    fds = []
    for fd in range(256):
        try:
            os.fstat(fd)
        except OSError:
            continue
        fds.append(fd)
    return fds


def _raise_runtime_error(request):
    raise RuntimeError("probe fault")


@pytest.fixture
def probe(monkeypatch, tmp_path):
    """Register the builtin `test.probe` and return (root, actions, make).

    `actions[stage]` is called with the stage's StageRequest in its child,
    which inherits the registration and the functions through fork.
    `make(stages)` writes a pipeline of probe stages, name -> extra fields.
    """
    actions: dict = {}
    module = types.ModuleType("locpipe_test_probe")
    module.run = lambda request: actions[request.stage](request)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(loctk._REGISTRY, "test.probe", module.__name__)
    root = tmp_path / "probe"
    root.mkdir()

    def make(stages: dict) -> Project:
        write_pipeline(root, {name: {"builtin": "test.probe", **body} for name, body in stages.items()})
        write_params(root, {})
        return Project(root=root)

    return root, actions, make


class TestForkedStages:
    """Each stage runs in a child forked from the single-threaded scheduler."""

    def test_module_global_unseen_by_next_stage(self, probe):
        root, actions, make = probe

        def first(request):
            _PROBE_GLOBAL.append("first")
            request.out(0, "seen").write_text(json.dumps(_PROBE_GLOBAL))

        def second(request):
            request.out(0, "seen").write_text(json.dumps(_PROBE_GLOBAL))

        actions.update(first=first, second=second)
        project = make({
            "first": {"outs": ["first.json"]},
            "second": {"deps": ["first.json"], "outs": ["second.json"]},
        })
        assert run(project).executed == 2
        assert json.loads((root / "first.json").read_text()) == ["first"]
        assert json.loads((root / "second.json").read_text()) == []
        assert _PROBE_GLOBAL == []

    def test_environment_is_allowlist_plus_declared(self, probe, monkeypatch):
        root, actions, make = probe
        monkeypatch.setenv("LOCPIPE_DECLARED", "yes")
        monkeypatch.setenv("LOCPIPE_UNDECLARED", "no")
        actions["env"] = lambda request: request.out(0, "env").write_text(json.dumps(dict(os.environ)))
        project = make({"env": {"outs": ["env.json"], "env": ["LOCPIPE_DECLARED"]}})
        assert run(project).executed == 1
        expected = {
            key: os.environ[key]
            for key in (*launch.ENV_ALLOWLIST, "LOCPIPE_DECLARED") if key in os.environ
        }
        assert json.loads((root / "env.json").read_text()) == expected

    @pytest.mark.skipif(sys.platform != "linux", reason="fd layout checked on Linux")
    def test_only_standard_fds_open(self, probe):
        root, actions, make = probe

        def fds(request):
            found = _open_fds()  # before the out file takes an fd of its own
            request.out(0, "fds").write_text(json.dumps(found))

        actions["fds"] = fds
        project = make({"fds": {"outs": ["fds.json"]}})
        assert run(project).executed == 1
        stdin = [0] if 0 in _open_fds() else []
        assert json.loads((root / "fds.json").read_text()) == [*stdin, 1, 2]

    def test_builtin_module_global_unseen_by_next_stage(self, probe):
        root, actions, make = probe
        module = loctk.load_builtin("test.probe")
        module.calls = []  # the value the orchestrator's copy of the module holds

        def record(request):
            module.calls.append(request.stage)
            request.out(0, "calls").write_text(json.dumps(module.calls))

        actions.update(a=record, b=record)
        project = make({
            "a": {"outs": ["a.json"]},
            "b": {"deps": ["a.json"], "outs": ["b.json"]},
        })
        assert run(project).executed == 2
        assert json.loads((root / "a.json").read_text()) == ["a"]
        assert json.loads((root / "b.json").read_text()) == ["b"]
        assert module.calls == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_heap_frozen_in_the_child_only(self, probe, enabled):
        root, actions, make = probe
        actions["s"] = lambda request: request.out(0, "frozen").write_text(str(gc.get_freeze_count()))
        stage = StageSpec("s", builtin="test.probe", outs=("s.txt",))
        request = loctk.StageRequest(stage="s", builtin="test.probe", outs=("s.txt",))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            pid, _ = launch.spawn_stage(stage, request, root, root / "s.out", root / "s.err")
            assert (gc.get_freeze_count(), gc.isenabled()) == (0, enabled)
        finally:
            (gc.enable if was_enabled else gc.disable)()
        _, status, _ = launch.reap_first([pid])
        assert os.waitstatus_to_exitcode(status) == 0, (root / "s.err").read_text()
        assert int((root / "s.txt").read_text()) > 0

    @pytest.mark.parametrize("fault, expected", [
        (_raise_runtime_error, "RuntimeError: probe fault"),
        (lambda request: sys.exit(3), "SystemExit: 3"),
    ], ids=["raises", "sys-exit"])
    def test_failing_builtin_fails_only_its_stage(self, probe, fault, expected):
        root, actions, make = probe
        actions["bad"] = fault
        actions["good"] = lambda request: request.out(0, "ok").write_text("ok")
        project = make({"bad": {"outs": ["bad.txt"]}, "good": {"outs": ["good.txt"]}})
        orchestrator = os.getpid()
        report = run(project)
        assert os.getpid() == orchestrator
        bad, good = report.results
        assert (bad.action, bad.exit_code) == ("failed", 1)
        err = (root / bad.log_err).read_text()
        assert "Traceback (most recent call last)" in err and expected in err
        assert good.action == "executed" and (root / "good.txt").read_text() == "ok"

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_every_fork_from_a_single_thread(self, tmp_path, monkeypatch, jobs):
        root = tmp_path / "proj"
        root.mkdir()
        stages = {f"w{i}": {"cmd": f"echo {i} > w{i}.txt", "outs": [f"w{i}.txt"]} for i in range(4)}
        stages["join"] = {
            "cmd": "cat w0.txt w1.txt w2.txt w3.txt > all.txt",
            "deps": [f"w{i}.txt" for i in range(4)],
            "outs": ["all.txt"],
        }
        write_pipeline(root, stages)
        write_params(root, {})
        threads_at_fork = []
        real_fork = os.fork

        def fork():
            threads_at_fork.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        assert run(Project(root=root), jobs=jobs).executed == 5
        assert threads_at_fork == [1] * 5

    def test_unflushed_stdout_never_reaches_a_stage_log(self, probe, monkeypatch):
        root, actions, make = probe
        actions["talk"] = lambda request: (print("from-builtin"), request.out(0, "o").write_text("x"))
        make({"talk": {"outs": ["talk.txt"]}})
        write_pipeline(root, {
            "talk": {"builtin": "test.probe", "outs": ["talk.txt"]},
            "shell": {"cmd": "echo from-shell > shell.txt", "outs": ["shell.txt"]},
        })
        project = Project(root=root)
        # a block-buffered stdout on fd 1, as the CLI has when piped to a file
        with open(1, "w", buffering=1 << 16, closefd=False) as parent_stdout, monkeypatch.context() as m:
            m.setattr(sys, "stdout", parent_stdout)
            sys.stdout.write("UNFLUSHED-MARKER")
            report = run(project)
        assert report.executed == 2
        logs = {
            path: (root / path).read_text()
            for result in report.results for path in (result.log_out, result.log_err)
        }
        assert not any("UNFLUSHED-MARKER" in text for text in logs.values())
        talk = report.results[[r.stage for r in report.results].index("talk")]
        assert logs[talk.log_out] == "from-builtin\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_manifest_records_orchestrator_rss_at_fork(self, shell_project):
        executed = json.loads(run(shell_project).manifest_path.read_text())["results"]
        assert [r["action"] for r in executed] == ["executed"] * 3
        for result in executed:
            assert result["orchestrator_rss_bytes"] > 0
            assert result["orchestrator_rss_bytes"] % os.sysconf("SC_PAGE_SIZE") == 0
        cached = json.loads(run(shell_project).manifest_path.read_text())["results"]
        assert [r["action"] for r in cached] == ["cached"] * 3
        assert not any("orchestrator_rss_bytes" in r for r in cached)

    def test_orchestrator_rss_zero_without_statm(self, shell_project, monkeypatch):
        real_open = open

        def no_statm(path, *args, **kwargs):
            if path == "/proc/self/statm":
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", no_statm)
        report = run(shell_project)
        assert [r.orchestrator_rss_bytes for r in report.results] == [0, 0, 0]


class TestLaunchBoundary:
    def test_launcher_imports_no_store_graph_or_runner(self):
        code = (
            "import sys, locpipe.launch; "
            "print(sorted({'locpipe.store', 'locpipe.graph', 'locpipe.runner'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_locpipe_env(SRC), capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert proc.stdout == "[]\n"


class TestSignalledStage:
    def test_a_stage_killed_by_a_signal_names_the_signal(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {"boom": {"cmd": "kill -9 $$", "outs": ["boom.txt"]}})
        write_params(root, {})
        monkeypatch.chdir(root)
        assert cli.main(["repro"]) == 1
        assert "boom: failed (never run; command was killed by signal SIGKILL)\n" in capsys.readouterr().out
        [manifest] = (root / ".locpipe" / "runs").iterdir()
        [result] = json.loads(manifest.read_bytes())["results"]
        assert (result["action"], result["exit_code"]) == ("failed", -9)


def _raise_runtime_error():
    raise RuntimeError("boom")


class TestForkChild:
    """`loctk.fork_child`, the one fork of stage children and CV workers."""

    @staticmethod
    def forked(body, tmp_path, written: str = "") -> tuple[int, str, str]:
        """Write `written` to a file as `sys.stdout`, unflushed, then fork `body`
        with `sys.stderr` on another file and reap it: (its exit code, the
        text of each file)."""
        saved = sys.stdout, sys.stderr
        try:
            with open(tmp_path / "out.txt", "w") as sys.stdout, open(tmp_path / "err.txt", "w") as sys.stderr:
                sys.stdout.write(written)
                _, status = os.waitpid(loctk.fork_child(body), 0)
        finally:
            sys.stdout, sys.stderr = saved
        return os.waitstatus_to_exitcode(status), (tmp_path / "out.txt").read_text(), (tmp_path / "err.txt").read_text()

    def test_a_body_that_returns_exits_0(self, tmp_path):
        assert self.forked(lambda: print("done"), tmp_path) == (0, "done\n", "")

    def test_a_locpipe_error_is_one_error_line(self, tmp_path):
        def body():
            raise ConfigError("bad knob")

        assert self.forked(body, tmp_path) == (1, "", "error: bad knob\n")

    @pytest.mark.parametrize("body, last_line", [
        (_raise_runtime_error, "RuntimeError: boom"),
        (lambda: sys.exit(0), "SystemExit: 0"),
    ], ids=["runtime-error", "sys-exit-0"])
    def test_any_other_exception_is_a_traceback(self, body, last_line, tmp_path):
        code, out, err = self.forked(body, tmp_path)
        assert (code, out) == (1, "")
        assert err.startswith("Traceback (most recent call last)") and err.splitlines()[-1] == last_line

    def test_unflushed_caller_text_appears_once(self, tmp_path):
        assert self.forked(lambda: None, tmp_path, written="once\n") == (0, "once\n", "")

    def test_an_unfrozen_caller_is_unfrozen_after(self, tmp_path):
        def body():  # the child stays frozen
            if gc.get_freeze_count() == 0:
                raise RuntimeError("the child is not frozen")

        assert gc.get_freeze_count() == 0
        assert self.forked(body, tmp_path) == (0, "", "")
        assert gc.get_freeze_count() == 0

    def test_a_frozen_caller_stays_frozen(self, tmp_path):
        gc.freeze()
        try:
            assert self.forked(lambda: None, tmp_path) == (0, "", "")
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


@pytest.fixture(params=[
    ('raise RuntimeError("broken at import")\n', "RuntimeError: broken at import"),
    ("import sys\nsys.exit(3)\n", "SystemExit: 3"),
], ids=["raises", "sys-exit"])
def broken_builtin(request, monkeypatch, tmp_path):
    """Register the builtin `test.broken`, whose module fails at import, and
    return the last line of that failure's traceback."""
    source, expected = request.param
    modules = tmp_path / "modules"
    modules.mkdir()
    (modules / "locpipe_test_broken.py").write_text(source)
    monkeypatch.syspath_prepend(str(modules))
    monkeypatch.setitem(loctk._REGISTRY, "test.broken", "locpipe_test_broken")
    return expected


class TestWarmFork:
    """The orchestrator imports a builtin's module just before forking its
    stage, and never calls its `run`."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_import_failure_fails_only_its_stage(self, broken_builtin, tmp_path, monkeypatch, capsys, jobs):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "broken": {"builtin": "test.broken", "outs": ["broken.txt"]},
            "good": {"cmd": "echo ok > good.txt", "outs": ["good.txt"]},
        })
        write_params(root, {})
        monkeypatch.chdir(root)
        assert cli.main(["repro", "--jobs", str(jobs)]) == 1
        out = capsys.readouterr().out
        assert "broken: failed (never run; command exited with status 1)" in out and "good: executed" in out
        assert (root / "good.txt").read_text() == "ok\n"
        [err] = root.glob(".locpipe/logs/*/broken.err")
        text = err.read_text()
        assert "Traceback (most recent call last)" in text and broken_builtin in text
        assert "locpipe_test_broken" not in sys.modules

    def test_orchestrator_imports_the_builtins_it_forks(self, tmp_path):
        root = tmp_path / "exp"
        init_experiment(root, "baseline")
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from locpipe import loctk\n"
            "from locpipe.runner import ExecOptions, Project, repro\n"
            f"report = repro(Project(root=Path({str(root)!r})), ExecOptions(targets=('split',)))\n"
            "assert report.executed == 3\n"
            "print(sorted(b for b, m in loctk._REGISTRY.items() if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_locpipe_env(SRC), capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert proc.stdout == "['loc.prepare', 'loc.split', 'loc.synth']\n"

    def test_cached_run_imports_no_builtin_module(self, warm_baseline, tmp_path):
        project = _copy_of(warm_baseline, tmp_path)
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from locpipe.runner import Project, repro\n"
            f"assert repro(Project(root=Path({str(project.root)!r}))).cached == 6\n"
            "print(sorted(m for m in sys.modules if m.startswith('locpipe.loctk.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_locpipe_env(SRC), capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert proc.stdout == "[]\n"

    def test_importing_every_builtin_starts_no_thread_and_keeps_cwd_and_env(self):
        code = (
            "import os, sys, threading\n"
            "from locpipe import loctk\n"
            "def state():\n"
            "    tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else []\n"
            "    return threading.active_count(), len(tasks), os.getcwd(), dict(os.environ)\n"
            "before = state()\n"
            "for builtin in loctk.builtin_ids():\n"
            "    loctk.load_builtin(builtin)\n"
            "print(state() == before, sorted(set(loctk._REGISTRY.values()) - set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_locpipe_env(SRC), capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert proc.stdout == "True []\n"


class TestParallel:
    def test_independent_stages_parallel_correctness(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        stages = {}
        for i in range(4):
            stages[f"work{i}"] = {"cmd": f"echo {i} > f{i}.txt", "outs": [f"f{i}.txt"]}
        stages["join"] = {
            "cmd": "cat f0.txt f1.txt f2.txt f3.txt > all.txt",
            "deps": [f"f{i}.txt" for i in range(4)],
            "outs": ["all.txt"],
        }
        write_pipeline(root, stages)
        write_params(root, {})
        report = run(Project(root=root), jobs=3)
        assert report.executed == 5 and report.failed == 0
        assert (root / "all.txt").read_text() == "0\n1\n2\n3\n"
        # manifest order matches the plan regardless of completion order
        assert [r.stage for r in report.results] == ["work0", "work1", "work2", "work3", "join"]

    def test_parallel_actually_overlaps(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "a": {"cmd": "sleep 0.6 && echo a > a.txt", "outs": ["a.txt"]},
            "b": {"cmd": "sleep 0.6 && echo b > b.txt", "outs": ["b.txt"]},
        })
        write_params(root, {})
        start = time.perf_counter()
        report = run(Project(root=root), jobs=2)
        elapsed = time.perf_counter() - start
        assert report.executed == 2
        assert elapsed < 1.1  # sequential would need >= 1.2 s


    @pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs os.pidfd_open")
    def test_waits_on_children_without_polling(self, tmp_path, monkeypatch):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "a": {"cmd": "sleep 0.3 && echo a > a.txt", "outs": ["a.txt"]},
            "b": {"cmd": "sleep 0.3 && echo b > b.txt", "outs": ["b.txt"]},
        })
        write_params(root, {})

        def no_sleep(seconds):
            raise AssertionError("reap_first polled")

        monkeypatch.setattr(launch.time, "sleep", no_sleep)
        report = run(Project(root=root), jobs=2)
        assert report.executed == 2 and report.failed == 0

    @pytest.mark.parametrize("pidfd_open", ["missing", "raises"])
    def test_reap_without_pidfds(self, tmp_path, monkeypatch, pidfd_open):
        """Where `os.pidfd_open` is missing or fails, `reap_first` polls
        several children and blocks on a lone one."""
        if pidfd_open == "missing":
            monkeypatch.delattr(launch.os, "pidfd_open", raising=False)
        else:
            def refuse(pid, flags=0):
                raise OSError(errno.ENOSYS, "pidfd_open refused")

            monkeypatch.setattr(launch.os, "pidfd_open", refuse, raising=False)
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "a": {"cmd": "sleep 0.2 && echo a > a.txt", "outs": ["a.txt"]},
            "b": {"cmd": "sleep 0.3 && echo b > b.txt", "outs": ["b.txt"]},
        })
        write_params(root, {})
        report = run(Project(root=root), jobs=2)
        assert report.executed == 2 and report.failed == 0
        assert (root / "a.txt").read_text() == "a\n" and (root / "b.txt").read_text() == "b\n"

    def test_an_error_waits_for_the_running_children(self, tmp_path, monkeypatch, capsys):
        """A store error while a child runs ends `repro` only once the child
        has exited and been reaped."""
        root = tmp_path.resolve() / "proj"
        root.mkdir()
        os.mkfifo(root / "f")
        write_pipeline(root, {
            "a_slow": {"cmd": "sleep 0.5 && echo a > a.txt", "outs": ["a.txt"]},
            "b_fifo": {"cmd": "echo b > b.txt", "deps": ["f"], "outs": ["b.txt"]},
        })
        write_params(root, {})
        waited = []
        waitpid = os.waitpid
        monkeypatch.setattr(runner.os, "waitpid", lambda pid, options: waited.append(pid) or waitpid(pid, options))
        monkeypatch.chdir(root)
        assert cli.main(["repro", "--jobs", "2"]) == 3
        assert capsys.readouterr().err == f"error: not a regular file: {root / 'f'}\n"
        assert (root / "a.txt").read_text() == "a\n"
        assert len(waited) == 1
        with pytest.raises(ChildProcessError):  # reaped: no such child is left
            waitpid(waited[0], os.WNOHANG)

    def test_a_child_reaped_after_an_error_is_recorded_failed(self, tmp_path, monkeypatch):
        """The run manifest records a child that `repro` reaps after an error
        as failed, naming the error, and its outs are not committed."""
        root = tmp_path.resolve() / "proj"
        root.mkdir()
        os.mkfifo(root / "f")
        write_pipeline(root, {
            "a_slow": {"cmd": "sleep 0.5 && echo a > a.txt", "outs": ["a.txt"]},
            "b_fifo": {"cmd": "echo b > b.txt", "deps": ["f"], "outs": ["b.txt"]},
        })
        write_params(root, {})
        monkeypatch.chdir(root)
        assert cli.main(["repro", "--jobs", "2"]) == 3
        [manifest] = (root / ".locpipe" / "runs").iterdir()
        [result] = json.loads(manifest.read_bytes())["results"]
        assert (result["stage"], result["action"], result["exit_code"]) == ("a_slow", "failed", 0)
        assert result["reason"] == f"run stopped by StoreError: not a regular file: {root / 'f'}"
        assert (root / "a.txt").read_text() == "a\n"
        assert not (root / "pipeline.lock.json").exists()
        assert not (root / ".locpipe" / "cache" / "runcache").exists()

    def test_same_outcome_at_every_jobs_count(self, tmp_path):
        """Cache hits, a failure, a skip, a missing dep and a run, mixed in one
        pipeline, end the same whatever the number of slots."""
        warm = tmp_path / "warm"
        warm.mkdir()
        for name in ("source.txt", "gone.txt", "edit.txt"):
            (warm / name).write_text(f"{name}\n")
        write_pipeline(warm, {
            "hit": {"cmd": "cat source.txt > hit.txt", "deps": ["source.txt"], "outs": ["hit.txt"]},
            "hit_user": {"cmd": "cat hit.txt hit.txt > user.txt", "deps": ["hit.txt"], "outs": ["user.txt"]},
            "boom": {"cmd": "exit 3", "outs": ["boom.txt"]},
            "boom_user": {"cmd": "cat boom.txt > after.txt", "deps": ["boom.txt"], "outs": ["after.txt"]},
            "needs_gone": {"cmd": "cat gone.txt > needs.txt", "deps": ["gone.txt"], "outs": ["needs.txt"]},
            "edited": {"cmd": "cat edit.txt > edited.txt", "deps": ["edit.txt"], "outs": ["edited.txt"]},
        })
        write_params(warm, {})
        assert run(Project(root=warm)).executed == 4
        (warm / "gone.txt").unlink()
        (warm / "edit.txt").write_text("edited\n")

        outcomes = {}
        for jobs in (1, 2, 3):
            root = tmp_path / f"jobs{jobs}"
            shutil.copytree(warm, root)
            report = run(Project(root=root), jobs=jobs)
            outcomes[jobs] = [(r.stage, r.action, r.reason, r.exit_code) for r in report.results]
        assert sorted(outcomes[1]) == [
            ("boom", "failed", "never run; command exited with status 3", 3),
            ("boom_user", "skipped", "upstream failure: boom", None),
            ("edited", "executed", "deps: edit.txt", 0),
            ("hit", "cached", "", None),
            ("hit_user", "cached", "", None),
            ("needs_gone", "failed", "missing dependency: gone.txt", None),
        ]
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]


class TestPlan:
    def test_fresh_plan_all_run(self, shell_project):
        entries = plan(shell_project).entries
        assert [e.action for e in entries] == ["run", "run", "run"]
        assert entries[0].reason == "never run"

    def test_after_run_all_cached(self, shell_project):
        run(shell_project)
        assert [e.action for e in plan(shell_project).entries] == ["cached"] * 3

    def test_change_marks_downstream_run(self, shell_project):
        run(shell_project)
        (shell_project.root / "seed.txt").write_text("changed\n")
        entries = {e.stage: e.action for e in plan(shell_project).entries}
        assert entries == {"generate": "run", "transform": "run", "summarize": "run"}

    def test_force_marks_all_run(self, shell_project):
        run(shell_project)
        entries = plan(shell_project, ExecOptions(force=True)).entries
        assert all(e.action == "run" for e in entries)

    def test_missing_source_blocked(self, shell_project):
        (shell_project.root / "seed.txt").unlink()
        entries = plan(shell_project).entries
        assert entries[0].action == "blocked"
        assert "seed.txt" in entries[0].reason

    def test_missing_source_blocked_even_with_force(self, shell_project):
        (shell_project.root / "seed.txt").unlink()
        entries = plan(shell_project, ExecOptions(force=True)).entries
        assert entries[0].action == "blocked"
        # downstream of a blocked stage is blocked too
        assert entries[1].action == "blocked"
        assert "upstream blocked" in entries[1].reason

    def test_plan_mutates_nothing(self, shell_project):
        before = tree_snapshot(shell_project.root)
        plan(shell_project)
        assert tree_snapshot(shell_project.root) == before

    def test_cached_upstream_missing_workspace_file_still_cached(self, shell_project):
        run(shell_project)
        (shell_project.root / "gen.txt").unlink()
        entries = {e.stage: e.action for e in plan(shell_project).entries}
        # gen.txt is restorable from cache, so downstream stays cached
        assert entries == {"generate": "cached", "transform": "cached", "summarize": "cached"}


class TestStatus:
    def test_fresh_all_never_run(self, shell_project):
        assert all(s.state == "never-run" for s in status(shell_project))

    def test_unchanged_after_run(self, shell_project):
        run(shell_project)
        assert all(s.state == "unchanged" for s in status(shell_project))

    def test_dep_change_named(self, shell_project):
        run(shell_project)
        (shell_project.root / "seed.txt").write_text("new\n")
        by_stage = {s.stage: s for s in status(shell_project)}
        assert by_stage["generate"].state == "changed"
        assert "deps: seed.txt" in by_stage["generate"].reasons
        # no propagation in status: downstream deps are untouched on disk
        assert by_stage["transform"].state == "unchanged"

    def test_param_change_names_leaf_key(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "emit": {"cmd": "echo x > o", "params": ["split"], "outs": ["o"]},
        })
        write_params(root, {"split": {"k": 5, "seed": 7}})
        project = Project(root=root)
        run(project)
        edit_params(project, "split.k", 10)
        entry = status(project)[0]
        assert entry.state == "changed"
        assert entry.reasons == ("params: split.k",)

    def test_cmd_change_flagged(self, shell_project):
        run(shell_project)
        text = shell_project.pipeline_path.read_text()
        shell_project.pipeline_path.write_text(text.replace("tr a-z A-Z", "tr a-z A-Z "))
        by_stage = {s.stage: s for s in status(shell_project)}
        assert by_stage["transform"].state == "changed"
        assert "cmd" in by_stage["transform"].reasons


@pytest.fixture(scope="module")
def warm_baseline(tmp_path_factory):
    """A fully run baseline project; copy it before changing anything."""
    root = tmp_path_factory.mktemp("warm") / "exp"
    init_experiment(root, "baseline")
    assert run(Project(root=root)).executed == 6
    return root


def _store_object(project: Project, stage: str, out: str):
    hexd = load_lock(project.lock_path)[stage].outs[out].hash
    return project.cache_dir / "sha256" / hexd[:2] / hexd[2:]


def _damage_raw_csv_object(project: Project) -> None:
    """Flip one digit of a value in the stored object of `data/raw.csv`; the
    damaged bytes still parse as the same table shape."""
    obj = _store_object(project, "synth", "data/raw.csv")
    data = bytearray(obj.read_bytes())
    last_digit = data.index(b"\n", len(data) // 2) - 1
    data[last_digit] ^= 0x01
    obj.write_bytes(bytes(data))


def _edit_lock_fingerprint(project: Project, stage: str) -> None:
    doc = json.loads(project.lock_path.read_text())
    doc["stages"][stage]["fingerprint"] = "0" * 64
    project.lock_path.write_text(json.dumps(doc))


def _append(path, text: str) -> None:
    with open(path, "a") as handle:
        handle.write(text)


def _alpha_there_and_back(project: Project) -> None:
    """Run the ridge alpha at another value, then set the first one back."""
    first = project.load()[1]["model"]["grid"]["ridge"]["alpha"]
    edit_params(project, "model.grid.ridge.alpha", [0.1])
    assert executed_stages(run(project)) == {"gridsearch", "report"}
    edit_params(project, "model.grid.ridge.alpha", first)


def _copy_of(warm_baseline, tmp_path) -> Project:
    project = Project(root=tmp_path / "copy")
    shutil.copytree(warm_baseline, project.root)
    return project


SHELL_STAGES = ("generate", "transform", "summarize")

# (id, project, perturbation, {stage: status reasons} for every stage whose
# status is not "unchanged"). "shell" projects start unrun; "baseline" ones
# start as a copy of a fully run baseline.
AGREEMENT_CASES = [
    ("fresh", "shell", None, {s: ("never run",) for s in SHELL_STAGES}),
    ("dep-edit", "shell", lambda p: (p.root / "seed.txt").write_text("beta\n"),
     {"generate": ("deps: seed.txt",)}),
    ("cmd-edit", "shell",
     lambda p: p.pipeline_path.write_text(p.pipeline_path.read_text().replace("A-Z <", "A-Z  <")),
     {"transform": ("cmd",)}),
    ("lock-fingerprint-edited", "shell", lambda p: _edit_lock_fingerprint(p, "generate"),
     {"generate": ("fingerprint",)}),
    ("param-edit", "baseline", lambda p: edit_params(p, "model.grid.ridge.alpha", [0.1]),
     {"gridsearch": ("params: model.grid.ridge.alpha",)}),
    ("store-object-missing", "baseline", lambda p: _store_object(p, "split", "data/folds.json").unlink(),
     {"split": ("outs: data/folds.json (missing from store)",)}),
    ("int-to-float", "baseline", lambda p: edit_params(p, "split.k", 5.0),
     {"split": ("params: split.k",)}),
    ("float-to-int", "baseline", lambda p: edit_params(p, "prepare.fill_value", -100),
     {"prepare": ("params: prepare.fill_value",)}),
    ("cached-out-edited", "baseline", lambda p: _append(p.root / "data/features.csv", "1,2\n"), {}),
    ("cached-out-deleted", "baseline", lambda p: (p.root / "data/folds.json").unlink(), {}),
    ("store-object-damaged", "baseline", _damage_raw_csv_object, {}),
    ("return-to-earlier-value", "baseline", _alpha_there_and_back, {}),
]


class TestStatusPlanReproAgree:
    """`status`, `repro --dry-run` and `repro` read one stage state."""

    @pytest.mark.parametrize(
        "kind, perturb, expected",
        [case[1:] for case in AGREEMENT_CASES],
        ids=[case[0] for case in AGREEMENT_CASES],
    )
    def test_agreement(self, kind, perturb, expected, shell_project, warm_baseline, tmp_path):
        if kind == "baseline":
            project = Project(root=tmp_path / "copy")
            shutil.copytree(warm_baseline, project.root)
        else:
            project = shell_project
            if perturb is not None:
                run(project)
        if perturb is not None:
            perturb(project)

        before = tree_snapshot(project.root)
        states = {s.stage: s for s in status(project)}
        entries = {e.stage: e for e in plan(project).entries}
        assert tree_snapshot(project.root) == before
        assert {n: s.reasons for n, s in states.items() if s.state != "unchanged"} == expected

        graph = build_graph(project.load()[0])
        running = {n for n, e in entries.items() if e.action == "run"}
        for name, entry in entries.items():
            if running & (upstream_closure(graph, [name]) - {name}):
                assert entry.reason.startswith("upstream will run: ")
                continue
            assert "; ".join(states[name].reasons) == entry.reason
            assert (states[name].state == "unchanged") == (entry.action == "cached")

        report = repro(project, ExecOptions())
        manifest = json.loads(report.manifest_path.read_text())["results"]
        for result in manifest:
            entry = entries[result["stage"]]
            if result["action"] == "executed":
                assert entry.action == "run"
                if not entry.reason.startswith("upstream will run: "):
                    assert result["reason"] == entry.reason
                else:  # found at dispatch, once the upstream outs exist
                    assert result["reason"]
            if entry.action == "cached":
                assert result["action"] == "cached"

    def test_return_to_earlier_value_restores_first_run(self, warm_baseline, tmp_path):
        project = _copy_of(warm_baseline, tmp_path)
        first_lock = load_lock(project.lock_path)
        outs = [out for entry in first_lock.values() for out in entry.outs]
        first_bytes = {out: (project.root / out).read_bytes() for out in outs}
        _alpha_there_and_back(project)
        report = run(project)
        assert report.executed == 0 and report.cached == 6
        manifest = json.loads(report.manifest_path.read_text())["results"]
        assert {r["stage"]: r["reason"] for r in manifest if r["reason"]} == {
            "gridsearch": "run cache", "report": "run cache",
        }
        assert {out: (project.root / out).read_bytes() for out in outs} == first_bytes
        lock = load_lock(project.lock_path)
        assert lock["gridsearch"] == first_lock["gridsearch"]
        assert lock == first_lock

    def test_stage_run_on_damaged_dep_fails_and_commits_nothing(self, warm_baseline, tmp_path):
        project = _copy_of(warm_baseline, tmp_path)
        _damage_raw_csv_object(project)
        damaged = load_lock(project.lock_path)["synth"].outs["data/raw.csv"].hash
        edit_params(project, "prepare.fill_value", -101.0)
        lock = project.lock_path.read_bytes()
        runcache = tree_snapshot(project.cache_dir / "runcache")
        report = run(project)
        results = {r.stage: r for r in report.results}
        assert results["synth"].action == "cached"
        assert results["prepare"].action == "failed"
        assert results["prepare"].reason == (
            "params: prepare.fill_value; dependency data/raw.csv was restored "
            f"from a damaged store object: {damaged}"
        )
        assert {n for n, r in results.items() if r.action == "skipped"} == {
            "featurize", "split", "gridsearch", "report",
        }
        assert project.lock_path.read_bytes() == lock
        assert tree_snapshot(project.cache_dir / "runcache") == runcache

    def test_dep_in_a_damaged_tree_member_names_the_member(self, tmp_path, monkeypatch):
        root = tmp_path / "proj"
        root.mkdir()
        stages = {
            "make": {"cmd": "mkdir -p d && echo one > d/a.txt && echo two > d/b.txt", "outs": ["d"]},
            "use": {"cmd": "cat d/b.txt > use.txt", "deps": ["d/b.txt"], "outs": ["use.txt"]},
        }
        write_pipeline(root, stages)
        write_params(root, {})
        project = Project(root=root)
        intact = ObjectStore.intact
        checked = []
        monkeypatch.setattr(ObjectStore, "intact", lambda store, hexd: checked.append(hexd) or intact(store, hexd))
        assert run(project).executed == 2
        assert checked == []  # a run with no failure hashes no store object
        for text in (b"one\n", b"two\n"):  # only the member under the dep is named
            hexd = hashlib.sha256(text).hexdigest()
            (project.cache_dir / "sha256" / hexd[:2] / hexd[2:]).write_bytes(text.upper())
        member = hashlib.sha256(b"two\n").hexdigest()
        shutil.rmtree(root / "d")
        stages["use"]["cmd"] = "cat d/b.txt d/b.txt > use.txt"
        write_pipeline(root, stages)
        results = {r.stage: r for r in run(project).results}
        assert results["make"].action == "cached"
        assert results["use"].action == "failed"
        assert results["use"].reason == (
            f"cmd; dependency d/b.txt was restored from a damaged store object: {member}"
        )

    def test_failed_stage_keeps_why_it_ran(self, warm_baseline, tmp_path, monkeypatch, capsys):
        from locpipe.cli import main

        project = _copy_of(warm_baseline, tmp_path)
        edit_params(project, "split.k", 5.0)  # the split builtin rejects a float k
        monkeypatch.chdir(project.root)
        assert main(["repro"]) == 1
        assert "split: failed (params: split.k; command exited with status 1)\n" in capsys.readouterr().out
        manifest = max(project.runs_dir.iterdir())
        results = {r["stage"]: r for r in json.loads(manifest.read_text())["results"]}
        assert results["split"]["action"] == "failed"
        assert results["split"]["reason"] == "params: split.k; command exited with status 1"

    def test_forced_run_records_forced(self, shell_project):
        run(shell_project)
        report = run(shell_project, force=True)
        doc = json.loads(report.manifest_path.read_text())
        assert [r["reason"] for r in doc["results"]] == ["forced"] * 3
        assert doc["options"] == {"force": True, "jobs": 1, "targets": []}


class TestStoreCallsThroughRunner:
    """Every hash and cache lookup goes through the `runner` module names,
    which the benchmark's tracer rebinds from outside."""

    def count_calls(self, monkeypatch, *extra: str) -> Counter:
        calls: Counter = Counter()
        for name in ("hash_path", "cache_lookup", *extra):
            def counting(*args, _name=name, _original=getattr(runner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(runner, name, counting)
        return calls

    def test_baseline_plan_status_noop_repro(self, baseline_project, monkeypatch):
        run(baseline_project)
        calls = self.count_calls(monkeypatch)
        plan(baseline_project)
        # every dep is an out a cached upstream stage restores: nothing to hash
        assert calls == Counter(cache_lookup=6)
        calls.clear()
        status(baseline_project)
        assert calls == Counter(cache_lookup=6)
        calls.clear()
        assert run(baseline_project).cached == 6
        # a no-op repro makes exactly the calls plan makes
        assert calls == Counter(cache_lookup=6)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_baseline_resolves_each_stage_once(self, baseline_project, monkeypatch, jobs):
        calls = self.count_calls(monkeypatch)
        assert run(baseline_project, jobs=jobs).executed == 6
        assert calls["cache_lookup"] == 6

    def test_committed_outs_are_not_hashed_again(self, baseline_project, monkeypatch):
        calls = self.count_calls(monkeypatch)
        assert run(baseline_project).executed == 6
        # every dep is an out committed earlier in the run: each is hashed
        # once, by the post-run check of the stage that reads it
        spec = baseline_project.load()[0]
        assert calls["hash_path"] == sum(len(stage.deps) for stage in spec.stages.values())

    def test_return_to_earlier_value_spawns_nothing(self, warm_baseline, tmp_path, monkeypatch):
        project = _copy_of(warm_baseline, tmp_path)
        _alpha_there_and_back(project)
        calls = self.count_calls(monkeypatch, "spawn_stage")
        assert run(project).cached == 6
        # the same lookups as a no-op, no hash and no stage process
        assert calls == Counter(cache_lookup=6)

    def test_source_dep_hashed_by_plan_and_status(self, shell_project, monkeypatch):
        run(shell_project)
        calls = self.count_calls(monkeypatch)
        plan(shell_project)
        assert calls == Counter(cache_lookup=3, hash_path=1)
        calls.clear()
        status(shell_project)
        assert calls == Counter(cache_lookup=3, hash_path=1)


class TestEachJobOnce:
    """The config parse is handed over by `Project.load`, and each planned
    stage's params are selected once, by `_load_plan`."""

    def test_cold_baseline_selects_each_stage_params_once(self, baseline_project, monkeypatch):
        calls: Counter = Counter()
        original = runner.select_params

        def counting(tree, keys, stage=None):
            calls[stage] += 1
            return original(tree, keys, stage=stage)

        monkeypatch.setattr(runner, "select_params", counting)
        assert run(baseline_project).executed == 6
        assert calls == Counter({name: 1 for name in baseline_project.load()[0].stages})

    def test_gc_reads_each_config_file_once(self, baseline_project, monkeypatch, capsys):
        run(baseline_project)
        reads: Counter = Counter()
        original = runner._read_config

        def counting(path, *args):
            reads[path.name] += 1
            return original(path, *args)

        monkeypatch.setattr(runner, "_read_config", counting)
        monkeypatch.chdir(baseline_project.root)
        assert cli.main(["gc"]) == 0
        assert reads == Counter({"pipeline.yaml": 1, "params.yaml": 1})
        assert len(list((baseline_project.cache_dir / "config").iterdir())) == 1

    def test_load_hands_over_its_parse(self, baseline_project):
        project = baseline_project
        cold: dict = {}
        spec, params = project.load(cold)
        assert cold["fresh"] is not None  # nothing is memoized before a repro
        hashes = {name: hashlib.sha256((project.root / name).read_bytes()).hexdigest()
                  for name in ("pipeline.yaml", "params.yaml")}
        assert cold["hashes"] == hashes
        run(project)
        assert (project.cache_dir / "config" / f"{cold['key']}.json").read_bytes() == cold["fresh"]
        warm: dict = {}
        assert project.load(warm) == (spec, params) == project.load()
        assert warm == {"hashes": hashes, "key": cold["key"], "fresh": None}


class TestMetricsShow:
    def make(self, tmp_path, metric_files: dict):
        root = tmp_path / "proj"
        root.mkdir()
        stages = {}
        for i, (path, doc) in enumerate(metric_files.items()):
            full = root / path
            full.parent.mkdir(parents=True, exist_ok=True)
            full.write_text(json.dumps(doc))
            stages[f"stage{i}"] = {"cmd": "true", "outs": [path], "metrics": [path]}
        write_pipeline(root, stages)
        write_params(root, {})
        return Project(root=root)

    def test_single_metric_row(self, tmp_path):
        project = self.make(tmp_path, {"m.json": {"rmse": 1.25}})
        rows = metrics_show(project)
        assert len(rows) == 1
        assert (rows[0].stage, rows[0].path, rows[0].key, rows[0].value) == (
            "stage0", "m.json", "rmse", 1.25,
        )

    def test_nested_keys_dotted(self, tmp_path):
        project = self.make(tmp_path, {"m.json": {"cv": {"mean_rmse": 2.0}}})
        rows = metrics_show(project)
        assert rows[0].key == "cv.mean_rmse"

    def test_rows_sorted(self, tmp_path):
        project = self.make(tmp_path, {
            "b.json": {"z": 1, "a": 2},
            "a.json": {"m": 3},
        })
        rows = metrics_show(project)
        assert [(r.stage, r.path, r.key) for r in rows] == [
            ("stage0", "b.json", "a"),
            ("stage0", "b.json", "z"),
            ("stage1", "a.json", "m"),
        ]

    def test_unparseable_metric_file(self, tmp_path):
        project = self.make(tmp_path, {"m.json": {"ok": 1}})
        (project.root / "m.json").write_text("not json")
        with pytest.raises(ConfigError, match="unparseable metric file"):
            metrics_show(project)

    def test_non_scalar_leaf_rejected(self, tmp_path):
        project = self.make(tmp_path, {"m.json": {"rows": [1, 2]}})
        with pytest.raises(ConfigError, match="scalar"):
            metrics_show(project)

    def test_missing_file_skipped(self, tmp_path):
        project = self.make(tmp_path, {"m.json": {"ok": 1}})
        (project.root / "m.json").unlink()
        assert metrics_show(project) == []


class TestBuiltinStage:
    def test_builtin_runs_in_fresh_process(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "synth": {"builtin": "loc.synth", "params": ["synth"], "outs": ["data/raw.csv"]},
        })
        write_params(root, {
            "synth": {
                "n": 10, "anchors": 3, "area": {"w": 10.0, "h": 10.0},
                "p0": -40.0, "path_loss_n": 2.0, "sigma": 0.0, "seed": 1,
            },
        })
        report = run(Project(root=root))
        assert report.executed == 1
        assert report.results[0].pid not in (None, os.getpid())
        lines = (root / "data/raw.csv").read_text().splitlines()
        assert len(lines) == 11

    def test_outs_in_fresh_nested_directories(self, make_project):
        """The launcher makes every out's directory, so a builtin writes
        into one that did not exist, and the bytes stay the golden ones."""
        from test_golden import GOLDEN

        project = make_project("baseline")
        moved = {out: f"fresh/nested/{out}" for out in GOLDEN["baseline"] if out.startswith("data/")}
        text = project.pipeline_path.read_text()
        for out, nested in moved.items():
            text = text.replace(out, nested)
        project.pipeline_path.write_text(text)
        assert run(project).executed == 6
        digests = {
            out: hashlib.sha256((project.root / moved.get(out, out)).read_bytes()).hexdigest()
            for out in GOLDEN["baseline"]
        }
        assert digests == GOLDEN["baseline"]
        assert not (project.root / "data").exists()
        assert run(project).cached == 6

    def test_unknown_builtin_is_config_error(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {"x": {"builtin": "loc.nope", "outs": ["o"]}})
        write_params(root, {})
        with pytest.raises(ConfigError, match="unknown builtin"):
            run(Project(root=root))

    def test_builtin_failure_reported(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "synth": {"builtin": "loc.synth", "params": ["synth"], "outs": ["data/raw.csv"]},
        })
        # anchors=2 violates the builtin contract -> child exits nonzero
        write_params(root, {
            "synth": {"n": 5, "anchors": 2, "area": {"w": 1.0, "h": 1.0}, "seed": 1},
        })
        project = Project(root=root)
        report = run(project)
        result = report.results[0]
        assert result.action == "failed"
        assert "anchors" in (project.root / result.log_err).read_text()


class TestDirectoryOutputs:
    def test_directory_out_cached_and_restored(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "emit": {
                "cmd": "mkdir -p d && echo one > d/a.txt && echo two > d/b.txt",
                "outs": ["d"],
            },
            "consume": {
                "cmd": "cat d/a.txt d/b.txt > merged.txt",
                "deps": ["d"],
                "outs": ["merged.txt"],
            },
        })
        write_params(root, {})
        project = Project(root=root)
        assert run(project).executed == 2
        assert run(project).cached == 2
        # wipe the directory; the cache must restore it byte-identically
        import shutil

        shutil.rmtree(root / "d")
        report = run(project)
        assert report.executed == 0
        assert (root / "d" / "a.txt").read_text() == "one\n"
        assert (root / "merged.txt").read_text() == "one\ntwo\n"

    def test_member_dep_of_directory_out(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "emit": {"cmd": "mkdir -p d && echo payload > d/x.csv", "outs": ["d"]},
            "pick": {"cmd": "cp d/x.csv picked.csv", "deps": ["d/x.csv"], "outs": ["picked.csv"]},
        })
        write_params(root, {})
        project = Project(root=root)
        assert run(project).executed == 2
        entries = {e.stage: e.action for e in plan(project).entries}
        assert entries == {"emit": "cached", "pick": "cached"}
        assert run(project).cached == 2


class TestRefusedOut:
    """`commit_outputs` alone judges a stage's outs: an out it refuses fails
    that stage, named, and the run goes on. So does a dep the stage deleted
    or replaced with a symlink."""

    @pytest.mark.parametrize("cmd, out, refusal", [
        ("echo x > real.txt && ln -s real.txt link.txt", "link.txt",
         "declared out link.txt refused: symlink not allowed"),
        ("mkdir d && echo x > \"$(printf 'd/a\\tb')\"", "d",
         "declared out d refused: unsupported character in file name: 'a\\tb'"),
        ("true", "gone.txt", "declared out not produced: gone.txt"),
    ])
    def test_refused_out_fails_only_its_stage(self, tmp_path, monkeypatch, capsys, cmd, out, refusal):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {
            "make": {"cmd": cmd, "outs": [out]},
            "use": {"cmd": "echo used > use.txt", "deps": [out], "outs": ["use.txt"]},
            "other": {"cmd": "echo ok > other.txt", "outs": ["other.txt"]},
        })
        write_params(root, {})
        monkeypatch.chdir(root)
        assert cli.main(["repro"]) == 1
        assert f"make: failed (never run; {refusal})\n" in capsys.readouterr().out
        [manifest] = (root / ".locpipe" / "runs").iterdir()
        results = {r["stage"]: r for r in json.loads(manifest.read_text())["results"]}
        assert {name: r["action"] for name, r in results.items()} == {
            "make": "failed", "other": "executed", "use": "skipped",
        }
        assert results["make"]["reason"] == f"never run; {refusal}"
        assert set(load_lock(root / "pipeline.lock.json")) == {"other"}

    @pytest.mark.parametrize("cmd, failure", [
        ("rm in.txt", "stage modified its own dependency: in.txt"),
        ("rm in.txt && ln -s out.txt in.txt", "symlink not allowed: "),
    ])
    def test_deleted_or_linked_dep_fails_only_its_stage(self, tmp_path, cmd, failure):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "in.txt").write_text("x\n")
        write_pipeline(root, {
            "eat": {"cmd": f"cp in.txt out.txt && {cmd}", "deps": ["in.txt"], "outs": ["out.txt"]},
            "other": {"cmd": "echo ok > other.txt", "outs": ["other.txt"]},
        })
        write_params(root, {})
        results = {r.stage: r for r in run(Project(root=root)).results}
        assert results["eat"].action == "failed" and results["other"].action == "executed"
        assert results["eat"].reason.startswith(f"never run; {failure}")
        assert set(load_lock(root / "pipeline.lock.json")) == {"other"}


class TestOutParentsInsideProject:
    """No out is restored, made or committed through a parent directory that
    is a symlink or not a directory: `repro` names the first such parent
    below the project root, and leaves what lies outside untouched."""

    def _repro(self, root: Path, monkeypatch, capsys) -> tuple[int, str]:
        monkeypatch.chdir(root)
        code = cli.main(["repro"])
        return code, capsys.readouterr().err

    def test_restore_refuses_a_symlinked_parent(self, warm_baseline, tmp_path, monkeypatch, capsys):
        project = _copy_of(warm_baseline, tmp_path)
        outside = tmp_path / "outside"
        shutil.copytree(project.root / "report", outside)
        (outside / "summary.csv").write_bytes(b"junk\n")
        shutil.rmtree(project.root / "report")
        (project.root / "report").symlink_to("../outside")
        before = _listing(outside)
        code, err = self._repro(project.root, monkeypatch, capsys)
        assert (code, err) == (3, f"error: symlink not allowed: {project.root.resolve() / 'report'}\n")
        assert _listing(outside) == before

    def test_restore_deletes_nothing_through_a_symlinked_ancestor(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "proj"
        root.mkdir()
        write_pipeline(root, {"t": {"cmd": "mkdir -p a/d && echo x > a/d/x.txt", "outs": ["a/d"]}})
        assert run(Project(root=root)).executed == 1
        victim = tmp_path / "victim"
        (victim / "d").mkdir(parents=True)
        (victim / "d" / "keep.txt").write_bytes(b"keep\n")
        shutil.rmtree(root / "a")
        (root / "a").symlink_to("../victim")
        before = _listing(victim)
        code, err = self._repro(root, monkeypatch, capsys)
        assert (code, err) == (3, f"error: symlink not allowed: {root.resolve() / 'a'}\n")
        assert _listing(victim) == before

    def test_launcher_makes_nothing_through_a_symlinked_parent(self, tmp_path, monkeypatch, capsys):
        root, victim = tmp_path / "proj", tmp_path / "victim"
        root.mkdir()
        victim.mkdir()
        write_pipeline(root, {"t": {"cmd": "echo x > a/d/x.txt", "outs": ["a/d/x.txt"]}})
        (root / "a").symlink_to("../victim")
        code, err = self._repro(root, monkeypatch, capsys)
        assert (code, err) == (3, f"error: symlink not allowed: {root.resolve() / 'a'}\n")
        assert _listing(victim) == []
        assert not (root / "pipeline.lock.json").exists()

    def test_restore_refuses_a_file_at_a_parent(self, warm_baseline, tmp_path, monkeypatch, capsys):
        project = _copy_of(warm_baseline, tmp_path)
        shutil.rmtree(project.root / "report")
        (project.root / "report").write_bytes(b"a file\n")
        code, err = self._repro(project.root, monkeypatch, capsys)
        assert (code, err) == (3, f"error: not a directory: {project.root.resolve() / 'report'}\n")
        assert (project.root / "report").read_bytes() == b"a file\n"

    def test_commit_refuses_an_out_reached_through_a_symlink(self, tmp_path):
        root, outside = tmp_path / "proj", tmp_path / "outside"
        root.mkdir()
        outside.mkdir()
        (outside / "x.txt").write_bytes(b"outside\n")
        write_pipeline(root, {
            "link": {"cmd": "rmdir a && ln -s ../outside a", "outs": ["a/x.txt"]},  # the launcher made a/
            "other": {"cmd": "echo ok > other.txt", "outs": ["other.txt"]},
        })
        before = _listing(outside)
        results = {r.stage: r for r in run(Project(root=root)).results}
        assert results["link"].action == "failed" and results["other"].action == "executed"
        assert results["link"].reason == f"never run; declared out a/x.txt refused: symlink not allowed: {root / 'a'}"
        assert set(load_lock(root / "pipeline.lock.json")) == {"other"}
        assert len(list((root / ".locpipe" / "cache" / "runcache").iterdir())) == 1
        assert _listing(outside) == before

    def test_gc_sweeps_no_temp_file_through_a_symlinked_parent(self, warm_baseline, tmp_path, monkeypatch, capsys):
        project = _copy_of(warm_baseline, tmp_path)
        outside = tmp_path / "outside"
        shutil.copytree(project.root / "report", outside)
        (outside / f"{TMP_PREFIX}1-not-ours").write_bytes(b"someone else's\n")
        shutil.rmtree(project.root / "report")
        (project.root / "report").symlink_to("../outside")
        before = _listing(outside)
        monkeypatch.chdir(project.root)
        assert cli.main(["gc"]) == 0
        assert _listing(outside) == before

    @pytest.mark.parametrize("linked, stage, downstream", [("report", "report", None), ("out", "gridsearch", "report")])
    def test_status_dry_run_and_repro_name_the_refused_parent(
        self, linked, stage, downstream, warm_baseline, tmp_path, monkeypatch, capsys
    ):
        project = _copy_of(warm_baseline, tmp_path)
        shutil.copytree(project.root / linked, tmp_path / "outside")
        shutil.rmtree(project.root / linked)
        (project.root / linked).symlink_to("../outside")
        refusal = f"symlink not allowed: {project.root.resolve() / linked}"
        monkeypatch.chdir(project.root)
        assert cli.main(["status"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"{stage}: blocked ({refusal})" in lines
        assert [line for line in lines if not line.endswith(": unchanged")] == [f"{stage}: blocked ({refusal})"]
        assert cli.main(["repro", "--dry-run"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"  {stage}: blocked ({refusal})" in lines
        if downstream is not None:
            assert f"  {downstream}: blocked (upstream blocked: {stage})" in lines
        assert sum(line.endswith(": would use cache") for line in lines) == 6 - 1 - (downstream is not None)
        code, err = self._repro(project.root, monkeypatch, capsys)
        assert (code, err) == (3, f"error: {refusal}\n")

    def test_dep_read_through_a_symlinked_directory(self, tmp_path):
        root, shared = tmp_path / "proj", tmp_path / "shared"
        root.mkdir()
        shared.mkdir()
        (shared / "in.txt").write_bytes(b"in\n")
        (root / "data").symlink_to("../shared")
        write_pipeline(root, {"copy": {"cmd": "cp data/in.txt out.txt", "deps": ["data/in.txt"], "outs": ["out.txt"]}})
        assert run(Project(root=root)).executed == 1
        assert run(Project(root=root)).cached == 1
        assert (root / "out.txt").read_bytes() == b"in\n"


class TestCpuShareAndPreload:
    """`repro` gives each builtin its share of the usable CPUs, and imports
    the next builtin's module while the running child works."""

    @pytest.mark.parametrize("usable, jobs, share", [(4, 1, 4), (4, 2, 2), (3, 2, 1), (1, 3, 1)])
    def test_each_builtin_gets_its_share(self, usable, jobs, share, tmp_path, monkeypatch):
        root = tmp_path / "exp"
        init_experiment(root, "baseline")
        monkeypatch.setattr(runner, "_usable_cpus", lambda: usable)
        requests = []
        spawn = runner.spawn_stage

        def recorded(stage, request, *args):
            requests.append(request)
            return spawn(stage, request, *args)

        monkeypatch.setattr(runner, "spawn_stage", recorded)
        assert run(Project(root=root), jobs=jobs).executed == 6
        assert [request.cpus for request in requests] == [share] * 6

    def test_usable_cpus_are_the_affinity_set_or_the_cpu_count(self, monkeypatch):
        assert runner._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert runner._usable_cpus() == 3

    def test_direct_requests_run_serially(self):
        assert loctk.StageRequest(stage="s", builtin="loc.synth").cpus == 1

    def test_next_builtin_is_imported_while_a_child_runs(self, tmp_path, monkeypatch):
        root = tmp_path / "exp"
        init_experiment(root, "baseline")
        events = []
        load, reap = runner.load_builtin, launch.reap_first

        def loaded(builtin):
            events.append(builtin)
            return load(builtin)

        def reaped(pids):
            events.append(f"reap {len(pids)}")
            return reap(pids)

        monkeypatch.setattr(runner, "load_builtin", loaded)
        monkeypatch.setattr(launch, "reap_first", reaped)
        assert run(Project(root=root)).executed == 6
        assert events == [
            "loc.prepare", "reap 1", "loc.featurize", "reap 1", "loc.split", "reap 1",
            "loc.gridsearch", "reap 1", "loc.report", "reap 1", "reap 1",
        ]


class TestProjectDiscovery:
    def test_walks_upward(self, shell_project, monkeypatch):
        nested = shell_project.root / "a" / "b"
        nested.mkdir(parents=True)
        found = Project.discover(nested)
        assert found.root == shell_project.root.resolve()

    def test_no_project_found(self, tmp_path):
        with pytest.raises(ConfigError, match="pipeline.yaml"):
            Project.discover(tmp_path)


def _locpipe_env(src: Path) -> dict:
    """Environment for a subprocess that imports locpipe from `src`."""
    return {**os.environ, "PYTHONPATH": str(src)}


SRC = Path(runner.__file__).resolve().parents[1]


class TestProjectLock:
    def test_second_orchestrator_refused(self, shell_project):
        with runner.project_lock(shell_project):
            proc = subprocess.run(
                [sys.executable, "-m", "locpipe", "repro"], cwd=shell_project.root,
                env=_locpipe_env(SRC), capture_output=True, text=True, timeout=60,
            )
        assert proc.returncode == 3
        assert "another orchestrator process holds the project lock" in proc.stderr
        assert not shell_project.lock_path.exists()

    def test_stage_cannot_take_its_own_project_lock(self, probe):
        root, actions, make = probe

        def grab(request):
            with runner.project_lock(Project(root=root)):
                request.out(0, "o").write_text("locked")

        actions["grab"] = grab
        project = make({"grab": {"outs": ["grab.txt"]}})
        result = run(project).results[0]
        assert result.action == "failed"
        assert "error: another orchestrator process holds the project lock" in (
            (root / result.log_err).read_text()
        )
        assert not (root / "grab.txt").exists()


class TestBuiltinIdentity:
    """One digest of the builtin code is every builtin's identity."""

    @staticmethod
    def identity(src: Path) -> str:
        code = "from locpipe.loctk import builtin_version; print(builtin_version('loc.synth'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_locpipe_env(src), capture_output=True, text=True,
            check=True, timeout=60,
        )
        return proc.stdout.strip()

    @pytest.mark.parametrize("source, moves", [
        ("loctk/models.py", True),
        ("loctk/__init__.py", True),
        ("canonical.py", True),
        ("runner.py", False),
    ])
    def test_one_byte_edit(self, tmp_path, source, moves):
        shutil.copytree(SRC / "locpipe", tmp_path / "locpipe", ignore=shutil.ignore_patterns("__pycache__"))
        before = self.identity(tmp_path)
        assert before == loctk.builtin_version("loc.report")
        path = tmp_path / "locpipe" / source
        data = path.read_bytes()
        path.write_bytes(data[:-1] + b" ")  # the trailing newline becomes a space
        assert (self.identity(tmp_path) != before) is moves

    def test_cmd_only_pipeline_reads_no_source(self, shell_project, monkeypatch):
        def unreadable():
            raise AssertionError("builtin code digested for a cmd-only pipeline")

        monkeypatch.setattr(loctk, "_code_digest", unreadable)
        assert run(shell_project).executed == 3
        assert [s.state for s in status(shell_project)] == ["unchanged"] * 3
        assert run(shell_project).cached == 3

    def test_code_change_reruns_every_builtin_with_same_bytes(self, baseline_project, monkeypatch):
        def outs() -> dict[str, str]:
            return {
                path: digest for path, digest in tree_snapshot(baseline_project.root).items()
                if not path.startswith(".locpipe/") and path != "pipeline.lock.json"
            }

        run(baseline_project)
        before = outs()
        monkeypatch.setattr(loctk, "_code_digest", lambda: "0" * 64)
        states = status(baseline_project)
        assert {(s.state, s.reasons) for s in states} == {("changed", ("builtin",))}
        assert run(baseline_project).executed == len(states)
        assert outs() == before
        assert run(baseline_project).executed == 0
        params = baseline_project.params_path
        params.write_text(params.read_text().replace(": ", ":   ").replace("\n", "\n\n"))
        assert run(baseline_project).executed == 0
