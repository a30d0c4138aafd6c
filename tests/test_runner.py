"""Orchestrator behavior on small hand-built pipelines (real child processes)."""

import json
import os
import shutil
import sys
import threading
import time
import types
from collections import Counter

import pytest

from conftest import edit_params, executed_stages, run, tree_snapshot, write_params, write_pipeline
from locpipe import loctk, runner
from locpipe.errors import ConfigError
from locpipe.graph import build_graph, upstream_closure
from locpipe.runner import ExecOptions, Project, metrics_show, plan, repro, status
from locpipe.store import load_lock
from locpipe.templates import init_experiment


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
            "python3 -c 'import time; "
            'exec("t=time.perf_counter()\\nwhile time.perf_counter()-t<1.5: pass")\' '
            "&& echo done > spin.txt"
        )
        write_pipeline(root, {"spin": {"cmd": spin, "outs": ["spin.txt"]}})
        write_params(root, {})
        result = run(Project(root=root)).results[0]
        assert result.action == "executed"
        # a busy loop burns CPU at roughly wall rate (child-process accounting)
        assert abs(result.cpu_s - 1.5) <= 0.3
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
    monkeypatch.setitem(loctk._REGISTRY, "test.probe", (module.__name__, 1))
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
            for key in (*runner.ENV_ALLOWLIST, "LOCPIPE_DECLARED") if key in os.environ
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
        assert calls == Counter(cache_lookup=6, hash_path=7)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_baseline_resolves_each_stage_once(self, baseline_project, monkeypatch, jobs):
        calls = self.count_calls(monkeypatch)
        assert run(baseline_project, jobs=jobs).executed == 6
        assert calls["cache_lookup"] == 6

    def test_return_to_earlier_value_spawns_nothing(self, warm_baseline, tmp_path, monkeypatch):
        project = _copy_of(warm_baseline, tmp_path)
        _alpha_there_and_back(project)
        calls = self.count_calls(monkeypatch, "_spawn_stage")
        assert run(project).cached == 6
        # the same lookups and hashes as a no-op, and no stage process
        assert calls == Counter(cache_lookup=6, hash_path=7)

    def test_source_dep_hashed_by_plan_and_status(self, shell_project, monkeypatch):
        run(shell_project)
        calls = self.count_calls(monkeypatch)
        plan(shell_project)
        assert calls == Counter(cache_lookup=3, hash_path=1)
        calls.clear()
        status(shell_project)
        assert calls == Counter(cache_lookup=3, hash_path=1)


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


class TestProjectDiscovery:
    def test_walks_upward(self, shell_project, monkeypatch):
        nested = shell_project.root / "a" / "b"
        nested.mkdir(parents=True)
        found = Project.discover(nested)
        assert found.root == shell_project.root.resolve()

    def test_no_project_found(self, tmp_path):
        with pytest.raises(ConfigError, match="pipeline.yaml"):
            Project.discover(tmp_path)
