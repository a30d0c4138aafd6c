"""End-to-end CLI behavior through main()."""

import json

import pytest

from conftest import tree_snapshot
from locpipe.cli import main
from locpipe.templates import TEMPLATES, template_names


@pytest.fixture
def in_project(tmp_path, monkeypatch):
    """Init a baseline project and chdir into it."""
    monkeypatch.chdir(tmp_path)
    assert main(["init", "--template", "baseline", "."]) == 0
    return tmp_path


class TestInit:
    def test_writes_both_config_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["init", "exp"]) == 0
        assert (tmp_path / "exp" / "pipeline.yaml").exists()
        assert (tmp_path / "exp" / "params.yaml").exists()

    def test_unknown_template(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["init", "--template", "bogus", "."]) == 2
        assert "unknown template" in capsys.readouterr().err

    def test_refuses_overwrite(self, in_project):
        assert main(["init", "."]) == 2

    def test_all_templates_parse_and_differ_where_expected(self, tmp_path):
        from locpipe.configmodel import parse_params, parse_pipeline

        for name in template_names():
            parse_pipeline(TEMPLATES[name]["pipeline.yaml"])
            parse_params(TEMPLATES[name]["params.yaml"])
        base = TEMPLATES["baseline"]
        assert TEMPLATES["two-model"]["params.yaml"] != base["params.yaml"]
        assert TEMPLATES["change-estimator"]["params.yaml"] != base["params.yaml"]
        assert TEMPLATES["change-dataset"]["params.yaml"] != base["params.yaml"]
        assert TEMPLATES["change-cv"]["params.yaml"] != base["params.yaml"]
        assert TEMPLATES["change-external"]["pipeline.yaml"] != base["pipeline.yaml"]
        assert "knn" in TEMPLATES["two-model"]["params.yaml"]
        assert "shuffle" in TEMPLATES["change-cv"]["params.yaml"]


class TestReproCli:
    def test_full_run_then_cached(self, in_project, capsys):
        assert main(["repro"]) == 0
        out = capsys.readouterr().out
        assert "6 executed, 0 cached, 0 failed, 0 skipped" in out
        assert main(["repro"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 6 cached, 0 failed, 0 skipped" in out

    def test_dry_run_mutates_nothing(self, in_project, capsys):
        before = tree_snapshot(in_project)
        assert main(["repro", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would run" in out
        assert tree_snapshot(in_project) == before
        assert not (in_project / ".locpipe").exists()
        assert not (in_project / "pipeline.lock.json").exists()

    def test_failing_stage_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pipeline.yaml").write_text(
            "version: 1\nstages:\n  bad:\n    cmd: 'false'\n    outs: [x.txt]\n"
        )
        assert main(["repro"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pipeline.yaml").write_text("version: 1\nstages: {}\n")
        assert main(["repro"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_project_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["status"]) == 2


class TestOtherCommands:
    def test_dag_plain_and_dot(self, in_project, capsys):
        assert main(["dag"]) == 0
        plain = capsys.readouterr().out
        assert plain.splitlines()[0] == "synth"
        assert main(["dag", "--dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph pipeline {")
        assert '"synth" -> "prepare";' in dot

    def test_status_output(self, in_project, capsys):
        assert main(["status"]) == 0
        assert "synth: never run" in capsys.readouterr().out

    def test_metrics_show_json(self, in_project, capsys):
        assert main(["repro"]) == 0
        capsys.readouterr()
        assert main(["metrics", "show", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        keys = {(r["stage"], r["key"]) for r in rows}
        assert ("gridsearch", "cv.rmse") in keys
        assert ("prepare", "rows_in") in keys

    def test_metrics_show_table(self, in_project, capsys):
        assert main(["repro"]) == 0
        capsys.readouterr()
        assert main(["metrics", "show"]) == 0
        out = capsys.readouterr().out
        assert "gridsearch\tout/metrics.json\tcv.rmse\t" in out

    def test_report_cli(self, in_project, capsys):
        assert main(["repro"]) == 0
        capsys.readouterr()
        assert main(["report", "out/cv_results.json", "--csv", "rebuilt.csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Experiment report")
        rebuilt = (in_project / "rebuilt.csv").read_text()
        assert rebuilt == (in_project / "report" / "summary.csv").read_text()

    def test_report_bad_input(self, in_project, capsys):
        (in_project / "junk.json").write_text("[1,2]")
        assert main(["report", "junk.json"]) == 2

    def test_gc(self, in_project, capsys):
        assert main(["repro"]) == 0
        capsys.readouterr()
        assert main(["gc"]) == 0
        assert "removed 0 unreferenced object(s)" in capsys.readouterr().out
        # bust one stage, rerun, then gc reclaims the orphans
        import yaml

        params = yaml.safe_load((in_project / "params.yaml").read_text())
        params["synth"]["seed"] = 4321
        (in_project / "params.yaml").write_text(yaml.safe_dump(params))
        assert main(["repro"]) == 0
        capsys.readouterr()
        assert main(["gc"]) == 0
        out = capsys.readouterr().out
        removed = int(out.split()[1])
        assert removed >= 1

    def test_gc_sweeps_crash_leftovers(self, in_project, capsys):
        assert main(["repro"]) == 0
        leftovers = [
            in_project / ".locpipe/cache/tmp/obj-1-0123456789abcdef",
            in_project / ".locpipe/cache/tmp/run-1-0123456789abcdef",
            in_project / ".locpipe/tmp/20260101T000000000000Z-deadbeef-synth.json",
        ]
        for path in leftovers:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("partial")
        capsys.readouterr()
        assert main(["gc"]) == 0
        assert capsys.readouterr().out == "removed 0 unreferenced object(s)\n"
        assert [path for path in leftovers if path.exists()] == []
        assert main(["repro"]) == 0
        assert "0 executed, 6 cached" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, in_project, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, in_project):
        with pytest.raises(SystemExit) as exc:
            main(["repro", "--turbo"])
        assert exc.value.code == 2


class TestStdoutDeterminism:
    def test_repeated_commands_identical_output(self, in_project, capsys):
        assert main(["repro"]) == 0
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["repro"]) == 0
            outputs.append(capsys.readouterr().out)
            assert main(["status"]) == 0
            outputs.append(capsys.readouterr().out)
            assert main(["dag", "--dot"]) == 0
            outputs.append(capsys.readouterr().out)
            assert main(["metrics", "show"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[:4] == outputs[4:]
