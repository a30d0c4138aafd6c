"""End-to-end CLI behavior through main()."""

import argparse
import hashlib
import json
import os
import sys

import pytest

from conftest import tree_snapshot, write_params, write_pipeline
from locpipe.cli import build_parser, main
from locpipe.store import load_lock
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

    @pytest.mark.parametrize("existing", ["pipeline.yaml", "params.yaml"])
    def test_refuses_a_dangling_symlink_and_writes_nothing_through_it(self, existing, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp").mkdir()
        (tmp_path / "exp" / existing).symlink_to("../outside_target.yaml")
        assert main(["init", "exp"]) == 2
        assert capsys.readouterr().err == f"error: exp already contains a {existing}\n"
        assert not os.path.lexists(tmp_path / "outside_target.yaml")
        assert sorted(os.listdir(tmp_path / "exp")) == [existing]

    def test_refuses_an_existing_params_yaml_without_a_pipeline_yaml(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.yaml").write_text("mine: 1\n")
        assert main(["init", "."]) == 2
        assert "already contains a params.yaml" in capsys.readouterr().err
        assert (tmp_path / "params.yaml").read_text() == "mine: 1\n"
        assert not os.path.lexists(tmp_path / "pipeline.yaml")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_refuses_a_fifo_unopened(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.mkfifo(tmp_path / "pipeline.yaml")
        assert main(["init", "."]) == 2  # opening the FIFO to write would block
        assert "already contains a pipeline.yaml" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["pipeline.yaml"]

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


    def test_template_bytes_are_pinned(self):
        # every template file's SHA-256, as scaffolded before the derived
        # templates became edits of baseline
        assert {
            (name, filename): hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, files in TEMPLATES.items() for filename, text in files.items()
        } == _TEMPLATE_SHA256

    @pytest.mark.parametrize("text", ["x\n", "a\na\n"], ids=["absent", "twice"])
    def test_edit_anchor_must_occur_once(self, text):
        from locpipe.templates import _edit

        with pytest.raises(ValueError, match="anchor"):
            _edit(text, "a\n", "b\n")
        assert _edit("a\nx\n", "a\n", "b\n") == "b\nx\n"


_TEMPLATE_SHA256 = {
    ("baseline", "params.yaml"): "7baef9882a6dd6b9e03ae29940d313018467f0b39ff79e92865cb93f773a709a",
    ("baseline", "pipeline.yaml"): "db59917cd8cf3e21452c983b95aad5cd19143ef802a4c9c60b0155a6fa9fc399",
    ("change-cv", "params.yaml"): "7c924ad086bd679b8abfc2732f26a93429278597ba70a1fc23966f7c45e9956a",
    ("change-cv", "pipeline.yaml"): "db59917cd8cf3e21452c983b95aad5cd19143ef802a4c9c60b0155a6fa9fc399",
    ("change-dataset", "params.yaml"): "8ea1bb9baf6a391dad8210e1968d322fbab852df340d2cc649d6bd48c4cffe3f",
    ("change-dataset", "pipeline.yaml"): "db59917cd8cf3e21452c983b95aad5cd19143ef802a4c9c60b0155a6fa9fc399",
    ("change-estimator", "params.yaml"): "dcd21fd7e23f3583d18fb35a579b4e2bf0a693d26efa5a4e9552f79f9252615a",
    ("change-estimator", "pipeline.yaml"): "db59917cd8cf3e21452c983b95aad5cd19143ef802a4c9c60b0155a6fa9fc399",
    ("change-external", "params.yaml"): "7baef9882a6dd6b9e03ae29940d313018467f0b39ff79e92865cb93f773a709a",
    ("change-external", "pipeline.yaml"): "8868df839704dd3d04930fcd5196b51069c8afd0849b504f420aa718294abdae",
    ("scaling", "params.yaml"): "4ca6278aa619b807662152c2a7ca641d45f721e97c3e990efcd1c695f55a61c5",
    ("scaling", "pipeline.yaml"): "80955bc9ab44462cb1cc4b0d06d67b98535db438c738958665404e6f02b37bc8",
    ("two-model", "params.yaml"): "71165c17a142a464c392b9f480d48bf62b8137ed9825302ababa15c2f6a91806",
    ("two-model", "pipeline.yaml"): "db59917cd8cf3e21452c983b95aad5cd19143ef802a4c9c60b0155a6fa9fc399",
}


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

    @pytest.mark.parametrize("argv", [["repro", "--jobs", "0"], ["repro", "--dry-run", "--jobs", "0"]])
    def test_jobs_below_one_is_a_config_error(self, in_project, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"
        assert not (in_project / "pipeline.lock.json").exists()

    def test_jobs_below_one_refused_by_the_runner(self, in_project):
        from locpipe.errors import ConfigError
        from locpipe.runner import ExecOptions, Project, repro

        with pytest.raises(ConfigError, match=r"^jobs must be >= 1, got 0$"):
            repro(Project(root=in_project), ExecOptions(jobs=0))


# Python limits int-to-decimal conversion from 3.11 on
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before Python 3.11"
)
HEX_INT = "0x" + "f" * 4000  # 4,817 decimal digits


def _nested_mapping(depth: int) -> str:
    """A block mapping `extra: {a: {a: ...}}` nested `depth` levels deep."""
    lines = ["extra:", *("  " * level + "a:" for level in range(1, depth)), "  " * depth + "a: 1"]
    return "\n".join(lines) + "\n"


class TestUnreadableConfig:
    """A config file that cannot be read is a config error naming the file, exit 2."""

    @pytest.mark.parametrize("filename, command", [("params.yaml", "status"), ("pipeline.yaml", "dag")])
    def test_deep_nesting(self, in_project, capsys, filename, command):
        with open(in_project / filename, "a") as handle:
            handle.write(_nested_mapping(2000))
        assert main([command]) == 2
        assert capsys.readouterr().err == f"error: {filename}: nesting too deep to parse\n"

    def test_non_utf8_params(self, in_project, capsys):
        params = in_project / "params.yaml"
        offset = params.stat().st_size + len(b'extra: "')
        with open(params, "ab") as handle:
            handle.write(b'extra: "\xff"\n')
        assert main(["status"]) == 2
        assert capsys.readouterr().err == f"error: params.yaml: not valid UTF-8 at byte {offset}\n"


    @pytest.mark.parametrize("filename", ["params.yaml", "pipeline.yaml"])
    @pytest.mark.parametrize("scalar", [
        "2024-13-45",
        "2024-02-30",
        "!!int 'abc'",
        "!!float 'abc'",
        pytest.param("9" * 5000, marks=NEEDS_DIGIT_LIMIT),
    ], ids=["month-13", "february-30", "int-abc", "float-abc", "5000-digits"])
    def test_scalar_pyyaml_cannot_build(self, in_project, capsys, filename, scalar):
        with open(in_project / filename, "a") as handle:
            handle.write(f"extra: {scalar}\n")
        for command in ("status", "repro"):
            assert main([command]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {filename}: ") and err.count("\n") == 1, err
        assert not (in_project / ".locpipe" / "cache" / "config").exists()

    @pytest.mark.parametrize("filename, old, new, problem", [
        pytest.param("params.yaml", "seed: 1234", f"seed: {HEX_INT}", "integer too large", marks=NEEDS_DIGIT_LIMIT),
        pytest.param("pipeline.yaml", "version: 1", f"version: {HEX_INT}", "integer too large", marks=NEEDS_DIGIT_LIMIT),
        pytest.param(
            "params.yaml", "seed: 1234", f"seed: 1234\n  note: !!set {{{HEX_INT}}}", "integer too large",
            marks=NEEDS_DIGIT_LIMIT,
        ),
        ("params.yaml", "seed: 1234", 'seed: 1234\n  note: "\\ud83d\\ude00"', "string holds a surrogate"),
        ("pipeline.yaml", "version: 1", 'version: 1\n"\\ud800": 1', "string holds a surrogate"),
    ], ids=[
        "params-hex-int", "pipeline-hex-version", "params-hex-int-in-a-set", "params-surrogate-pair",
        "pipeline-lone-surrogate",
    ])
    def test_scalar_canonical_json_cannot_encode(self, in_project, capsys, filename, old, new, problem):
        path = in_project / filename
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        line = text[:text.index(old)].count("\n") + 1 + new.count("\n")
        for command in ("status", "repro"):
            assert main([command]) == 2
            assert capsys.readouterr().err == f"error: {filename}: line {line}: {problem}\n"
        assert not (in_project / ".locpipe" / "cache" / "config").exists()


DEEP_JSON = "[" * 5000 + "]" * 5000


@pytest.fixture
def cmd_project(tmp_path, monkeypatch):
    """One cmd stage `copy` with a param and a metric file; chdir into it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.txt").write_text("x\n")
    write_pipeline(tmp_path, {"copy": {
        "cmd": "cp in.txt out.txt && echo '{\"n\": 1}' > m.json",
        "deps": ["in.txt"], "params": ["p"], "outs": ["out.txt", "m.json"], "metrics": ["m.json"],
    }})
    write_params(tmp_path, {"p": 1})
    return tmp_path


class TestDeepJson:
    """A JSON file nested too deep to decode is its reader's own error (or,
    for a run-cache entry, a miss), never a RecursionError."""

    def test_lock_is_a_store_error(self, cmd_project, capsys):
        (cmd_project / "pipeline.lock.json").write_text(DEEP_JSON)
        for command in ("status", "repro"):
            assert main([command]) == 3
            assert capsys.readouterr().err.startswith("error: corrupt lock file ")

    def test_run_cache_entry_is_a_miss(self, cmd_project, capsys):
        assert main(["repro"]) == 0
        [entry] = (cmd_project / ".locpipe" / "cache" / "runcache").iterdir()
        write_params(cmd_project, {"p": 2})
        assert main(["repro"]) == 0
        entry.write_text(DEEP_JSON)
        write_params(cmd_project, {"p": 1})  # back to the value of the damaged entry
        capsys.readouterr()
        assert main(["status"]) == 0
        assert capsys.readouterr().out == "copy: changed (params: p)\n"
        assert main(["repro"]) == 0
        assert capsys.readouterr().out == "copy: executed\n1 executed, 0 cached, 0 failed, 0 skipped\n"

    def test_metric_file_is_a_config_error(self, cmd_project, capsys):
        assert main(["repro"]) == 0
        (cmd_project / "m.json").write_text(DEEP_JSON)
        assert main(["metrics", "show"]) == 2
        assert capsys.readouterr().err.startswith("error: unparseable metric file m.json: ")

    def test_report_input_is_a_builtin_error(self, tmp_path, monkeypatch, capsys):
        from locpipe.errors import BuiltinError
        from locpipe.loctk.report import load_input

        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        with pytest.raises(BuiltinError, match="unparseable input deep.json"):
            load_input("deep.json")
        assert main(["report", "deep.json"]) == 2
        assert capsys.readouterr().err.startswith("error: report: unparseable input deep.json: ")


class TestEditedLockEntry:
    """A lock entry whose recorded fields no longer give its recorded
    fingerprint is never served: the stage is reported changed, runs again,
    and the lock is repaired."""

    def test_edited_kind_then_params(self, cmd_project, capsys):
        lock_path = cmd_project / "pipeline.lock.json"
        assert main(["repro"]) == 0
        good = json.loads(lock_path.read_text())["stages"]["copy"]
        edits = [
            ("kind", {"cmd": "cp in.txt out.txt"}, "cmd"),
            ("params", '{"p":2}', "params: p"),
            # recorded params that do not decode to an object
            ("params", "{not json", "params"),
            ("params", 5, "params"),
            ("params", '"p"', "params"),
        ]
        for field, value, reason in edits:
            doc = json.loads(lock_path.read_text())
            doc["stages"]["copy"][field] = value
            lock_path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["status"]) == 0
            assert capsys.readouterr().out == f"copy: changed ({reason})\n"
            assert main(["repro"]) == 0
            assert capsys.readouterr().out == "copy: executed\n1 executed, 0 cached, 0 failed, 0 skipped\n"
            repaired = json.loads(lock_path.read_text())["stages"]["copy"]
            assert {k: v for k, v in repaired.items() if k != "committed_at"} == {
                k: v for k, v in good.items() if k != "committed_at"
            }
            assert main(["status"]) == 0
            assert capsys.readouterr().out == "copy: unchanged\n"


class TestCorruptOutRecord:
    """An out record's hash and a tree manifest's members name files, so a
    lock that records one that is not a hex hash or a path inside its out
    is a store error, exit 3, and no command reads or writes through it."""

    def test_non_string_hash(self, cmd_project, capsys):
        assert main(["repro"]) == 0
        objects = cmd_project / ".locpipe" / "cache" / "sha256"
        stored = sorted(objects.rglob("*"))
        _edit_lock(cmd_project, "copy", "out.txt", hash=5)
        for command in ("status", "repro", "gc"):
            assert main([command]) == 3
            assert capsys.readouterr().err == "error: corrupt lock file entry\n"
        assert sorted(objects.rglob("*")) == stored

    def test_hash_naming_a_file(self, cmd_project, capsys):
        assert main(["repro"]) == 0
        (cmd_project / "secret.txt").write_text("secret\n")
        _edit_lock(cmd_project, "copy", "out.txt", hash=".." + str(cmd_project / "secret.txt"))
        (cmd_project / "out.txt").unlink()
        for command in ("status", "repro"):
            assert main([command]) == 3
            assert capsys.readouterr().err == "error: corrupt lock file entry\n"
        assert not (cmd_project / "out.txt").exists()

    def test_tree_member_outside_the_out(self, tmp_path, monkeypatch, capsys):
        from locpipe.store import ObjectStore

        monkeypatch.chdir(tmp_path)
        write_pipeline(tmp_path, {"emit": {"cmd": "mkdir -p d && echo 1 > d/a.txt", "outs": ["d"]}})
        assert main(["repro"]) == 0
        store = ObjectStore(tmp_path / ".locpipe" / "cache")
        member = store.put_bytes(b"escaped\n")
        _edit_lock(tmp_path, "emit", "d", hash=store.put_bytes(f"../escaped.txt\t{member}".encode()))
        (tmp_path / "d" / "a.txt").unlink()
        for command in ("status", "repro"):
            assert main([command]) == 3
            assert capsys.readouterr().err == "error: corrupt tree manifest\n"
        assert not (tmp_path / "escaped.txt").exists()


class TestCorruptDepRecord:
    """A dep's path and hash are joined into paths (the table memo is keyed
    by a dep hash), so a lock that records a dep that is not a path inside
    the project with a hex hash is a store error, exit 3, and `gc` deletes
    nothing."""

    @pytest.mark.parametrize("deps", [
        {"in.txt": 5},
        {"in.txt": "zz"},
        {"in.txt": hashlib.sha256(b"x\n").hexdigest().upper()},
        {"../in.txt": hashlib.sha256(b"x\n").hexdigest()},
        {"/in.txt": hashlib.sha256(b"x\n").hexdigest()},
        ["ab"],
    ], ids=["hash-int", "hash-not-hex", "hash-upper-case", "dep-parent", "dep-absolute", "list"])
    def test_refused(self, cmd_project, capsys, deps):
        assert main(["repro"]) == 0
        cache = tree_snapshot(cmd_project / ".locpipe" / "cache")
        lock_path = cmd_project / "pipeline.lock.json"
        doc = json.loads(lock_path.read_text())
        doc["stages"]["copy"]["deps"] = deps
        lock_path.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in ("status", "repro", "gc"):
            assert main([command]) == 3
            assert capsys.readouterr().err == "error: corrupt lock file entry\n"
        assert tree_snapshot(cmd_project / ".locpipe" / "cache") == cache


class TestSymlinkedDirectoryInATree:
    """A symlinked directory inside a tree dep or tree out is refused by
    name; it is never followed."""

    def test_inside_a_tree_dep(self, tmp_path, monkeypatch, capsys):
        root = tmp_path.resolve()
        monkeypatch.chdir(root)
        (root / "src" / "real").mkdir(parents=True)
        (root / "src" / "real" / "a.txt").write_text("a\n")
        (root / "src" / "link").symlink_to("real", target_is_directory=True)
        write_pipeline(root, {"cat": {"cmd": "cat src/real/a.txt > o.txt", "deps": ["src"], "outs": ["o.txt"]}})
        for command in ("status", "repro"):
            assert main([command]) == 3
            assert capsys.readouterr().err == f"error: symlink not allowed: {root / 'src' / 'link'}\n"
        assert not (root / "o.txt").exists()

    def test_inside_a_tree_out(self, tmp_path, monkeypatch, capsys):
        root = tmp_path.resolve()
        monkeypatch.chdir(root)
        write_pipeline(root, {"emit": {
            "cmd": "mkdir -p d/real && echo 1 > d/real/a.txt && ln -s real d/link", "outs": ["d"],
        }})
        assert main(["repro"]) == 1
        assert capsys.readouterr().out == (
            f"emit: failed (never run; declared out d refused: symlink not allowed: {root / 'd' / 'link'})\n"
            "0 executed, 0 cached, 1 failed, 0 skipped\n"
        )
        assert load_lock(root / "pipeline.lock.json") == {}


def _edit_lock(root, stage: str, out: str, **fields) -> None:
    lock_path = root / "pipeline.lock.json"
    doc = json.loads(lock_path.read_text())
    doc["stages"][stage]["outs"][out].update(fields)
    lock_path.write_text(json.dumps(doc))


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

    def test_report_replaces_a_symlink_at_md_and_csv(self, in_project, capsys):
        """`--md` and `--csv` are written through a temp file renamed onto
        the path: a symlink there is replaced, never followed."""
        assert main(["repro"]) == 0
        (in_project / "target.md").write_text("mine\n")
        (in_project / "r.md").symlink_to("target.md")
        (in_project / "r.csv").symlink_to("missing/target.csv")
        capsys.readouterr()
        assert main(["report", "out/cv_results.json", "out/metrics.json", "--md", "r.md", "--csv", "r.csv"]) == 0
        assert capsys.readouterr().out == ""
        for name in ("r.md", "r.csv"):
            assert not (in_project / name).is_symlink()
        assert (in_project / "r.md").read_text() == (in_project / "report" / "report.md").read_text()
        assert (in_project / "r.csv").read_text() == (in_project / "report" / "summary.csv").read_text()
        assert (in_project / "target.md").read_text() == "mine\n"
        assert not (in_project / "missing").exists()
        assert [path.name for path in in_project.rglob(".locpipe-tmp-*")] == []

    def test_report_bad_input(self, in_project, capsys):
        (in_project / "junk.json").write_text("[1,2]")
        assert main(["report", "junk.json"]) == 2

    @pytest.mark.parametrize("doc, message", [
        ('{"rows": [], "aggregates": 5}', "'aggregates' must be a list"),
        ('{"rows": [], "aggregates": [{"candidate": 0}]}',
         "aggregate 0 needs an int 'candidate', a str 'model', 'params' and a 'metrics' mapping"),
        ('{"rows": [], "aggregates": [{"candidate": 0, "model": "r", "params": NaN, "metrics": {}}]}',
         "aggregate 0 has 'params' canonical JSON cannot encode (NaN, Infinity or too deep)"),
        ('{"rows": [], "aggregates": [{"candidate": 0, "model": "r", "params": {}, "metrics": {}}, '
         '{"candidate": 1, "model": "r", "params": {"alpha": [0.5, Infinity]}, "metrics": {}}]}',
         "aggregate 1 has 'params' canonical JSON cannot encode (NaN, Infinity or too deep)"),
    ])
    def test_report_malformed_cv_results(self, tmp_path, monkeypatch, capsys, doc, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cv.json").write_text(doc)
        assert main(["report", "cv.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: report: cv.json: {message}\n"
        assert captured.out == ""

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

    def test_gc_drops_the_lock_entries_of_undeclared_stages(self, in_project, capsys):
        import yaml

        from locpipe.store import load_lock

        assert main(["repro"]) == 0
        report = load_lock(in_project / "pipeline.lock.json")["report"]
        doc = yaml.safe_load((in_project / "pipeline.yaml").read_text())
        del doc["stages"]["report"]
        write_pipeline(in_project, doc["stages"])
        capsys.readouterr()
        assert main(["repro"]) == 0
        assert "0 executed, 5 cached" in capsys.readouterr().out
        assert main(["gc"]) == 0
        assert capsys.readouterr().out == "removed 2 unreferenced object(s)\n"
        lock = load_lock(in_project / "pipeline.lock.json")
        assert sorted(lock) == sorted(doc["stages"]) and len(lock) == 5
        cache = in_project / ".locpipe" / "cache"
        for rec in report.outs.values():
            assert not (cache / "sha256" / rec.hash[:2] / rec.hash[2:]).exists()
        assert not (cache / "runcache" / f"{report.fingerprint}.json").exists()
        assert main(["repro"]) == 0
        assert "0 executed, 5 cached" in capsys.readouterr().out

    def test_gc_with_an_invalid_pipeline_is_a_config_error(self, in_project, capsys):
        assert main(["repro"]) == 0
        lock = (in_project / "pipeline.lock.json").read_bytes()
        (in_project / "pipeline.yaml").write_text("version: 1\nstages: {}\n")
        capsys.readouterr()
        assert main(["gc"]) == 2
        assert capsys.readouterr().err.startswith("error: pipeline.yaml: ")
        assert (in_project / "pipeline.lock.json").read_bytes() == lock

    def test_gc_refuses_a_cache_shared_through_a_symlink(self, tmp_path, monkeypatch, capsys):
        # the baseline's lock names objects that change-cv's lock does not
        base, other = tmp_path.resolve() / "baseline", tmp_path.resolve() / "change-cv"
        cache = base / ".locpipe" / "cache"
        assert main(["init", str(base)]) == 0
        assert main(["init", "--template", "change-cv", str(other)]) == 0
        monkeypatch.chdir(base)
        assert main(["repro"]) == 0
        (other / ".locpipe").mkdir()
        (other / ".locpipe" / "cache").symlink_to(cache, target_is_directory=True)
        monkeypatch.chdir(other)
        capsys.readouterr()
        assert main(["repro"]) == 0
        assert "3 executed, 3 cached, 0 failed, 0 skipped" in capsys.readouterr().out
        locks = [(root / "pipeline.lock.json").read_bytes() for root in (base, other)]
        files = sorted(path for path in cache.rglob("*") if path.is_file())
        assert main(["gc"]) == 3
        assert capsys.readouterr().err == (
            f"error: refusing to gc {other / '.locpipe' / 'cache'}: it resolves to {cache}, outside the project\n"
        )
        assert [(root / "pipeline.lock.json").read_bytes() for root in (base, other)] == locks
        assert sorted(path for path in cache.rglob("*") if path.is_file()) == files
        monkeypatch.chdir(base)
        assert main(["status"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6 and all(line.endswith(": unchanged") for line in out), out

    def test_unknown_subcommand_exits_2(self, in_project, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, in_project):
        with pytest.raises(SystemExit) as exc:
            main(["repro", "--turbo"])
        assert exc.value.code == 2


class TestTail:
    def test_reads_only_the_end_of_a_large_log(self, tmp_path):
        import tracemalloc

        from locpipe.cli import _tail

        log = tmp_path / "stage.err"
        block = "é log line\n".encode() * 4096
        with open(log, "wb") as handle:
            for _ in range(20 * (1 << 20) // len(block) + 1):
                handle.write(block)
        tracemalloc.start()
        try:
            text = _tail(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == log.read_bytes()[-2000:].decode("utf-8", errors="replace")
        assert peak < 1 << 20, peak

    def test_short_and_missing_logs(self, tmp_path):
        from locpipe.cli import _tail

        (tmp_path / "short.err").write_bytes(b"oops\n")
        assert _tail(tmp_path / "short.err") == "oops\n"
        assert _tail(tmp_path / "missing.err") == ""


def _parsed(parser, argv: list[str], capsys) -> tuple:
    """(namespace or exit code, stdout, stderr) of parsing `argv`."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


_COMMANDS = ["init", "repro", "status", "dag", "metrics", "report", "gc", "bench"]


class TestLazyParser:
    """`build_parser(argv)` builds only the subparser `argv` names, and every
    message and parse is the one of the parser built in full."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["frobnicate"], ["--bogus", "repro"],
        *([command, "--help"] for command in _COMMANDS),
        ["repro"], ["repro", "--turbo"], ["repro", "--jobs", "x"], ["repro", "a", "b", "--force", "--dry-run"],
        ["status", "extra"], ["init", "d", "--template", "scaling"], ["dag", "--dot"],
        ["metrics"], ["metrics", "show", "--json"], ["metrics", "show", "--help"], ["metrics", "nope"],
        ["report"], ["report", "a.json", "--md", "r.md"], ["gc", "--verify"],
        ["bench"], ["bench", "scale", "--factors", "1,2"], ["bench", "scale", "--help"],
    ])
    def test_same_outcome_and_bytes_as_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        full = _parsed(build_parser(), argv, capsys)
        assert _parsed(build_parser(argv), argv, capsys) == full
        assert full[1] or full[2] or isinstance(full[0], dict)

    def test_builds_only_the_named_command(self):
        for command in _COMMANDS:
            [sub] = [a for a in build_parser([command])._actions if isinstance(a, argparse._SubParsersAction)]
            assert list(sub.choices) == [command]
        [sub] = [a for a in build_parser(["nope"])._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == _COMMANDS


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


class TestOwnedPaths:
    """Declared paths that would clobber one another or locpipe's own state
    are config errors (exit 2), refused before anything runs."""

    def test_overlapping_outs_of_two_stages(self, tmp_path, monkeypatch, capsys):
        # b_dir's tree would record d/y, and a restore of it would put an old d/y back
        monkeypatch.chdir(tmp_path)
        write_pipeline(tmp_path, {
            "b_dir": {"cmd": "mkdir -p d && echo 1 > d/x", "outs": ["d"]},
            "a_file": {"cmd": "echo 2 > d/y", "outs": ["d/y"]},
            "use": {"cmd": "cat d/y > u.txt", "deps": ["d/y"], "outs": ["u.txt"]},
        })
        write_params(tmp_path, {})
        for command in (["repro"], ["status"], ["gc"]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "error: output 'd/y' of stage 'a_file' overlaps output 'd' of stage 'b_dir'\n"
            )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["params.yaml", "pipeline.yaml"]

    def test_overlapping_outs_of_one_stage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_pipeline(tmp_path, {"emit": {"cmd": "mkdir -p d && echo 1 > d/x", "outs": ["d", "d/x"]}})
        write_params(tmp_path, {})
        assert main(["repro"]) == 2
        assert "output 'd/x' of stage 'emit' overlaps output 'd' of stage 'emit'" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [".locpipe/cache", ".locpipe/runs", "pipeline.lock.json"])
    def test_out_in_locpipe_state(self, in_project, capsys, out):
        assert main(["repro"]) == 0
        before = tree_snapshot(in_project / ".locpipe")
        lock = (in_project / "pipeline.lock.json").read_bytes()
        doc = (in_project / "pipeline.yaml").read_text()
        (in_project / "pipeline.yaml").write_text(doc.replace("outs: [data/folds.json]", f"outs: [{out}]"))
        capsys.readouterr()
        for command in (["repro"], ["repro"], ["status"]):
            assert main(command) == 2
            assert capsys.readouterr().err == f"error: stage 'split': outs path '{out}' is locpipe's own state\n"
        assert tree_snapshot(in_project / ".locpipe") == before
        assert (in_project / "pipeline.lock.json").read_bytes() == lock
