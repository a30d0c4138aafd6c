"""The config parse memo: `configmodel.load_config` under `memo_key`, stored
by `repro` at ``.locpipe/cache/config/<key>.json``; and the reads of the
config files and memo entries, which refuse a FIFO instead of blocking."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_key, run, tree_snapshot, write_params, write_pipeline
from locpipe import configmodel
from locpipe.cli import main
from locpipe.configmodel import load_config, memo_key
from locpipe.errors import ConfigError
from locpipe.runner import Project
from locpipe.store import ObjectStore, gc, load_lock
from locpipe.templates import TEMPLATES
from test_durability import _locpipe

SRC = Path(__file__).resolve().parent.parent / "src"


# Python's int-to-decimal digit limit (none before 3.11): the longest int JSON encodes
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _typed(value: object) -> object:
    """`value` with every type, float bit pattern and mapping order spelled
    out: two values are equal type for type, `-0.0` and mapping order
    included, exactly when their `_typed` forms are equal."""
    if isinstance(value, dict):
        return ("dict", [(key, _typed(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _no_yaml(monkeypatch) -> None:
    def refuse(text, filename):
        raise AssertionError(f"{filename} parsed as YAML on a memo hit")

    monkeypatch.setattr(configmodel, "_load_yaml", refuse)


def _memo_files(project: Project) -> list[str]:
    return sorted(path.name for path in (project.cache_dir / "config").glob("*"))


class TestHitEqualsFreshParse:
    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_every_template(self, template, monkeypatch):
        files = TEMPLATES[template]
        pipeline, params = files["pipeline.yaml"].encode(), files["params.yaml"].encode()
        spec, tree, entry = load_config(pipeline, params, None)
        assert entry is not None
        _no_yaml(monkeypatch)
        hit_spec, hit_tree, again = load_config(pipeline, params, entry)
        assert again is None
        assert hit_spec == spec and list(hit_spec.stages) == list(spec.stages)
        assert all(type(stage) is configmodel.StageSpec for stage in hit_spec.stages.values())
        assert _typed(hit_tree) == _typed(tree)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.recursive(
            st.booleans() | st.text(max_size=8)
            | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
            | st.integers(min_value=-(10 ** INT_DIGITS - 1), max_value=10 ** INT_DIGITS - 1)
            | st.sampled_from([10 ** INT_DIGITS - 1, -(10 ** INT_DIGITS - 1)])
            | st.sampled_from([0.0, -0.0, 1e-300, -1.5e300, 0.1, 5e-324, -2.225073858507201e-308])
            | st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
            max_leaves=12,
        ),
        max_size=5,
    ))
    def test_drawn_params_trees(self, tree):
        pipeline = TEMPLATES["baseline"]["pipeline.yaml"].encode()
        params = yaml.safe_dump(tree, sort_keys=False, allow_unicode=True).encode()
        spec, fresh, entry = load_config(pipeline, params, None)
        assert entry is not None
        loaded = [configmodel._load_yaml(pipeline.decode(), "pipeline.yaml"), fresh]
        assert _typed(configmodel._memo_docs(entry)) == _typed(loaded)
        hit_spec, hit, _ = load_config(pipeline, params, entry)
        assert _typed(hit) == _typed(fresh)
        assert hit_spec == spec and list(hit_spec.stages) == list(spec.stages)


class TestKey:
    def test_one_byte_edit_to_either_file_misses(self):
        pipeline, params = b"version: 1\n", b"a: 1\n"
        key = memo_key(pipeline, params)
        assert memo_key(pipeline + b" ", params) != key
        assert memo_key(pipeline, b"a: 2\n") != key
        assert memo_key(pipeline, None) != memo_key(pipeline, b"")
        assert memo_key(pipeline, params) == key

    @pytest.mark.parametrize("source", ["configmodel.py", "yaml"])
    def test_parser_source_change_misses(self, source, monkeypatch):
        key = memo_key(b"version: 1\n", None)
        sources = configmodel._parser_sources()
        assert [name for name, _ in sources] == ["configmodel.py", "canonical.py", "yaml"]
        assert b"__version__" in dict(sources)["yaml"]
        edited = [(name, data + b"#" if name == source else data) for name, data in sources]
        monkeypatch.setattr(configmodel, "_parser_sources", lambda: edited)
        configmodel._parser_digest.cache_clear()
        try:
            assert memo_key(b"version: 1\n", None) != key
        finally:
            configmodel._parser_digest.cache_clear()


class TestOnDisk:
    def test_repro_writes_and_later_loads_hit(self, baseline_project, monkeypatch):
        project = baseline_project
        assert _memo_files(project) == []
        spec, params = project.load()
        assert _memo_files(project) == []  # only repro writes entries
        run(project)
        assert _memo_files(project) == [f"{config_key(project)}.json"]
        _no_yaml(monkeypatch)
        assert project.load() == (spec, params)
        assert run(project).cached == 6

    @pytest.mark.parametrize("warm", [False, True], ids=["never-run", "params-edited"])
    def test_only_repro_writes(self, baseline_project, monkeypatch, capsys, warm):
        if warm:
            run(baseline_project)
            baseline_project.params_path.write_text(baseline_project.params_path.read_text() + "# edited\n")
        monkeypatch.chdir(baseline_project.root)
        before = tree_snapshot(baseline_project.root)
        for argv in (["status"], ["repro", "--dry-run"], ["dag"], ["metrics", "show"]):
            assert main(argv) == 0
        assert tree_snapshot(baseline_project.root) == before

    @pytest.mark.parametrize("damage", [
        lambda data: data[: len(data) // 2],
        lambda data: b"\xff" + data,
        lambda data: data.replace(b"loc.synth", b"loc.synty"),
        lambda data: b"[" * 100_000 + b"]" * 100_000,
        lambda data: b'{"sha256": "0", "docs": [1, 2]}',
    ], ids=["truncated", "not-utf8", "edited", "too-deep", "wrong-digest"])
    def test_corrupt_entry_misses_and_repro_rewrites_it(self, baseline_project, damage):
        project = baseline_project
        run(project)
        (path,) = (project.cache_dir / "config").glob("*.json")
        good = path.read_bytes()
        path.write_bytes(damage(good))
        record: dict = {}
        spec, _ = project.load(record)
        assert spec.stages["synth"].builtin == "loc.synth"
        assert (record["key"], record["fresh"]) == (path.stem, good)
        assert run(project).cached == 6
        assert path.read_bytes() == good

    @pytest.mark.parametrize("extra", ["1: x", "extra: !!set {a, b}"], ids=["int-key", "set-value"])
    def test_documents_validation_refuses_make_no_entry(self, baseline_project, monkeypatch, capsys, extra):
        project = baseline_project
        with open(project.params_path, "a") as handle:
            handle.write(extra + "\n")
        monkeypatch.chdir(project.root)
        assert main(["repro"]) == 2
        assert capsys.readouterr().err.startswith("error: params: ")
        assert _memo_files(project) == []

    def test_gc_keeps_only_the_current_key(self, baseline_project, monkeypatch, capsys):
        project = baseline_project
        run(project)
        old = config_key(project)
        project.params_path.write_text(project.params_path.read_text() + "# edited\n")
        run(project)
        assert sorted(_memo_files(project)) == sorted([f"{old}.json", f"{config_key(project)}.json"])
        monkeypatch.chdir(project.root)
        assert main(["gc"]) == 0
        assert _memo_files(project) == [f"{config_key(project)}.json"]
        gc(load_lock(project.lock_path), ObjectStore(project.cache_dir))
        assert _memo_files(project) == []


def _imported(stderr: str) -> set[str]:
    """The module names a `python -X importtime` run lists on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _repro_imports(root: Path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "locpipe", "repro"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    return _imported(proc.stderr)


def test_cached_repro_imports_no_yaml_dataclasses_or_launch(baseline_project):
    cold = _repro_imports(baseline_project.root)
    assert "yaml" in cold and "locpipe.launch" in cold
    warm = _repro_imports(baseline_project.root)
    assert "locpipe.runner" in warm
    assert not {"yaml", "dataclasses", "locpipe.launch"} & warm
    assert not any(name.startswith("yaml.") for name in warm)


@pytest.mark.parametrize("template, stages", [("baseline", 6), ("two-model", 6), ("scaling", 7)])
def test_console_repro_of_a_warm_project_imports_no_yaml_dataclasses_launch_or_builtin(
    template, stages, warm_template, tmp_path
):
    """A fully cached ``python -m locpipe repro`` loads its config from the
    parse memo and forks nothing, so it imports none of the modules only a
    YAML parse, a fork or a builtin stage needs."""
    root = tmp_path / template
    shutil.copytree(warm_template(template), root)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "locpipe", "repro"],
        cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.splitlines()[-1] == f"0 executed, {stages} cached, 0 failed, 0 skipped"
    imported = _imported(proc.stderr)
    assert "locpipe.runner" in imported
    unwanted = {"yaml", "dataclasses", "locpipe.launch"}
    assert sorted(n for n in imported if n in unwanted or n.startswith(("yaml.", "locpipe.loctk."))) == []


# ---------------------------------------------------------------------------
# A config file or memo entry that is not a regular file is never read


def _warm_one_stage(tmp_path: Path) -> Path:
    root = tmp_path.resolve() / "proj"
    root.mkdir()
    write_pipeline(root, {"emit": {"cmd": "echo x > o.txt", "outs": ["o.txt"]}})
    write_params(root, {})
    assert _locpipe(root, "repro").returncode == 0
    return root


def test_fifo_params_file_is_refused(tmp_path):
    root = _warm_one_stage(tmp_path)
    (root / "params.yaml").unlink()
    os.mkfifo(root / "params.yaml")
    for command in ("status", "repro"):
        proc = _locpipe(root, command)
        assert proc.returncode == 3, proc
        assert proc.stderr == f"error: not a regular file: {root / 'params.yaml'}\n"


def test_symlinked_config_files_are_followed(tmp_path):
    root = _warm_one_stage(tmp_path)
    elsewhere = tmp_path / "config"
    elsewhere.mkdir()
    for name in ("pipeline.yaml", "params.yaml"):
        (root / name).rename(elsewhere / name)
        (root / name).symlink_to(elsewhere / name)
    proc = _locpipe(root, "status")
    assert (proc.returncode, proc.stdout) == (0, "emit: unchanged\n"), proc
    # a symlink to a FIFO is refused by the name of the FIFO
    (elsewhere / "params.yaml").unlink()
    os.mkfifo(elsewhere / "params.yaml")
    proc = _locpipe(root, "status")
    assert proc.returncode == 3, proc
    assert proc.stderr == f"error: not a regular file: {elsewhere.resolve() / 'params.yaml'}\n"


def test_fifo_pipeline_file_stops_the_project_search(tmp_path):
    # a project in the parent directory is not reported in its place
    root = _warm_one_stage(tmp_path)
    sub = root / "sub"
    sub.mkdir()
    os.mkfifo(sub / "pipeline.yaml")
    for command in ("status", "repro", "gc"):
        proc = _locpipe(sub, command)
        assert (proc.returncode, proc.stdout) == (3, ""), proc
        assert proc.stderr == f"error: not a regular file: {sub / 'pipeline.yaml'}\n"


@pytest.mark.parametrize("name", ["pipeline.yaml", "params.yaml"])
@pytest.mark.parametrize("kind", ["dangling", "loop", "directory"])
def test_config_file_in_a_non_regular_form_is_refused(tmp_path, name, kind):
    root = _warm_one_stage(tmp_path)
    lock = root / "pipeline.lock.json"
    lock_bytes = lock.read_bytes()
    path = root / name
    path.unlink()
    if kind == "dangling":
        path.symlink_to(tmp_path / "gone.yaml")
        refusal = f"missing file: {tmp_path.resolve() / 'gone.yaml'}"
    elif kind == "loop":
        path.symlink_to(root / "other.yaml")
        (root / "other.yaml").symlink_to(path)
        refusal = f"symlink not allowed: {path}"
    else:
        path.mkdir()
        refusal = f"not a regular file: {path}"
    for command in ("status", "repro", "gc"):
        proc = _locpipe(root, command)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {refusal}\n"), proc
    assert lock.read_bytes() == lock_bytes


def test_absent_config_files(tmp_path):
    root = _warm_one_stage(tmp_path)
    (root / "params.yaml").unlink()
    proc = _locpipe(root, "status")
    assert (proc.returncode, proc.stdout) == (0, "emit: unchanged\n"), proc
    (root / "pipeline.yaml").unlink()
    with pytest.raises(ConfigError, match=f"missing {root / 'pipeline.yaml'}"):
        Project(root).load()


def test_fifo_config_memo_entry_is_a_miss(tmp_path):
    root = _warm_one_stage(tmp_path)
    [memo] = (root / ".locpipe" / "cache" / "config").iterdir()
    entry = memo.read_bytes()
    memo.unlink()
    os.mkfifo(memo)
    proc = _locpipe(root, "status")
    assert (proc.returncode, proc.stdout) == (0, "emit: unchanged\n"), proc
    assert not memo.is_file()  # status writes nothing
    proc = _locpipe(root, "repro")
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "0 executed, 1 cached, 0 failed, 0 skipped"), proc
    assert memo.is_file() and memo.read_bytes() == entry
