"""Deps that overlap another stage's out without equalling it: a dep inside
a tree out, or a directory dep that holds an out. Each is a graph edge, and
`status`, `repro --dry-run` and `repro` agree on it."""

import shutil

import pytest

from conftest import run, write_params, write_pipeline
from locpipe.configmodel import PipelineSpec, StageSpec
from locpipe.graph import build_graph, topo_order
from locpipe.runner import Project, plan, status

TREE_EMIT = {"cmd": "mkdir -p d/sub && echo x > d/sub/x.txt && echo y > d/y.txt", "outs": ["d"]}

# shape -> (upstream stage, consumer dep, the upstream out to delete, the
# files the consumer lists under its dep)
SHAPES = {
    "tree-out": (TREE_EMIT, "d", "d", "d/sub/x.txt\nd/y.txt\n"),
    "member-file": (TREE_EMIT, "d/sub/x.txt", "d", "d/sub/x.txt\n"),
    "subdirectory": (TREE_EMIT, "d/sub", "d", "d/sub/x.txt\n"),
    "directory-holding-out": (
        {"cmd": "echo made > d/made.txt", "outs": ["d/made.txt"]}, "d", "d/made.txt",
        "d/made.txt\nd/src.txt\n",
    ),
}


def _project(tmp_path, shape: str) -> Project:
    emit, dep, _, _ = SHAPES[shape]
    root = tmp_path / "proj"
    (root / "d").mkdir(parents=True)
    if shape == "directory-holding-out":
        (root / "d" / "src.txt").write_text("source\n")
    # consumer sorts first by name, so only the edge can order it second
    write_pipeline(root, {
        "a_consume": {"cmd": f"find {dep} -type f | sort > listing.txt", "deps": [dep], "outs": ["listing.txt"]},
        "b_emit": emit,
    })
    write_params(root, {})
    return Project(root=root)


def _assert_all_cached(project: Project) -> None:
    assert {s.stage: (s.state, s.reasons) for s in status(project)} == {
        "a_consume": ("unchanged", ()), "b_emit": ("unchanged", ()),
    }
    assert {e.stage: (e.action, e.reason) for e in plan(project).entries} == {
        "a_consume": ("cached", ""), "b_emit": ("cached", ""),
    }
    report = run(project)
    assert {r.stage: r.action for r in report.results} == {"a_consume": "cached", "b_emit": "cached"}


@pytest.mark.parametrize("shape", SHAPES)
def test_status_plan_repro_agree(shape, tmp_path):
    project = _project(tmp_path, shape)
    entries = {e.stage: (e.action, e.reason) for e in plan(project).entries}
    assert entries["a_consume"] == ("run", "upstream will run: b_emit")
    report = run(project)
    assert [(r.stage, r.action) for r in report.results] == [("b_emit", "executed"), ("a_consume", "executed")]
    _, _, upstream_out, listing = SHAPES[shape]
    assert (project.root / "listing.txt").read_text() == listing

    _assert_all_cached(project)

    deleted = project.root / upstream_out
    if deleted.is_dir():
        shutil.rmtree(deleted)
    else:
        deleted.unlink()
    _assert_all_cached(project)
    assert (project.root / "listing.txt").read_text() == listing


def test_dep_containing_an_out_is_an_edge():
    spec = PipelineSpec(version=1, stages={
        "a_consume": StageSpec(name="a_consume", cmd="true", deps=("d",), outs=("listing.txt",)),
        "b_emit": StageSpec(name="b_emit", cmd="true", outs=("d/made.txt",)),
    })
    graph = build_graph(spec)
    assert graph.edges == (("b_emit", "a_consume"),)
    assert topo_order(graph) == ["b_emit", "a_consume"]
