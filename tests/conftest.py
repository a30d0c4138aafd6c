"""Shared fixtures: temp experiment projects, config editing, tree snapshots."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest
import yaml

from locpipe.runner import ExecOptions, Project, repro
from locpipe.templates import init_experiment


@pytest.fixture
def make_project(tmp_path):
    """Factory: init a template into a fresh directory and return the Project."""

    counter = {"n": 0}

    def _make(template: str = "baseline") -> Project:
        counter["n"] += 1
        directory = tmp_path / f"exp{counter['n']}"
        init_experiment(directory, template)
        return Project(root=directory)

    return _make


@pytest.fixture
def baseline_project(make_project) -> Project:
    return make_project("baseline")


@pytest.fixture(scope="session")
def warm_template(tmp_path_factory):
    """Factory: the root of a template's project, fully run once per session.
    Copy it before changing anything, a repro's run manifest included."""
    roots: dict[str, Path] = {}

    def _warm(template: str) -> Path:
        if template not in roots:
            root = tmp_path_factory.mktemp("warm") / template
            init_experiment(root, template)
            report = repro(Project(root=root))
            assert report.executed == len(report.results) and report.failed == 0
            roots[template] = root
        return roots[template]

    return _warm


@pytest.fixture
def warm_baseline(warm_template) -> Path:
    return warm_template("baseline")


def run(project: Project, **kwargs):
    return repro(project, ExecOptions(**kwargs))


def config_key(project: Project) -> str:
    """The parse-memo key of the project's config files as they are now."""
    record: dict = {}
    project.load(record)
    return record["key"]


def edit_params(project: Project, dotted: str, value) -> None:
    tree = yaml.safe_load(project.params_path.read_text()) or {}
    node = tree
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    project.params_path.write_text(yaml.safe_dump(tree, sort_keys=False))


def write_pipeline(directory: Path, stages: dict) -> None:
    (directory / "pipeline.yaml").write_text(
        yaml.safe_dump({"version": 1, "stages": stages}, sort_keys=False)
    )


def write_params(directory: Path, tree: dict) -> None:
    (directory / "params.yaml").write_text(yaml.safe_dump(tree, sort_keys=False))


def tree_snapshot(root: Path) -> dict[str, str]:
    """Relative path -> content hash for every file under root."""
    snapshot = {}
    for current, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = Path(current) / name
            rel = path.relative_to(root).as_posix()
            snapshot[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return snapshot


def executed_stages(report) -> set[str]:
    return {r.stage for r in report.results if r.action == "executed"}


def value_rows(table) -> list[list[float]]:
    """The value cells of a column-major `tables.Table`, row by row."""
    return [list(row) for row in zip(*table.cols)]


def target_rows(table) -> list[tuple[float, float]]:
    """The ``(x, y)`` targets of a `tables.Table`, row by row."""
    return list(zip(table.x, table.y))
