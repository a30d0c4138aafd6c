"""The paper's change studies, made in place on a warm `baseline` project.

Each study writes a template's two config files over a copy of one warmed
`baseline` and runs `repro`. Only the stages the edit touches execute, the
outs are the bytes of a cold run of that template (and of the golden
digests where `tests/test_golden.py` has them), `repro --dry-run` marks
every stage that then executes, and writing `baseline`'s files back
executes nothing.
"""

from __future__ import annotations

import hashlib
import shutil

import pytest

from conftest import executed_stages, run
from test_golden import GOLDEN
from locpipe.runner import Project, plan, status
from locpipe.store import load_lock
from locpipe.templates import TEMPLATES, init_experiment

BASELINE_STAGES = {"synth", "prepare", "featurize", "split", "gridsearch", "report"}

# study -> the stages a repro executes once its config files are written over a warm baseline
EXECUTED = {
    "change-cv": {"split", "gridsearch", "report"},
    "change-estimator": {"gridsearch", "report"},
    "two-model": {"gridsearch", "report"},
    "change-dataset": BASELINE_STAGES,
    "change-external": {"export"},
}


def write_template(project: Project, template: str) -> None:
    for filename, text in TEMPLATES[template].items():
        (project.root / filename).write_text(text, encoding="utf-8")


def out_digests(project: Project, outs) -> dict[str, str]:
    return {out: hashlib.sha256((project.root / out).read_bytes()).hexdigest() for out in outs}


def committed_outs(project: Project) -> list[str]:
    return [out for entry in load_lock(project.lock_path).values() for out in entry.outs]


@pytest.mark.parametrize("template", EXECUTED)
def test_a_change_study_in_place_reruns_only_its_changed_stages(template, warm_baseline, tmp_path):
    project = Project(root=tmp_path / "study")
    shutil.copytree(warm_baseline, project.root, symlinks=True)
    write_template(project, template)

    planned = {entry.stage for entry in plan(project).entries if entry.action == "run"}
    if template == "change-cv":
        reasons = {row.stage: row.reasons for row in status(project)}
        assert reasons["split"] and all(reason.startswith("params: split.") for reason in reasons["split"])
        assert reasons["gridsearch"] == ("params: model.report_metrics",)
        assert all(not reasons[stage] for stage in BASELINE_STAGES - {"split", "gridsearch"})
    report = run(project)
    assert report.failed == 0
    assert executed_stages(report) == EXECUTED[template]
    assert EXECUTED[template] <= planned

    cold = Project(root=tmp_path / "cold")
    init_experiment(cold.root, template)
    cold_report = run(cold)
    assert cold_report.failed == 0 and cold_report.cached == 0
    outs = committed_outs(cold)
    assert sorted(committed_outs(project)) == sorted(outs)
    assert out_digests(project, outs) == out_digests(cold, outs)
    if template in GOLDEN:
        assert out_digests(project, GOLDEN[template]) == GOLDEN[template]

    # a return to the earlier config executes nothing and gives its bytes back
    write_template(project, "baseline")
    report = run(project)
    assert report.failed == 0 and executed_stages(report) == set()
    assert out_digests(project, GOLDEN["baseline"]) == GOLDEN["baseline"]
