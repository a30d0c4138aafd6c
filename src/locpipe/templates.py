"""Preconfigured experiment templates.

`init` scaffolds an experiment directory from one of these. Each template is
exactly two files, ``pipeline.yaml`` and ``params.yaml``; the change-study
templates (``change-*``) differ from ``baseline`` only in those files, so
every incremental experiment change is a config-only diff.

``baseline`` is stated once: every other template is made from it by
`_edit`, or for ``change-external`` by appending one stage.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigError

_BASELINE_PIPELINE = """\
version: 1
stages:
  synth:
    builtin: loc.synth
    params: [synth]
    outs: [data/raw.csv]
  prepare:
    builtin: loc.prepare
    deps: [data/raw.csv]
    params: [prepare]
    outs: [data/prepared.csv, data/prepare_summary.json]
    metrics: [data/prepare_summary.json]
  featurize:
    builtin: loc.featurize
    deps: [data/prepared.csv]
    params: [featurize]
    outs: [data/features.csv]
  split:
    builtin: loc.split
    deps: [data/prepared.csv]
    params: [split]
    outs: [data/folds.json]
  gridsearch:
    builtin: loc.gridsearch
    deps: [data/features.csv, data/folds.json]
    params: [model]
    outs: [out/cv_results.json, out/model.json, out/predictions.csv, out/metrics.json]
    metrics: [out/metrics.json]
  report:
    builtin: loc.report
    deps: [out/cv_results.json, out/metrics.json]
    outs: [report/report.md, report/summary.csv]
"""

_BASELINE_PARAMS = """\
synth:
  n: 300
  anchors: 6
  area:
    w: 60.0
    h: 40.0
  p0: -40.0
  path_loss_n: 2.2
  sigma: 2.0
  seed: 1234
prepare:
  fill_value: -100.0
  drop_policy: targets
featurize:
  transforms: [identity]
split:
  strategy: kfold
  k: 5
  seed: 7
model:
  primary_metric: rmse
  report_metrics: [rmse, loc_err_mean]
  grid:
    ridge:
      alpha: [0.0]
      fit_intercept: [true, false]
"""


def _edit(text: str, old: str, new: str) -> str:
    """`text` with its one occurrence of `old` replaced by `new`; raises
    unless `old` occurs exactly once, so no edit is silently lost."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"template anchor occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


_FIT_INTERCEPT = "      fit_intercept: [true, false]\n"

_TWO_MODEL_PARAMS = _edit(
    _BASELINE_PARAMS,
    _FIT_INTERCEPT,
    _FIT_INTERCEPT + """\
    knn:
      k: [3, 5]
      weights: [uniform, distance]
      metric: [euclidean]
""",
)

# Scaling: a `scale` stage between prepare and the stages that read its rows.
_SCALING_PIPELINE = _edit(
    _edit(
        _BASELINE_PIPELINE,
        "  featurize:\n    builtin: loc.featurize\n    deps: [data/prepared.csv]\n",
        """\
  scale:
    builtin: loc.scale
    deps: [data/prepared.csv]
    params: [scale]
    outs: [data/scaled.csv]
  featurize:
    builtin: loc.featurize
    deps: [data/scaled.csv]
""",
    ),
    "    builtin: loc.split\n    deps: [data/prepared.csv]\n",
    "    builtin: loc.split\n    deps: [data/scaled.csv]\n",
)

_SCALING_PARAMS = _edit(
    _edit(
        _edit(_BASELINE_PARAMS, "  n: 300\n", "  n: 600\n"),
        "featurize:\n",
        "scale:\n  factor: 1\nfeaturize:\n",
    ),
    "      alpha: [0.0]\n",
    "      alpha: [0.0, 0.5]\n",
)

# Change study: replace the estimator values and add a second estimator.
_CHANGE_ESTIMATOR_PARAMS = _edit(
    _BASELINE_PARAMS,
    "      alpha: [0.0]\n" + _FIT_INTERCEPT,
    """\
      alpha: [0.1, 1.0]
      fit_intercept: [true, false]
    knn:
      k: [5]
      weights: [distance]
      metric: [manhattan]
""",
)

# Change study: switch to a different dataset source (config-only).
_CHANGE_DATASET_PARAMS = _edit(
    _BASELINE_PARAMS,
    """\
  n: 300
  anchors: 6
  area:
    w: 60.0
    h: 40.0
  p0: -40.0
  path_loss_n: 2.2
  sigma: 2.0
  seed: 1234
""",
    """\
  n: 400
  anchors: 8
  area:
    w: 80.0
    h: 50.0
  p0: -42.0
  path_loss_n: 2.5
  sigma: 3.0
  seed: 777
""",
)

# Change study: different cross-validation strategy plus an extra metric.
_CHANGE_CV_PARAMS = _edit(
    _edit(
        _BASELINE_PARAMS,
        "  strategy: kfold\n  k: 5\n",
        "  strategy: shuffle\n  test_fraction: 0.2\n  repeats: 5\n",
    ),
    "  report_metrics: [rmse, loc_err_mean]\n",
    "  report_metrics: [rmse, loc_err_mean, loc_err_p95]\n",
)

# Change study: append a user-supplied external-command stage.
_CHANGE_EXTERNAL_PIPELINE = _BASELINE_PIPELINE + """\
  export:
    cmd: cp out/cv_results.json out/export.json
    deps: [out/cv_results.json]
    outs: [out/export.json]
"""

TEMPLATES: dict[str, dict[str, str]] = {
    "baseline": {
        "pipeline.yaml": _BASELINE_PIPELINE,
        "params.yaml": _BASELINE_PARAMS,
    },
    "two-model": {
        "pipeline.yaml": _BASELINE_PIPELINE,
        "params.yaml": _TWO_MODEL_PARAMS,
    },
    "scaling": {
        "pipeline.yaml": _SCALING_PIPELINE,
        "params.yaml": _SCALING_PARAMS,
    },
    "change-estimator": {
        "pipeline.yaml": _BASELINE_PIPELINE,
        "params.yaml": _CHANGE_ESTIMATOR_PARAMS,
    },
    "change-dataset": {
        "pipeline.yaml": _BASELINE_PIPELINE,
        "params.yaml": _CHANGE_DATASET_PARAMS,
    },
    "change-cv": {
        "pipeline.yaml": _BASELINE_PIPELINE,
        "params.yaml": _CHANGE_CV_PARAMS,
    },
    "change-external": {
        "pipeline.yaml": _CHANGE_EXTERNAL_PIPELINE,
        "params.yaml": _BASELINE_PARAMS,
    },
}


def template_names() -> list[str]:
    return sorted(TEMPLATES)


def init_experiment(directory: Path | str, template: str = "baseline") -> Path:
    """Scaffold `template` into `directory`.

    Refuses, before writing anything, if either template file exists in
    any form: a file, a directory, a FIFO or a symlink, even a dangling
    one. Each file is then created exclusively, which never follows a
    symlink, so `init` writes only files it made.
    """
    if template not in TEMPLATES:
        raise ConfigError(
            f"unknown template '{template}' (available: {', '.join(template_names())})"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = TEMPLATES[template]
    for filename in files:
        if os.path.lexists(directory / filename):
            raise ConfigError(f"{directory} already contains a {filename}")
    for filename, text in files.items():
        with open(directory / filename, "x", encoding="utf-8") as handle:
            handle.write(text)
    return directory
