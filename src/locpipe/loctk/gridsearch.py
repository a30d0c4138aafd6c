"""Cross-validated grid search over the builtin model family.

Every candidate is evaluated on every fold with the shared fold file, so all
models see identical splits. Selection is the argmin of the mean primary
metric over folds, ties resolved toward the lowest candidate index. Outputs
(positional): cv results JSON, model artifact JSON, per-fold predictions CSV
of the selected candidate, and a compact metrics JSON.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from pathlib import Path

from ..canonical import dump_canonical
from ..errors import BuiltinError
from . import StageRequest, get, section
from .metrics import METRIC_KEYS, compute_metrics
from .models import RidgeStats, artifact_doc, fit_model
from .split import load_fold_file
from .tables import Table, read_table

_RIDGE_PARAMS = ("alpha", "fit_intercept")
_KNN_PARAMS = ("k", "metric", "weights")
# the numeric columns of the predictions CSV, after sample_id
_PRED_NUMBERS = ("fold", "pred_x", "pred_y", "true_x", "true_y")


@dataclass(frozen=True)
class Candidate:
    index: int
    model: str
    params: dict


def _check_ridge(params: dict, where: str) -> dict:
    alpha = params["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or alpha < 0:
        raise BuiltinError(f"{where}: ridge alpha must be a number >= 0, got {alpha!r}")
    if not isinstance(params["fit_intercept"], bool):
        raise BuiltinError(f"{where}: ridge fit_intercept must be a bool")
    return {"alpha": float(alpha), "fit_intercept": params["fit_intercept"]}


def _check_knn(params: dict, where: str) -> dict:
    k = params["k"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise BuiltinError(f"{where}: knn k must be a positive int, got {k!r}")
    if params["weights"] not in ("uniform", "distance"):
        raise BuiltinError(f"{where}: knn weights must be uniform|distance")
    if params["metric"] not in ("euclidean", "manhattan"):
        raise BuiltinError(f"{where}: knn metric must be euclidean|manhattan")
    return {"k": k, "metric": params["metric"], "weights": params["weights"]}


def expand_grid(grid_cfg: dict, where: str = "model.grid") -> list[Candidate]:
    """Canonical expansion: model ids ascending, then the cartesian product over
    sorted param names with values in declared order."""
    if not isinstance(grid_cfg, dict) or not grid_cfg:
        raise BuiltinError(f"{where}: must be a non-empty mapping of model id -> param lists")
    known = {"ridge": (_RIDGE_PARAMS, _check_ridge), "knn": (_KNN_PARAMS, _check_knn)}
    candidates: list[Candidate] = []
    for model_id in sorted(grid_cfg):
        if model_id not in known:
            raise BuiltinError(f"{where}: unknown model '{model_id}' (allowed: knn, ridge)")
        expected_names, check = known[model_id]
        body = grid_cfg[model_id]
        if not isinstance(body, dict):
            raise BuiltinError(f"{where}.{model_id}: must be a mapping of param -> value list")
        for name in body:
            if name not in expected_names:
                raise BuiltinError(f"{where}.{model_id}: unknown parameter '{name}'")
        for name in expected_names:
            if name not in body:
                raise BuiltinError(f"{where}.{model_id}: missing parameter '{name}'")
            if not isinstance(body[name], list) or not body[name]:
                raise BuiltinError(f"{where}.{model_id}.{name}: must be a non-empty value list")
        names = sorted(expected_names)
        for combo in product(*(body[name] for name in names)):
            params = check(dict(zip(names, combo)), where)
            candidates.append(Candidate(index=len(candidates), model=model_id, params=params))
    return candidates


def select_index(mean_primary: list[float]) -> int:
    """Argmin with ties toward the lowest candidate index."""
    best = 0
    for i, value in enumerate(mean_primary):
        if value < mean_primary[best]:
            best = i
    return best


def ridge_fold_stats(
    table: Table, folds: list[dict]
) -> tuple[list[RidgeStats | None], RidgeStats | None]:
    """One statistics pass over the rows: (train statistics per fold, statistics of all rows).

    Rows are grouped by the folds whose train list holds them, counting
    repeats; each fold merges the groups it holds, once per occurrence, and
    the all-rows statistics merge every group once. A fold with no train
    rows gets None.
    """
    member_of: list[list[int]] = [[] for _ in range(table.n_rows)]
    for fold_idx, fold in enumerate(folds):
        for idx in fold["train"]:
            member_of[idx].append(fold_idx)
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, signature in enumerate(member_of):
        groups.setdefault(tuple(signature), []).append(idx)

    fold_stats: list[RidgeStats | None] = [None] * len(folds)
    all_stats: RidgeStats | None = None
    for signature, idxs in groups.items():
        stats = RidgeStats.from_rows([table.values[i] for i in idxs], [table.targets[i] for i in idxs])
        all_stats = stats if all_stats is None else all_stats.merge(stats)
        for fold_idx in signature:
            prior = fold_stats[fold_idx]
            fold_stats[fold_idx] = stats if prior is None else prior.merge(stats)
    return fold_stats, all_stats


def run_grid_search(
    table: Table,
    folds_doc: dict,
    grid_cfg: dict,
    primary_metric: str = "rmse",
    report_metrics: list[str] | None = None,
) -> tuple[dict, dict, list[dict], dict]:
    """Returns (cv_results, model_artifact, prediction_rows, metrics_doc).

    Ridge candidates are solved from ``ridge_fold_stats``, built in one pass;
    kNN candidates are fit on each fold's train rows.
    """
    if primary_metric not in METRIC_KEYS:
        raise BuiltinError(f"gridsearch: unknown primary metric '{primary_metric}'")
    report_metrics = report_metrics or [primary_metric]
    for key in report_metrics:
        if key not in METRIC_KEYS:
            raise BuiltinError(f"gridsearch: unknown report metric '{key}'")

    folds = folds_doc["folds"]
    if int(folds_doc["n_samples"]) != table.n_rows:
        raise BuiltinError(
            f"gridsearch: fold file covers {folds_doc['n_samples']} samples, "
            f"feature table has {table.n_rows}"
        )
    n_rows = table.n_rows
    for fold in folds:
        for idx in fold["train"] + fold["test"]:
            if not 0 <= idx < n_rows:
                raise BuiltinError(f"gridsearch: fold index {idx} out of range")

    candidates = expand_grid(grid_cfg)
    fold_stats, all_stats = (
        ridge_fold_stats(table, folds) if any(c.model == "ridge" for c in candidates) else ([], None)
    )

    def fit_fold(cand: Candidate, fold_idx: int):
        if cand.model == "ridge":
            stats = fold_stats[fold_idx]
            if stats is None:
                raise BuiltinError("ridge: empty training set")
            return stats.solve(**cand.params)
        train = folds[fold_idx]["train"]
        return fit_model(
            cand.model, cand.params, [table.values[i] for i in train], [table.targets[i] for i in train]
        )

    test_views = [
        ([table.values[i] for i in fold["test"]], [table.targets[i] for i in fold["test"]])
        for fold in folds
    ]
    rows = []
    aggregates = []
    mean_primary = []
    for cand in candidates:
        fold_metrics = []
        for fold_idx, (test_x, test_y) in enumerate(test_views):
            train_size = len(folds[fold_idx]["train"])
            if cand.model == "knn" and cand.params["k"] >= train_size:
                raise BuiltinError(
                    f"gridsearch: candidate {cand.index} (knn) has k={cand.params['k']} "
                    f">= training fold size {train_size}"
                )
            try:
                fitted = fit_fold(cand, fold_idx)
            except BuiltinError as exc:
                raise BuiltinError(f"gridsearch: candidate {cand.index} ({cand.model}): {exc}") from None
            metrics = compute_metrics(fitted.predict(test_x), test_y)
            fold_metrics.append(metrics)
            rows.append({
                "candidate": cand.index,
                "fold": fold_idx,
                "model": cand.model,
                "params": cand.params,
                "metrics": metrics,
            })
        means = {
            key: sum(fm[key] for fm in fold_metrics) / len(fold_metrics)
            for key in METRIC_KEYS
        }
        aggregates.append({
            "candidate": cand.index,
            "model": cand.model,
            "params": cand.params,
            "metrics": means,
        })
        mean_primary.append(means[primary_metric])

    selected = select_index(mean_primary)
    chosen = candidates[selected]

    # Per-fold predictions of the selected candidate, refit fold by fold: a
    # ridge re-solve gives the very coefficients its CV rows were scored with.
    pred_rows = []
    for fold_idx, (test_x, test_y) in enumerate(test_views):
        fitted = fit_fold(chosen, fold_idx)
        for idx, pred, true in zip(folds[fold_idx]["test"], fitted.predict(test_x), test_y):
            pred_rows.append({
                "sample_id": table.ids[idx],
                "fold": fold_idx,
                "pred_x": pred[0],
                "pred_y": pred[1],
                "true_x": true[0],
                "true_y": true[1],
            })

    if chosen.model == "ridge":
        final = all_stats.solve(**chosen.params)
    else:
        final = fit_model(chosen.model, chosen.params, table.values, table.targets)
    artifact = artifact_doc(chosen.model, chosen.params, final)

    cv_results = {
        "primary_metric": primary_metric,
        "rows": rows,
        "aggregates": aggregates,
        "selected": selected,
    }
    metrics_doc = {
        "selected_candidate": selected,
        "selected_model": chosen.model,
        "cv": {key: aggregates[selected]["metrics"][key] for key in report_metrics},
    }
    return cv_results, artifact, pred_rows, metrics_doc


def predictions_csv(pred_rows: list[dict]) -> str:
    """Render the prediction rows; ``repr`` is `canonical.fmt_num`'s text for an int or a float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_id", *_PRED_NUMBERS])
    numbers = itemgetter(*_PRED_NUMBERS)
    writer.writerows([row["sample_id"], *map(repr, numbers(row))] for row in pred_rows)
    return buf.getvalue()


def run(request: StageRequest) -> None:
    cfg = section(request, "model")
    where = f"stage '{request.stage}'"
    primary = get(cfg, "primary_metric", "str", where, default="rmse")
    report_metrics = get(cfg, "report_metrics", "list", where, default=[primary])
    grid_cfg = get(cfg, "grid", "mapping", where)

    table = read_table(request.dep(0, "feature CSV"))
    folds_doc = load_fold_file(request.dep(1, "fold file JSON"))
    cv_results, artifact, pred_rows, metrics_doc = run_grid_search(
        table, folds_doc, grid_cfg, primary, list(report_metrics)
    )

    for index, label in ((0, "cv results"), (1, "model artifact"), (2, "predictions"), (3, "metrics")):
        request.out(index, label).parent.mkdir(parents=True, exist_ok=True)
    dump_canonical(cv_results, request.out(0, "cv results"))
    dump_canonical(artifact, request.out(1, "model artifact"))
    Path(request.out(2, "predictions")).write_text(predictions_csv(pred_rows), encoding="utf-8")
    dump_canonical(metrics_doc, request.out(3, "metrics"))
