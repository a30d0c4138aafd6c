"""Cross-validated grid search over the builtin model family.

Every candidate is evaluated on every fold with the shared fold file, so all
models see identical splits. Selection is the argmin of the mean primary
metric over folds, ties resolved toward the lowest candidate index. Outputs
(positional): cv results JSON, model artifact JSON, per-fold predictions CSV
of the selected candidate, and a compact metrics JSON.

The feature table is column-major (`tables.Table`), and the search works on
its columns. The fold file is decoded by ``json.load`` with each fold's
index lists as ``array('q')`` (`split.load_fold_file`), which `check_folds`
takes as ints without scanning their types. Each fold's test rows are
gathered column by column through one ``operator.itemgetter`` (`gatherer`),
and its test feature columns and `metrics.Truth` come from those gathers.
The ridge statistics group the rows by one per-fold count of their train
occurrences (a ``bytearray`` per fold) and are built from each group's
columns (`RidgeStats.from_columns`); a group that is exactly one fold's test
rows, as every group is under k-fold, reuses that fold's gathers. Rows are
formed only for kNN, whose model scans rows; both kinds predict through
``predict_columns``.

The predictions CSV is built as columns, never as rows: `Predictions` is
assembled from the selected candidate's per-fold prediction arrays, each
fold's truth columns and its test indices, and `write_predictions` renders it
through `tables.render_csv`, column-wise, with ``repr`` called once per
distinct float and ids quoted by csv.writer.

The candidates are scored on every CPU the stage may use
(`StageRequest.cpus`). Once the shared work above is done, they are dealt
round-robin over this process and ``cpus - 1`` workers (`fork_child`); each
scores its candidates on every fold and sends back their fold metrics and
the predictions of its own best candidate. The results are read in candidate
order and selected by the same `select_index`, so no output byte depends on
the number of processes. A search with less scoring work than
`FANOUT_MIN_WORK` forks nothing.
"""

from __future__ import annotations

import io
import marshal
import operator
import os
import signal
from array import array
from dataclasses import dataclass, fields
from itertools import chain, product
from typing import Callable, NamedTuple, Sequence, TextIO

from ..canonical import dump_canonical
from ..errors import BuiltinError
from . import StageRequest, exit_text, fork_child, get, section
from .metrics import METRIC_KEYS, left_sum, score_columns, truth_columns
from .models import KNN_METRICS, KNN_WEIGHTS, KnnModel, RidgeStats, artifact_doc
from .split import load_fold_file
from .tables import Table, read_table, render_csv

# The scoring work (`run_grid_search`'s predicted rows) below which the
# candidates are scored in this process alone: forking and collecting a
# worker costs about 3 ms, which 2 CPUs win back from about 5,000 rows.
FANOUT_MIN_WORK = 5000

_RIDGE_PARAMS = ("alpha", "fit_intercept")
_KNN_PARAMS = ("k", "metric", "weights")


@dataclass(frozen=True)
class Predictions:
    """The predictions CSV as columns, one value per row in file order: each
    fold's test rows in order, fold by fold."""
    sample_id: Sequence[str]
    fold: Sequence[int]
    pred_x: Sequence[float]
    pred_y: Sequence[float]
    true_x: Sequence[float]
    true_y: Sequence[float]


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
    if params["weights"] not in KNN_WEIGHTS:
        raise BuiltinError(f"{where}: knn weights must be {'|'.join(KNN_WEIGHTS)}")
    if params["metric"] not in KNN_METRICS:
        raise BuiltinError(f"{where}: knn metric must be {'|'.join(KNN_METRICS)}")
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


def gatherer(idxs: Sequence[int]) -> Callable[[Sequence[float]], array]:
    """A function giving the values of a column at `idxs`, in order: one,
    many or none. Its ``operator.itemgetter`` boxes the indices once, for
    every column."""
    if len(idxs) < 2:  # itemgetter of one index gives a value, not a tuple
        return lambda column: array("d", map(column.__getitem__, idxs))
    get = operator.itemgetter(*idxs)
    return lambda column: array("d", get(column))


def _train_counts(train: Sequence[int], n: int) -> bytearray | array:
    """How many times each row of ``[0, n)`` appears in `train`."""
    counts: bytearray | array = bytearray(n)
    try:
        for idx in train:
            counts[idx] += 1
    except ValueError:  # a row repeats more than 255 times
        counts = array("q", bytes(8 * n))
        for idx in train:
            counts[idx] += 1
    return counts


def ridge_fold_stats(
    table: Table, folds: list[dict], gathered: dict[bytes, list[array]] | None = None
) -> tuple[list[RidgeStats | None], RidgeStats | None]:
    """One statistics pass over the rows: (train statistics per fold, statistics of all rows).

    Rows are grouped by how many times each fold's train list holds them
    (one count per fold per row); each group's columns are gathered and
    reduced to statistics, each fold merges the groups it holds, once per
    occurrence, in group order, and the all-rows statistics merge every
    group once. A fold with no train rows gets None.

    `gathered` maps the ``array('q')`` bytes of an index list to the
    table's columns (value columns, then x and y) already gathered at it; a
    group whose ascending rows are such a list reuses them. Under k-fold
    each group is exactly one fold's test rows.
    """
    counts = [_train_counts(fold["train"], table.n_rows) for fold in folds]
    groups: dict[tuple[int, ...], array] = {}
    for idx, signature in enumerate(zip(*counts)):
        rows = groups.get(signature)
        if rows is None:
            rows = groups[signature] = array("q")
        rows.append(idx)

    gathered = gathered or {}
    fold_stats: list[RidgeStats | None] = [None] * len(folds)
    all_stats: RidgeStats | None = None
    for signature, rows in groups.items():
        columns = gathered.get(rows.tobytes())
        if columns is None:
            columns = list(map(gatherer(rows), table.columns()))
        stats = RidgeStats.from_columns(columns[:-2], columns[-2:])
        all_stats = stats if all_stats is None else all_stats.merge(stats)
        for fold_idx, count in enumerate(signature):
            for _ in range(count):
                prior = fold_stats[fold_idx]
                fold_stats[fold_idx] = stats if prior is None else prior.merge(stats)
    return fold_stats, all_stats


def check_folds(folds: object, n_rows: int) -> None:
    """Raise a BuiltinError naming the first fold that is not a mapping of
    ``train`` and ``test`` lists of int row indices in ``[0, n_rows)``, or
    whose test indices also appear in its train list, or if there is no fold.
    An ``array('q')`` (as `split.load_fold_file` decodes a list of ints)
    counts as a list of ints without a scan of its types."""
    if not isinstance(folds, list) or not folds:
        raise BuiltinError("gridsearch: the fold file's 'folds' must be a non-empty list")
    for fold_idx, fold in enumerate(folds):
        where = f"gridsearch: fold {fold_idx}"
        if not isinstance(fold, dict):
            raise BuiltinError(f"{where}: must be a mapping with 'train' and 'test' index lists")
        for part in ("train", "test"):
            idxs = fold.get(part)
            if not (isinstance(idxs, array) and idxs.typecode == "q"):
                if not isinstance(idxs, list):
                    raise BuiltinError(f"{where}: '{part}' must be a list of row indices")
                if not set(map(type, idxs)) <= {int}:  # bool is not int here
                    bad = next(i for i in idxs if type(i) is not int)
                    raise BuiltinError(f"{where}: {part} index {bad!r} is not an int")
            if idxs and not (min(idxs) >= 0 and max(idxs) < n_rows):
                bad = next(i for i in idxs if not 0 <= i < n_rows)
                raise BuiltinError(f"{where}: {part} index {bad} out of range for {n_rows} rows")
        leaked = set(fold["test"]).intersection(fold["train"])
        if leaked:
            raise BuiltinError(f"{where}: test index {min(leaked)} is also a train index")


def run_grid_search(
    table: Table,
    folds_doc: dict,
    grid_cfg: dict,
    primary_metric: str = "rmse",
    report_metrics: list[str] | None = None,
    cpus: int = 1,
) -> tuple[dict, dict, Predictions, dict]:
    """Returns (cv_results, model_artifact, predictions, metrics_doc).

    Ridge candidates are solved from ``ridge_fold_stats``, built in one pass;
    kNN candidates are fit on each fold's train rows. Each fold's test
    columns and truth are gathered once, then predicted (``predict_columns``)
    and scored column-wise for every candidate.

    The candidates are dealt round-robin over ``width = min(cpus,
    candidates)`` processes (`_score_shares`), or scored here alone when
    their work is below `FANOUT_MIN_WORK`: candidate ``i`` is scored on
    every fold by process ``i % width``, this one or a forked worker. Each
    keeps the predictions of its own best candidate, and the results are
    read in candidate order, so every output is the same for any `cpus`; a
    failure is the one a serial search meets first.
    """
    if primary_metric not in METRIC_KEYS:
        raise BuiltinError(f"gridsearch: unknown primary metric '{primary_metric}'")
    report_metrics = report_metrics or [primary_metric]
    for key in report_metrics:
        if key not in METRIC_KEYS:
            raise BuiltinError(f"gridsearch: unknown report metric '{key}'")

    folds, n_samples = folds_doc["folds"], folds_doc["n_samples"]
    if type(n_samples) is not int:  # nor a bool
        raise BuiltinError(f"gridsearch: the fold file's 'n_samples' must be an int, not {n_samples!r}")
    if n_samples != table.n_rows:
        raise BuiltinError(
            f"gridsearch: fold file covers {n_samples} samples, "
            f"feature table has {table.n_rows}"
        )
    check_folds(folds, table.n_rows)

    candidates = expand_grid(grid_cfg)
    # per fold: the table's columns (value columns, then x and y) at its test rows
    test_columns = [list(map(gatherer(fold["test"]), table.columns())) for fold in folds]
    fold_stats, all_stats = (
        ridge_fold_stats(table, folds, {
            array("q", fold["test"]).tobytes(): columns for fold, columns in zip(folds, test_columns)
        })
        if any(c.model == "ridge" for c in candidates) else ([], None)
    )
    # kNN works on rows: (feature rows, target rows), formed only for a kNN candidate
    knn_rows = (
        (list(zip(*table.cols)), list(zip(table.x, table.y)))
        if any(c.model == "knn" for c in candidates) else ([], [])
    )

    def fit_fold(cand: Candidate, fold_idx: int):
        if cand.model == "ridge":
            stats = fold_stats[fold_idx]
            if stats is None:
                raise BuiltinError("ridge: empty training set")
            return stats.solve(**cand.params)
        train = folds[fold_idx]["train"]
        x_rows, y_rows = knn_rows
        return KnnModel([x_rows[i] for i in train], [y_rows[i] for i in train], **cand.params)

    # per fold: (test feature columns, truth)
    test_views = [(columns[:-2], truth_columns(*columns[-2:])) for columns in test_columns]

    def score(cand: Candidate) -> tuple[list[dict], list[tuple[array, array]]]:
        """(metrics, (pred_x, pred_y)) of `cand` on each fold, in fold order."""
        fold_metrics = []
        fold_preds = []
        for fold_idx, (test_cols, truth) in enumerate(test_views):
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
            preds = fitted.predict_columns(test_cols, len(truth.x))
            fold_metrics.append(score_columns(*preds, truth))
            fold_preds.append((array("d", preds[0]), array("d", preds[1])))  # floats, unboxed
        return fold_metrics, fold_preds

    def mean_of(fold_metrics: list[dict], key: str) -> float:
        return left_sum(fm[key] for fm in fold_metrics) / len(fold_metrics)

    def score_share(share: Sequence[Candidate]) -> Share:
        """Score `share` in order, stopping at its first failing candidate,
        and keep the predictions of its `select_index` choice."""
        metrics: list[list[dict]] = []
        means: list[float] = []
        best, best_preds = None, []
        for cand in share:
            try:
                fold_metrics, fold_preds = score(cand)
            except BuiltinError as exc:
                return Share(metrics, best, best_preds, (cand.index, str(exc)))
            metrics.append(fold_metrics)
            means.append(mean_of(fold_metrics, primary_metric))
            if select_index(means) == len(means) - 1:
                best, best_preds = cand.index, fold_preds
        return Share(metrics, best, best_preds, None)

    # rows the candidates predict, a kNN prediction counting once per train row it scans
    test_rows = sum(len(fold["test"]) for fold in folds)
    knn_scans = sum(len(fold["test"]) * len(fold["train"]) for fold in folds)
    work = sum(knn_scans if cand.model == "knn" else test_rows for cand in candidates)
    width = min(cpus, len(candidates)) if work >= FANOUT_MIN_WORK else 1
    shares = _score_shares(score_share, [candidates[p::width] for p in range(width)])
    failures = [share.failure for share in shares if share.failure is not None]
    if failures:  # the one a serial search meets first
        raise BuiltinError(min(failures)[1])

    rows = []
    aggregates = []
    mean_primary = []
    for cand in candidates:
        fold_metrics = shares[cand.index % width].metrics[cand.index // width]
        rows.extend({
            "candidate": cand.index,
            "fold": fold_idx,
            "model": cand.model,
            "params": cand.params,
            "metrics": metrics,
        } for fold_idx, metrics in enumerate(fold_metrics))
        means = {key: mean_of(fold_metrics, key) for key in METRIC_KEYS}
        aggregates.append({
            "candidate": cand.index,
            "model": cand.model,
            "params": cand.params,
            "metrics": means,
        })
        mean_primary.append(means[primary_metric])

    selected = select_index(mean_primary)
    chosen = candidates[selected]
    holder = shares[selected % width]
    # a share's own choice is the overall one unless a NaN mean led it astray
    best_preds = holder.best_preds if holder.best == selected else score(chosen)[1]

    truths = [truth for _, truth in test_views]
    predictions = Predictions(
        sample_id=[table.ids[idx] for fold in folds for idx in fold["test"]],
        fold=[fold_idx for fold_idx, fold in enumerate(folds) for _ in fold["test"]],
        pred_x=array("d", chain.from_iterable(pred_x for pred_x, _ in best_preds)),
        pred_y=array("d", chain.from_iterable(pred_y for _, pred_y in best_preds)),
        true_x=array("d", chain.from_iterable(truth.x for truth in truths)),
        true_y=array("d", chain.from_iterable(truth.y for truth in truths)),
    )

    if chosen.model == "ridge":
        final = all_stats.solve(**chosen.params)
    else:
        final = KnnModel(*knn_rows, **chosen.params)
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
    return cv_results, artifact, predictions, metrics_doc


class Share(NamedTuple):
    """What one process's share of the candidates gave: per candidate scored,
    its metrics per fold; the index and per-fold (pred_x, pred_y) of the
    share's `select_index` choice; and (candidate index, message) of the
    failure that stopped it, or None."""
    metrics: list[list[dict]]
    best: int | None
    best_preds: list[tuple[array, array]]
    failure: tuple[int, str] | None


def _score_shares(score_share: Callable[[list[Candidate]], Share], shares: list[list[Candidate]]) -> list[Share]:
    """`score_share` of each share: the first here, each other in a worker
    (`fork_child`) that holds no fd from 3 up but its pipe's write end and
    sends its `Share` through it (`marshal`, each prediction column as raw
    ``array('d')`` bytes). A worker writes no file.

    Each pipe is drained before its worker is reaped, and every worker is
    reaped on every path, killed first if this process raises. A worker
    that dies counts as failing at its first candidate, with a message that
    names it; one whose reader is gone fails its write and exits.
    """
    if len(shares) == 1:
        return [score_share(shares[0])]

    def work(share: list[Candidate], write_fd: int) -> None:
        os.closerange(3, write_fd)
        os.closerange(write_fd + 1, os.sysconf("SC_OPEN_MAX"))
        result = score_share(share)
        with open(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps((
                result.metrics, result.best,
                [(pred_x.tobytes(), pred_y.tobytes()) for pred_x, pred_y in result.best_preds],
                result.failure,
            )))

    workers: dict[int, tuple[int, int]] = {}  # pid -> (share number, read end of its pipe)
    try:
        for number in range(1, len(shares)):
            read_fd, write_fd = os.pipe()
            try:
                pid = fork_child(lambda: work(shares[number], write_fd))
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            workers[pid] = (number, read_fd)
        results = [score_share(shares[0])]
        for pid, (number, read_fd) in list(workers.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            wait_status = os.waitpid(pid, 0)[1]
            del workers[pid]
            os.close(read_fd)
            results.append(_received(data, wait_status, number, pid, shares[number][0].index))
        return results
    finally:
        for pid, (_, read_fd) in workers.items():
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still its own
            os.close(read_fd)
            os.waitpid(pid, 0)


def _received(data: bytes, wait_status: int, number: int, pid: int, first: int) -> Share:
    """The `Share` a worker sent, or, if it died, a failure at its first candidate."""
    code = os.waitstatus_to_exitcode(wait_status)
    if code == 0:
        metrics, best, preds, failure = marshal.loads(data)
        best_preds = [(array("d", pred_x), array("d", pred_y)) for pred_x, pred_y in preds]
        return Share(metrics, best, best_preds, failure)
    return Share([], None, [], (first, f"gridsearch: CV worker {number} (pid {pid}) {exit_text(code)}"))


def write_predictions(predictions: Predictions, handle: TextIO) -> None:
    """Render `predictions` to `handle` through `tables.render_csv`: a header
    of the field names, and ``repr`` (`canonical.fmt_num`'s text for an int
    or a float) of every number."""
    header = [field.name for field in fields(Predictions)]
    sample_id, *numbers = (getattr(predictions, name) for name in header)
    handle.writelines(render_csv(header, sample_id, numbers))


def predictions_csv(predictions: Predictions) -> str:
    """The text `write_predictions` writes."""
    buf = io.StringIO()
    write_predictions(predictions, buf)
    return buf.getvalue()


def run(request: StageRequest) -> None:
    cfg = section(request, "model")
    where = f"stage '{request.stage}'"
    primary = get(cfg, "primary_metric", "str", where, default="rmse")
    report_metrics = get(cfg, "report_metrics", "list", where, default=[primary])
    grid_cfg = get(cfg, "grid", "mapping", where)

    table = read_table(request.dep(0, "feature CSV"), request.table_memo)
    folds_doc = load_fold_file(request.dep(1, "fold file JSON"))
    cv_results, artifact, predictions, metrics_doc = run_grid_search(
        table, folds_doc, grid_cfg, primary, list(report_metrics), request.cpus
    )

    dump_canonical(cv_results, request.out(0, "cv results"))
    dump_canonical(artifact, request.out(1, "model artifact"))
    with open(request.out(2, "predictions"), "w", encoding="utf-8", newline="") as handle:
        write_predictions(predictions, handle)
    dump_canonical(metrics_doc, request.out(3, "metrics"))
