import csv
import io
import random
from array import array

import pytest

from locpipe.canonical import canonical_bytes
from locpipe.errors import BuiltinError
from locpipe.loctk.gridsearch import (
    Candidate,
    Predictions,
    expand_grid,
    gatherer,
    predictions_csv,
    run_grid_search,
    select_index,
)
from locpipe.loctk.metrics import METRIC_KEYS, score_columns, truth_columns
from locpipe.loctk.models import RidgeStats, load_artifact
from locpipe.loctk.split import make_fold_file
from locpipe.loctk.tables import Table


def make_table(n=30, m=3, seed=0) -> Table:
    rng = random.Random(seed)
    values = [[rng.uniform(-90, -40) for _ in range(m)] for _ in range(n)]
    targets = [
        (
            sum(row) * -0.1 + rng.gauss(0, 1),
            sum(v * (j + 1) for j, v in enumerate(row)) * -0.05 + rng.gauss(0, 1),
        )
        for row in values
    ]
    return Table.from_rows("f", [f"s{i:03d}" for i in range(n)], values, targets)


def folds_for(table: Table, k=5, seed=7) -> dict:
    return make_fold_file(table.n_rows, {"strategy": "kfold", "k": k, "seed": seed}, None)


RIDGE_GRID = {"ridge": {"alpha": [0.0], "fit_intercept": [True, False]}}


class TestExpandGrid:
    def test_canonical_order(self):
        grid = {
            "ridge": {"alpha": [0.0, 1.0], "fit_intercept": [True]},
            "knn": {"k": [3, 5], "weights": ["uniform", "distance"], "metric": ["euclidean"]},
        }
        candidates = expand_grid(grid)
        # model ids ascending (knn < ridge); sorted param names (k, metric,
        # weights), values in declared order, leftmost varying slowest
        expected = [
            ("knn", {"k": 3, "metric": "euclidean", "weights": "uniform"}),
            ("knn", {"k": 3, "metric": "euclidean", "weights": "distance"}),
            ("knn", {"k": 5, "metric": "euclidean", "weights": "uniform"}),
            ("knn", {"k": 5, "metric": "euclidean", "weights": "distance"}),
            ("ridge", {"alpha": 0.0, "fit_intercept": True}),
            ("ridge", {"alpha": 1.0, "fit_intercept": True}),
        ]
        assert [(c.model, c.params) for c in candidates] == expected
        assert [c.index for c in candidates] == list(range(6))

    def test_two_value_intercept_grid(self):
        candidates = expand_grid(RIDGE_GRID)
        assert [(c.model, c.params["fit_intercept"]) for c in candidates] == [
            ("ridge", True), ("ridge", False),
        ]

    def test_rejects_unknown_model_and_params(self):
        with pytest.raises(BuiltinError, match="unknown model"):
            expand_grid({"forest": {}})
        with pytest.raises(BuiltinError, match="unknown parameter"):
            expand_grid({"ridge": {"alpha": [0.0], "fit_intercept": [True], "tol": [1]}})
        with pytest.raises(BuiltinError, match="missing parameter"):
            expand_grid({"ridge": {"alpha": [0.0]}})
        with pytest.raises(BuiltinError, match="value list"):
            expand_grid({"ridge": {"alpha": 0.0, "fit_intercept": [True]}})
        with pytest.raises(BuiltinError, match="alpha"):
            expand_grid({"ridge": {"alpha": [-1.0], "fit_intercept": [True]}})
        with pytest.raises(BuiltinError):
            expand_grid({})


class TestSelection:
    def test_argmin_with_tie_to_lowest(self):
        assert select_index([3.0, 1.0, 1.0, 2.0]) == 1
        assert select_index([5.0]) == 0

    def test_positive_scaling_invariance(self):
        rng = random.Random(4)
        for _ in range(200):
            means = [rng.uniform(0.1, 10) for _ in range(rng.randint(1, 8))]
            scale = rng.uniform(0.01, 100)
            assert select_index(means) == select_index([m * scale for m in means])


class TestRunGridSearch:
    def test_baseline_shape(self):
        table = make_table()
        cv, artifact, preds, metrics_doc = run_grid_search(
            table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"]
        )
        assert len(cv["rows"]) == 10  # 2 candidates x 5 folds
        assert len(cv["aggregates"]) == 2
        assert cv["selected"] in (0, 1)
        assert cv["primary_metric"] == "rmse"
        for row in cv["rows"]:
            assert set(row["metrics"]) == set(METRIC_KEYS)

    def test_aggregates_are_fold_means(self):
        table = make_table()
        cv, _, _, _ = run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"])
        for agg in cv["aggregates"]:
            rows = [r for r in cv["rows"] if r["candidate"] == agg["candidate"]]
            for key in METRIC_KEYS:
                total = 0.0
                for r in rows:  # left to right: builtin sum() compensates from Python 3.12 on
                    total += r["metrics"][key]
                assert agg["metrics"][key] == total / len(rows)

    def test_selection_is_argmin_of_primary(self):
        table = make_table()
        cv, _, _, _ = run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"])
        means = [a["metrics"]["rmse"] for a in cv["aggregates"]]
        assert cv["selected"] == means.index(min(means))

    def test_duplicate_candidates_tie_to_lowest_index(self):
        table = make_table()
        grid = {"ridge": {"alpha": [0.0, 0.0], "fit_intercept": [True]}}
        cv, _, _, _ = run_grid_search(table, folds_for(table), grid, "rmse", ["rmse"])
        assert cv["selected"] == 0

    def test_predictions_cover_each_sample_once(self):
        table = make_table()
        _, _, preds, _ = run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"])
        assert sorted(preds.sample_id) == sorted(table.ids)
        # ordered by fold, then ascending index within the fold
        fold_seq = list(preds.fold)
        assert fold_seq == sorted(fold_seq)

    def test_deterministic_bytes(self):
        table = make_table()
        results = [
            run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"])
            for _ in range(2)
        ]
        for a, b in zip(results[0], results[1]):
            if isinstance(a, Predictions):
                assert predictions_csv(a) == predictions_csv(b)
            else:
                assert canonical_bytes(a) == canonical_bytes(b)

    def test_artifact_reload_matches_inrun_predictions(self):
        table = make_table()
        _, artifact, _, _ = run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"])
        import json

        reloaded = load_artifact(json.loads(canonical_bytes(artifact)))
        direct = load_artifact(artifact)
        assert reloaded.predict_columns(table.cols, table.n_rows) == direct.predict_columns(table.cols, table.n_rows)

    def test_knn_k_at_least_train_fold_size_rejected(self):
        table = make_table(n=10)
        grid = {"knn": {"k": [8], "weights": ["uniform"], "metric": ["euclidean"]}}
        # 5 folds of 10 samples -> train folds of 8; k == 8 must be refused
        with pytest.raises(BuiltinError) as info:
            run_grid_search(table, folds_for(table, k=5), grid, "rmse", ["rmse"])
        assert str(info.value) == "gridsearch: candidate 0 (knn) has k=8 >= training fold size 8"

    def test_singular_candidate_named(self):
        table = make_table(n=12, m=2)
        table.cols[1][:] = table.cols[0]  # duplicate feature column
        grid = {"ridge": {"alpha": [0.0], "fit_intercept": [False]}}
        with pytest.raises(BuiltinError) as info:
            run_grid_search(table, folds_for(table, k=3), grid, "rmse", ["rmse"])
        assert str(info.value) == "gridsearch: candidate 0 (ridge): normal equations are singular"

    def test_fold_table_mismatch(self):
        table = make_table(n=20)
        other = folds_for(make_table(n=30))
        with pytest.raises(BuiltinError, match="fold file covers"):
            run_grid_search(table, other, RIDGE_GRID, "rmse", ["rmse"])

    def test_unknown_metric_names(self):
        table = make_table()
        with pytest.raises(BuiltinError, match="primary metric"):
            run_grid_search(table, folds_for(table), RIDGE_GRID, "accuracy", None)
        with pytest.raises(BuiltinError, match="report metric"):
            run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["accuracy"])

    def test_metrics_doc_respects_report_metrics(self):
        table = make_table()
        _, _, _, metrics_doc = run_grid_search(
            table, folds_for(table), RIDGE_GRID, "rmse", ["rmse", "loc_err_p95"]
        )
        assert set(metrics_doc["cv"]) == {"rmse", "loc_err_p95"}
        assert metrics_doc["selected_model"] == "ridge"

    def test_mixed_grid_runs(self):
        table = make_table(n=25)
        grid = {
            "ridge": {"alpha": [0.0], "fit_intercept": [True]},
            "knn": {"k": [3], "weights": ["distance"], "metric": ["manhattan"]},
        }
        cv, _, _, _ = run_grid_search(table, folds_for(table), grid, "rmse", ["rmse"])
        assert len(cv["aggregates"]) == 2
        assert {a["model"] for a in cv["aggregates"]} == {"knn", "ridge"}


class TestFoldValidation:
    """A malformed fold is refused with a message naming it, before any scoring."""

    def refused(self, folds: list) -> str:
        table = make_table(n=10)
        doc = {"strategy": "kfold", "seed": 0, "n_samples": 10, "folds": folds}
        with pytest.raises(BuiltinError) as info:
            run_grid_search(table, doc, RIDGE_GRID, "rmse", ["rmse"])
        return str(info.value)

    GOOD = {"train": [0, 1, 2, 3, 4], "test": [5, 6, 7, 8, 9]}

    def test_missing_or_non_list_part(self):
        assert self.refused([self.GOOD, {"test": [0, 1]}]) == (
            "gridsearch: fold 1: 'train' must be a list of row indices"
        )
        assert self.refused([{"train": [0, 1], "test": (2, 3)}]) == (
            "gridsearch: fold 0: 'test' must be a list of row indices"
        )
        assert self.refused([self.GOOD, [0, 1]]) == (
            "gridsearch: fold 1: must be a mapping with 'train' and 'test' index lists"
        )

    def test_non_int_index(self):
        assert self.refused([self.GOOD, {"train": [0, 1.0, 2], "test": [5]}]) == (
            "gridsearch: fold 1: train index 1.0 is not an int"
        )

    def test_bool_index(self):
        assert self.refused([{"train": [0, 1], "test": [5, True]}]) == (
            "gridsearch: fold 0: test index True is not an int"
        )

    def test_index_out_of_range(self):
        assert self.refused([self.GOOD, {"train": [0, 1], "test": [9, 10]}]) == (
            "gridsearch: fold 1: test index 10 out of range for 10 rows"
        )
        assert self.refused([{"train": [-1, 1], "test": [5]}]) == (
            "gridsearch: fold 0: train index -1 out of range for 10 rows"
        )

    def test_no_folds(self):
        # with no fold, the fold means divided by zero
        assert self.refused([]) == "gridsearch: the fold file's 'folds' must be a non-empty list"

    @pytest.mark.parametrize("n_samples", ["x", None, [10], 10.7, "10", True])
    def test_non_int_n_samples(self, n_samples):
        table = make_table(n=10)
        doc = {**folds_for(table), "n_samples": n_samples}
        with pytest.raises(BuiltinError) as info:
            run_grid_search(table, doc, RIDGE_GRID, "rmse", ["rmse"])
        assert str(info.value) == f"gridsearch: the fold file's 'n_samples' must be an int, not {n_samples!r}"

    def test_test_rows_in_train_refused(self):
        # scored silently, such a fold reports a near-zero error for a leak
        leaky = {"train": list(range(10)), "test": [7, 3]}
        assert self.refused([self.GOOD, leaky]) == (
            "gridsearch: fold 1: test index 3 is also a train index"
        )


RIDGE_SWEEP = {"ridge": {"alpha": [0.0, 0.5, 10.0], "fit_intercept": [True, False]}}


def fold_files(table: Table) -> dict[str, dict]:
    """kfold, overlapping shuffle repeats, groupkfold, leave-one-out (each
    test fold one row), a hand-written file with a repeated train index and a
    row in no fold, one where row 39 alone is in fold 2's train list only,
    so one statistics group holds a single row, and one whose train list
    holds row 3 301 times, more than a byte counts."""
    n = table.n_rows
    groups = [f"g{i % 7}" for i in range(n)]
    hand = {
        "strategy": "kfold", "seed": 0, "n_samples": n,
        "folds": [
            {"train": list(range(0, 20)) + [3, 3], "test": list(range(20, 30))},
            {"train": list(range(10, 34)), "test": list(range(0, 10))},
        ],
    }
    one_row_group = {
        "strategy": "kfold", "seed": 0, "n_samples": n,
        "folds": [
            {"train": list(range(0, 20)), "test": list(range(20, 30))},
            {"train": list(range(10, 34)), "test": list(range(0, 10))},
            {"train": list(range(0, 10)) + [39], "test": list(range(20, 30))},
        ],
    }
    many_repeats = {
        "strategy": "kfold", "seed": 0, "n_samples": n,
        "folds": [
            {"train": list(range(0, 20)) + [3] * 300, "test": list(range(20, 30))},
            {"train": list(range(10, 34)), "test": list(range(0, 10))},
        ],
    }
    return {
        "kfold": folds_for(table),
        "shuffle": make_fold_file(n, {"strategy": "shuffle", "test_fraction": 0.3, "repeats": 4, "seed": 5}, None),
        "groupkfold": make_fold_file(n, {"strategy": "groupkfold", "k": 3}, groups),
        "leave-one-out": make_fold_file(n, {"strategy": "kfold", "k": n, "seed": 2}, None),
        "hand": hand,
        "one-row-group": one_row_group,
        "many-repeats": many_repeats,
    }


FOLD_KINDS = [
    "kfold", "shuffle", "groupkfold", "hand", "leave-one-out", "one-row-group", "many-repeats",
]


def test_gather_takes_one_many_or_no_index():
    column = array("d", [0.5, -0.0, 2.5])
    assert gatherer([2, 0, 2])(column) == array("d", [2.5, 0.5, 2.5])
    assert gatherer(array("q", [2, 0]))(column) == array("d", [2.5, 0.5])
    assert gatherer([1])(column).tobytes() == array("d", [-0.0]).tobytes()
    assert gatherer([])(column) == array("d")


def assert_close(ours: float, ref: float) -> None:
    assert abs(ours - ref) <= 1e-9 * max(abs(ref), 1.0), (ours, ref)


def parsed_predictions(pred_rows: Predictions) -> dict[int, tuple[list, list, list, list]]:
    """fold -> (pred_x, pred_y, true_x, true_y) columns, read back from the
    predictions CSV bytes."""
    by_fold: dict[int, tuple[list, list, list, list]] = {}
    for row in csv.DictReader(io.StringIO(predictions_csv(pred_rows))):
        columns = by_fold.setdefault(int(row["fold"]), ([], [], [], []))
        for column, name in zip(columns, ("pred_x", "pred_y", "true_x", "true_y")):
            column.append(float(row[name]))
    return by_fold


class TestRidgeFromStatistics:
    @pytest.mark.parametrize("kind", FOLD_KINDS)
    def test_cv_rows_match_ridge_fit_on_train_rows(self, kind):
        table = make_table(n=40, m=4, seed=3)
        folds_doc = fold_files(table)[kind]
        cv, artifact, _, _ = run_grid_search(table, folds_doc, RIDGE_SWEEP, "rmse", ["rmse"])
        folds = folds_doc["folds"]
        targets = [table.x, table.y]
        assert len(cv["rows"]) == 6 * len(folds)
        for row in cv["rows"]:
            train, test = folds[row["fold"]]["train"], folds[row["fold"]]["test"]
            model = RidgeStats.from_columns(
                [[column[i] for i in train] for column in table.cols],
                [[column[i] for i in train] for column in targets],
            ).solve(row["params"]["alpha"], row["params"]["fit_intercept"])
            expected = score_columns(
                *model.predict_columns([[column[i] for i in test] for column in table.cols], len(test)),
                truth_columns(*([column[i] for i in test] for column in targets)),
            )
            for key in METRIC_KEYS:
                assert_close(row["metrics"][key], expected[key])
        chosen = cv["aggregates"][cv["selected"]]["params"]
        final = RidgeStats.from_columns(table.cols, targets).solve(chosen["alpha"], chosen["fit_intercept"])
        for ours, ref in zip(artifact["coef"], final.coef):
            assert_close(ours[0], ref[0])
            assert_close(ours[1], ref[1])
        for ours, ref in zip(artifact["intercept"], final.intercept):
            assert_close(ours, ref)

    @pytest.mark.parametrize("kind", FOLD_KINDS)
    def test_predictions_reproduce_selected_cv_rows_exactly(self, kind):
        table = make_table(n=40, m=4, seed=3)
        cv, _, preds, _ = run_grid_search(table, fold_files(table)[kind], RIDGE_SWEEP, "rmse", ["rmse"])
        selected_rows = [r for r in cv["rows"] if r["candidate"] == cv["selected"]]
        by_fold = parsed_predictions(preds)
        assert sorted(by_fold) == [r["fold"] for r in selected_rows]
        for row in selected_rows:
            pred_x, pred_y, true_x, true_y = by_fold[row["fold"]]
            assert score_columns(pred_x, pred_y, truth_columns(true_x, true_y)) == row["metrics"]
