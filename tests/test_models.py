import json
import math
import random
from array import array
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locpipe.canonical import canonical_bytes
from locpipe.errors import BuiltinError
from locpipe.loctk.models import (
    KNN_METRICS,
    KNN_WEIGHTS,
    KnnModel,
    RidgeStats,
    SingularSystemError,
    artifact_doc,
    load_artifact,
)
from oracles import ridge_reference


def columns(rows):
    return list(zip(*rows))


def linear_dataset(rng, n, m, noise=0.0):
    coef = [[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(m)]
    intercept = [rng.uniform(-5, 5), rng.uniform(-5, 5)]
    x_rows, y_rows = [], []
    for _ in range(n):
        row = [rng.uniform(-10, 10) for _ in range(m)]
        y = [
            intercept[t] + sum(row[j] * coef[j][t] for j in range(m)) + rng.gauss(0, noise)
            for t in (0, 1)
        ]
        x_rows.append(row)
        y_rows.append(y)
    return x_rows, y_rows, coef, intercept


class TestRidge:
    def test_recovers_exact_linear_relation(self):
        rng = random.Random(0)
        x_rows, y_rows, coef, intercept = linear_dataset(rng, 40, 3, noise=0.0)
        model = RidgeStats.from_columns(columns(x_rows), columns(y_rows)).solve(alpha=0.0, fit_intercept=True)
        for j in range(3):
            for t in (0, 1):
                assert math.isclose(model.coef[j][t], coef[j][t], rel_tol=1e-9, abs_tol=1e-9)
        for t in (0, 1):
            assert math.isclose(model.intercept[t], intercept[t], rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.parametrize("alpha,fit_intercept", [(0.0, True), (0.5, True), (2.0, False), (0.0, False)])
    def test_matches_gaussian_elimination_oracle(self, alpha, fit_intercept):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(8, 30)
            m = rng.randint(1, 5)
            x_rows, y_rows, _, _ = linear_dataset(rng, n, m, noise=2.0)
            model = RidgeStats.from_columns(columns(x_rows), columns(y_rows)).solve(alpha, fit_intercept)
            for t in (0, 1):
                ref_coef, ref_intercept = ridge_reference(
                    x_rows, [y[t] for y in y_rows], alpha, fit_intercept
                )
                for j in range(m):
                    scale = max(abs(ref_coef[j]), 1.0)
                    assert abs(model.coef[j][t] - ref_coef[j]) <= 1e-9 * scale
                scale = max(abs(ref_intercept), 1.0)
                assert abs(model.intercept[t] - ref_intercept) <= 1e-9 * scale

    def test_six_sample_one_feature_alpha_half(self):
        # compact worked instance, checked against the independent dense solve
        x_rows = [[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]]
        y_rows = [[2.1, -1.0], [4.2, -2.1], [6.1, -2.9], [8.3, -4.2], [9.9, -5.1], [12.2, -5.8]]
        model = RidgeStats.from_columns(columns(x_rows), columns(y_rows)).solve(alpha=0.5, fit_intercept=True)
        for t in (0, 1):
            ref_coef, ref_intercept = ridge_reference(x_rows, [y[t] for y in y_rows], 0.5, True)
            assert math.isclose(model.coef[0][t], ref_coef[0], rel_tol=1e-9)
            assert math.isclose(model.intercept[t], ref_intercept, rel_tol=1e-9)

    def test_huge_alpha_shrinks_coefficients_not_intercept(self):
        rng = random.Random(3)
        x_rows, y_rows, _, _ = linear_dataset(rng, 50, 2, noise=1.0)
        model = RidgeStats.from_columns(columns(x_rows), columns(y_rows)).solve(alpha=1e12, fit_intercept=True)
        mean_y = [sum(y[t] for y in y_rows) / len(y_rows) for t in (0, 1)]
        for j in range(2):
            assert abs(model.coef[j][0]) < 1e-6
        for t in (0, 1):
            assert math.isclose(model.intercept[t], mean_y[t], rel_tol=1e-6)

    def test_singular_without_regularization(self):
        # duplicated column makes X^T X rank deficient
        x_rows = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        y_rows = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
        stats = RidgeStats.from_columns(columns(x_rows), columns(y_rows))
        with pytest.raises(SingularSystemError):
            stats.solve(alpha=0.0, fit_intercept=False)
        # regularization rescues it
        stats.solve(alpha=0.1, fit_intercept=False)

    def test_negative_alpha_rejected(self):
        with pytest.raises(BuiltinError, match="alpha"):
            RidgeStats.from_columns([[1.0]], [[1.0], [1.0]]).solve(alpha=-1.0, fit_intercept=False)

    def test_prediction_shape(self):
        model = RidgeStats.from_columns([[1.0, 2.0]], [[1.0, 2.0], [2.0, 4.0]]).solve(0.0, True)
        pred_x, pred_y = model.predict_columns([[3.0]], 1)
        assert len(pred_x) == len(pred_y) == 1


def assert_matches_reference(model, x_rows, y_rows, alpha, fit_intercept):
    for t in (0, 1):
        ref_coef, ref_intercept = ridge_reference(x_rows, [y[t] for y in y_rows], alpha, fit_intercept)
        for j, ref in enumerate(ref_coef):
            assert abs(model.coef[j][t] - ref) <= 1e-9 * max(abs(ref), 1.0)
        assert abs(model.intercept[t] - ref_intercept) <= 1e-9 * max(abs(ref_intercept), 1.0)


class TestRidgeStats:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        extra_rows=st.integers(3, 30),
        cut_draws=st.lists(st.floats(0.0, 1.0), max_size=4),
        rssi_mean=st.floats(-75.0, -65.0),
        spread=st.floats(1.0, 6.0),
        alpha=st.sampled_from([0.0, 0.1, 10.0]),
        fit_intercept=st.booleans(),
    )
    # a float solve of the oracle's uncentered [1 X] system missed this intercept by 1.3e-9
    @example(
        seed=22943954, m=5, extra_rows=5, cut_draws=[], rssi_mean=-74.0, spread=1.0,
        alpha=0.1, fit_intercept=True,
    )
    def test_merged_parts_solve_like_one_pass(
        self, seed, m, extra_rows, cut_draws, rssi_mean, spread, alpha, fit_intercept
    ):
        # RSSI-like features: means near -70 dBm, a few dB of spread
        rng = random.Random(seed)
        n = m + extra_rows
        x_rows = [[rng.gauss(rssi_mean, spread) for _ in range(m)] for _ in range(n)]
        y_rows = [
            [sum(row) * 0.4 + rng.gauss(0, 2), sum(row) * -0.2 + rng.gauss(0, 2)]
            for row in x_rows
        ]
        cuts = sorted({1 + int(draw * (n - 1)) for draw in cut_draws} - {n})
        bounds = [0, *cuts, n]
        parts = [
            RidgeStats.from_columns(columns(x_rows[lo:hi]), columns(y_rows[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        merged = reduce(RidgeStats.merge, parts).solve(alpha, fit_intercept)
        assert_matches_reference(merged, x_rows, y_rows, alpha, fit_intercept)

        whole = RidgeStats.from_columns(columns(x_rows), columns(y_rows)).solve(alpha, fit_intercept)
        for t in (0, 1):
            for j in range(m):
                assert abs(merged.coef[j][t] - whole.coef[j][t]) <= 1e-9 * max(abs(whole.coef[j][t]), 1.0)
            assert abs(merged.intercept[t] - whole.intercept[t]) <= 1e-9 * max(abs(whole.intercept[t]), 1.0)

    def test_merge_counts_a_repeated_part_twice(self):
        rng = random.Random(8)
        x_rows, y_rows, _, _ = linear_dataset(rng, 12, 3, noise=1.0)
        part = RidgeStats.from_columns(columns(x_rows[:5]), columns(y_rows[:5]))
        merged = part.merge(part).merge(RidgeStats.from_columns(columns(x_rows[5:]), columns(y_rows[5:])))
        doubled_x = x_rows[:5] + x_rows
        doubled_y = y_rows[:5] + y_rows
        assert merged.n == 17
        assert_matches_reference(merged.solve(0.5, True), doubled_x, doubled_y, 0.5, True)

    def test_empty_rows_rejected(self):
        with pytest.raises(BuiltinError, match="empty training set"):
            RidgeStats.from_columns([[]], [[], []])


TRAIN_X = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
TRAIN_Y = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [50.0, 50.0]]


class TestKnn:
    def test_k1_duplicate_point_exact(self):
        pred = KnnModel(TRAIN_X, TRAIN_Y, 1, "uniform", "euclidean").predict([[1.0, 0.0]])
        assert pred == [[10.0, 0.0]]

    def test_k_equals_train_size_predicts_mean(self):
        pred = KnnModel(TRAIN_X, TRAIN_Y, 4, "uniform", "euclidean").predict([[99.0, 99.0]])
        mean = [sum(y[t] for y in TRAIN_Y) / 4 for t in (0, 1)]
        assert pred == [mean]

    def test_zero_distance_takes_over_exclusively(self):
        train_x = [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]
        train_y = [[2.0, 0.0], [4.0, 0.0], [100.0, 0.0]]
        pred = KnnModel(train_x, train_y, 3, "distance", "euclidean").predict([[0.0, 0.0]])
        assert pred == [[3.0, 0.0]]  # mean of the two exact matches only

    def test_tie_breaks_to_lowest_index(self):
        train_x = [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]
        train_y = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        # both first points are at distance 1; k=1 must pick index 0
        pred = KnnModel(train_x, train_y, 1, "uniform", "euclidean").predict([[0.0, 0.0]])
        assert pred == [[1.0, 1.0]]

    def test_metrics_differ(self):
        train_x = [[2.0, 2.0], [3.0, 0.0]]
        train_y = [[1.0, 0.0], [2.0, 0.0]]
        # euclidean: d = (2.83, 3.0) -> first; manhattan: d = (4, 3) -> second
        query = [0.0, 0.0]
        eu = KnnModel(train_x, train_y, 1, "uniform", "euclidean").predict([query])
        man = KnnModel(train_x, train_y, 1, "uniform", "manhattan").predict([query])
        assert eu == [[1.0, 0.0]] and man == [[2.0, 0.0]]

    def test_distance_weighting_hand_check(self):
        train_x = [[1.0, 0.0], [0.0, 2.0]]
        train_y = [[10.0, 0.0], [40.0, 0.0]]
        pred_x, _ = KnnModel(train_x, train_y, 2, "distance", "euclidean").predict_columns([[0.0], [0.0]], 1)
        w1, w2 = 1.0 / 1.0, 1.0 / 2.0
        expected = (w1 * 10.0 + w2 * 40.0) / (w1 + w2)
        assert math.isclose(pred_x[0], expected, rel_tol=1e-15)

    def test_k_out_of_range(self):
        for k in (5, 0, 2.0, True):
            with pytest.raises(BuiltinError, match=rf"knn: k must be an int in \[1, 4\], got {k!r}$"):
                KnnModel(TRAIN_X, TRAIN_Y, k, "uniform", "euclidean")

    def test_bad_options(self):
        with pytest.raises(BuiltinError, match="weights"):
            KnnModel(TRAIN_X, TRAIN_Y, 1, "gauss", "euclidean")
        with pytest.raises(BuiltinError, match="metric"):
            KnnModel(TRAIN_X, TRAIN_Y, 1, "uniform", "cosine")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predict_columns_is_transposed_predict(self, data):
        # quarter steps on a small grid: ties, duplicates and zero distances are common
        value = st.integers(-12, 12).map(lambda v: v / 4)
        m = data.draw(st.integers(1, 4))
        row = st.lists(value, min_size=m, max_size=m)
        train_x = data.draw(st.lists(row, min_size=1, max_size=12))
        train_y = data.draw(st.lists(st.lists(value, min_size=2, max_size=2),
                                     min_size=len(train_x), max_size=len(train_x)))
        queries = data.draw(st.lists(row, min_size=1, max_size=8))
        model = KnnModel(
            train_x, train_y, data.draw(st.integers(1, len(train_x))),
            data.draw(st.sampled_from(KNN_WEIGHTS)), data.draw(st.sampled_from(KNN_METRICS)),
        )
        pred_x, pred_y = model.predict_columns([array("d", column) for column in zip(*queries)], len(queries))
        assert [[x, y] for x, y in zip(pred_x, pred_y, strict=True)] == model.predict(queries)


class TestArtifacts:
    def queries(self):
        rng = random.Random(5)
        return [array("d", [rng.uniform(-10, 10) for _ in range(20)]) for _ in range(2)]

    def test_ridge_round_trip_bitwise(self):
        rng = random.Random(1)
        x_rows, y_rows, _, _ = linear_dataset(rng, 30, 2, noise=1.0)
        params = {"alpha": 0.25, "fit_intercept": True}
        fitted = RidgeStats.from_columns(columns(x_rows), columns(y_rows)).solve(**params)
        doc = json.loads(canonical_bytes(artifact_doc("ridge", params, fitted)))
        reloaded = load_artifact(doc)
        queries = self.queries()
        assert reloaded.predict_columns(queries, 20) == fitted.predict_columns(queries, 20)

    def test_knn_round_trip_bitwise(self):
        params = {"k": 2, "weights": "distance", "metric": "manhattan"}
        fitted = KnnModel(TRAIN_X, TRAIN_Y, **params)
        doc = json.loads(canonical_bytes(artifact_doc("knn", params, fitted)))
        reloaded = load_artifact(doc)
        queries = self.queries()
        assert reloaded.predict_columns(queries, 20) == fitted.predict_columns(queries, 20)
        assert isinstance(reloaded, KnnModel)

    @pytest.mark.parametrize("option, value, message", [
        ("weights", "gauss", "knn: unknown weights 'gauss'"),
        ("metric", "cosine", "knn: unknown metric 'cosine'"),
        ("k", 2.0, "knn: k must be an int in [1, 4], got 2.0"),
    ])
    def test_knn_artifact_with_unknown_option_refused(self, option, value, message):
        params = {"k": 2, "weights": "distance", "metric": "manhattan", option: value}
        doc = {"model": "knn", "params": params, "train_x": TRAIN_X, "train_y": TRAIN_Y}
        with pytest.raises(BuiltinError) as info:
            load_artifact(doc)
        assert str(info.value) == message

    def test_corrupt_artifact(self):
        with pytest.raises(BuiltinError, match="corrupt|unknown model"):
            load_artifact({"model": "ridge"})
        with pytest.raises(BuiltinError, match="unknown model"):
            load_artifact({"model": "forest", "params": {}})
