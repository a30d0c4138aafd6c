import json
import math
import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locpipe.canonical import canonical_bytes
from locpipe.errors import BuiltinError
from locpipe.loctk.models import (
    KnnModel,
    RidgeStats,
    SingularSystemError,
    artifact_doc,
    fit_model,
    knn_predict_one,
    load_artifact,
    ridge_fit,
)
from oracles import ridge_reference


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
        model = ridge_fit(x_rows, y_rows, alpha=0.0, fit_intercept=True)
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
            model = ridge_fit(x_rows, y_rows, alpha=alpha, fit_intercept=fit_intercept)
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
        model = ridge_fit(x_rows, y_rows, alpha=0.5, fit_intercept=True)
        for t in (0, 1):
            ref_coef, ref_intercept = ridge_reference(x_rows, [y[t] for y in y_rows], 0.5, True)
            assert math.isclose(model.coef[0][t], ref_coef[0], rel_tol=1e-9)
            assert math.isclose(model.intercept[t], ref_intercept, rel_tol=1e-9)

    def test_huge_alpha_shrinks_coefficients_not_intercept(self):
        rng = random.Random(3)
        x_rows, y_rows, _, _ = linear_dataset(rng, 50, 2, noise=1.0)
        model = ridge_fit(x_rows, y_rows, alpha=1e12, fit_intercept=True)
        mean_y = [sum(y[t] for y in y_rows) / len(y_rows) for t in (0, 1)]
        for j in range(2):
            assert abs(model.coef[j][0]) < 1e-6
        for t in (0, 1):
            assert math.isclose(model.intercept[t], mean_y[t], rel_tol=1e-6)

    def test_singular_without_regularization(self):
        # duplicated column makes X^T X rank deficient
        x_rows = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        y_rows = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
        with pytest.raises(SingularSystemError):
            ridge_fit(x_rows, y_rows, alpha=0.0, fit_intercept=False)
        # regularization rescues it
        ridge_fit(x_rows, y_rows, alpha=0.1, fit_intercept=False)

    def test_negative_alpha_rejected(self):
        with pytest.raises(BuiltinError, match="alpha"):
            ridge_fit([[1.0]], [[1.0, 1.0]], alpha=-1.0, fit_intercept=False)

    def test_prediction_shape(self):
        model = ridge_fit([[1.0], [2.0]], [[1.0, 2.0], [2.0, 4.0]], 0.0, True)
        preds = model.predict([[3.0]])
        assert len(preds) == 1 and len(preds[0]) == 2


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
            RidgeStats.from_rows(x_rows[lo:hi], y_rows[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        merged = reduce(RidgeStats.merge, parts).solve(alpha, fit_intercept)
        assert_matches_reference(merged, x_rows, y_rows, alpha, fit_intercept)

        whole = RidgeStats.from_rows(x_rows, y_rows).solve(alpha, fit_intercept)
        for t in (0, 1):
            for j in range(m):
                assert abs(merged.coef[j][t] - whole.coef[j][t]) <= 1e-9 * max(abs(whole.coef[j][t]), 1.0)
            assert abs(merged.intercept[t] - whole.intercept[t]) <= 1e-9 * max(abs(whole.intercept[t]), 1.0)

    def test_merge_counts_a_repeated_part_twice(self):
        rng = random.Random(8)
        x_rows, y_rows, _, _ = linear_dataset(rng, 12, 3, noise=1.0)
        part = RidgeStats.from_rows(x_rows[:5], y_rows[:5])
        merged = part.merge(part).merge(RidgeStats.from_rows(x_rows[5:], y_rows[5:]))
        doubled_x = x_rows[:5] + x_rows
        doubled_y = y_rows[:5] + y_rows
        assert merged.n == 17
        assert_matches_reference(merged.solve(0.5, True), doubled_x, doubled_y, 0.5, True)

    def test_empty_rows_rejected(self):
        with pytest.raises(BuiltinError, match="empty training set"):
            RidgeStats.from_rows([], [])


TRAIN_X = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
TRAIN_Y = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [50.0, 50.0]]


class TestKnn:
    def test_k1_duplicate_point_exact(self):
        pred = knn_predict_one(TRAIN_X, TRAIN_Y, [1.0, 0.0], k=1, weights="uniform", metric="euclidean")
        assert pred == [10.0, 0.0]

    def test_k_equals_train_size_predicts_mean(self):
        pred = knn_predict_one(TRAIN_X, TRAIN_Y, [99.0, 99.0], k=4, weights="uniform", metric="euclidean")
        mean = [sum(y[t] for y in TRAIN_Y) / 4 for t in (0, 1)]
        assert pred == mean

    def test_zero_distance_takes_over_exclusively(self):
        train_x = [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]
        train_y = [[2.0, 0.0], [4.0, 0.0], [100.0, 0.0]]
        pred = knn_predict_one(train_x, train_y, [0.0, 0.0], k=3, weights="distance", metric="euclidean")
        assert pred == [3.0, 0.0]  # mean of the two exact matches only

    def test_tie_breaks_to_lowest_index(self):
        train_x = [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]
        train_y = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        # both first points are at distance 1; k=1 must pick index 0
        pred = knn_predict_one(train_x, train_y, [0.0, 0.0], k=1, weights="uniform", metric="euclidean")
        assert pred == [1.0, 1.0]

    def test_metrics_differ(self):
        train_x = [[2.0, 2.0], [3.0, 0.0]]
        train_y = [[1.0, 0.0], [2.0, 0.0]]
        # euclidean: d = (2.83, 3.0) -> first; manhattan: d = (4, 3) -> second
        query = [0.0, 0.0]
        eu = knn_predict_one(train_x, train_y, query, 1, "uniform", "euclidean")
        man = knn_predict_one(train_x, train_y, query, 1, "uniform", "manhattan")
        assert eu == [1.0, 0.0] and man == [2.0, 0.0]

    def test_distance_weighting_hand_check(self):
        train_x = [[1.0, 0.0], [0.0, 2.0]]
        train_y = [[10.0, 0.0], [40.0, 0.0]]
        pred = knn_predict_one(train_x, train_y, [0.0, 0.0], 2, "distance", "euclidean")
        w1, w2 = 1.0 / 1.0, 1.0 / 2.0
        expected = (w1 * 10.0 + w2 * 40.0) / (w1 + w2)
        assert math.isclose(pred[0], expected, rel_tol=1e-15)

    def test_k_out_of_range(self):
        with pytest.raises(BuiltinError):
            knn_predict_one(TRAIN_X, TRAIN_Y, [0.0, 0.0], 5, "uniform", "euclidean")
        with pytest.raises(BuiltinError):
            knn_predict_one(TRAIN_X, TRAIN_Y, [0.0, 0.0], 0, "uniform", "euclidean")

    def test_bad_options(self):
        with pytest.raises(BuiltinError, match="weights"):
            knn_predict_one(TRAIN_X, TRAIN_Y, [0.0, 0.0], 1, "gauss", "euclidean")
        with pytest.raises(BuiltinError, match="metric"):
            knn_predict_one(TRAIN_X, TRAIN_Y, [0.0, 0.0], 1, "uniform", "cosine")


class TestArtifacts:
    def queries(self):
        rng = random.Random(5)
        return [[rng.uniform(-10, 10) for _ in range(2)] for _ in range(20)]

    def test_ridge_round_trip_bitwise(self):
        rng = random.Random(1)
        x_rows, y_rows, _, _ = linear_dataset(rng, 30, 2, noise=1.0)
        params = {"alpha": 0.25, "fit_intercept": True}
        fitted = fit_model("ridge", params, x_rows, y_rows)
        doc = json.loads(canonical_bytes(artifact_doc("ridge", params, fitted)))
        reloaded = load_artifact(doc)
        queries = self.queries()
        assert reloaded.predict(queries) == fitted.predict(queries)

    def test_knn_round_trip_bitwise(self):
        params = {"k": 2, "weights": "distance", "metric": "manhattan"}
        fitted = fit_model("knn", params, TRAIN_X, TRAIN_Y)
        doc = json.loads(canonical_bytes(artifact_doc("knn", params, fitted)))
        reloaded = load_artifact(doc)
        queries = self.queries()
        assert reloaded.predict(queries) == fitted.predict(queries)
        assert isinstance(reloaded, KnnModel)

    def test_corrupt_artifact(self):
        with pytest.raises(BuiltinError, match="corrupt|unknown model"):
            load_artifact({"model": "ridge"})
        with pytest.raises(BuiltinError, match="unknown model"):
            load_artifact({"model": "forest", "params": {}})
