import math
import random

import numpy as np
import pytest

from locpipe.errors import BuiltinError
from locpipe.loctk.metrics import percentile_linear, score_columns, truth_columns
from oracles import brute_metrics, percentile_by_rank


class TestTrivialCases:
    def test_perfect_fit(self):
        metrics = score_columns([1.0, 3.0], [2.0, 4.0], truth_columns([1.0, 3.0], [2.0, 4.0]))
        assert metrics["rmse"] == 0.0
        assert metrics["mae"] == 0.0
        assert metrics["r2"] == 1.0
        assert metrics["loc_err_mean"] == 0.0

    def test_unit_residuals(self):
        metrics = score_columns([1.0, 11.0], [-1.0, 9.0], truth_columns([0.0, 10.0], [0.0, 10.0]))
        assert metrics["rmse"] == 1.0
        assert metrics["mae"] == 1.0
        assert metrics["median_ae"] == 1.0

    def test_hand_expanded_case(self):
        # predictions (0, 0) and (3, 4), both true positions (0, 0)
        metrics = score_columns([0.0, 3.0], [0.0, 4.0], truth_columns([0.0, 0.0], [0.0, 0.0]))
        # sqrt((0 + 0 + 9 + 16) / 4) = 2.5
        assert metrics["rmse"] == 2.5
        assert metrics["loc_err_mean"] == 2.5  # distances [0, 5]
        assert metrics["mae"] == 1.75
        assert metrics["median_ae"] == 1.5
        assert metrics["loc_err_median"] == 2.5
        assert metrics["loc_err_p95"] == 4.75  # 0 + 0.95 * (5 - 0)
        assert metrics["r2"] == 0.0  # constant truth, nonzero residuals

    def test_constant_truth_perfect_pred(self):
        column = [5.0] * 4
        assert score_columns(column, column, truth_columns(column, column))["r2"] == 1.0

    def test_errors(self):
        with pytest.raises(BuiltinError, match="empty"):
            truth_columns([], [])


class TestPercentile:
    def test_singleton(self):
        assert percentile_linear([3.0], 0.95) == 3.0

    def test_two_values(self):
        assert percentile_linear([0.0, 5.0], 0.95) == 4.75

    def test_against_numpy(self):
        rng = random.Random(0)
        for _ in range(100):
            values = sorted(rng.uniform(0, 100) for _ in range(rng.randint(1, 40)))
            ours = percentile_linear(values, 0.95)
            theirs = float(np.percentile(values, 95, method="linear"))
            assert math.isclose(ours, theirs, rel_tol=1e-12, abs_tol=1e-12)

    def test_against_rank_oracle(self):
        rng = random.Random(1)
        values = [rng.gauss(0, 3) for _ in range(17)]
        assert math.isclose(
            percentile_linear(sorted(values), 0.95),
            percentile_by_rank(values, 0.95),
            rel_tol=1e-15,
        )


def random_instance(rng: random.Random):
    n = rng.randint(1, 40)
    truth = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
    pred = [(x + rng.gauss(0, 5), y + rng.gauss(0, 5)) for x, y in truth]
    return pred, truth


def assert_close(ours: dict, reference: dict, rel: float = 1e-12):
    for key, value in reference.items():
        scale = max(abs(value), 1e-9)
        assert abs(ours[key] - value) <= rel * scale, (
            f"{key}: {ours[key]} vs reference {value}"
        )


class TestBruteForceEquivalence:
    def test_random_instances(self):
        rng = random.Random(2024)
        for _ in range(300):
            pred, truth = random_instance(rng)
            ours = score_columns(*zip(*pred), truth_columns(*zip(*truth)))
            assert_close(ours, brute_metrics(pred, truth))

    def test_integer_coordinates(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 10)
            truth = [(float(rng.randint(-5, 5)), float(rng.randint(-5, 5))) for _ in range(n)]
            pred = [(float(rng.randint(-5, 5)), float(rng.randint(-5, 5))) for _ in range(n)]
            ours = score_columns(*zip(*pred), truth_columns(*zip(*truth)))
            assert_close(ours, brute_metrics(pred, truth))
