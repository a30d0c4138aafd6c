"""Standardized evaluation metrics for 2-D position predictions.

Coordinate-level metrics (rmse, mae, median_ae, r2) pool both coordinates of
every sample into one residual list; localization metrics (loc_err_*)
summarize per-sample Euclidean distances. The 95th percentile uses linear
interpolation between order statistics at rank 0.95 * (n - 1).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import BuiltinError

METRIC_KEYS = (
    "rmse",
    "mae",
    "median_ae",
    "r2",
    "loc_err_mean",
    "loc_err_median",
    "loc_err_p95",
)


def _median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2 == 1:
        return sorted_values[mid]
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def percentile_linear(sorted_values: list[float], q: float) -> float:
    """Percentile with linear interpolation at rank q * (n - 1)."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    rank = q * (n - 1)
    lo = int(math.floor(rank))
    frac = rank - lo
    if lo + 1 >= n:
        return sorted_values[-1]
    return sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo])


def left_sum(values: Iterable[float]) -> float:
    """Left-to-right sum with one rounding per addition.

    Builtin ``sum()`` compensates float additions from Python 3.12 on, which
    would move output bytes between interpreter versions.
    """
    return functools.reduce(operator.add, values, 0)


@dataclass(frozen=True)
class Truth:
    """True positions as coordinate columns, with their total sum of squares."""

    x: Sequence[float]
    y: Sequence[float]
    ss_tot: float


def truth_columns(xs: Sequence[float], ys: Sequence[float]) -> Truth:
    """The `Truth` of the true x and y columns, one value per sample each."""
    if len(xs) == 0:
        raise BuiltinError("metrics: empty input")
    mean_x = left_sum(xs) / len(xs)
    mean_y = left_sum(ys) / len(ys)
    ss_tot = left_sum((x - mean_x) ** 2 + (y - mean_y) ** 2 for x, y in zip(xs, ys, strict=True))
    return Truth(xs, ys, ss_tot)


def score_columns(pred_x: Sequence[float], pred_y: Sequence[float], truth: Truth) -> dict[str, float]:
    """The metrics of predicted coordinate columns against `truth`.

    Residuals are pooled in row order (x then y of each sample), so every sum
    and sort sees the same values in the same order as a row-by-row walk.
    """
    res_x = list(map(operator.sub, pred_x, truth.x))
    res_y = list(map(operator.sub, pred_y, truth.y))
    residuals = [0.0] * (2 * len(res_x))
    residuals[0::2] = res_x
    residuals[1::2] = res_y
    m = len(residuals)
    ss_res = left_sum(map(operator.mul, residuals, residuals))
    abs_residuals = sorted(map(abs, residuals))
    if truth.ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / truth.ss_tot
    errors = sorted(map(math.hypot, res_x, res_y))
    return {
        "rmse": math.sqrt(ss_res / m),
        "mae": left_sum(abs_residuals) / m,
        "median_ae": _median(abs_residuals),
        "r2": r2,
        "loc_err_mean": left_sum(errors) / len(errors),
        "loc_err_median": _median(errors),
        "loc_err_p95": percentile_linear(errors, 0.95),
    }
