"""Standardized evaluation metrics for 2-D position predictions.

Coordinate-level metrics (rmse, mae, median_ae, r2) pool both coordinates of
every sample into one residual list; localization metrics (loc_err_*)
summarize per-sample Euclidean distances. The 95th percentile uses linear
interpolation between order statistics at rank 0.95 * (n - 1).
"""

from __future__ import annotations

import math
from typing import Sequence

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


def compute_metrics(
    pred: Sequence[Sequence[float]], truth: Sequence[Sequence[float]]
) -> dict[str, float]:
    if len(pred) != len(truth):
        raise BuiltinError(f"metrics: shape mismatch ({len(pred)} vs {len(truth)} rows)")
    if len(pred) == 0:
        raise BuiltinError("metrics: empty input")
    for p, t in zip(pred, truth):
        if len(p) != 2 or len(t) != 2:
            raise BuiltinError("metrics: rows must have exactly two coordinates")

    residuals = []
    for p, t in zip(pred, truth):
        residuals.append(p[0] - t[0])
        residuals.append(p[1] - t[1])
    m = len(residuals)
    ss_res = sum(r * r for r in residuals)
    rmse = math.sqrt(ss_res / m)
    abs_residuals = sorted(abs(r) for r in residuals)
    mae = sum(abs_residuals) / m
    median_ae = _median(abs_residuals)

    mean_x = sum(t[0] for t in truth) / len(truth)
    mean_y = sum(t[1] for t in truth) / len(truth)
    ss_tot = sum((t[0] - mean_x) ** 2 + (t[1] - mean_y) ** 2 for t in truth)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot

    errors = sorted(
        math.hypot(p[0] - t[0], p[1] - t[1]) for p, t in zip(pred, truth)
    )
    return {
        "rmse": rmse,
        "mae": mae,
        "median_ae": median_ae,
        "r2": r2,
        "loc_err_mean": sum(errors) / len(errors),
        "loc_err_median": _median(errors),
        "loc_err_p95": percentile_linear(errors, 0.95),
    }
