"""Independent reference implementations used only to check the real ones.

Everything here is written from the definitions, in a different style and
(where possible) on different primitives than the code under test: metrics
via numpy, the ridge solve via dense Gaussian elimination on an augmented
system in exact rational arithmetic, tree manifests assembled by hand with
hashlib.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


def brute_metrics(pred, truth) -> dict[str, float]:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    residuals = (pred - truth).reshape(-1)
    rmse = float(np.sqrt(np.mean(residuals**2)))
    mae = float(np.mean(np.abs(residuals)))
    median_ae = float(np.median(np.abs(residuals)))
    ss_res = float(np.sum(residuals**2))
    centered = truth - truth.mean(axis=0)
    ss_tot = float(np.sum(centered**2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    errors = np.sqrt(np.sum((pred - truth) ** 2, axis=1))
    return {
        "rmse": rmse,
        "mae": mae,
        "median_ae": median_ae,
        "r2": r2,
        "loc_err_mean": float(np.mean(errors)),
        "loc_err_median": float(np.median(errors)),
        "loc_err_p95": float(np.percentile(errors, 95, method="linear")),
    }


def gaussian_elimination_solve(a: list[list], b: list) -> list:
    """Dense solve with partial pivoting; no factorization shared with the code
    under test. Given `Fraction` entries it is exact."""
    n = len(a)
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ZeroDivisionError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(col + 1, n):
            factor = aug[row][col] / aug[col][col]
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    x = [0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n] - sum(aug[row][k] * x[k] for k in range(row + 1, n))
        x[row] = acc / aug[row][row]
    return x


def ridge_reference(x_rows, y_col, alpha: float, fit_intercept: bool) -> tuple[list[float], float]:
    """Ridge for one target column via the augmented system [1 X] with an
    unpenalized intercept; returns (coefficients, intercept).

    The normal equations are formed and solved in exact rational arithmetic,
    so the only rounding is of the solution to float: the uncentered [1 X]
    system is ill-conditioned for features far from zero, such as RSSI
    around -74 dBm with 1 dB of spread, and a float solve of it drifts
    further from the exact answer than the code under test does.
    """
    n = len(x_rows)
    if fit_intercept:
        design = [[Fraction(1)] + [Fraction(v) for v in row] for row in x_rows]
    else:
        design = [[Fraction(v) for v in row] for row in x_rows]
    cols = len(design[0])
    y = [Fraction(v) for v in y_col]
    ata = [[sum(design[i][r] * design[i][c] for i in range(n)) for c in range(cols)] for r in range(cols)]
    atb = [sum(design[i][r] * y[i] for i in range(n)) for r in range(cols)]
    start = 1 if fit_intercept else 0
    for j in range(start, cols):
        ata[j][j] += Fraction(alpha)
    solution = [float(v) for v in gaussian_elimination_solve(ata, atb)]
    if fit_intercept:
        return solution[1:], solution[0]
    return solution, 0.0


def manifest_digest(entries: list[tuple[str, bytes]]) -> str:
    """Hand-built directory manifest digest: sorted `rel<TAB>sha` lines, newline-joined."""
    lines = sorted(
        (rel, hashlib.sha256(content).hexdigest()) for rel, content in entries
    )
    text = "\n".join(f"{rel}\t{digest}" for rel, digest in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def kfold_sizes(n: int, k: int) -> list[int]:
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def greedy_group_assignment(groups: list[str], k: int) -> list[set[str]]:
    members: dict[str, int] = {}
    for g in groups:
        members[g] = members.get(g, 0) + 1
    buckets: list[list[str]] = [[] for _ in range(k)]
    sizes = [0] * k
    for key, count in sorted(members.items(), key=lambda kv: (-kv[1], kv[0])):
        target = min(range(k), key=lambda i: (sizes[i], i))
        buckets[target].append(key)
        sizes[target] += count
    return [set(b) for b in buckets]


def percentile_by_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])
