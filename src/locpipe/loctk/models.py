"""Closed-form ridge regression and exhaustive k-nearest-neighbors.

Both models are implemented in plain Python on plain floats: no numerics
framework, no threads, no global state. That keeps every fit and prediction
bit-reproducible for identical inputs, which is what the cache and the
exact-rerun guarantee are built on. ``alpha = 0`` recovers ordinary linear
least squares.

The API is column-major, as `tables.Table` is: a ridge fit is
``RidgeStats.from_columns(...).solve(alpha, fit_intercept)``, a kNN fit is a
`KnnModel` of the training rows, which checks its options once, when it is
built, and both predict x and y columns through ``predict_columns(columns, n)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from ..errors import BuiltinError
from .metrics import left_sum

KNN_WEIGHTS = ("uniform", "distance")
KNN_METRICS = ("euclidean", "manhattan")

Matrix = list[list[float]]


class SingularSystemError(BuiltinError):
    """The normal equations are (numerically) singular."""


def _cholesky_solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B for symmetric positive-definite A via Cholesky."""
    n = len(a)
    scale = max((abs(a[i][i]) for i in range(n)), default=1.0)
    tol = 1e-10 * max(scale, 1.0)
    lower = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = left_sum(lower[i][m] * lower[j][m] for m in range(j))
            if i == j:
                diag = a[i][i] - acc
                if diag <= tol:
                    raise SingularSystemError("normal equations are singular")
                lower[i][i] = math.sqrt(diag)
            else:
                lower[i][j] = (a[i][j] - acc) / lower[j][j]
    cols = len(b[0])
    # forward substitution: L z = b
    z = [[0.0] * cols for _ in range(n)]
    for i in range(n):
        for c in range(cols):
            acc = left_sum(lower[i][m] * z[m][c] for m in range(i))
            z[i][c] = (b[i][c] - acc) / lower[i][i]
    # back substitution: L^T x = z
    x = [[0.0] * cols for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for c in range(cols):
            acc = left_sum(lower[m][i] * x[m][c] for m in range(i + 1, n))
            x[i][c] = (z[i][c] - acc) / lower[i][i]
    return x


@dataclass(frozen=True)
class RidgeModel:
    coef: Matrix            # m features x 2 targets
    intercept: list[float]  # per target

    def predict(self, rows: Sequence[Sequence[float]]) -> Matrix:
        return [list(pred) for pred in zip(*self.predict_columns(list(zip(*rows)), len(rows)))]

    def predict_columns(self, columns: Sequence[Sequence[float]], n: int) -> tuple[list[float], list[float]]:
        """(x, y) predictions of `n` rows given as feature columns.

        Each prediction starts at the intercept and adds ``value * coef`` one
        feature at a time, in feature order. The per-feature steps are chained
        lazily, so each target's list is built once.
        """
        pred_x, pred_y = repeat(self.intercept[0], n), repeat(self.intercept[1], n)
        for column, (coef_x, coef_y) in zip(columns, self.coef):
            pred_x = map(operator.add, pred_x, map(operator.mul, column, repeat(coef_x)))
            pred_y = map(operator.add, pred_y, map(operator.mul, column, repeat(coef_y)))
        return list(pred_x), list(pred_y)


@dataclass(frozen=True)
class RidgeStats:
    """Sufficient statistics of a ridge fit over a set of rows.

    ``xtx`` and ``xty`` are the co-moments centered on the row means, so
    RSSI-like features (means near -70 dBm, spreads of a few dB) lose no
    precision to cancellation. Statistics of disjoint row sets combine with
    ``merge``; every ``alpha`` and ``fit_intercept`` is then one small
    m x m solve.
    """

    n: int
    x_mean: list[float]
    y_mean: list[float]
    xtx: Matrix             # m x m, centered
    xty: Matrix             # m x 2, centered

    @staticmethod
    def from_columns(
        x_cols: Sequence[Sequence[float]], y_cols: Sequence[Sequence[float]]
    ) -> "RidgeStats":
        """Two passes: exact column means, then exactly summed centered products."""
        n = len(y_cols[0]) if y_cols else 0
        if n == 0:
            raise BuiltinError("ridge: empty training set")
        x_mean = [math.fsum(col) / n for col in x_cols]
        y_mean = [math.fsum(col) / n for col in y_cols]
        xc = [[v - mu for v in col] for col, mu in zip(x_cols, x_mean)]
        yc = [[v - mu for v in col] for col, mu in zip(y_cols, y_mean)]
        m = len(xc)
        xtx = [[0.0] * m for _ in range(m)]
        for j in range(m):
            for l in range(j, m):
                xtx[j][l] = xtx[l][j] = math.fsum(map(operator.mul, xc[j], xc[l]))
        xty = [[math.fsum(map(operator.mul, xc[j], yt)) for yt in yc] for j in range(m)]
        return RidgeStats(n, x_mean, y_mean, xtx, xty)

    def merge(self, other: "RidgeStats") -> "RidgeStats":
        """Pairwise update of Chan, Golub & LeVeque (1979): the statistics of
        the union of both row sets, counting a row once per occurrence."""
        n = self.n + other.n
        weight = self.n * other.n / n
        dx = [b - a for a, b in zip(self.x_mean, other.x_mean)]
        dy = [b - a for a, b in zip(self.y_mean, other.y_mean)]
        return RidgeStats(
            n=n,
            x_mean=[a + d * other.n / n for a, d in zip(self.x_mean, dx)],
            y_mean=[a + d * other.n / n for a, d in zip(self.y_mean, dy)],
            xtx=[
                [a + b + dj * dl * weight for a, b, dl in zip(row_a, row_b, dx)]
                for row_a, row_b, dj in zip(self.xtx, other.xtx, dx)
            ],
            xty=[
                [a + b + dj * dt * weight for a, b, dt in zip(row_a, row_b, dy)]
                for row_a, row_b, dj in zip(self.xty, other.xty, dx)
            ],
        )

    def solve(self, alpha: float, fit_intercept: bool) -> RidgeModel:
        """Normal-equation ridge fit, one solve shared by both target columns.

        With ``fit_intercept`` the centered moments are solved and the
        intercept is recovered afterwards, so the penalty never applies to
        it. Without, the raw moments are rebuilt as ``C + n mu mu^T``, which
        only adds terms.
        """
        if alpha < 0:
            raise BuiltinError(f"ridge: alpha must be >= 0, got {alpha}")
        m = len(self.x_mean)
        if fit_intercept:
            a = [list(row) for row in self.xtx]
            b = self.xty
        else:
            a = [
                [c + self.n * mj * ml for c, ml in zip(row, self.x_mean)]
                for row, mj in zip(self.xtx, self.x_mean)
            ]
            b = [
                [c + self.n * mj * mt for c, mt in zip(row, self.y_mean)]
                for row, mj in zip(self.xty, self.x_mean)
            ]
        for j in range(m):
            a[j][j] += alpha
        coef = _cholesky_solve(a, b)
        intercept = [0.0, 0.0]
        if fit_intercept:
            intercept = [
                self.y_mean[t] - left_sum(self.x_mean[j] * coef[j][t] for j in range(m))
                for t in (0, 1)
            ]
        return RidgeModel(coef=coef, intercept=intercept)


@dataclass(frozen=True)
class KnnModel:
    train_x: Sequence[Sequence[float]]
    train_y: Sequence[Sequence[float]]
    k: int
    weights: str
    metric: str

    def __post_init__(self) -> None:
        n = len(self.train_x)
        if type(self.k) is not int or not 1 <= self.k <= n:
            raise BuiltinError(f"knn: k must be an int in [1, {n}], got {self.k!r}")
        if self.weights not in KNN_WEIGHTS:
            raise BuiltinError(f"knn: unknown weights '{self.weights}'")
        if self.metric not in KNN_METRICS:
            raise BuiltinError(f"knn: unknown metric '{self.metric}'")

    def predict(self, rows: Sequence[Sequence[float]]) -> Matrix:
        return [self._predict_one(row) for row in rows]

    def predict_columns(self, columns: Sequence[Sequence[float]], n: int) -> tuple[list[float], list[float]]:
        """(x, y) predictions of `n` rows given as feature columns: `predict` of their rows."""
        preds = self.predict(list(zip(*columns)))
        return [pred[0] for pred in preds], [pred[1] for pred in preds]

    def _predict_one(self, query: Sequence[float]) -> list[float]:
        """Exhaustive scan; ties at the k boundary break toward the lowest row index.

        ``distance`` weighting uses 1/d; any zero-distance neighbors among the k
        take over exclusively (prediction = mean of their targets).
        """
        k, train_y = self.k, self.train_y
        scored = sorted((_distance(query, row, self.metric), i) for i, row in enumerate(self.train_x))[:k]
        if self.weights == "distance":
            exact = [idx for dist, idx in scored if dist == 0.0]
            if exact:
                return [
                    left_sum(train_y[i][0] for i in exact) / len(exact),
                    left_sum(train_y[i][1] for i in exact) / len(exact),
                ]
            total = 0.0
            acc = [0.0, 0.0]
            for dist, idx in scored:
                w = 1.0 / dist
                total += w
                acc[0] += w * train_y[idx][0]
                acc[1] += w * train_y[idx][1]
            return [acc[0] / total, acc[1] / total]
        return [
            left_sum(train_y[idx][0] for _, idx in scored) / k,
            left_sum(train_y[idx][1] for _, idx in scored) / k,
        ]


def _distance(a: Sequence[float], b: Sequence[float], metric: str) -> float:
    if metric == "euclidean":
        return math.sqrt(left_sum((u - v) ** 2 for u, v in zip(a, b)))
    return left_sum(abs(u - v) for u, v in zip(a, b))


# ---------------------------------------------------------------------------
# Model artifacts (reloadable JSON documents)


def artifact_doc(model_id: str, params: dict, fitted) -> dict:
    if model_id == "ridge":
        return {
            "model": "ridge",
            "params": params,
            "coef": fitted.coef,
            "intercept": fitted.intercept,
        }
    return {
        "model": "knn",
        "params": params,
        "train_x": fitted.train_x,
        "train_y": fitted.train_y,
    }


def load_artifact(doc: dict):
    """Rebuild a fitted model from its artifact document."""
    try:
        model_id = doc["model"]
        params = doc["params"]
        if model_id == "ridge":
            return RidgeModel(coef=doc["coef"], intercept=doc["intercept"])
        if model_id == "knn":
            return KnnModel(
                train_x=doc["train_x"],
                train_y=doc["train_y"],
                k=params["k"],
                weights=params["weights"],
                metric=params["metric"],
            )
    except (KeyError, TypeError):
        raise BuiltinError("corrupt model artifact") from None
    raise BuiltinError(f"unknown model '{model_id}' in artifact")
