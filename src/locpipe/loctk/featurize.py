"""Feature construction: stateless per-cell transforms applied in declared order.

No statistics are computed across rows, so the stage is leakage-free by
construction; anything fold-aware belongs in training. The transforms are
mapped down each value column of the column-major `Table`, every cell
through every transform in order, so each cell's value is what a row-wise
walk gives. A cell that fails (``dbm_to_mw`` overflows) is named in row
order: the table is then walked again row by row, and the first bad cell of
that walk raises. Supported transforms:

- ``identity``
- ``dbm_to_mw``           (10 ** (v / 10))
- ``{clip: {lo: .., hi: ..}}``
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable

from ..errors import BuiltinError
from . import StageRequest, get, section
from .tables import FEATURE_PREFIX, Table, read_table, write_table

Transform = Callable[[float], float]


def _make_clip(lo: float, hi: float) -> Transform:
    if lo > hi:
        raise BuiltinError(f"featurize: clip lo {lo} > hi {hi}")
    return lambda v: min(max(v, lo), hi)


def _make_dbm_to_mw(where: str) -> Transform:
    def dbm_to_mw(v: float) -> float:
        try:
            return 10.0 ** (v / 10.0)
        except OverflowError:
            raise BuiltinError(f"{where}: dbm_to_mw overflows on value {v!r}") from None

    return dbm_to_mw


def parse_transforms(raw: list, where: str = "featurize") -> list[Transform]:
    """The transforms of `raw` in order; ``identity`` contributes none."""
    transforms: list[Transform] = []
    for item in raw:
        if item == "identity":
            continue
        if item == "dbm_to_mw":
            transforms.append(_make_dbm_to_mw(where))
        elif isinstance(item, dict) and set(item) == {"clip"}:
            spec = item["clip"]
            if not isinstance(spec, dict):
                raise BuiltinError(f"{where}: clip expects a mapping with 'lo' and 'hi'")
            lo = float(get(spec, "lo", "number", f"{where}.clip"))
            hi = float(get(spec, "hi", "number", f"{where}.clip"))
            transforms.append(_make_clip(lo, hi))
        else:
            raise BuiltinError(f"{where}: unknown transform {item!r}")
    return transforms


def _apply(transforms: list[Transform], cells: Iterable[float]) -> array:
    for transform in transforms:
        cells = map(transform, cells)
    return array("d", cells)


def featurize(table: Table, transforms: list[Transform]) -> Table:
    try:
        cols = [_apply(transforms, column) for column in table.cols]
    except BuiltinError:
        for row in zip(*table.cols):  # raises at the first bad cell in row order
            _apply(transforms, row)
        raise
    return Table(FEATURE_PREFIX, table.ids, cols, table.x, table.y)


def run(request: StageRequest) -> None:
    cfg = section(request, "featurize")
    where = f"stage '{request.stage}'"
    raw = get(cfg, "transforms", "list", where, default=["identity"])
    transforms = parse_transforms(raw, where)
    table = read_table(request.dep(0, "prepared CSV"), request.table_memo)
    write_table(featurize(table, transforms), request.out(0, "feature CSV"), request.table_memo)
