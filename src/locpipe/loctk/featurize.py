"""Feature construction: stateless per-cell transforms applied in declared order.

No statistics are computed across rows, so the stage is leakage-free by
construction; anything fold-aware belongs in training. Supported transforms:

- ``identity``
- ``dbm_to_mw``           (10 ** (v / 10))
- ``{clip: {lo: .., hi: ..}}``
"""

from __future__ import annotations

from typing import Callable

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


def featurize(table: Table, transforms: list[Transform]) -> Table:
    values = []
    for row in table.values:
        cells = row
        for transform in transforms:
            cells = map(transform, cells)
        values.append(list(cells))
    return Table(prefix=FEATURE_PREFIX, ids=list(table.ids), values=values, targets=list(table.targets))


def run(request: StageRequest) -> None:
    cfg = section(request, "featurize")
    where = f"stage '{request.stage}'"
    raw = get(cfg, "transforms", "list", where, default=["identity"])
    transforms = parse_transforms(raw, where)
    table = read_table(request.dep(0, "prepared CSV"), request.table_memo)
    write_table(featurize(table, transforms), request.out(0, "feature CSV"))
