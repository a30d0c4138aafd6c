"""Cleaning stage: raw CSV in, analysis-ready table plus a summary sidecar out.

Rows whose position targets are missing or non-numeric are dropped. Bad RSSI
cells are handled per `drop_policy`:

- ``targets`` (default): only bad targets drop a row; bad RSSI cells are
  replaced with `fill_value` (counted in the summary).
- ``any``: a row with any bad cell is dropped.

Row order is stable: input order with dropped rows removed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from ..canonical import dump_canonical
from ..errors import BuiltinError
from . import StageRequest, get, section
from .tables import RSSI_PREFIX, Table, parse_header, write_table

DEFAULT_FILL_DBM = -100.0
DROP_POLICIES = ("targets", "any")


def _parse_or_none(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def prepare_rows(
    raw_path: Path | str,
    fill_value: float = DEFAULT_FILL_DBM,
    drop_policy: str = "targets",
) -> tuple[Table, dict]:
    if drop_policy not in DROP_POLICIES:
        raise BuiltinError(f"prepare: unknown drop_policy '{drop_policy}' (allowed: {DROP_POLICIES})")
    raw_path = Path(raw_path)
    with open(raw_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise BuiltinError(f"{raw_path}: empty file") from None
        _, width = parse_header(header, raw_path)

        ids: list[str] = []
        values: list[list[float]] = []
        targets: list[tuple[float, float]] = []
        rows_in = 0
        rows_dropped = 0
        fill_count = 0
        for row in reader:
            rows_in += 1
            if len(row) > width + 3:  # extra cells: column meaning is lost
                rows_dropped += 1
                continue
            if len(row) < width + 3:
                row = row + [""] * (width + 3 - len(row))
            x = _parse_or_none(row[-2])
            y = _parse_or_none(row[-1])
            if x is None or y is None:
                rows_dropped += 1
                continue
            cells = [_parse_or_none(c) for c in row[1:width + 1]]
            if drop_policy == "any" and any(c is None for c in cells):
                rows_dropped += 1
                continue
            filled = []
            for cell in cells:
                if cell is None:
                    fill_count += 1
                    filled.append(fill_value)
                else:
                    filled.append(cell)
            if "\r" in row[0]:  # csv.writer leaves \r unquoted, so no reader could split the row
                raise BuiltinError(
                    f"{raw_path}:{rows_in + 1}: sample id {row[0]!r} contains a carriage return"
                )
            ids.append(row[0])
            values.append(filled)
            targets.append((x, y))

    if not ids:
        raise BuiltinError(f"{raw_path}: no rows survived preparation")
    summary = {
        "rows_in": rows_in,
        "rows_out": len(ids),
        "rows_dropped": rows_dropped,
        "fill_count": fill_count,
    }
    return Table.from_rows(RSSI_PREFIX, ids, values, targets), summary


def run(request: StageRequest) -> None:
    cfg = section(request, "prepare")
    where = f"stage '{request.stage}'"
    fill_value = float(get(cfg, "fill_value", "number", where, default=DEFAULT_FILL_DBM))
    drop_policy = get(cfg, "drop_policy", "str", where, default="targets")
    table, summary = prepare_rows(request.dep(0, "raw dataset CSV"), fill_value, drop_policy)
    write_table(table, request.out(0, "prepared CSV"), request.table_memo)
    dump_canonical(summary, request.out(1, "summary JSON"))
