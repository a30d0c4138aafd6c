"""The tabular CSV schema shared by the localization stages.

Tables are header-carrying CSV with ``\\n`` line endings: a ``sample_id``
column, one block of indexed value columns (``rssi_1..rssi_m`` after
prepare, ``f_1..f_m`` after featurize), and the ``x``, ``y`` position
targets in meters. All decimals are rendered in shortest round-trip form.

Both directions work a whole row at a time. The reader parses a row's cells
in one ``map(float, ...)`` and checks them in one ``all(map(math.isfinite,
...))``; it is exactly as strict as a per-cell check, and a row that fails is
re-scanned from the left so the error names the same first bad cell. The
writer renders cells with ``repr``, which is `canonical.fmt_num`'s text for
every int and float.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

from ..errors import BuiltinError

RSSI_PREFIX = "rssi"
FEATURE_PREFIX = "f"

_COL_RE = re.compile(r"^([A-Za-z]+)_([0-9]+)$")


@dataclass
class Table:
    prefix: str                      # value-column prefix ("rssi" or "f")
    ids: list[str]
    values: list[list[float]]        # one row per sample
    targets: list[tuple[float, float]]

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    @property
    def n_cols(self) -> int:
        return len(self.values[0]) if self.values else 0

    def header(self) -> list[str]:
        return ["sample_id"] + [f"{self.prefix}_{i + 1}" for i in range(self.n_cols)] + ["x", "y"]


def parse_header(header: list[str], path: Path | str) -> tuple[str, int]:
    """Validate ``sample_id, <prefix>_1..<prefix>_m, x, y`` and return (prefix, m)."""
    if len(header) < 4 or header[0] != "sample_id" or header[-2:] != ["x", "y"]:
        raise BuiltinError(
            f"{path}: malformed header (expected sample_id, <prefix>_1.., x, y), got {header!r}"
        )
    prefix = None
    for i, name in enumerate(header[1:-2], start=1):
        match = _COL_RE.match(name)
        if not match or int(match.group(2)) != i or (prefix is not None and match.group(1) != prefix):
            raise BuiltinError(f"{path}: malformed header column '{name}' at position {i}")
        prefix = match.group(1)
    return prefix or "", len(header) - 3


def _parse_cell(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise BuiltinError(f"{where}: non-numeric cell {cell!r}") from None
    if not math.isfinite(value):
        raise BuiltinError(f"{where}: non-finite cell {cell!r}")
    return value


def read_table(path: Path | str) -> Table:
    """Strict reader for prepared/feature tables: every cell must be a finite number.

    A row's cells are parsed in one ``map(float, ...)`` and checked in one
    ``all(map(math.isfinite, ...))``. Only a row that fails is scanned again,
    cell by cell from the left, to name its first bad cell.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise BuiltinError(f"{path}: empty file") from None
        prefix, width = parse_header(header, path)
        ids, values, targets = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 3:
                raise BuiltinError(f"{path}:{lineno}: expected {width + 3} cells, got {len(row)}")
            try:
                cells = list(map(float, row[1:]))
                ok = all(map(math.isfinite, cells))
            except ValueError:
                ok = False
            if not ok:
                for cell in row[1:]:  # raises at the row's first bad cell
                    _parse_cell(cell, f"{path}:{lineno}")
            if "\r" in row[0]:  # csv.writer leaves \r unquoted, so no reader could split the row
                raise BuiltinError(f"{path}:{lineno}: sample id {row[0]!r} contains a carriage return")
            ids.append(row[0])
            targets.append((cells[-2], cells[-1]))
            del cells[-2:]
            values.append(cells)
    return Table(prefix=prefix, ids=ids, values=values, targets=targets)


def write_table(table: Table, path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header())
    writer.writerows(
        [sample_id, *map(repr, row), repr(x), repr(y)]
        for sample_id, row, (x, y) in zip(table.ids, table.values, table.targets)
    )
    path.write_text(buf.getvalue(), encoding="utf-8")


def read_column(path: Path | str, column: str) -> list[str]:
    """Raw string values of one named column (for group-based splitting)."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise BuiltinError(f"{path}: empty file") from None
        if column not in header:
            raise BuiltinError(f"{path}: no column named '{column}'")
        idx = header.index(column)
        return [row[idx] if idx < len(row) else "" for row in reader]
