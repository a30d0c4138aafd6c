"""The tabular CSV schema shared by the localization stages.

Tables are header-carrying CSV with ``\\n`` line endings: a ``sample_id``
column, one block of indexed value columns (``rssi_1..rssi_m`` after
prepare, ``f_1..f_m`` after featurize), and the ``x``, ``y`` position
targets in meters. All decimals are rendered in shortest round-trip form.

The reader works a whole row at a time. It parses a row's cells in one
``map(float, ...)`` and checks them in one ``all(map(math.isfinite,
...))``; it is exactly as strict as a per-cell check, and a row that fails is
re-scanned from the left so the error names the same first bad cell.

`render_csv` is the one writer of CSV number cells, for tables here and for
the predictions CSV of `gridsearch`. It works column-wise in chunks of rows.
A number's text is its ``repr``, `canonical.fmt_num`'s text for every int
and float, and a column chunk of only floats calls ``repr`` once per
distinct value. An id cell is written as it is unless it holds a character
that csv.writer may quote; such an id is rendered by csv.writer itself, so
the bytes are those of csv.writer on the running interpreter.

Given a memo directory (a `loctk.table_memo_dir`), `read_table` parses a
file's bytes only once per content digest. The entry ``<memo>/<sha256 of the
CSV>`` holds the SHA-256 of its payload, then the ``marshal`` payload of the
`Table`; an entry whose payload does not match that header is parsed again
and rewritten. An entry is written only after a parse succeeds, through a
temp file in the cache's ``tmp`` directory, and a failed write leaves the
read's result alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import marshal
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

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

    def columns(self) -> list[tuple[float, ...]]:
        """The value columns, then the x and y columns. Strict: a ragged row
        raises ValueError instead of cutting every column to its length."""
        return [*zip(*self.values, strict=True), *zip(*self.targets, strict=True)]


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


def read_table(path: Path | str, memo: Path | None = None) -> Table:
    """Strict reader for prepared/feature tables: every cell must be a finite number.

    A row's cells are parsed in one ``map(float, ...)`` and checked in one
    ``all(map(math.isfinite, ...))``. Only a row that fails is scanned again,
    cell by cell from the left, to name its first bad cell. With `memo`, a
    verified memo entry of the file's bytes stands in for the parse.
    """
    path = Path(path)
    data = path.read_bytes()
    if memo is None:
        return _parse(data, path)
    entry = Path(memo) / hashlib.sha256(data).hexdigest()
    table = _load_memo(entry)
    if table is None:
        table = _parse(data, path)
        _save_memo(table, entry)
    return table


def _parse(data: bytes, path: Path) -> Table:
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
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


def _load_memo(entry: Path) -> Table | None:
    """The table memoized at `entry`; None if it is missing or fails its check."""
    try:
        blob = memoryview(entry.read_bytes())
    except OSError:
        return None
    if hashlib.sha256(blob[32:]).digest() != blob[:32]:
        return None
    try:
        prefix, ids, values, targets = marshal.loads(blob[32:])
    except (EOFError, TypeError, ValueError):
        return None
    return Table(prefix=prefix, ids=ids, values=values, targets=targets)


def _save_memo(table: Table, entry: Path) -> None:
    payload = marshal.dumps((table.prefix, table.ids, table.values, table.targets))
    # entry is <cache>/tables/<code digest>/<csv digest>; temp files go to <cache>/tmp
    tmp = entry.parent.parent.parent / "tmp" / f"table-{os.getpid()}-{os.urandom(8).hex()}"
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        entry.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(hashlib.sha256(payload).digest())
            handle.write(payload)
        os.replace(tmp, entry)
    except OSError:  # the memo only saves work: a failed write costs a parse later
        with contextlib.suppress(OSError):
            tmp.unlink()


# Rows rendered per chunk. A column's memo is cleared before a chunk once it
# holds more texts than a chunk has rows, so on data whose values never
# repeat it holds at most two chunks' worth.
_CHUNK_ROWS = 2048
# csv.writer quotes or rejects some of these depending on the Python version
# ("\r" and NUL), so an id holding any of them is left to csv.writer.
_ID_NEEDS_WRITER = re.compile('[,"\r\n\0]')


class _FloatText(dict):
    """``repr`` of each float, rendered on first lookup. A zero is rendered
    every time and never stored, because 0.0 and -0.0 are one key."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def id_cell(sample_id: str) -> str:
    """The text csv.writer gives `sample_id` as one cell of a row of several."""
    if not _ID_NEEDS_WRITER.search(sample_id):
        return sample_id
    return _csv_line([sample_id, ""])[:-2]  # drop the empty last cell: "," and "\n"


def render_csv(header: list[str], ids: Sequence[str], columns: Sequence[Sequence]) -> Iterator[str]:
    """The CSV text of `header` and one row ``id, <a value of each column>``
    per id, in chunks of whole lines. The bytes are those csv.writer (with
    ``"\\n"`` line endings) writes for the header and for the rows with
    every number cell ``repr``'d.

    Each column chunk whose values are all exactly ``float`` renders through
    one memo per column (``7`` and ``7.0`` are one key, so a chunk that
    mixes types is ``repr``'d cell by cell).
    """
    if any(len(column) != len(ids) for column in columns):
        raise ValueError(f"every column must have {len(ids)} values, one per id")
    yield _csv_line(header)
    memos = [_FloatText() for _ in columns]
    for lo in range(0, len(ids), _CHUNK_ROWS):
        chunk = ids[lo:lo + _CHUNK_ROWS]
        cells = [list(map(id_cell, chunk)) if _ID_NEEDS_WRITER.search("".join(chunk)) else chunk]
        for column, memo in zip(columns, memos):
            part = column[lo:lo + _CHUNK_ROWS]
            if set(map(type, part)) == {float}:
                if len(memo) > _CHUNK_ROWS:
                    memo.clear()
                cells.append(list(map(memo.__getitem__, part)))
            else:
                cells.append(list(map(repr, part)))
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_table(table: Table, path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = table.columns()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(render_csv(table.header(), table.ids, columns))


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
