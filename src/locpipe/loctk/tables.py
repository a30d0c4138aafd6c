"""The tabular CSV schema shared by the localization stages.

Tables are header-carrying CSV with ``\\n`` line endings: a ``sample_id``
column, one block of indexed value columns (``rssi_1..rssi_m`` after
prepare, ``f_1..f_m`` after featurize), and the ``x``, ``y`` position
targets in meters. All decimals are rendered in shortest round-trip form.

A `Table` is held column-major, from parse and memo through to write: its
ids, one ``array('d')`` per value column, and the ``x`` and ``y`` columns.
There is no row-major form; a caller that has rows builds the table with
`Table.from_rows`, which refuses ragged rows.

The reader checks a whole row at a time. It parses a row's cells in one
``map(float, ...)`` and checks them in one ``all(map(math.isfinite,
...))``; it is exactly as strict as a per-cell check, and a row that fails is
re-scanned from the left so the error names the same first bad cell. The
checked cells go to one flat ``array('d')``, which is cut into columns once
the file is read.

`render_csv` writes every number cell of the data CSVs: tables here, the
raw dataset of `synth` and the predictions CSV of `gridsearch`. It works
column-wise in chunks of rows.
A number's text is its ``repr``, `canonical.fmt_num`'s text for every int
and float, and a column chunk of only floats calls ``repr`` once per
distinct value. An id cell is written as it is unless it holds a character
that csv.writer may quote; such an id is rendered by csv.writer itself, so
the bytes are those of csv.writer on the running interpreter.

Given a memo directory (a `loctk.table_memo_dir`), a table's bytes are
parsed at most once per content digest, and a table a builtin wrote is never
parsed at all. The entry ``<memo>/<sha256 of the CSV>`` is a
`canonical.frame` of its payload: the row and column counts, each column's
raw ``array('d')`` bytes (in this machine's byte order), and the ``marshal``
of the prefix and the ids. A hit reads the columns straight into their
arrays and allocates no per-row object but the ids. An entry whose payload
does not match its header, or that is not laid out this way, is parsed
again and rewritten.

The memo is write-through. `write_table` (and `write_chunks`, for a writer
that streams its text) hashes the bytes in the pass that writes them; when
the memo holds no entry under that digest and the table `reads_back`, it
stores the entry a parse of those bytes would give. Otherwise the entry is
written by `read_table` after a parse succeeds, so a table no builtin wrote
(a ``cmd`` stage's, a hand-edited one) is parsed once. Every entry is written
by `store.write_atomic` through a temp file beside it, and a failed write
leaves the read or write's result alone. A writer makes no directory: the
launcher makes each out's.
"""

from __future__ import annotations

import csv
import hashlib
import io
import marshal
import math
import os
import re
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..canonical import frame, framed
from ..errors import BuiltinError
from ..store import hash_file, write_atomic

RSSI_PREFIX = "rssi"
FEATURE_PREFIX = "f"

_COL_RE = re.compile(r"^([A-Za-z]+)_([0-9]+)$")
_PREFIX_RE = re.compile("[A-Za-z]+")


@dataclass
class Table:
    prefix: str         # value-column prefix ("rssi" or "f")
    ids: list[str]
    cols: list[array]   # one array('d') per value column, one value per id
    x: array
    y: array

    def __post_init__(self) -> None:
        if any(len(column) != len(self.ids) for column in self.columns()):
            raise ValueError(f"every column must have {len(self.ids)} values, one per id")

    @classmethod
    def from_rows(
        cls,
        prefix: str,
        ids: list[str],
        values: Sequence[Sequence[float]],
        targets: Sequence[Sequence[float]],
    ) -> Table:
        """The table of `values` (one row of value cells per id) and
        `targets` (one ``(x, y)`` per id). A ragged row raises ValueError."""
        cols = [array("d", column) for column in zip(*values, strict=True)]
        x, y = zip(*targets, strict=True) if targets else ((), ())
        return cls(prefix, ids, cols, array("d", x), array("d", y))

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def header(self) -> list[str]:
        return ["sample_id"] + [f"{self.prefix}_{i + 1}" for i in range(self.n_cols)] + ["x", "y"]

    def columns(self) -> list[array]:
        """The value columns, then the x and y columns."""
        return [*self.cols, self.x, self.y]


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
    verified memo entry of the file's bytes stands in for the parse; the
    file is then hashed in blocks and never held whole.
    """
    path = Path(path)
    if memo is None:
        return _parse(path.read_bytes(), path)
    table = _load_memo(Path(memo) / hash_file(path))
    if table is None:
        data = path.read_bytes()
        table = _parse(data, path)
        _save_memo(table, Path(memo) / hashlib.sha256(data).hexdigest())  # the bytes parsed
    return table


def _parse(data: bytes, path: Path) -> Table:
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise BuiltinError(f"{path}: empty file") from None
    prefix, width = parse_header(header, path)
    ids, cells = [], array("d")  # cells: every row's value and target cells, row after row
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width + 3:
            raise BuiltinError(f"{path}:{lineno}: expected {width + 3} cells, got {len(row)}")
        try:
            numbers = list(map(float, row[1:]))
            ok = all(map(math.isfinite, numbers))
        except ValueError:
            ok = False
        if not ok:
            for cell in row[1:]:  # raises at the row's first bad cell
                _parse_cell(cell, f"{path}:{lineno}")
        if "\r" in row[0]:  # csv.writer leaves \r unquoted, so no reader could split the row
            raise BuiltinError(f"{path}:{lineno}: sample id {row[0]!r} contains a carriage return")
        ids.append(row[0])
        cells.fromlist(numbers)
    *cols, x, y = (cells[j::width + 2] for j in range(width + 2))
    return Table(prefix, ids, cols, x, y)


# A memo payload starts with its row and column counts.
_COUNTS = struct.Struct("<2Q")


def _load_memo(entry: Path) -> Table | None:
    """The table memoized at `entry`; None if it is missing, fails its check
    or is not laid out as `_save_memo` lays it out."""
    try:
        with open(entry, "rb") as handle:
            digest = handle.read(32)
            counts = handle.read(_COUNTS.size)
            n_rows, n_cols = _COUNTS.unpack(counts)
            size = 8 * n_rows
            if os.fstat(handle.fileno()).st_size < 32 + len(counts) + size * n_cols:
                return None  # counts that are not this entry's: allocate nothing
            columns = [array("d", bytes(8)) * n_rows for _ in range(n_cols)]
            for column in columns:
                handle.readinto(column)
            head = handle.read()
    except (OSError, struct.error):
        return None
    if not framed(digest, [counts, *columns, head]):
        return None
    try:
        prefix, ids = marshal.loads(head)
        *cols, x, y = columns
        return Table(prefix, ids, cols, x, y)  # ValueError unless there is one id per row
    except (EOFError, TypeError, ValueError):
        return None


def _save_memo(table: Table, entry: Path) -> None:
    columns = table.columns()
    counts = _COUNTS.pack(table.n_rows, len(columns))
    head = marshal.dumps((table.prefix, table.ids))
    try:
        write_atomic(entry, frame([counts, *columns, head]))
    except OSError:  # the memo only saves work: a failed write costs a parse later
        pass


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


def write_table(table: Table, path: Path | str, memo: Path | None = None) -> None:
    """Write `table` as CSV; with `memo`, store its parse there too (see
    `write_chunks`)."""
    write_chunks(path, render_csv(table.header(), table.ids, table.columns()), memo, lambda: table)


def write_chunks(path: Path | str, chunks: Iterable[str], memo: Path | None, table: Callable[[], Table]) -> None:
    """Write the UTF-8 bytes of `chunks` to `path`.

    With `memo`, the bytes are hashed as they are written. If the memo holds
    no entry under their digest, `table()` (the table they render) is built
    and stored there when it `reads_back`, so that `read_table` never parses
    these bytes. An existing entry is left alone, even a damaged one: the
    reader finds it fails its check and parses.
    """
    digest = hashlib.sha256() if memo is not None else None
    with open(path, "wb") as handle:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            handle.write(data)
            if digest is not None:
                digest.update(data)
    if digest is None:
        return
    entry = Path(memo) / digest.hexdigest()
    if entry.exists():
        return
    written = table()
    if reads_back(written):
        _save_memo(written, entry)


def reads_back(table: Table) -> bool:
    """Whether `read_table` of the bytes `write_table` renders for `table`
    gives `table` back bit for bit: its prefix is ASCII letters, it has a value
    column, every column is an ``array('d')`` of finite values, and its ids
    are a list of strs that csv.writer writes unquoted and csv.reader reads
    back whole. An id csv.writer may quote is refused even where it would read
    back, as the writer quotes ``"\\r"`` and NUL differently across Python
    versions."""
    ids = table.ids
    if not (
        type(table.prefix) is str and _PREFIX_RE.fullmatch(table.prefix)
        and table.n_cols >= 1
        and type(ids) is list and set(map(type, ids)) <= {str}
    ):
        return False
    joined = "".join(ids)
    if _ID_NEEDS_WRITER.search(joined) or (
        len(joined) > csv.field_size_limit() and max(map(len, ids)) > csv.field_size_limit()
    ):
        return False
    # a finite sum has no inf or NaN term; only a sum that overflows needs the scan
    return all(
        type(column) is array and column.typecode == "d"
        and (math.isfinite(sum(column)) or all(map(math.isfinite, column)))
        for column in table.columns()
    )


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
