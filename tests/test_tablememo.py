"""The parsed-table memo of `tables.read_table` and `tables.write_table`.

A memo entry stands in for a strict parse only when its CSV digest, its code
digest and its own payload check all match; anything else parses afresh. The
writer stores the entry of a table it writes when the table reads back
exactly, so a table a builtin wrote is never parsed.
"""

from __future__ import annotations

import csv
import hashlib
import marshal
import math
import os
import random
import struct
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_prepare_featurize as strict
from locpipe import loctk
from locpipe.errors import BuiltinError
from locpipe.loctk import StageRequest, run_builtin, tables
from locpipe.loctk.tables import Table, read_table, reads_back, write_table
from locpipe.store import ObjectStore, gc, load_lock

from conftest import edit_params, run, value_rows
from test_golden import GOLDEN, GOLDEN_SCALING_FACTOR_3, committed_digests

TEMPLATES = [
    "baseline", "two-model", "scaling", "change-estimator",
    "change-dataset", "change-cv", "change-external",
]


def memo_dir(root: Path) -> Path:
    return loctk.table_memo_dir(root / "cache")


def entry_for(memo: Path, csv: Path) -> Path:
    return memo / hashlib.sha256(csv.read_bytes()).hexdigest()


def as_text(table: Table) -> str:
    """Every field with the exact bits of every float and each column's type."""
    columns = table.columns()
    return repr((table.prefix, table.ids, [(type(c), c.typecode, c.tobytes()) for c in columns]))


def write_sample(path: Path) -> None:
    write_table(Table.from_rows("f", ["a", "b"], [[1.25, -3.5], [0.1, -0.0]], [(1.0, 2.0), (3.0, 4.5)]), path)


def forbid_parse(monkeypatch) -> None:
    def parse(data, path):
        raise AssertionError(f"{path} was parsed, not read from the memo")

    monkeypatch.setattr(tables, "_parse", parse)


@pytest.mark.parametrize("template", TEMPLATES)
def test_hit_equals_fresh_parse_for_every_template_table(make_project, template, tmp_path, monkeypatch):
    project = make_project(template)
    if template == "scaling":
        edit_params(project, "scale.factor", 3)
    assert run(project).failed == 0
    csvs = [p for p in sorted((project.root / "data").glob("*.csv")) if p.name != "raw.csv"]
    assert {"prepared.csv", "features.csv"} <= {p.name for p in csvs}
    memo = memo_dir(tmp_path)
    for csv in csvs:
        fresh = read_table(csv)
        miss = read_table(csv, memo)
        assert entry_for(memo, csv).is_file()
        with monkeypatch.context() as patch:
            forbid_parse(patch)
            hit = read_table(csv, memo)
        assert as_text(hit) == as_text(miss) == as_text(fresh)
        assert hit == fresh
        assert {(type(c), c.typecode) for c in hit.columns()} == {(array, "d")}
        columns = [id(column) for column in hit.columns()]
        assert len(set(columns)) == len(columns)
        assert not set(columns) & {id(column) for table in (fresh, miss) for column in table.columns()}


def test_repro_fills_the_memo_of_this_code(make_project):
    project = make_project("scaling")
    assert run(project).failed == 0
    memo = loctk.table_memo_dir(project.cache_dir)
    names = {path.name for path in memo.iterdir()}
    for table in ("prepared.csv", "scaled.csv", "features.csv"):
        assert hashlib.sha256((project.root / "data" / table).read_bytes()).hexdigest() in names
    assert [p.name for p in (project.cache_dir / "tables").iterdir()] == [memo.name]


def test_one_byte_edit_misses(tmp_path, monkeypatch):
    csv = tmp_path / "t.csv"
    write_sample(csv)
    memo = memo_dir(tmp_path)
    read_table(csv, memo)
    csv.write_bytes(csv.read_bytes().replace(b"1.25", b"1.75"))
    parsed = []
    real_parse = tables._parse
    monkeypatch.setattr(tables, "_parse", lambda data, path: parsed.append(path) or real_parse(data, path))
    assert value_rows(read_table(csv, memo))[0] == [1.75, -3.5]
    assert parsed == [csv]
    assert len(list(memo.iterdir())) == 2


@pytest.mark.parametrize("damage", ["payload", "header", "truncate", "empty"])
def test_corrupted_entry_is_ignored_and_rewritten(tmp_path, damage):
    csv = tmp_path / "t.csv"
    write_sample(csv)
    memo = memo_dir(tmp_path)
    read_table(csv, memo)
    entry = entry_for(memo, csv)
    good = entry.read_bytes()
    bad = bytearray(good)
    if damage == "payload":
        bad[-5] ^= 0xFF
    elif damage == "header":
        bad[0] ^= 0xFF
    elif damage == "truncate":
        del bad[-10:]
    else:
        bad = bytearray()
    entry.write_bytes(bytes(bad))
    assert as_text(read_table(csv, memo)) == as_text(read_table(csv))
    assert entry.read_bytes() == good


def write_checked(entry: Path, payload: bytes) -> None:
    entry.parent.mkdir(parents=True, exist_ok=True)
    entry.write_bytes(hashlib.sha256(payload).digest() + payload)


def test_checked_payload_that_is_not_a_table_is_parsed(tmp_path):
    csv = tmp_path / "t.csv"
    write_sample(csv)
    memo = memo_dir(tmp_path)
    entry = entry_for(memo, csv)
    # counts and columns laid out right, but a head that is not (prefix, ids),
    # or ids that do not match the row count
    for head in [("f", ["a"], "extra"), ("f", ["a"])]:
        write_checked(entry, struct.pack("<2Q", 2, 4) + bytes(8 * 2 * 4) + marshal.dumps(head))
        assert as_text(read_table(csv, memo)) == as_text(read_table(csv))


def test_old_format_entry_is_parsed_and_rewritten(tmp_path):
    """A checked entry in the row-major layout of earlier code is parsed
    again and rewritten."""
    csv = tmp_path / "t.csv"
    write_sample(csv)
    memo = memo_dir(tmp_path)
    read_table(csv, memo)
    entry = entry_for(memo, csv)
    good = entry.read_bytes()
    write_checked(entry, marshal.dumps(("f", ["a", "b"], [[1.25, -3.5], [0.1, -0.0]], [(1.0, 2.0), (3.0, 4.5)])))
    assert as_text(read_table(csv, memo)) == as_text(read_table(csv))
    assert entry.read_bytes() == good


def test_hit_allocates_less_than_twice_its_payload(tmp_path):
    """A hit reads the columns into their arrays and holds no per-row object
    but the ids: its peak allocation stays under twice the entry's payload."""
    rng = random.Random(0)
    n = 5000  # a factor-40-like feature table: 6 value columns, scaled ids
    table = Table.from_rows(
        "f", [f"s{i % 600:06d}#{i // 600}" for i in range(n)],
        [[rng.uniform(-90, -40) for _ in range(6)] for _ in range(n)],
        [(rng.uniform(0, 60), rng.uniform(0, 40)) for _ in range(n)],
    )
    csv = tmp_path / "t.csv"
    write_table(table, csv)
    memo = memo_dir(tmp_path)
    read_table(csv, memo)
    payload = entry_for(memo, csv).stat().st_size - 32
    tracemalloc.start()
    try:
        hit = read_table(csv, memo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit == table
    assert peak < 2 * payload, (peak, payload)


def test_entry_of_another_code_digest_is_ignored(tmp_path, monkeypatch):
    csv = tmp_path / "t.csv"
    write_sample(csv)
    forged = Table.from_rows("f", ["forged", "rows"], [[0.0, 0.0], [0.0, 0.0]], [(0.0, 0.0), (0.0, 0.0)])
    with monkeypatch.context() as patch:
        patch.setattr(loctk, "_code_digest", lambda: "1" * 64)
        other = memo_dir(tmp_path)
        tables._save_memo(forged, entry_for(other, csv))
        assert read_table(csv, other) == forged  # a hit under the other digest
    memo = memo_dir(tmp_path)
    assert memo != other
    assert read_table(csv, memo) == read_table(csv)


def test_failed_memo_write_does_not_fail_the_read(tmp_path):
    csv = tmp_path / "t.csv"
    write_sample(csv)
    (tmp_path / "cache").write_text("not a directory")
    memo = memo_dir(tmp_path)
    assert read_table(csv, memo) == read_table(csv)
    assert not memo.exists()


class TestStrictReaderWithMemo(strict.TestStrictReader):
    """The strict reader's error tests, with the memo on: the same messages,
    and no entry or temp file left by a failed parse."""

    @pytest.fixture(autouse=True)
    def memo_on(self, tmp_path, monkeypatch):
        memo = memo_dir(tmp_path)
        monkeypatch.setattr(read_table, "__defaults__", (memo,))
        yield
        cache = tmp_path / "cache"
        assert not cache.exists() or not [path for path in cache.rglob("*") if path.is_file()]


class TestTablesRoundTripWithMemo(strict.TestTablesRoundTrip):
    @pytest.fixture(autouse=True)
    def memo_on(self, tmp_path, monkeypatch):
        monkeypatch.setattr(read_table, "__defaults__", (memo_dir(tmp_path),))


def test_gc_sweeps_stale_entries(make_project):
    project = make_project("baseline")
    assert run(project).failed == 0
    memo = loctk.table_memo_dir(project.cache_dir)
    kept = {path.name for path in memo.iterdir()}
    prepared = hashlib.sha256((project.root / "data/prepared.csv").read_bytes()).hexdigest()
    features = hashlib.sha256((project.root / "data/features.csv").read_bytes()).hexdigest()
    assert {prepared, features} <= kept
    stale_entry = memo / ("0" * 64)
    stale_entry.write_bytes(b"old")
    stale_dir = project.cache_dir / "tables" / ("1" * 64)
    stale_dir.mkdir()
    (stale_dir / prepared).write_bytes(b"older code")
    (project.cache_dir / "tmp").mkdir(exist_ok=True)
    (project.cache_dir / "tmp" / "table-1-ab").write_bytes(b"crashed write")

    gc(load_lock(project.lock_path), ObjectStore(project.cache_dir))

    assert {path.name for path in memo.iterdir()} == kept
    assert not stale_dir.exists()
    assert not list((project.cache_dir / "tmp").iterdir())
    assert [p.name for p in (project.cache_dir / "tables").iterdir()] == [memo.name]


# ---------------------------------------------------------------------------
# Write-through: the writer stores the entry a parse of its bytes would give


def bits(table: Table) -> tuple:
    return table.prefix, table.ids, [column.tobytes() for column in table.columns()]


def read_back(table: Table, path: Path) -> Table | None:
    """`read_table` of `table`'s rendered bytes; None if the reader refuses them."""
    write_table(table, path)
    try:
        return read_table(path)
    except BuiltinError:
        return None


_MAX = sys.float_info.max
_SUBNORMAL = 5e-324
_EDGE_FLOATS = [0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 2.2250738585072014e-308 / 3, _MAX, -_MAX,
                math.nan, math.inf, -math.inf]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
# no surrogates: an id that UTF-8 cannot encode is never written (see below)
_ids = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n\0#é€😀 '), st.characters(blacklist_categories=("Cs",))),
    max_size=4,
)
_prefixes = st.one_of(
    st.sampled_from(["f", "rssi", "Ab", "", "f_1", "é", "f1", "a b", "f\n", 'f"']), st.text(max_size=3),
)


@st.composite
def drawn_tables(draw) -> Table:
    """Cells and ids are picked from small drawn pools, which keeps drawing
    tables of up to 50 rows cheap."""
    n_rows = draw(st.integers(0, 50))
    n_cols = draw(st.integers(0, 4))
    floats = draw(st.lists(_floats, min_size=1, max_size=6))
    id_pool = draw(st.lists(_ids, min_size=1, max_size=6))
    rng = draw(st.randoms(use_true_random=False))
    *values, x, y = (array("d", (rng.choice(floats) for _ in range(n_rows))) for _ in range(n_cols + 2))
    return Table(draw(_prefixes), [rng.choice(id_pool) for _ in range(n_rows)], values, x, y)


@settings(max_examples=300, deadline=None)
@given(drawn_tables())
def test_reads_back_exactly_when_the_rendered_bytes_read_back(table):
    """`reads_back` holds exactly when the rendered bytes read back bit for
    bit and no id is one csv.writer may quote: such an id reads back on some
    Python versions and not on others ("\r", NUL), so none gets an entry."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        back = read_back(table, scratch / "t.csv")
        exact = back is not None and bits(back) == bits(table)
        unquoted = not any(map(tables._ID_NEEDS_WRITER.search, table.ids))
        assert reads_back(table) == (exact and unquoted)
        memo = memo_dir(scratch)
        write_table(table, scratch / "w.csv", memo)
        entry = entry_for(memo, scratch / "w.csv")
        stored = [path for path in memo.iterdir()] if memo.exists() else []
        assert stored == ([entry] if reads_back(table) else [])
        if stored:
            with pytest.MonkeyPatch.context() as patch:
                forbid_parse(patch)
                assert bits(read_table(scratch / "w.csv", memo)) == bits(table)


@pytest.mark.parametrize("table", [
    Table.from_rows("f", ["a", "b"], [[1.25, -3.5], [0.1, -0.0]], [(1.0, 2.0), (3.0, 4.5)]),
    Table("rssi", [], [array("d")], array("d"), array("d")),
    Table.from_rows("F", ["", "é 😀", "x#1"], [[_SUBNORMAL], [_MAX], [-_MAX]], [(0.0, -0.0)] * 3),
])
def test_written_table_is_read_from_the_memo(tmp_path, monkeypatch, table):
    memo = memo_dir(tmp_path)
    write_table(table, tmp_path / "t.csv", memo)
    forbid_parse(monkeypatch)
    assert bits(read_table(tmp_path / "t.csv", memo)) == bits(table)


def test_id_utf8_cannot_encode_is_never_written(tmp_path):
    table = Table.from_rows("f", ["\ud800"], [[1.0]], [(0.0, 0.0)])
    memo = memo_dir(tmp_path)
    with pytest.raises(UnicodeEncodeError):
        write_table(table, tmp_path / "t.csv", memo)
    assert not memo.exists()


@pytest.mark.parametrize("table", [
    Table.from_rows("f", ["a,b"], [[1.0]], [(0.0, 0.0)]),            # quoted id
    Table.from_rows("f", ["a"], [[math.nan]], [(0.0, 0.0)]),         # refused by the reader
    Table("f", ["a"], [[1.0]], array("d", [0.0]), array("d", [0.0])),  # a list column
    Table.from_rows("f_", ["a"], [[1.0]], [(0.0, 0.0)]),             # refused header
])
def test_table_that_does_not_read_back_gets_no_entry(tmp_path, table):
    memo = memo_dir(tmp_path)
    write_table(table, tmp_path / "t.csv", memo)
    assert not reads_back(table)
    assert not memo.exists() or list(memo.iterdir()) == []


def test_id_longer_than_the_csv_field_limit_gets_no_entry(tmp_path):
    table = Table.from_rows("f", ["a" * (csv.field_size_limit() + 1), "b"], [[1.0], [2.0]], [(0.0, 0.0)] * 2)
    with pytest.raises(csv.Error, match="field larger than field limit"):
        read_back(table, tmp_path / "t.csv")
    assert not reads_back(table)
    short = Table.from_rows("f", ["a" * csv.field_size_limit()] * 2, [[1.0], [2.0]], [(0.0, 0.0)] * 2)
    assert bits(read_back(short, tmp_path / "t.csv")) == bits(short)
    assert reads_back(short)


def test_failed_memo_write_does_not_fail_the_write(tmp_path):
    (tmp_path / "cache").write_text("not a directory")
    memo = memo_dir(tmp_path)
    write_sample(tmp_path / "t.csv")
    write_table(read_table(tmp_path / "t.csv"), tmp_path / "again.csv", memo)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
    assert not memo.exists()


def test_existing_entry_is_not_rewritten(tmp_path):
    memo = memo_dir(tmp_path)
    write_sample(tmp_path / "t.csv")
    read_table(tmp_path / "t.csv", memo)
    entry = entry_for(memo, tmp_path / "t.csv")
    entry.write_bytes(b"damaged")  # the writer does not look inside; the reader repairs it
    table = read_table(tmp_path / "t.csv")
    write_table(table, tmp_path / "t.csv", memo)
    assert entry.read_bytes() == b"damaged"
    assert read_table(tmp_path / "t.csv", memo) == table


@pytest.mark.parametrize("factor", [1, 3])
def test_scale_stores_the_entry_of_its_output(tmp_path, monkeypatch, factor):
    table = Table.from_rows(
        "rssi", ["s0", "s1", ""], [[-0.0, _SUBNORMAL], [1e16, 0.1 + 0.2], [-90.5, -40.0]],
        [(0.0, 1.0), (2.5, -3.25), (1e-7, 4.0)],
    )
    src, out = tmp_path / "prepared.csv", tmp_path / "data" / "scaled.csv"
    out.parent.mkdir()
    write_table(table, src)
    memo = memo_dir(tmp_path)
    run_builtin("loc.scale", StageRequest(
        stage="scale", builtin="loc.scale", params={"scale.factor": factor},
        deps=(str(src),), outs=(str(out),), table_memo=memo,
    ))
    fresh = read_table(out)
    assert fresh.n_rows == 3 * factor
    forbid_parse(monkeypatch)
    assert bits(read_table(out, memo)) == bits(fresh)


def test_scale_output_with_a_quoted_id_gets_no_entry(tmp_path):
    table = Table.from_rows("rssi", ["a,b", "c"], [[1.0], [2.0]], [(0.0, 0.0), (1.0, 1.0)])
    src, out = tmp_path / "prepared.csv", tmp_path / "scaled.csv"
    write_table(table, src)
    memo = memo_dir(tmp_path)
    run_builtin("loc.scale", StageRequest(
        stage="scale", builtin="loc.scale", params={"scale.factor": 3},
        deps=(str(src),), outs=(str(out),), table_memo=memo,
    ))
    assert not entry_for(memo, out).exists()
    assert entry_for(memo, src).exists()  # the reader's entry: a parse of it succeeded


@pytest.mark.parametrize("factor, golden", [(2, GOLDEN["scaling"]), (3, GOLDEN_SCALING_FACTOR_3)])
def test_cold_run_never_parses_a_table_a_builtin_wrote(make_project, monkeypatch, factor, golden):
    """The stage children inherit the patched parser, so a parse of the scaled
    or feature table fails its stage."""
    real_parse = tables._parse

    def parse(data, path):
        if Path(path).name in ("scaled.csv", "features.csv"):
            raise AssertionError(f"{path} was parsed, not read from the memo")
        return real_parse(data, path)

    monkeypatch.setattr(tables, "_parse", parse)
    assert committed_digests(make_project, "scaling", factor) == golden


def test_forced_rerun_rewrites_no_entry(make_project):
    project = make_project("scaling")
    edit_params(project, "scale.factor", 3)
    assert run(project).failed == 0
    memo = loctk.table_memo_dir(project.cache_dir)
    inodes = {path.name: os.stat(path).st_ino for path in memo.iterdir()}
    for table in ("prepared.csv", "scaled.csv", "features.csv"):
        assert hashlib.sha256((project.root / "data" / table).read_bytes()).hexdigest() in inodes
    assert run(project, force=True).executed == 7
    assert {path.name: os.stat(path).st_ino for path in memo.iterdir()} == inodes
