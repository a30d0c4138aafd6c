"""The parsed-table memo of `tables.read_table`.

A memo entry stands in for a strict parse only when its CSV digest, its code
digest and its own payload check all match; anything else parses afresh.
"""

from __future__ import annotations

import hashlib
import marshal
import random
import struct
import tracemalloc
from array import array
from pathlib import Path

import pytest

import test_prepare_featurize as strict
from locpipe import loctk
from locpipe.loctk import tables
from locpipe.loctk.tables import Table, read_table, write_table
from locpipe.store import ObjectStore, gc, load_lock

from conftest import edit_params, run, value_rows

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
