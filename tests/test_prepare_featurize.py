import csv
import io
import re
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpipe.canonical import fmt_num
from locpipe.errors import BuiltinError
from locpipe.loctk import StageRequest, run_builtin, tables
from locpipe.loctk.featurize import featurize, parse_transforms
from locpipe.loctk.gridsearch import Predictions, predictions_csv
from locpipe.loctk.prepare import prepare_rows
from locpipe.loctk.tables import Table, read_table, render_csv, write_table

from conftest import target_rows, value_rows

HEADER = "sample_id,rssi_1,rssi_2,x,y\n"


def raw(tmp_path, body: str):
    path = tmp_path / "raw.csv"
    path.write_text(HEADER + body)
    return path


class TestPrepare:
    def test_clean_input_identity(self, tmp_path):
        path = raw(tmp_path, "a,-50.0,-60.0,1.0,2.0\nb,-55.5,-61.0,3.0,4.0\n")
        table, summary = prepare_rows(path)
        assert table.ids == ["a", "b"]
        assert value_rows(table) == [[-50.0, -60.0], [-55.5, -61.0]]
        assert summary == {"rows_in": 2, "rows_out": 2, "rows_dropped": 0, "fill_count": 0}

    def test_bad_target_dropped(self, tmp_path):
        body = "a,-50.0,-60.0,abc,2.0\nb,-55.5,-61.0,3.0,4.0\nc,-52.0,-62.0,5.0,\n"
        path = raw(tmp_path, body)
        table, summary = prepare_rows(path)
        # oracle: line-by-line filter on parseable (x, y)
        def ok(line):
            cells = line.split(",")
            try:
                float(cells[-2]); float(cells[-1])
                return True
            except ValueError:
                return False
        survivors = [line.split(",")[0] for line in body.splitlines() if ok(line)]
        assert table.ids == survivors == ["b"]
        assert summary["rows_dropped"] == 2

    def test_missing_rssi_filled(self, tmp_path):
        path = raw(tmp_path, "a,,-60.0,1.0,2.0\n")
        table, summary = prepare_rows(path)
        assert value_rows(table) == [[-100.0, -60.0]]
        assert summary["fill_count"] == 1

    def test_custom_fill_value(self, tmp_path):
        path = raw(tmp_path, "a,,-60.0,1.0,2.0\n")
        table, _ = prepare_rows(path, fill_value=-95.0)
        assert table.cols[0][0] == -95.0

    def test_non_numeric_rssi_filled(self, tmp_path):
        path = raw(tmp_path, "a,junk,-60.0,1.0,2.0\n")
        table, summary = prepare_rows(path)
        assert value_rows(table) == [[-100.0, -60.0]]
        assert summary["fill_count"] == 1

    def test_drop_policy_any(self, tmp_path):
        path = raw(tmp_path, "a,,-60.0,1.0,2.0\nb,-55.0,-61.0,3.0,4.0\n")
        table, summary = prepare_rows(path, drop_policy="any")
        assert table.ids == ["b"]
        assert summary == {"rows_in": 2, "rows_out": 1, "rows_dropped": 1, "fill_count": 0}

    def test_unknown_drop_policy(self, tmp_path):
        with pytest.raises(BuiltinError, match="drop_policy"):
            prepare_rows(raw(tmp_path, "a,-50.0,-60.0,1.0,2.0\n"), drop_policy="maybe")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("id,rssi_1,x,y\na,-50.0,1.0,2.0\n")
        with pytest.raises(BuiltinError, match="malformed header"):
            prepare_rows(path)

    def test_empty_output_rejected(self, tmp_path):
        path = raw(tmp_path, "a,-50.0,-60.0,bad,2.0\n")
        with pytest.raises(BuiltinError, match="no rows survived"):
            prepare_rows(path)

    def test_oversized_row_dropped(self, tmp_path):
        path = raw(tmp_path, "a,-50.0,-60.0,1.0,2.0,999\nb,-55.0,-61.0,3.0,4.0\n")
        table, summary = prepare_rows(path)
        assert table.ids == ["b"]
        assert summary["rows_dropped"] == 1

    def test_short_row_missing_target_dropped(self, tmp_path):
        path = raw(tmp_path, "a,-50.0,-60.0,1.0\nb,-55.0,-61.0,3.0,4.0\n")
        table, summary = prepare_rows(path)
        assert table.ids == ["b"]
        assert summary["rows_dropped"] == 1

    def test_carriage_return_in_id_rejected(self, tmp_path):
        path = raw(tmp_path, 'a,-50.0,-60.0,1.0,2.0\n"b\rc",-55.0,-61.0,3.0,4.0\n')
        with pytest.raises(BuiltinError) as exc:
            prepare_rows(path)
        assert str(exc.value) == f"{path}:3: sample id 'b\\rc' contains a carriage return"

    def test_quoted_newline_in_id_round_trips(self, tmp_path):
        table, _ = prepare_rows(raw(tmp_path, '"b\nc",-55.0,-61.0,3.0,4.0\n'))
        assert table.ids == ["b\nc"]
        write_table(table, tmp_path / "prepared.csv")
        assert read_table(tmp_path / "prepared.csv").ids == ["b\nc"]

    def test_row_order_stable(self, tmp_path):
        body = "".join(f"r{i},-5{i % 10}.0,-60.0,{i}.0,1.0\n" for i in range(20))
        table, _ = prepare_rows(raw(tmp_path, body))
        assert table.ids == [f"r{i}" for i in range(20)]


def make_table(values, prefix="rssi"):
    return Table.from_rows(prefix, [f"s{i}" for i in range(len(values))], values, [(0.0, 0.0)] * len(values))


class TestFeaturize:
    def test_identity(self):
        table = make_table([[-50.0, -60.0]])
        out = featurize(table, parse_transforms(["identity"]))
        assert value_rows(out) == [[-50.0, -60.0]]
        assert out.prefix == "f"
        assert out.ids == table.ids and target_rows(out) == target_rows(table)

    def test_dbm_to_mw(self):
        out = featurize(make_table([[-30.0]]), parse_transforms(["dbm_to_mw"]))
        assert out.cols[0][0] == 0.001

    def test_clip(self):
        transforms = parse_transforms([{"clip": {"lo": -100.0, "hi": -30.0}}])
        out = featurize(make_table([[-120.0, -20.0, -55.0]]), transforms)
        assert value_rows(out)[0] == [-100.0, -30.0, -55.0]

    def test_declared_order_matters(self):
        clip_then_mw = parse_transforms([{"clip": {"lo": -60.0, "hi": -40.0}}, "dbm_to_mw"])
        mw_then_clip = parse_transforms(["dbm_to_mw", {"clip": {"lo": -60.0, "hi": -40.0}}])
        row = [[-80.0]]
        a = featurize(make_table(row), clip_then_mw).cols[0][0]
        b = featurize(make_table(row), mw_then_clip).cols[0][0]
        assert a == 10.0 ** (-60.0 / 10.0)
        assert b == -40.0  # mw value 1e-8 then clipped up to lo... deliberately different
        assert a != b

    def test_dbm_to_mw_overflow_names_stage_and_value(self, tmp_path):
        # transforms run down columns, yet the first bad cell in row order is named
        for rows, bad in [
            ([[-30.0], [3100.0]], "3100.0"),
            ([[-30.0, 3200.0], [3100.0, -30.0]], "3200.0"),
            ([[-30.0, -30.0], [-30.0, 3300.0], [3100.0, -30.0]], "3300.0"),
        ]:
            prepared = tmp_path / "prepared.csv"
            write_table(make_table(rows), prepared)
            request = StageRequest(
                stage="feat", builtin="loc.featurize",
                params={"featurize.transforms": ["dbm_to_mw"]},
                deps=(str(prepared),), outs=(str(tmp_path / "features.csv"),),
            )
            with pytest.raises(BuiltinError) as info:
                run_builtin("loc.featurize", request)
            assert str(info.value) == f"stage 'feat': dbm_to_mw overflows on value {bad}"
            assert not (tmp_path / "features.csv").exists()

    def test_clip_lo_above_hi(self):
        with pytest.raises(BuiltinError, match="lo"):
            parse_transforms([{"clip": {"lo": -30.0, "hi": -100.0}}])

    def test_unknown_transform(self):
        with pytest.raises(BuiltinError, match="unknown transform"):
            parse_transforms(["zscore"])

    def test_row_count_and_order_preserved(self):
        table = make_table([[float(-i)] for i in range(50)])
        out = featurize(table, parse_transforms(["identity"]))
        assert out.n_rows == 50
        assert value_rows(out) == value_rows(table)


class TestTablesRoundTrip:
    def test_write_read_identity(self, tmp_path):
        table = Table.from_rows("f", ["a", "b"], [[1.25, -3.5], [0.1, 2.0]], [(1.0, 2.0), (3.0, 4.5)])
        path = tmp_path / "t.csv"
        write_table(table, path)
        again = read_table(path)
        assert again == table

    def test_newline_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(make_table([[1.0]]), path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_strict_reader_rejects_bad_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("sample_id,f_1,x,y\na,oops,1.0,2.0\n")
        with pytest.raises(BuiltinError, match="non-numeric"):
            read_table(path)


class TestHeaderOnlyTable:
    """A table with a header and no rows keeps its value columns through
    every stage that reads and writes it."""

    def prepared(self, tmp_path) -> Path:
        path = tmp_path / "prepared.csv"
        path.write_text(HEADER)
        return path

    def test_read_write(self, tmp_path):
        table = read_table(self.prepared(tmp_path))
        assert (table.prefix, table.n_rows, table.n_cols) == ("rssi", 0, 2)
        write_table(table, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text() == HEADER

    def test_featurize(self, tmp_path):
        out = tmp_path / "features.csv"
        run_builtin("loc.featurize", StageRequest(
            stage="feat", builtin="loc.featurize", params={"featurize.transforms": ["dbm_to_mw"]},
            deps=(str(self.prepared(tmp_path)),), outs=(str(out),),
        ))
        assert out.read_text() == "sample_id,f_1,f_2,x,y\n"

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_scale(self, tmp_path, factor):
        out = tmp_path / "scaled.csv"
        run_builtin("loc.scale", StageRequest(
            stage="scale", builtin="loc.scale", params={"scale.factor": factor},
            deps=(str(self.prepared(tmp_path)),), outs=(str(out),),
        ))
        assert out.read_text() == HEADER


class TestStrictReader:
    """Each bad table fails with the full ``path:line: ...`` message of its first bad cell."""

    def failure(self, tmp_path, body: str) -> tuple[Path, str]:
        path = tmp_path / "t.csv"
        path.write_text("sample_id,f_1,f_2,x,y\n" + body)
        with pytest.raises(BuiltinError) as info:
            read_table(path)
        return path, str(info.value)

    def test_carriage_return_in_id(self, tmp_path):
        # a table that did not come from loc.prepare; write_table would emit this id unquoted
        path, message = self.failure(tmp_path, 'a,-50.0,-60.0,1.0,2.0\n"b\rc",-55.0,-61.0,3.0,4.0\n')
        assert message == f"{path}:3: sample id 'b\\rc' contains a carriage return"

    @pytest.mark.parametrize("row", [
        "a,nan,-60.0,1.0,2.0",     # value column
        "a,-50.0,-60.0,nan,2.0",   # target x
        "a,-50.0,-60.0,1.0,nan",   # target y
    ])
    def test_nan(self, tmp_path, row):
        path, message = self.failure(tmp_path, row + "\n")
        assert message == f"{path}:2: non-finite cell 'nan'"

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("column", [1, 3, 4])
    def test_infinite(self, tmp_path, cell, column):
        cells = ["a", "-50.0", "-60.0", "1.0", "2.0"]
        cells[column] = cell
        path, message = self.failure(tmp_path, "b,1.0,2.0,3.0,4.0\n" + ",".join(cells) + "\n")
        assert message == f"{path}:3: non-finite cell {cell!r}"

    @pytest.mark.parametrize("row, got", [("a,-50.0,1.0,2.0", 4), ("a,-50.0,-60.0,1.0,2.0,9", 6)])
    def test_wrong_row_width(self, tmp_path, row, got):
        path, message = self.failure(tmp_path, "b,1.0,2.0,3.0,4.0\n" + row + "\n")
        assert message == f"{path}:3: expected 5 cells, got {got}"

    def test_width_checked_before_cells(self, tmp_path):
        path, message = self.failure(tmp_path, "a,oops,1.0,2.0\n")
        assert message == f"{path}:2: expected 5 cells, got 4"

    def test_first_bad_cell_from_the_left(self, tmp_path):
        path, message = self.failure(tmp_path, "a,nan,oops,1.0,2.0\n")
        assert message == f"{path}:2: non-finite cell 'nan'"
        path, message = self.failure(tmp_path, "a,oops,nan,1.0,2.0\n")
        assert message == f"{path}:2: non-numeric cell 'oops'"
        path, message = self.failure(tmp_path, "a,-50.0,-60.0,inf,y\n")
        assert message == f"{path}:2: non-finite cell 'inf'"

    def test_non_numeric_target(self, tmp_path):
        path, message = self.failure(tmp_path, "a,-50.0,-60.0,1.0,\n")
        assert message == f"{path}:2: non-numeric cell ''"

    def test_first_bad_row_wins(self, tmp_path):
        path, message = self.failure(tmp_path, "a,1.0,2.0,3.0,4.0\nb,1.0,nan,3.0,4.0\nc,1.0\n")
        assert message == f"{path}:3: non-finite cell 'nan'"


class TestWriterBytes:
    TRICKY = [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, 1 / 3, 7]

    def test_matches_fmt_num_oracle(self, tmp_path):
        table = Table.from_rows(
            "f",
            ["a", "b,c", 'q"d'],
            [self.TRICKY, list(reversed(self.TRICKY)), [-1e-7, 2.5, -3, 1e300, 1e-300, 0.0, 123456789.125]],
            [(-0.0, 5e-324), (1e22, 1 / 3), (7, 0.1 + 0.2)],
        )
        path = tmp_path / "t.csv"
        write_table(table, path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table.header())
        for sample_id, row, (x, y) in zip(table.ids, value_rows(table), target_rows(table)):
            writer.writerow([sample_id] + [fmt_num(v) for v in row] + [fmt_num(x), fmt_num(y)])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        # a Table's columns are array('d'): the int 7 is held, and written, as 7.0
        assert b"-0.0,5e-324,1e+16,1e+22,0.30000000000000004,0.3333333333333333,7.0" in path.read_bytes()

    def test_predictions_csv_matches_fmt_num_oracle(self):
        rows = [
            {"sample_id": "s,1", "fold": 3, "pred_x": -0.0, "pred_y": 1e22,
             "true_x": 0.1 + 0.2, "true_y": 5e-324},
            {"sample_id": "s2", "fold": 0, "pred_x": 1 / 3, "pred_y": 1e16,
             "true_x": 7, "true_y": -2.5},
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["sample_id", "fold", "pred_x", "pred_y", "true_x", "true_y"])
        for row in rows:
            writer.writerow([row["sample_id"], str(row["fold"])] + [
                fmt_num(row[key]) for key in ("pred_x", "pred_y", "true_x", "true_y")
            ])
        columns = {key: [row[key] for row in rows] for key in rows[0]}
        assert predictions_csv(Predictions(**columns)) == buf.getvalue()

    # Differential tests of tables.render_csv against the writer it replaced:
    # csv.writer over each row, every number cell repr'd, on this interpreter.

    @staticmethod
    def assert_renders_like_csv_writer(ids, columns):
        header = ["sample_id", *(f"c_{i}" for i in range(len(columns)))]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        try:
            writer.writerow(header)
            writer.writerows([sample_id, *map(repr, cells)] for sample_id, *cells in zip(ids, *columns))
        except csv.Error as exc:  # Python 3.10 refuses a NUL in an unescaped cell
            with pytest.raises(csv.Error, match=re.escape(str(exc))):
                "".join(render_csv(header, ids, columns))
            return
        assert "".join(render_csv(header, ids, columns)) == buf.getvalue()

    @pytest.mark.parametrize("column", [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0, -0.0, 0.0],
        [7, 7.0, 7, 7.0],
        [7.0, 7, 7.0, 7],
        [0, -0.0, 0.0, False],
        [1.5, 1.5, -0.0, 1.5],
    ], ids=["zero-first", "negzero-first", "int-first", "float-first", "int-zero", "repeats"])
    @pytest.mark.parametrize("chunk_rows", [1, 3, tables._CHUNK_ROWS])
    def test_render_csv_keeps_equal_keys_apart(self, monkeypatch, column, chunk_rows):
        monkeypatch.setattr(tables, "_CHUNK_ROWS", chunk_rows)
        self.assert_renders_like_csv_writer(["a", "b", "c", "d"], [column, column[::-1]])

    CHUNK = tables._CHUNK_ROWS

    @pytest.mark.parametrize("n_rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_render_csv_chunk_boundaries(self, n_rows):
        pool = [0.1, -0.0, 1 / 3, 0.0, 1e22, 5e-324, -71.25]
        ids = [f"s{i}" if i % 5 else f"s,{i}" for i in range(n_rows)]
        columns = [
            [pool[i % 7] for i in range(n_rows)],
            [float(i) for i in range(n_rows)],  # no repeats: the memo is cleared
            [pool[i % 3] if i < self.CHUNK else i for i in range(n_rows)],
        ]
        self.assert_renders_like_csv_writer(ids, columns)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(st.one_of(st.sampled_from(list(',"\r\n\0 é#')), st.characters()), max_size=4),
                st.sampled_from([0.0, -0.0, 7, 7.0, 0.1, -2.5, 1e16]),
                st.floats(allow_nan=False),
            ),
            max_size=12,
        ),
        chunk_rows=st.integers(1, 5),
    )
    def test_render_csv_matches_csv_writer(self, rows, chunk_rows):
        ids, pooled, drawn = (list(part) for part in zip(*rows)) if rows else ([], [], [])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tables, "_CHUNK_ROWS", chunk_rows)
            self.assert_renders_like_csv_writer(ids, [pooled, drawn, [float(len(i)) for i in ids]])

    def test_write_table_refuses_ragged_rows(self):
        with pytest.raises(ValueError):
            Table.from_rows("f", ["a", "b"], [[1.0, 2.0], [3.0]], [(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(ValueError, match="one per id"):
            Table("f", ["a", "b"], [array("d", [1.0, 2.0]), array("d", [3.0])], array("d", [1.0, 3.0]),
                  array("d", [2.0, 4.0]))
