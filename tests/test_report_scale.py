import csv
import io
import random
import tracemalloc
from pathlib import Path

import pytest

from locpipe.canonical import fmt_num
from locpipe.errors import BuiltinError
from locpipe.loctk import StageRequest, run_builtin
from locpipe.loctk.gridsearch import run_grid_search
from locpipe.loctk.report import build_report, classify, flatten
from locpipe.loctk.split import make_fold_file
from locpipe.loctk.tables import Table, read_table, write_table

from conftest import target_rows, value_rows
from test_gridsearch import RIDGE_GRID, folds_for, make_table


def cv_doc(seed=0, n=25):
    table = make_table(n=n, seed=seed)
    cv, _, _, _ = run_grid_search(table, folds_for(table), RIDGE_GRID, "rmse", ["rmse"])
    return cv


class TestClassify:
    def test_cv_results(self):
        assert classify(cv_doc()) == "cv"

    def test_metrics_file(self):
        assert classify({"rmse": 1.25, "cv": {"mean_rmse": 2.0}}) == "metrics"

    def test_rejects_other(self):
        with pytest.raises(BuiltinError, match="neither"):
            classify({"rows": [1, 2, 3]})

    def test_metrics_deeper_than_the_recursion_limit(self):
        doc: dict = {"leaf": 1.5}
        for _ in range(5000):
            doc = {"a": doc}
        assert classify(doc) == "metrics"
        assert flatten(doc) == [("a." * 5000 + "leaf", 1.5)]
        doc["b"] = [1]
        with pytest.raises(BuiltinError, match="neither"):
            classify(doc)


class TestBuildReport:
    def test_two_sources_concatenate(self):
        one, two = cv_doc(seed=1), cv_doc(seed=2)
        markdown, csv_text = build_report([("b.json", two), ("a.json", one)])
        # oracle: manual concatenation, sorted by source then candidate
        expected_rows = len(one["aggregates"]) + len(two["aggregates"])
        body = [line for line in csv_text.splitlines()[1:] if line]
        assert len(body) == expected_rows
        sources = [line.split(",")[0] for line in body]
        assert sources == sorted(sources)
        assert sources[0] == "a.json"

    def test_single_source_mirrors_aggregates(self):
        doc = cv_doc()
        _, csv_text = build_report([("cv.json", doc)])
        lines = csv_text.splitlines()
        assert len(lines) == 1 + len(doc["aggregates"])
        selected_line = lines[1 + doc["selected"]]
        assert selected_line.endswith(",yes")

    def test_deterministic_bytes(self):
        inputs = [("cv.json", cv_doc()), ("m.json", {"rmse": 1.0})]
        assert build_report(list(inputs)) == build_report(list(inputs))

    def test_metrics_table_included(self):
        markdown, _ = build_report([("m.json", {"cv": {"mean_rmse": 1.5}, "n": 10})])
        assert "Recorded metrics" in markdown
        assert "cv.mean_rmse" in markdown
        assert "| m.json | n | 10 |" in markdown

    def test_no_inputs(self):
        with pytest.raises(BuiltinError, match="no input"):
            build_report([])

    def test_markdown_has_selected_marker(self):
        doc = cv_doc()
        markdown, _ = build_report([("cv.json", doc)])
        assert "| yes |" in markdown


def prepared_table(n=4) -> Table:
    rng = random.Random(0)
    return Table.from_rows(
        "rssi", [f"s{i}" for i in range(n)], [[rng.uniform(-90, -40)] for _ in range(n)],
        [(float(i), float(i)) for i in range(n)],
    )


def run_scale(tmp_path, table: Table, factor: int) -> Path:
    """Run the loc.scale builtin on `table` written as its prepared CSV; return the out path."""
    src, out = tmp_path / "prepared.csv", tmp_path / "data" / "scaled.csv"
    out.parent.mkdir()
    write_table(table, src)
    run_builtin("loc.scale", StageRequest(
        stage="scale", builtin="loc.scale", params={"scale.factor": factor},
        deps=(str(src),), outs=(str(out),),
    ))
    return out


def expanded_csv(table: Table, factor: int) -> str:
    """Oracle: csv.writer over the expanded rows, one `fmt_num` per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header())
    for copy in range(factor):
        for sample_id, row, (x, y) in zip(table.ids, value_rows(table), target_rows(table)):
            cell = sample_id if factor == 1 else f"{sample_id}#{copy}"
            writer.writerow([cell] + [fmt_num(v) for v in row] + [fmt_num(x), fmt_num(y)])
    return buf.getvalue()


class TestScaleStage:
    def test_factor_one_identity(self, tmp_path):
        out = run_scale(tmp_path, prepared_table(), 1)
        # no #0 suffix at factor 1: the prepared bytes pass through
        assert out.read_bytes() == (tmp_path / "prepared.csv").read_bytes()

    def test_factor_five_row_count(self, tmp_path):
        table = prepared_table(n=4)
        scaled = read_table(run_scale(tmp_path, table, 5))
        assert scaled.n_rows == 20
        assert value_rows(scaled) == value_rows(table) * 5
        assert target_rows(scaled) == target_rows(table) * 5

    def test_factor_ten_ids_unique(self, tmp_path):
        scaled = read_table(run_scale(tmp_path, prepared_table(n=3), 10))
        assert scaled.n_rows == 30
        assert len(set(scaled.ids)) == 30
        assert scaled.ids[0] == "s0#0"
        assert scaled.ids[3] == "s0#1"  # block-wise concatenation

    def test_order_is_blockwise(self, tmp_path):
        scaled = read_table(run_scale(tmp_path, prepared_table(n=2), 2))
        assert scaled.ids == ["s0#0", "s1#0", "s0#1", "s1#1"]

    def test_invalid_factor(self, tmp_path):
        with pytest.raises(BuiltinError, match="factor must be >= 1, got 0"):
            run_scale(tmp_path, prepared_table(), 0)
        assert not (tmp_path / "data" / "scaled.csv").exists()

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_bytes_match_csv_writer_oracle(self, tmp_path, factor):
        table = Table.from_rows(
            "rssi",
            ["plain", "a,b", 'say "hi"', '"', "line\nbreak", "", "x#1", " pad "],
            [[-0.0, 5e-324], [1e16, 1e22], [0.1 + 0.2, 1 / 3], [-90.5, -40.0],
             [1.0, 2.0], [3.0, 4.0], [-1e-7, 123456789.0], [0.5, -0.5]],
            [(float(i), 0.25 * i) for i in range(8)],
        )
        out = run_scale(tmp_path, table, factor)
        assert out.read_text(encoding="utf-8") == expanded_csv(table, factor)
        scaled = read_table(out)
        assert value_rows(scaled) == value_rows(table) * factor
        if factor > 1:
            assert scaled.ids[8] == "plain#1" and scaled.ids[9] == "a,b#1"


def test_scale_allocates_less_than_half_its_output(tmp_path):
    """scale writes one copy of the table at a time: its peak allocation at
    20k output rows stays under half the bytes it writes."""
    rng = random.Random(0)
    n, factor = 500, 40  # a factor-40 scaled table: 6 value columns
    table = Table.from_rows(
        "rssi", [f"s{i:06d}" for i in range(n)],
        [[rng.uniform(-90, -40) for _ in range(6)] for _ in range(n)],
        [(rng.uniform(0, 60), rng.uniform(0, 40)) for _ in range(n)],
    )
    src, out = tmp_path / "prepared.csv", tmp_path / "scaled.csv"
    write_table(table, src)
    request = StageRequest(
        stage="scale", builtin="loc.scale", params={"scale.factor": factor},
        deps=(str(src),), outs=(str(out),),
    )
    tracemalloc.start()
    try:
        run_builtin("loc.scale", request)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = out.stat().st_size
    assert read_table(out).n_rows == n * factor
    assert peak < written / 2, (peak, written)
