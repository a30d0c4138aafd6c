import pytest
import yaml

from conftest import edit_params
from locpipe.bench import BenchRow, emit_bench_report, run_scaling_bench, set_scale_factor, write_bench_report
from locpipe.cli import main
from locpipe.errors import ConfigError
from locpipe.runner import Project


def shrink(project: Project) -> None:
    """Make the scaling template small enough for fast bench tests."""
    edit_params(project, "synth.n", 60)
    edit_params(project, "split.k", 3)


class TestRunScalingBench:
    def test_requires_scaling_template(self, make_project):
        project = make_project("baseline")
        with pytest.raises(ConfigError, match="scaling template missing"):
            run_scaling_bench(project, [1])

    def test_refuses_knn_grid(self, make_project):
        project = make_project("scaling")
        edit_params(
            project, "model.grid.knn",
            {"k": [3], "weights": ["uniform"], "metric": ["euclidean"]},
        )
        with pytest.raises(ConfigError, match="linear model only"):
            run_scaling_bench(project, [1])

    def test_bad_factors_and_repeats(self, make_project):
        project = make_project("scaling")
        with pytest.raises(ConfigError, match="factors"):
            run_scaling_bench(project, [])
        with pytest.raises(ConfigError, match="factors"):
            run_scaling_bench(project, [0])
        with pytest.raises(ConfigError, match="repeats"):
            run_scaling_bench(project, [1], repeats=0)

    def test_rows_collected_and_params_restored(self, make_project):
        project = make_project("scaling")
        shrink(project)
        original = project.params_path.read_text()
        rows = run_scaling_bench(project, [1, 2], repeats=1)
        assert [row.factor for row in rows] == [1, 2]
        for row in rows:
            assert set(row.stage_wall) == {
                "synth", "prepare", "scale", "featurize", "split", "gridsearch", "report",
            }
            assert row.noop_wall_s > 0.0
            assert row.noop_wall_s < row.full_wall_s
            assert row.total_wall_s == pytest.approx(sum(row.stage_wall.values()))
        assert project.params_path.read_text() == original

    def test_set_scale_factor_edits_params(self, make_project):
        project = make_project("scaling")
        set_scale_factor(project, 7)
        import yaml

        assert yaml.safe_load(project.params_path.read_text())["scale"]["factor"] == 7

    def test_cli_sets_the_factor_scale_reads(self, make_project, monkeypatch, capsys):
        """Another `factor` key listed first in the scale stage's params is
        left alone: `loc.scale` reads `scale.factor` only."""
        project = make_project("scaling")
        shrink(project)
        edit_params(project, "x.factor", 1)
        pipeline = yaml.safe_load(project.pipeline_path.read_text())
        pipeline["stages"]["scale"]["params"] = ["x.factor", "scale"]
        project.pipeline_path.write_text(yaml.safe_dump(pipeline, sort_keys=False))
        original = project.params_path.read_bytes()
        monkeypatch.chdir(project.root)
        assert main(["bench", "scale", "--factors", "1,2"]) == 0
        assert "| factor 1 | factor 2 |" in capsys.readouterr().out
        assert project.params_path.read_bytes() == original
        # the last run left the factor-2 table in place
        prepared = (project.root / "data" / "prepared.csv").read_text().splitlines()
        scaled = (project.root / "data" / "scaled.csv").read_text().splitlines()
        assert len(prepared) > 1 and len(scaled) - 1 == 2 * (len(prepared) - 1)

    def test_scale_factor_missing(self, make_project):
        project = make_project("scaling")
        project.params_path.write_text(
            project.params_path.read_text().replace("scale:\n  factor: 1\n", "scale:\n  copies: 1\n")
        )
        with pytest.raises(ConfigError, match="no 'scale.factor'"):
            run_scaling_bench(project, [1])


def synthetic_rows() -> list[BenchRow]:
    def row(factor, wall, cpu, noop):
        stages = {"prepare": wall * 0.25, "train": wall * 0.75}
        return BenchRow(
            factor=factor,
            stage_wall=stages,
            stage_cpu={k: v * (cpu / wall) for k, v in stages.items()},
            stage_rss={"prepare": 1000, "train": 2000},
            full_wall_s=wall * 1.1,
            noop_wall_s=noop,
        )

    return [row(1, 100.0, 200.0, 1.0), row(5, 300.0, 760.0, 1.2)]


def test_write_bench_report_replaces_symlinks_and_leaves_no_temp_file(make_project, tmp_path):
    project = make_project("scaling")
    target = tmp_path / "target.csv"
    target.write_text("mine\n")
    (tmp_path / "bench.csv").symlink_to(target)
    (tmp_path / "bench.md").symlink_to(tmp_path / "missing" / "target.md")
    rows = synthetic_rows()
    csv_path, md_path = write_bench_report(project, rows, tmp_path / "bench.csv")
    markdown, csv_text = emit_bench_report(rows, stage_order=[
        "synth", "prepare", "scale", "featurize", "split", "gridsearch", "report",
    ])
    assert not csv_path.is_symlink() and csv_path.read_text() == csv_text
    assert not md_path.is_symlink() and md_path.read_text() == markdown
    assert target.read_text() == "mine\n"
    assert not (tmp_path / "missing").exists()
    assert list(tmp_path.rglob(".locpipe-tmp-*")) == []


class TestEmitBenchReport:
    def test_single_row_ratios_are_one(self):
        markdown, _ = emit_bench_report(synthetic_rows()[:1])
        assert "| 1 | 100.000 | 1.00x | 200.000 | 1.00x |" in markdown

    def test_wall_ratio_arithmetic(self):
        markdown, _ = emit_bench_report(synthetic_rows())
        assert "| 5 | 300.000 | 3.00x | 760.000 | 3.80x |" in markdown

    def test_csv_columns_and_total_row(self):
        _, csv_text = emit_bench_report(synthetic_rows())
        lines = csv_text.splitlines()
        assert lines[0] == "factor,stage,wall_s,cpu_core_s,peak_rss_bytes,noop_wall_s"
        totals = [line for line in lines if ",total," in line]
        assert len(totals) == 2
        first_total = totals[0].split(",")
        assert float(first_total[2]) == pytest.approx(100.0)

    def test_deterministic_bytes(self):
        rows = synthetic_rows()
        assert emit_bench_report(rows) == emit_bench_report(rows)

    def test_per_stage_peak_rss_table_layout(self):
        def row(factor, rss):
            return BenchRow(
                factor=factor,
                stage_wall={stage: 1.0 for stage in rss},
                stage_cpu={stage: 1.0 for stage in rss},
                stage_rss=rss,
                full_wall_s=3.0,
                noop_wall_s=0.1,
            )

        rows = [
            row(1, {"scale": 17_301_504, "gridsearch": 21_049_344}),
            row(40, {"scale": 18_243_584, "gridsearch": 27_525_120}),
            row(80, {"scale": 18_300_000}),  # a stage a row lacks reads 0.0
        ]
        markdown, _ = emit_bench_report(rows, stage_order=["scale", "split", "gridsearch"])
        assert markdown.endswith(
            "\n## Per-stage peak RSS (MB)\n\n"
            "| stage | factor 1 | factor 40 | factor 80 |\n"
            "|---|---|---|---|\n"
            "| scale | 17.3 | 18.2 | 18.3 |\n"
            "| gridsearch | 21.0 | 27.5 | 0.0 |\n"
        )
        assert markdown.index("## Per-stage wall seconds") < markdown.index("## Per-stage peak RSS (MB)")

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError, match="no rows"):
            emit_bench_report([])


class TestBenchCli:
    def test_jobs_refused(self, make_project, monkeypatch, capsys):
        from locpipe.cli import main

        project = make_project("scaling")
        monkeypatch.chdir(project.root)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "scale", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_bad_factors_refused(self, make_project, monkeypatch, capsys):
        from locpipe.cli import main

        project = make_project("scaling")
        monkeypatch.chdir(project.root)
        assert main(["bench", "scale", "--factors", "1,oops"]) == 2

    def test_cli_writes_reports(self, make_project, monkeypatch, capsys):
        from locpipe.cli import main

        project = make_project("scaling")
        shrink(project)
        monkeypatch.chdir(project.root)
        assert main(["bench", "scale", "--factors", "1", "--out", "bench/results.csv"]) == 0
        out = capsys.readouterr().out
        assert "# Scaling benchmark" in out
        assert (project.root / "bench" / "results.csv").exists()
        assert (project.root / "bench" / "results.md").exists()
