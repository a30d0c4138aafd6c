"""Dataset-scaling benchmark harness.

Runs the scaling pipeline at several dataset multiples, collecting per-stage
wall/CPU/RSS from the run manifests, then measures a no-op (fully cached)
repro per factor. Scaling happens after the prepare stage, so prepare cost
is factor-invariant; the no-op wall time is the pure orchestration overhead.
The factor is `scale.factor`, the one key the `loc.scale` builtin reads: the
bench sets it in the params tree `Project.load` parses, and puts back
params.yaml's own bytes when it ends.

Timings must not contend, so the bench runs its stages one at a time and has
no ``--jobs`` option.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, LocpipeError
from .graph import build_graph, topo_order
from .runner import ExecOptions, Project, repro
from .store import write_atomic

SCALE_BUILTIN = "loc.scale"


@dataclass
class BenchRow:
    factor: int
    stage_wall: dict[str, float]       # mean seconds over repeats
    stage_cpu: dict[str, float]        # mean core-seconds over repeats
    stage_rss: dict[str, int]          # max bytes over repeats (0 = unavailable)
    full_wall_s: float                 # mean end-to-end wall of the forced runs
    noop_wall_s: float                 # wall of one fully cached repro

    @property
    def total_wall_s(self) -> float:
        return sum(self.stage_wall.values())

    @property
    def total_cpu_s(self) -> float:
        return sum(self.stage_cpu.values())


def _scale_params(project: Project) -> dict:
    """The params tree `Project.load` parses, checked to hold `scale.factor`,
    the one key the `loc.scale` builtin reads its factor from."""
    spec, params = project.load()
    if not any(stage.builtin == SCALE_BUILTIN for stage in spec.stages.values()):
        raise ConfigError(
            f"scaling template missing: no stage uses builtin {SCALE_BUILTIN} "
            "(run `locpipe init --template scaling`)"
        )
    if not isinstance(params.get("scale"), dict) or "factor" not in params["scale"]:
        raise ConfigError(f"params.yaml: no 'scale.factor' for builtin {SCALE_BUILTIN}")
    return params


def set_scale_factor(project: Project, factor: int) -> None:
    params = _scale_params(project)
    params["scale"]["factor"] = factor
    write_atomic(project.params_path, yaml.safe_dump(params, sort_keys=False).encode("utf-8"))


def run_scaling_bench(project: Project, factors: list[int], repeats: int = 1) -> list[BenchRow]:
    if not factors or any((not isinstance(f, int)) or f < 1 for f in factors):
        raise ConfigError(f"factors must be positive integers, got {factors!r}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    model = _scale_params(project).get("model")
    if isinstance(model, dict) and isinstance(model.get("grid"), dict) and "knn" in model["grid"]:
        raise ConfigError(
            "scaling bench supports the linear model only; remove 'knn' from model.grid "
            "(neighbor scans grow quadratically and would swamp the scaling signal)"
        )

    original_params = project.params_path.read_bytes()
    rows: list[BenchRow] = []
    try:
        for factor in factors:
            set_scale_factor(project, factor)
            wall_samples: dict[str, list[float]] = {}
            cpu_samples: dict[str, list[float]] = {}
            rss_samples: dict[str, list[int]] = {}
            full_walls: list[float] = []
            for _ in range(repeats):
                start = time.perf_counter()
                report = repro(project, ExecOptions(force=True))
                full_walls.append(time.perf_counter() - start)
                if report.failed:
                    bad = [r for r in report.results if r.action == "failed"][0]
                    raise LocpipeError(
                        f"bench: stage '{bad.stage}' failed at factor {factor}: {bad.reason}"
                    )
                for result in report.results:
                    wall_samples.setdefault(result.stage, []).append(result.wall_s)
                    cpu_samples.setdefault(result.stage, []).append(result.cpu_s)
                    rss_samples.setdefault(result.stage, []).append(result.peak_rss_bytes)
            start = time.perf_counter()
            noop = repro(project, ExecOptions())
            noop_wall = time.perf_counter() - start
            if noop.executed:
                raise LocpipeError(
                    f"bench: no-op repro at factor {factor} unexpectedly executed "
                    f"{noop.executed} stage(s); the pipeline is not deterministic"
                )
            rows.append(BenchRow(
                factor=factor,
                stage_wall={s: sum(v) / len(v) for s, v in wall_samples.items()},
                stage_cpu={s: sum(v) / len(v) for s, v in cpu_samples.items()},
                stage_rss={s: max(v) for s, v in rss_samples.items()},
                full_wall_s=sum(full_walls) / len(full_walls),
                noop_wall_s=noop_wall,
            ))
    finally:
        write_atomic(project.params_path, original_params)
    return rows


def _stage_order(project: Project) -> list[str]:
    spec, _ = project.load()
    return topo_order(build_graph(spec))


def emit_bench_report(rows: list[BenchRow], stage_order: list[str] | None = None) -> tuple[str, str]:
    """Render (markdown, csv); per-stage rows plus a total row, ratios vs the
    first factor. The Markdown has the totals, then per-stage tables of wall
    seconds and of peak RSS in MB (10^6 bytes), one column per factor."""
    if not rows:
        raise ConfigError("bench report: no rows")
    if stage_order is None:
        stage_order = sorted({s for row in rows for s in row.stage_wall})

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["factor", "stage", "wall_s", "cpu_core_s", "peak_rss_bytes", "noop_wall_s"])
    for row in rows:
        for stage in stage_order:
            if stage not in row.stage_wall:
                continue
            writer.writerow([
                row.factor, stage,
                f"{row.stage_wall[stage]:.6f}",
                f"{row.stage_cpu[stage]:.6f}",
                row.stage_rss.get(stage, 0),
                f"{row.noop_wall_s:.6f}",
            ])
        writer.writerow([
            row.factor, "total",
            f"{row.total_wall_s:.6f}",
            f"{row.total_cpu_s:.6f}",
            max(row.stage_rss.values(), default=0),
            f"{row.noop_wall_s:.6f}",
        ])
    csv_text = buf.getvalue()

    base = rows[0]
    md = io.StringIO()
    md.write("# Scaling benchmark\n\n")
    md.write("## Totals\n\n")
    md.write("| factor | wall_s | wall_ratio | cpu_core_s | cpu_ratio | noop_wall_s | full_run_wall_s |\n")
    md.write("|---|---|---|---|---|---|---|\n")
    for row in rows:
        wall_ratio = row.total_wall_s / base.total_wall_s if base.total_wall_s else 1.0
        cpu_ratio = row.total_cpu_s / base.total_cpu_s if base.total_cpu_s else 1.0
        md.write(
            f"| {row.factor} | {row.total_wall_s:.3f} | {wall_ratio:.2f}x "
            f"| {row.total_cpu_s:.3f} | {cpu_ratio:.2f}x "
            f"| {row.noop_wall_s:.3f} | {row.full_wall_s:.3f} |\n"
        )
    per_stage = (
        ("Per-stage wall seconds", lambda row, stage: f"{row.stage_wall.get(stage, 0.0):.3f}"),
        ("Per-stage peak RSS (MB)", lambda row, stage: f"{row.stage_rss.get(stage, 0) / 1e6:.1f}"),
    )
    for title, cell in per_stage:
        md.write(f"\n## {title}\n\n")
        md.write("| stage | " + " | ".join(f"factor {row.factor}" for row in rows) + " |\n")
        md.write("|---|" + "---|" * len(rows) + "\n")
        for stage in stage_order:
            if any(stage in row.stage_wall for row in rows):
                md.write(f"| {stage} | " + " | ".join(cell(row, stage) for row in rows) + " |\n")
    return md.getvalue(), csv_text


def write_bench_report(project: Project, rows: list[BenchRow], csv_path: Path | str) -> tuple[Path, Path]:
    csv_path = Path(csv_path)
    md_path = csv_path.with_suffix(".md")
    markdown, csv_text = emit_bench_report(rows, stage_order=_stage_order(project))
    write_atomic(csv_path, csv_text.encode("utf-8"))
    write_atomic(md_path, markdown.encode("utf-8"))
    return csv_path, md_path
