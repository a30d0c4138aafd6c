"""Command-line interface.

One binary exposes the orchestrator (`init`, `repro`, `status`, `dag`,
`metrics show`, `gc`), the standalone reporter (`report`) and the scaling
benchmark (`bench scale`). Stages never come back through this parser: the
orchestrator forks each one from the `repro` process.

Exit codes: 0 success (including all-cached), 1 stage failure, 2 config or
usage error, 3 store/IO error. Stdout carries no timestamps; timestamps live
in run manifests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import EXIT_CONFIG, EXIT_OK, EXIT_STAGE_FAILURE, EXIT_STORE
from .errors import BuiltinError, ConfigError, LocpipeError, StoreError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locpipe",
        description="Configuration-first, cache-aware pipeline runner for localization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="scaffold an experiment directory from a template")
    p_init.add_argument("directory", nargs="?", default=".", help="target directory (default: .)")
    p_init.add_argument("--template", default="baseline", help="template name (default: baseline)")

    p_repro = sub.add_parser("repro", help="execute the pipeline, serving unchanged stages from cache")
    p_repro.add_argument("targets", nargs="*", metavar="TARGET", help="optional target stages")
    p_repro.add_argument("--force", action="store_true", help="re-execute even when unchanged")
    p_repro.add_argument("--dry-run", action="store_true", help="print the plan without executing")
    p_repro.add_argument("--jobs", type=int, default=1, metavar="N", help="run up to N independent stages concurrently")

    sub.add_parser("status", help="per-stage change report against the lock file")

    p_dag = sub.add_parser("dag", help="show the stage dependency graph")
    p_dag.add_argument("--dot", action="store_true", help="emit Graphviz format")

    p_metrics = sub.add_parser("metrics", help="metric file views")
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command", required=True)
    p_metrics_show = metrics_sub.add_parser("show", help="flat table of all declared metric files")
    p_metrics_show.add_argument("--json", action="store_true", help="emit JSON rows")

    p_report = sub.add_parser("report", help="build a report from recorded result files")
    p_report.add_argument("inputs", nargs="+", metavar="FILE", help="cv results / metrics JSON files")
    p_report.add_argument("--md", metavar="PATH", help="write Markdown here (default: stdout)")
    p_report.add_argument("--csv", metavar="PATH", help="write the CSV table here")

    sub.add_parser("gc", help="remove store objects no lock entry references, stale memo entries and crash leftovers")

    p_bench = sub.add_parser("bench", help="benchmark harnesses")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_scale = bench_sub.add_parser("scale", help="run the dataset-scaling benchmark")
    p_scale.add_argument("--factors", default="1,5,10", help="comma-separated dataset multiples")
    p_scale.add_argument("--repeats", type=int, default=1, help="forced runs per factor")
    p_scale.add_argument("--out", default="bench/results.csv", metavar="FILE", help="CSV output path")

    return parser


def _cmd_init(args: argparse.Namespace) -> int:
    from .templates import init_experiment

    target = init_experiment(args.directory, args.template)
    print(f"initialized '{args.template}' experiment in {target}")
    return EXIT_OK


def _print_plan(plan_entries) -> None:
    print(f"plan for {len(plan_entries)} stage(s):")
    for entry in plan_entries:
        if entry.action == "run":
            note = f" ({entry.reason})" if entry.reason else ""
            print(f"  {entry.stage}: would run{note}")
        elif entry.action == "cached":
            print(f"  {entry.stage}: would use cache")
        else:
            print(f"  {entry.stage}: blocked ({entry.reason})")


def _tail(path: Path, limit: int = 2000) -> str:
    try:
        data = path.read_bytes()
    except OSError:
        return ""
    return data[-limit:].decode("utf-8", errors="replace")


def _cmd_repro(args: argparse.Namespace) -> int:
    from .runner import ExecOptions, Project, plan, repro

    project = Project.discover()
    opts = ExecOptions(targets=tuple(args.targets), force=args.force, jobs=args.jobs)
    if args.dry_run:
        _print_plan(plan(project, opts).entries)
        return EXIT_OK
    report = repro(project, opts)
    for result in report.results:
        if result.action == "failed":
            print(f"{result.stage}: failed ({result.reason})")
            if result.log_err:
                tail = _tail(project.root / result.log_err)
                if tail.strip():
                    sys.stderr.write(f"--- {result.stage} stderr ---\n{tail}")
                    if not tail.endswith("\n"):
                        sys.stderr.write("\n")
        elif result.action == "skipped":
            print(f"{result.stage}: skipped ({result.reason})")
        else:
            print(f"{result.stage}: {result.action}")
    print(
        f"{report.executed} executed, {report.cached} cached, "
        f"{report.failed} failed, {report.skipped} skipped"
    )
    return report.exit_code


def _cmd_status(args: argparse.Namespace) -> int:
    from .runner import Project, status

    for entry in status(Project.discover()):
        if entry.state == "changed":
            print(f"{entry.stage}: changed ({'; '.join(entry.reasons)})")
        elif entry.state == "never-run":
            print(f"{entry.stage}: never run")
        else:
            print(f"{entry.stage}: unchanged")
    return EXIT_OK


def _cmd_dag(args: argparse.Namespace) -> int:
    from .graph import build_graph, to_dot, topo_order
    from .runner import Project

    spec, _ = Project.discover().load()
    graph = build_graph(spec)
    if args.dot:
        sys.stdout.write(to_dot(graph))
    else:
        for name in topo_order(graph):
            print(name)
    return EXIT_OK


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    from .runner import Project, metrics_show

    rows = metrics_show(Project.discover())
    if args.json:
        print(json.dumps(
            [{"stage": r.stage, "path": r.path, "key": r.key, "value": r.value} for r in rows],
            sort_keys=True,
        ))
    else:
        for row in rows:
            value = json.dumps(row.value) if isinstance(row.value, (bool, str)) else row.value
            print(f"{row.stage}\t{row.path}\t{row.key}\t{value}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from .loctk.report import build_report, load_input

    try:
        inputs = [(name, load_input(name)) for name in args.inputs]
        markdown, table = build_report(inputs)
    except BuiltinError as exc:
        raise ConfigError(str(exc)) from None
    if args.md:
        Path(args.md).parent.mkdir(parents=True, exist_ok=True)
        Path(args.md).write_text(markdown, encoding="utf-8")
    else:
        sys.stdout.write(markdown)
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        Path(args.csv).write_text(table, encoding="utf-8")
    return EXIT_OK


def _cmd_gc(args: argparse.Namespace) -> int:
    from .runner import Project, project_lock
    from .store import ObjectStore, gc, load_lock

    project = Project.discover()
    with project_lock(project):
        lock, store = load_lock(project.lock_path), ObjectStore(project.cache_dir)
        removed = gc(lock, store, project.config_key(), project)
    print(f"removed {removed} unreferenced object(s)")
    return EXIT_OK


def _cmd_bench_scale(args: argparse.Namespace) -> int:
    from .bench import run_scaling_bench, write_bench_report
    from .runner import Project

    try:
        factors = [int(part) for part in args.factors.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad --factors value {args.factors!r} (expected e.g. 1,5,10)") from None
    project = Project.discover()
    rows = run_scaling_bench(project, factors, repeats=args.repeats)
    csv_path, md_path = write_bench_report(project, rows, project.root / args.out)
    sys.stdout.write(md_path.read_text(encoding="utf-8"))
    print(f"wrote {csv_path} and {md_path}")
    return EXIT_OK


_HANDLERS = {
    "init": _cmd_init,
    "repro": _cmd_repro,
    "status": _cmd_status,
    "dag": _cmd_dag,
    "report": _cmd_report,
    "gc": _cmd_gc,
    "metrics": _cmd_metrics_show,
    "bench": _cmd_bench_scale,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (StoreError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STORE
    except LocpipeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
