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
import os
import sys
from pathlib import Path

from .errors import EXIT_CONFIG, EXIT_OK, EXIT_STAGE_FAILURE, EXIT_STORE
from .errors import BuiltinError, ConfigError, LocpipeError, StoreError


def _init_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("directory", nargs="?", default=".", help="target directory (default: .)")
    p.add_argument("--template", default="baseline", help="template name (default: baseline)")


def _repro_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("targets", nargs="*", metavar="TARGET", help="optional target stages")
    p.add_argument("--force", action="store_true", help="re-execute even when unchanged")
    p.add_argument("--dry-run", action="store_true", help="print the plan without executing")
    p.add_argument("--jobs", type=int, default=1, metavar="N", help="run up to N independent stages concurrently")


def _dag_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dot", action="store_true", help="emit Graphviz format")


def _metrics_args(p: argparse.ArgumentParser) -> None:
    metrics_sub = p.add_subparsers(dest="metrics_command", required=True)
    p_show = metrics_sub.add_parser("show", help="flat table of all declared metric files")
    p_show.add_argument("--json", action="store_true", help="emit JSON rows")


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("inputs", nargs="+", metavar="FILE", help="cv results / metrics JSON files")
    p.add_argument("--md", metavar="PATH", help="write Markdown here (default: stdout)")
    p.add_argument("--csv", metavar="PATH", help="write the CSV table here")


def _bench_args(p: argparse.ArgumentParser) -> None:
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p_scale = bench_sub.add_parser("scale", help="run the dataset-scaling benchmark")
    p_scale.add_argument("--factors", default="1,5,10", help="comma-separated dataset multiples")
    p_scale.add_argument("--repeats", type=int, default=1, help="forced runs per factor")
    p_scale.add_argument("--out", default="bench/results.csv", metavar="FILE", help="CSV output path")


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser. When ``argv[0]`` names a command, only that command's
    subparser is built; the usage line still lists every command, so each
    message is the one the full parser prints."""
    parser = argparse.ArgumentParser(
        prog="locpipe",
        description="Configuration-first, cache-aware pipeline runner for localization experiments.",
    )
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
        # the metavar the full parser derives from its choices; set only here,
        # as argparse also names a missing or unknown command by its metavar
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_args, _ = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        if add_args is not None:
            add_args(subparser)
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
    """The last `limit` bytes of a stage log, read without the rest."""
    try:
        with open(path, "rb") as handle:
            handle.seek(max(0, os.fstat(handle.fileno()).st_size - limit))
            data = handle.read(limit)
    except OSError:
        return ""
    return data.decode("utf-8", errors="replace")


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
        elif entry.state == "blocked":
            print(f"{entry.stage}: blocked ({entry.reasons[0]})")
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
    from .store import ObjectStore, gc, load_lock, write_lock

    project = Project.discover()
    record: dict = {}
    spec, _ = project.load(record)
    # another project's lock may name the objects of a cache reached by a
    # symlink; `discover` resolved the root, so only such a link moves it
    cache = os.path.realpath(project.cache_dir)
    if cache != str(project.cache_dir):
        raise StoreError(f"refusing to gc {project.cache_dir}: it resolves to {cache}, outside the project")
    with project_lock(project):
        lock, store = load_lock(project.lock_path), ObjectStore(project.cache_dir)
        declared = {name: entry for name, entry in lock.items() if name in spec.stages}
        if len(declared) != len(lock):  # drop the entries of stages pipeline.yaml no longer declares
            lock = declared
            write_lock(lock, project.lock_path)
        removed = gc(lock, store, record["key"], project)
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


# command -> (help, adds its arguments, handler), in the order `--help` lists them
_COMMANDS = {
    "init": ("scaffold an experiment directory from a template", _init_args, _cmd_init),
    "repro": ("execute the pipeline, serving unchanged stages from cache", _repro_args, _cmd_repro),
    "status": ("per-stage change report against the lock file", None, _cmd_status),
    "dag": ("show the stage dependency graph", _dag_args, _cmd_dag),
    "metrics": ("metric file views", _metrics_args, _cmd_metrics_show),
    "report": ("build a report from recorded result files", _report_args, _cmd_report),
    "gc": (
        "drop undeclared stages from the lock, then remove every cache file no live record names",
        None, _cmd_gc,
    ),
    "bench": ("benchmark harnesses", _bench_args, _cmd_bench_scale),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
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
