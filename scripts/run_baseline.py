#!/usr/bin/env python3
"""Run the baseline experiment end to end in a scratch directory, as a
run-cache smoke check.

Scaffolds the baseline template and executes the pipeline four times:
1. a first pass;
2. a second pass, which must be served entirely from cache;
3. a pass with `model.grid.ridge.alpha` set to another value;
4. a final pass with the original params.yaml restored, which must also be
   served entirely from cache, by the run cache.

Prints each pass's executed/cached counts and the recorded metrics, and
exits non-zero unless the second and final passes execute 0 stages.

Usage: python scripts/run_baseline.py [DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import yaml

from locpipe.runner import ExecOptions, Project, metrics_show, repro
from locpipe.templates import init_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default="baseline_run", help="experiment directory")
    args = parser.parse_args()

    directory = Path(args.directory)
    if not (directory / "pipeline.yaml").exists():
        init_experiment(directory, "baseline")
        print(f"scaffolded baseline experiment in {directory}")
    project = Project(root=directory.resolve())

    def run_pass(name: str):
        start = time.perf_counter()
        report = repro(project, ExecOptions())
        print(f"{name} pass: {report.executed} executed, {report.cached} cached "
              f"({time.perf_counter() - start:.2f}s)")
        return report

    original = project.params_path.read_text(encoding="utf-8")
    params = yaml.safe_load(original)
    ridge = params["model"]["grid"]["ridge"]
    ridge["alpha"] = [max(ridge["alpha"]) + 0.5]

    reports = {}
    for name in ("first", "second", "edited", "final"):
        if name == "edited":
            project.params_path.write_text(yaml.safe_dump(params, sort_keys=False), encoding="utf-8")
        elif name == "final":
            project.params_path.write_text(original, encoding="utf-8")
        reports[name] = run_pass(name)
        if reports[name].exit_code != 0:
            return reports[name].exit_code

    print("\nrecorded metrics:")
    for row in metrics_show(project):
        print(f"  {row.stage}  {row.key} = {row.value}")
    print(f"\nreport: {project.root / 'report' / 'report.md'}")

    recomputed = [name for name in ("second", "final") if reports[name].executed]
    if recomputed:
        print(f"error: the {' and '.join(recomputed)} pass re-executed stages", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
