"""End-to-end benchmark of `locpipe repro`, with a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads are listed in `workloads.WORKLOADS`. With `--trace 0` each op is
one `locpipe repro --jobs 1` started as a fresh process, run as a closed loop
with one caller for `--seconds` after set-up; the end-to-end metrics are
printed by name and unit. With `--trace 1` ops run in this process under the
tracer (see `tracing.py`) and the per-layer metrics are printed instead.
Every op is checked against the reference digests recorded at set-up; a
failed check counts toward the error rate and never aborts the run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Projects are built under
`.perfbench_work/` in the checkout and removed at exit; the results and the
spans of each run are kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import LAYER_UNITS, Tracer, layer_metrics, traced_op
from workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    Session,
    SetupError,
    cli_env,
    make_inputs,
    run_cli,
)

WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10    # samples a tail percentile must leave above it


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(p, value) of the sample with TAIL_BEYOND samples above it, p being its
    nearest-rank percentile; None unless that sample lies above the median."""
    n = len(samples)
    rank = n - TAIL_BEYOND
    if rank <= n // 2 + 1:
        return None
    return (100 * rank) // n, sorted(samples)[rank - 1]


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_ops(session: Session, seconds: float) -> dict:
    """Untraced CLI ops in a closed loop for `seconds` (at least one op)."""
    walls, cpus, peak, failed, recomputed = [], [], 0, [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        plan = session.next_op()
        run = run_cli(plan.project, plan.force, session.stderr_path)
        failures, again = session.finish_op(plan, run.exit_code, run.results)
        walls.append(run.wall_s)
        cpus.append(run.cpu_s)
        peak = max(peak, run.peak_rss_bytes)
        failed.append(failures)
        recomputed.append(again)
    n = len(walls)
    return {
        "ops": n,
        "failed": sum(1 for f in failed if f),
        "failures": sorted({reason for f in failed for reason in f}),
        "tail": tail_percentile(walls),
        "metrics": {
            "repro_s.p50": (statistics.median(walls), "s"),
            "cpu_s.p50": (statistics.median(cpus), "core-s"),
            "peak_rss_mb": (peak / 1e6, "MB"),
        },
        "readings": {
            "error_rate": (sum(1 for f in failed if f) / n, "ratio"),
            "recomputed_stages": (sum(recomputed) / n, "count/op"),
        },
    }


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: set up SETUP_REPEATS times, then CLI ops for `seconds`."""
    session = Session(WORKLOADS[name], make_inputs(seed), WORK / f"{name}-{os.getpid()}")
    try:
        setup_times = [session.setup() for _ in range(SETUP_REPEATS)]
        result = run_ops(session, seconds)
    finally:
        session.close()
    result["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
    result["consistent_setup"] = session.consistent
    return result


def cli_startup_s() -> float:
    """Median wall time of a fresh interpreter importing the CLI and runner."""
    argv = [sys.executable, "-c", "import locpipe.cli, locpipe.runner"]
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=cli_env(), check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def trace(name: str, seed: int, seconds: float) -> dict:
    """Traced run: untraced CLI ops for a third of `seconds` as the baseline
    of the tracing overhead, then traced in-process ops for `seconds`."""
    session = Session(WORKLOADS[name], make_inputs(seed), WORK / f"{name}-{os.getpid()}")
    tracer = Tracer()
    try:
        session.setup()
        startup = cli_startup_s()
        baseline = run_ops(session, seconds / 3)
        ops, failures, recomputed = [], [], []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            plan = session.next_op()
            tracer.op = len(ops)
            op = traced_op(tracer, plan.project, plan.force)
            reasons, again = session.finish_op(plan, op.exit_code, op.results)
            ops.append(op)
            failures.append(reasons)
            recomputed.append(again)
    finally:
        session.close()
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{name}-seed{seed}.json")
    failed = [bool(reasons) for reasons in failures]
    layers = layer_metrics(
        tracer, ops, failed, recomputed, startup, baseline["metrics"]["repro_s.p50"][0],
    )
    return {
        "ops": len(ops) + baseline["ops"],
        "failed": sum(failed) + baseline["failed"],
        "failures": sorted({r for reasons in failures for r in reasons} | set(baseline["failures"])),
        "consistent_setup": session.consistent,
        "metrics": {key: (value, LAYER_UNITS[key]) for key, value in layers.items()},
    }


def render(env: dict, result: dict) -> list[str]:
    lines = [
        f"# workload {env['workload']} (seed {env['seed']}): {env['why']}",
        f"# python {env['python']}, nproc {env['nproc']}, {env['platform']}",
        f"# ops {result['ops']}, failed {result['failed']}",
    ]
    for reason in result["failures"]:
        lines.append(f"# failure: {reason}")
    rows = dict(result["metrics"])
    if "tail" in result:
        tail = result["tail"]
        rows["repro_s.tail"] = (
            (tail[1], f"s (p{tail[0]}, n={result['ops']})") if tail
            else ("omitted", f"(n={result['ops']} leaves no percentile above the median "
                             f"with {TAIL_BEYOND} samples beyond it)")
        )
    rows.update(result.get("readings", {}))
    for key, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{key:<28} {shown:>14} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locpipe" / "__init__.py").is_file():
        sys.stderr.write(f"error: locpipe sources not found under {SRC}\n")
        return 2
    if args.trace:
        sys.path.insert(0, str(SRC))  # traced ops import locpipe into this process
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure_one = trace if args.trace else measure
    correct, attempted, failed, metrics, records = True, 0, 0, {}, []
    for name in names:
        env = environment(name, args.seed)
        try:
            result = measure_one(name, args.seed, args.seconds)
        except (SetupError, subprocess.CalledProcessError) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        print("\n".join(render(env, result)), flush=True)
        records.append({"env": env, **result})
        correct = correct and result["failed"] == 0 and result["consistent_setup"]
        attempted += result["ops"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"results-{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(records, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
