"""`perfbench/tracing.py` rebinds names in `locpipe.runner` and the builtin
modules to time them. A rename there would leave its spans silently empty,
so a small traced run checks that each span it names is recorded."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_baseline_records_every_span(tracing, baseline_project):
    tracer = tracing.Tracer()
    forced = tracing.traced_op(tracer, baseline_project.root, force=True)
    assert forced.exit_code == 0
    executed = [r["stage"] for r in forced.results if r["action"] == "executed"]
    assert len(executed) == 6
    spec, _ = baseline_project.load()
    builtins = {f"loctk.{spec.stages[name].builtin.split('.', 1)[1]}.run" for name in executed}
    names = {span.name for span in tracer.spans}
    expected = {"store.hash", "store.lookup", "store.commit", "store.lock_write", "configmodel.load"}
    assert expected | builtins <= names

    tracer.op += 1
    cached = tracing.traced_op(tracer, baseline_project.root, force=False)
    assert [r["action"] for r in cached.results] == ["cached"] * 6
    assert "store.restore" in {span.name for span in tracer.spans if span.op == 1}
