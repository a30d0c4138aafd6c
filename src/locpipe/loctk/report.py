"""Reporting stage: aggregate recorded results into Markdown and CSV tables.

Reporting never fits models; it reads only recorded artifacts. Inputs are
classified by structure: documents with ``rows``/``aggregates`` are
cross-validation results, flat objects of scalar leaves are metrics files.
Output bytes are a pure function of the inputs.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from ..canonical import canonical_json, fmt_num
from ..errors import BuiltinError
from . import StageRequest
from .metrics import METRIC_KEYS

_SCALAR = (bool, int, float, str)


def is_flat_scalars(doc: object) -> bool:
    """True when `doc` is an object whose leaves are all scalars; walked with
    a stack, so any depth `json` decodes is fine here."""
    stack = [doc]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            return False
        stack.extend(v for v in node.values() if not isinstance(v, _SCALAR))
    return True


def classify(doc: object, source: str = "input") -> str:
    """"cv" or "metrics"; a BuiltinError naming `source` if `doc` is neither,
    or if it is cv results with an aggregate the report cannot read."""
    if isinstance(doc, dict) and "rows" in doc and "aggregates" in doc:
        if not isinstance(doc["aggregates"], list):
            raise BuiltinError(f"report: {source}: 'aggregates' must be a list")
        for i, agg in enumerate(doc["aggregates"]):
            if not (isinstance(agg, dict) and type(agg.get("candidate")) is int and "params" in agg
                    and isinstance(agg.get("model"), str) and isinstance(agg.get("metrics"), dict)):
                raise BuiltinError(f"report: {source}: aggregate {i} needs an int 'candidate', "
                                   "a str 'model', 'params' and a 'metrics' mapping")
            try:
                canonical_json(agg["params"])
            except (ValueError, RecursionError):
                raise BuiltinError(f"report: {source}: aggregate {i} has 'params' canonical JSON "
                                   "cannot encode (NaN, Infinity or too deep)") from None
        return "cv"
    if is_flat_scalars(doc):
        return "metrics"
    raise BuiltinError(f"report: {source} is neither cv results nor a metrics file")


def flatten(doc: dict) -> list[tuple[str, object]]:
    """The (dotted key, leaf) pairs of an object, depth first with the keys
    of each level sorted."""
    rows = []
    stack = [("", doc)]
    while stack:
        prefix, node = stack.pop()
        if not isinstance(node, dict):
            rows.append((prefix, node))
            continue
        stack.extend((f"{prefix}.{key}" if prefix else key, node[key]) for key in sorted(node, reverse=True))
    return rows


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return fmt_num(value)
    return str(value)


def build_report(inputs: list[tuple[str, dict]]) -> tuple[str, str]:
    """Build (markdown, csv) from named input documents, sorted by source name."""
    if not inputs:
        raise BuiltinError("report: no input files")
    cv_sources = []
    metric_sources = []
    for name, doc in sorted(inputs, key=lambda pair: pair[0]):
        kind = classify(doc, name)
        if kind == "cv":
            cv_sources.append((name, doc))
        else:
            metric_sources.append((name, doc))

    header = ["source", "candidate", "model", "params", *METRIC_KEYS, "selected"]
    table_rows = []  # the cells of each row, shared by the Markdown table and the CSV
    for name, doc in cv_sources:
        selected = doc.get("selected")
        for agg in sorted(doc["aggregates"], key=lambda a: a["candidate"]):
            table_rows.append([
                name, str(agg["candidate"]), agg["model"], canonical_json(agg["params"]),
                *(_cell(agg["metrics"].get(key, "")) for key in METRIC_KEYS),
                "yes" if agg["candidate"] == selected else "",
            ])

    md = io.StringIO()
    md.write("# Experiment report\n")
    if table_rows:
        md.write("\n## Cross-validation aggregates\n\n")
        md.write("| " + " | ".join(header) + " |\n")
        md.write("|" + "---|" * len(header) + "\n")
        for cells in table_rows:
            md.write("| " + " | ".join(cells) + " |\n")
    if metric_sources:
        md.write("\n## Recorded metrics\n\n")
        md.write("| source | key | value |\n|---|---|---|\n")
        for name, doc in metric_sources:
            for key, value in flatten(doc):
                md.write(f"| {name} | {key} | {_cell(value)} |\n")

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *table_rows])
    return md.getvalue(), buf.getvalue()


def load_input(path: Path | str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BuiltinError(f"report: unparseable input {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise BuiltinError(f"report: unparseable input {path}: not a JSON object")
    return doc


def run(request: StageRequest) -> None:
    if not request.deps:
        raise BuiltinError(f"stage '{request.stage}': report needs at least one input file")
    inputs = [(dep, load_input(dep)) for dep in request.deps]
    markdown, table = build_report(inputs)
    request.out(0, "Markdown report").write_text(markdown, encoding="utf-8")
    request.out(1, "CSV table").write_text(table, encoding="utf-8")
