"""Builtin localization stage executors.

Each builtin is a deterministic function from (params, deps) to declared
outs, invoked by the orchestrator in a fresh OS process via
``locpipe run-builtin <id> --request <file>``. Builtins carry an explicit
version that must be bumped on any behavior change so stale cache entries
are invalidated.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BuiltinError, ConfigError

# builtin id -> (module, version). Bump the version whenever output bytes
# for identical inputs could change.
_REGISTRY: dict[str, tuple[str, int]] = {
    "loc.synth": ("locpipe.loctk.synth", 1),
    "loc.prepare": ("locpipe.loctk.prepare", 1),
    "loc.featurize": ("locpipe.loctk.featurize", 1),
    "loc.split": ("locpipe.loctk.split", 1),
    "loc.gridsearch": ("locpipe.loctk.gridsearch", 2),
    "loc.report": ("locpipe.loctk.report", 1),
    "loc.scale": ("locpipe.loctk.scale", 1),
}


def builtin_ids() -> list[str]:
    return sorted(_REGISTRY)


def builtin_version(builtin_id: str) -> int:
    try:
        return _REGISTRY[builtin_id][1]
    except KeyError:
        raise ConfigError(f"unknown builtin '{builtin_id}' (known: {', '.join(builtin_ids())})") from None


@dataclass(frozen=True)
class StageRequest:
    """Everything a builtin needs, resolved by the orchestrator."""

    stage: str
    builtin: str
    params: dict = field(default_factory=dict)  # dotted key -> resolved value
    deps: tuple[str, ...] = ()
    outs: tuple[str, ...] = ()

    def to_json_file(self, path: Path | str) -> None:
        doc = {
            "stage": self.stage,
            "builtin": self.builtin,
            "params": self.params,
            "deps": list(self.deps),
            "outs": list(self.outs),
        }
        Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    @staticmethod
    def from_json_file(path: Path | str) -> "StageRequest":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            return StageRequest(
                stage=doc["stage"],
                builtin=doc["builtin"],
                params=doc["params"],
                deps=tuple(doc["deps"]),
                outs=tuple(doc["outs"]),
            )
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise BuiltinError(f"unreadable stage request {path}: {exc}") from None

    def dep(self, index: int, label: str) -> Path:
        if index >= len(self.deps):
            raise BuiltinError(
                f"stage '{self.stage}' ({self.builtin}): missing dep #{index + 1} ({label})"
            )
        return Path(self.deps[index])

    def out(self, index: int, label: str) -> Path:
        if index >= len(self.outs):
            raise BuiltinError(
                f"stage '{self.stage}' ({self.builtin}): missing out #{index + 1} ({label})"
            )
        return Path(self.outs[index])


def run_builtin(builtin_id: str, request: StageRequest) -> None:
    if builtin_id not in _REGISTRY:
        raise ConfigError(f"unknown builtin '{builtin_id}'")
    if request.builtin != builtin_id:
        raise BuiltinError(f"request was built for '{request.builtin}', not '{builtin_id}'")
    module = importlib.import_module(_REGISTRY[builtin_id][0])
    module.run(request)


# ---------------------------------------------------------------------------
# Param access helpers shared by the builtins


def nest_params(subset: dict) -> dict:
    """Rebuild a nested view from a dotted-key param subset."""
    nested: dict = {}
    for key in sorted(subset):
        parts = key.split(".")
        node = nested
        covered = False
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                covered = True  # an ancestor key already captured this subtree
                break
            node = nxt
        if not covered:
            node[parts[-1]] = subset[key]
    return nested


_MISSING = object()


def section(request: StageRequest, key: str) -> dict:
    nested = nest_params(request.params)
    value = nested.get(key)
    if not isinstance(value, dict):
        raise BuiltinError(
            f"stage '{request.stage}' ({request.builtin}): expected a '{key}' parameter "
            f"mapping (declare `params: [{key}]` in pipeline.yaml)"
        )
    return value


def _type_ok(value: object, kind: str) -> bool:
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    if kind == "list":
        return isinstance(value, list)
    if kind == "mapping":
        return isinstance(value, dict)
    raise ValueError(kind)


def get(cfg: dict, key: str, kind: str, where: str, default: object = _MISSING) -> object:
    value = cfg.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise BuiltinError(f"{where}: missing parameter '{key}'")
        return default
    if not _type_ok(value, kind):
        raise BuiltinError(f"{where}: parameter '{key}' must be {kind}, got {value!r}")
    return value
