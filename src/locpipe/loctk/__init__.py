"""Builtin localization stage executors.

Each builtin is a deterministic function from (params, deps) to declared
outs. The orchestrator forks a child per executed stage, and the child calls
``run_builtin`` on the stage's in-memory ``StageRequest``. Just before that
fork the orchestrator imports the builtin's module (``load_builtin``), so the
child inherits its compiled code; only the child calls the module's ``run``,
into out directories the launcher has made.
Every builtin's identity is one digest of the code it runs
(`builtin_version`), so any edit to this package or to ``canonical.py``
invalidates every cached builtin stage.

The table readers and writers share a parse memo under `table_memo_dir`: a
writer stores the table it wrote, a reader the table it parsed. An entry is
keyed by the CSV's content digest, inside a directory named after the same
code digest, so a code edit never reads an older parse.
"""

from __future__ import annotations

import functools
import importlib
from pathlib import Path
from types import MappingProxyType, ModuleType
from typing import Mapping, NamedTuple

from ..canonical import source_digest
from ..errors import BuiltinError, ConfigError

# builtin id -> module
_REGISTRY: dict[str, str] = {
    "loc.synth": "locpipe.loctk.synth",
    "loc.prepare": "locpipe.loctk.prepare",
    "loc.featurize": "locpipe.loctk.featurize",
    "loc.split": "locpipe.loctk.split",
    "loc.gridsearch": "locpipe.loctk.gridsearch",
    "loc.report": "locpipe.loctk.report",
    "loc.scale": "locpipe.loctk.scale",
}


def builtin_ids() -> list[str]:
    return sorted(_REGISTRY)


@functools.cache
def _code_digest() -> str:
    """`canonical.source_digest` of every ``loctk/*.py`` (sorted) and of
    ``canonical.py``, each named by its path under the package."""
    package = Path(__file__).parent
    paths = sorted(package.glob("*.py")) + [package.parent / "canonical.py"]
    return source_digest((path.relative_to(package.parent).as_posix(), path.read_bytes()) for path in paths)


def table_memo_dir(cache_root: Path | str) -> Path:
    """``<cache>/tables/<code digest>``: the parsed-table memo of this code.

    Its entries are written by `store.write_atomic` through a temp file beside
    them, and `store.gc` removes the entries of other code digests.
    """
    return Path(cache_root) / "tables" / _code_digest()


def builtin_version(builtin_id: str) -> str:
    """The identity of a builtin's code: one digest shared by every builtin."""
    if builtin_id not in _REGISTRY:
        raise ConfigError(f"unknown builtin '{builtin_id}' (known: {', '.join(builtin_ids())})")
    return _code_digest()


class StageRequest(NamedTuple):
    """Everything a builtin needs, resolved by the orchestrator."""

    stage: str
    builtin: str
    params: Mapping[str, object] = MappingProxyType({})  # dotted key -> resolved value
    deps: tuple[str, ...] = ()
    outs: tuple[str, ...] = ()
    table_memo: Path | None = None  # a `table_memo_dir`; None parses every table afresh

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


def load_builtin(builtin_id: str) -> ModuleType:
    """Import a builtin's module, or return it if it is already loaded.

    Importing one runs no builtin code: it starts no thread and changes
    neither the working directory nor the environment, so the orchestrator
    may import it before it forks.
    """
    if builtin_id not in _REGISTRY:
        raise ConfigError(f"unknown builtin '{builtin_id}'")
    return importlib.import_module(_REGISTRY[builtin_id])


def run_builtin(builtin_id: str, request: StageRequest) -> None:
    module = load_builtin(builtin_id)
    if request.builtin != builtin_id:
        raise BuiltinError(f"request was built for '{request.builtin}', not '{builtin_id}'")
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
