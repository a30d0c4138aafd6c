"""Parsing and validation of the two experiment description files.

``pipeline.yaml`` declares the stage graph (commands or builtins, deps,
params, outs, metrics); ``params.yaml`` holds the free-form parameter tree
that stages select dotted subsets from. Parsing is deliberately strict:
unknown fields, duplicate names, non-finite numbers, and unresolvable keys
are hard errors because a silently misread config is worse than a refused
one.
"""

from __future__ import annotations

import copy
import math
import posixpath
import re
from dataclasses import dataclass, field

import yaml

from .canonical import canonical_bytes
from .errors import ConfigError

PIPELINE_FORMAT_VERSION = 1
MAX_PARAM_DEPTH = 32

_STAGE_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_STAGE_FIELDS = ("cmd", "builtin", "deps", "params", "outs", "metrics", "env")
_TOP_FIELDS = ("version", "stages")


# ---------------------------------------------------------------------------
# YAML loading


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that refuses duplicate mapping keys instead of keeping the last."""


def _strict_construct_mapping(loader: _StrictLoader, node: yaml.Node, deep: bool = False) -> dict:
    mapping: dict = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        try:
            present = key in mapping
        except TypeError:
            raise ConfigError(
                f"line {key_node.start_mark.line + 1}: unhashable mapping key {key!r}"
            ) from None
        if present:
            raise ConfigError(
                f"line {key_node.start_mark.line + 1}: duplicate key {key!r}"
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.construct_mapping = _strict_construct_mapping  # type: ignore[method-assign]
_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
    lambda loader, node: _strict_construct_mapping(loader, node),
)


def _load_yaml(text: str, filename: str) -> object:
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except ConfigError as exc:
        raise ConfigError(f"{filename}: {exc}") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        where = f"{filename}:{mark.line + 1}:{mark.column + 1}" if mark else filename
        raise ConfigError(f"{where}: {exc.problem or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{filename}: {exc}") from None


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class StageSpec:
    """One declared stage: exactly one of `cmd` (shell command) or `builtin` (registered id)."""

    name: str
    cmd: str | None = None
    builtin: str | None = None
    deps: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    outs: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ()
    env: tuple[str, ...] = ()  # extra environment variable names passed through to the stage


@dataclass(frozen=True)
class PipelineSpec:
    """The validated stage graph, in declaration order."""

    version: int
    stages: dict[str, StageSpec] = field(default_factory=dict)


def _norm_path(raw: object, stage: str, role: str) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise ConfigError(f"stage '{stage}': {role} entries must be non-empty strings, got {raw!r}")
    if raw.startswith("/"):
        raise ConfigError(f"stage '{stage}': {role} path '{raw}' must be repo-relative")
    norm = posixpath.normpath(raw)
    if norm == "." or norm == ".." or norm.startswith("../"):
        raise ConfigError(f"stage '{stage}': {role} path '{raw}' escapes the project directory")
    return norm


def _paths_overlap(a: str, b: str) -> bool:
    return a == b or a.startswith(b + "/") or b.startswith(a + "/")


def _str_list(raw: object, stage: str, role: str) -> tuple[str, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(f"stage '{stage}': '{role}' must be a list")
    out = []
    for item in raw:
        if not isinstance(item, str) or not item:
            raise ConfigError(f"stage '{stage}': '{role}' entries must be non-empty strings, got {item!r}")
        out.append(item)
    return tuple(out)


def parse_pipeline(text: str, filename: str = "pipeline.yaml") -> PipelineSpec:
    """Parse and validate the pipeline file.

    Rejects unknown fields, duplicate stage names, two producers for one
    output path, dep/out overlap within a stage, and metrics not listed in
    outs.
    """
    doc = _load_yaml(text, filename)
    if not isinstance(doc, dict):
        raise ConfigError(f"{filename}: top level must be a mapping with 'version' and 'stages'")
    for key in doc:
        if key not in _TOP_FIELDS:
            raise ConfigError(f"{filename}: unknown field '{key}'")
    if "version" not in doc:
        raise ConfigError(f"{filename}: missing required field 'version'")
    version = doc["version"]
    if not isinstance(version, int) or isinstance(version, bool) or version != PIPELINE_FORMAT_VERSION:
        raise ConfigError(
            f"{filename}: unsupported version {version!r} (expected {PIPELINE_FORMAT_VERSION})"
        )
    stages_doc = doc.get("stages")
    if not isinstance(stages_doc, dict) or not stages_doc:
        raise ConfigError(f"{filename}: 'stages' must be a non-empty mapping")

    stages: dict[str, StageSpec] = {}
    out_producer: dict[str, str] = {}
    for name, body in stages_doc.items():
        if not isinstance(name, str) or not _STAGE_NAME_RE.match(name or ""):
            raise ConfigError(f"{filename}: invalid stage name {name!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"stage '{name}': body must be a mapping")
        for key in body:
            if key not in _STAGE_FIELDS:
                raise ConfigError(f"stage '{name}': unknown field '{key}'")

        cmd = body.get("cmd")
        builtin = body.get("builtin")
        if (cmd is None) == (builtin is None):
            raise ConfigError(f"stage '{name}': exactly one of 'cmd' or 'builtin' is required")
        if cmd is not None and (not isinstance(cmd, str) or not cmd.strip()):
            raise ConfigError(f"stage '{name}': 'cmd' must be a non-empty string")
        if builtin is not None and (not isinstance(builtin, str) or not builtin.strip()):
            raise ConfigError(f"stage '{name}': 'builtin' must be a non-empty string")

        deps = tuple(_norm_path(p, name, "deps") for p in _str_list(body.get("deps"), name, "deps"))
        outs = tuple(_norm_path(p, name, "outs") for p in _str_list(body.get("outs"), name, "outs"))
        metrics = tuple(
            _norm_path(p, name, "metrics") for p in _str_list(body.get("metrics"), name, "metrics")
        )
        params = _str_list(body.get("params"), name, "params")
        env = _str_list(body.get("env"), name, "env")

        for coll, role in ((deps, "deps"), (outs, "outs")):
            if len(set(coll)) != len(coll):
                raise ConfigError(f"stage '{name}': duplicate {role} path")
        for dep in deps:
            for out in outs:
                if _paths_overlap(dep, out):
                    raise ConfigError(
                        f"stage '{name}': dep '{dep}' overlaps out '{out}' within one stage"
                    )
        for metric in metrics:
            if metric not in outs:
                raise ConfigError(f"stage '{name}': metric '{metric}' is not a declared out")
        for out in outs:
            if out in out_producer:
                raise ConfigError(
                    f"output '{out}' is declared by both '{out_producer[out]}' and '{name}'"
                )
            out_producer[out] = name

        stages[name] = StageSpec(
            name=name, cmd=cmd, builtin=builtin,
            deps=deps, params=params, outs=outs, metrics=metrics, env=env,
        )

    return PipelineSpec(version=version, stages=stages)


def pipeline_to_dict(spec: PipelineSpec) -> dict:
    """Plain-data form of a PipelineSpec, suitable for YAML emission."""
    stages: dict[str, dict] = {}
    for name, stage in spec.stages.items():
        body: dict = {}
        if stage.cmd is not None:
            body["cmd"] = stage.cmd
        else:
            body["builtin"] = stage.builtin
        for key, value in (
            ("deps", stage.deps), ("params", stage.params),
            ("outs", stage.outs), ("metrics", stage.metrics), ("env", stage.env),
        ):
            if value:
                body[key] = list(value)
        stages[name] = body
    return {"version": spec.version, "stages": stages}


def serialize_pipeline(spec: PipelineSpec) -> str:
    """Emit a YAML text that re-parses to an identical PipelineSpec."""
    return yaml.safe_dump(pipeline_to_dict(spec), sort_keys=False)


# ---------------------------------------------------------------------------
# Parameter tree


def _validate_tree(value: object, path: str, depth: int) -> None:
    if depth > MAX_PARAM_DEPTH:
        raise ConfigError(f"params: nesting deeper than {MAX_PARAM_DEPTH} at '{path}'")
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"params: non-finite number at '{path}'")
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _validate_tree(item, f"{path}[{i}]", depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigError(f"params: non-string key {key!r} at '{path or '<root>'}'")
            _validate_tree(item, f"{path}.{key}" if path else key, depth + 1)
        return
    raise ConfigError(
        f"params: unsupported value {value!r} at '{path}' "
        "(allowed: bool, int, finite float, str, list, mapping)"
    )


def parse_params(text: str, filename: str = "params.yaml") -> dict:
    """Parse the parameter file into a validated nested tree (empty doc -> empty tree)."""
    doc = _load_yaml(text, filename)
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{filename}: top level must be a mapping")
    _validate_tree(doc, "", 1)
    return doc


def select_params(tree: dict, keys: tuple[str, ...] | list[str], stage: str | None = None) -> dict:
    """Resolve dotted `keys` against `tree`, returning the {key: subtree} subset.

    A key naming a subtree captures the whole subtree, so any nested change
    alters the subset.
    """
    where = f"stage '{stage}': " if stage else ""
    subset: dict[str, object] = {}
    for key in keys:
        parts = key.split(".")
        if not all(parts):
            raise ConfigError(f"{where}invalid param key '{key}'")
        node: object = tree
        for part in parts:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"{where}param key '{key}' not found in params.yaml")
            node = node[part]
        subset[key] = copy.deepcopy(node)
    return subset


def canonicalize(subset: dict) -> bytes:
    """Canonical bytes of a param subset; a function of value only, never of key order."""
    return canonical_bytes(subset)
