"""Parsing and validation of the two experiment description files.

``pipeline.yaml`` declares the stage graph (commands or builtins, deps,
params, outs, metrics); ``params.yaml`` holds the free-form parameter tree
that stages select dotted subsets from. Parsing is deliberately strict:
unknown fields, duplicate names, non-finite numbers, and unresolvable keys
are hard errors because a silently misread config is worse than a refused
one.

A parse is two steps: `_load_yaml` turns text into a plain document, and
`validate_pipeline` or `validate_params` checks that document and builds
the spec or tree. PyYAML is imported by the first parse, not with this
module. The parse memo (`load_config`) keeps the loaded documents of both
files as JSON under `memo_key`, a digest of the files' bytes and of the code
that parses them; a hit skips only the YAML step, so every `ConfigError`
still comes from a fresh parse and a config load served by the memo never
imports PyYAML.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import posixpath
import re
import sys
from pathlib import Path
from typing import NamedTuple

from .canonical import canonical_bytes
from .errors import ConfigError

PIPELINE_FILE = "pipeline.yaml"
PARAMS_FILE = "params.yaml"
PIPELINE_FORMAT_VERSION = 1
MAX_PARAM_DEPTH = 32

_STAGE_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_STAGE_FIELDS = ("cmd", "builtin", "deps", "params", "outs", "metrics", "env")
_TOP_FIELDS = ("version", "stages")


# ---------------------------------------------------------------------------
# YAML loading. The loader class subclasses PyYAML's, so it is built, and
# PyYAML imported, on the first parse.


def _strict_construct_mapping(loader, node, deep: bool = False) -> dict:
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


@functools.cache
def _strict_loader() -> type:
    """PyYAML's pure-Python SafeLoader, refusing duplicate mapping keys
    instead of keeping the last."""
    import yaml

    class _StrictLoader(yaml.SafeLoader):
        construct_mapping = _strict_construct_mapping

    _StrictLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _strict_construct_mapping)
    return _StrictLoader


def _load_yaml(text: str, filename: str) -> object:
    import yaml

    try:
        return yaml.load(text, Loader=_strict_loader())
    except ConfigError as exc:
        raise ConfigError(f"{filename}: {exc}") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        where = f"{filename}:{mark.line + 1}:{mark.column + 1}" if mark else filename
        raise ConfigError(f"{where}: {exc.problem or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{filename}: {exc}") from None
    except RecursionError:
        # PyYAML composes and constructs nested nodes recursively
        raise ConfigError(f"{filename}: nesting too deep to parse") from None


# ---------------------------------------------------------------------------
# Domain types


class StageSpec(NamedTuple):
    """One declared stage: exactly one of `cmd` (shell command) or `builtin` (registered id)."""

    name: str
    cmd: str | None = None
    builtin: str | None = None
    deps: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    outs: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ()
    env: tuple[str, ...] = ()  # extra environment variable names passed through to the stage


class PipelineSpec(NamedTuple):
    """The validated stage graph, in declaration order."""

    version: int
    stages: dict[str, StageSpec]


def _norm_path(raw: object, stage: str, role: str) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise ConfigError(f"stage '{stage}': {role} entries must be non-empty strings, got {raw!r}")
    if raw.startswith("/"):
        raise ConfigError(f"stage '{stage}': {role} path '{raw}' must be repo-relative")
    norm = posixpath.normpath(raw)
    if norm == "." or norm == ".." or norm.startswith("../"):
        raise ConfigError(f"stage '{stage}': {role} path '{raw}' escapes the project directory")
    return norm


def paths_overlap(a: str, b: str) -> bool:
    """True when one path equals the other or lies under it."""
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


def parse_pipeline(text: str, filename: str = PIPELINE_FILE) -> PipelineSpec:
    """Parse and validate the pipeline file."""
    return validate_pipeline(_load_yaml(text, filename), filename)


def validate_pipeline(doc: object, filename: str = PIPELINE_FILE) -> PipelineSpec:
    """Validate a loaded pipeline document into the spec.

    Rejects unknown fields, duplicate stage names, two producers for one
    output path, dep/out overlap within a stage, and metrics not listed in
    outs.
    """
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
                if paths_overlap(dep, out):
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


def parse_params(text: str, filename: str = PARAMS_FILE) -> dict:
    """Parse the parameter file into a validated nested tree (empty doc -> empty tree)."""
    return validate_params(_load_yaml(text, filename), filename)


def validate_params(doc: object, filename: str = PARAMS_FILE) -> dict:
    """Validate a loaded parameter document into the tree (None -> empty tree)."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{filename}: top level must be a mapping")
    _validate_tree(doc, "", 1)
    return doc


# ---------------------------------------------------------------------------
# Parse memo


def _parser_sources() -> list[tuple[str, bytes]]:
    """(name, bytes) of the code a parse runs that an upgrade may change:
    this module, ``canonical.py``, and PyYAML's ``__init__.py``, which carries
    its version and is found without importing it."""
    from importlib.util import find_spec

    here = Path(__file__).parent
    sources = [(name, (here / name).read_bytes()) for name in ("configmodel.py", "canonical.py")]
    spec = find_spec("yaml")
    sources.append(("yaml", Path(spec.origin).read_bytes() if spec and spec.origin else b""))
    return sources


@functools.cache
def _parser_digest() -> str:
    """SHA-256 over Python major.minor and every `_parser_sources` entry."""
    digest = hashlib.sha256(f"python {sys.version_info.major}.{sys.version_info.minor}\0".encode())
    for name, data in _parser_sources():
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def memo_key(pipeline: bytes, params: bytes | None) -> str:
    """The parse-memo key of both files' bytes (`params` None: no params
    file), under this parser."""
    digest = hashlib.sha256(_parser_digest().encode())
    for data in (pipeline, params):
        digest.update(b"-\0" if data is None else f"{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _same_json(value: object, back: object) -> bool:
    """True when `back` equals `value` type for type, with mapping order kept
    and floats bit for bit (`-0.0` stays `-0.0`)."""
    if type(value) is not type(back):
        return False
    if isinstance(value, dict):
        return list(value) == list(back) and all(_same_json(value[k], back[k]) for k in value)
    if isinstance(value, list):
        return len(value) == len(back) and all(map(_same_json, value, back))
    if isinstance(value, float):
        return repr(value) == repr(back)
    return value == back


def _memo_entry(docs: list) -> bytes | None:
    """The memo entry of the two loaded documents: their JSON, in insertion
    order, with its SHA-256; None where JSON would not give them back type
    for type."""
    try:
        text = json.dumps(docs, allow_nan=False)
        if not _same_json(docs, json.loads(text)):
            return None
    except (TypeError, ValueError, RecursionError):
        return None
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f'{{"sha256": "{digest}", "docs": {text}}}\n'.encode()


def _memo_docs(entry: bytes) -> list | None:
    """The two documents of a memo entry, or None if it is corrupt,
    truncated or too deep to decode."""
    try:
        doc = json.loads(entry)
        docs = doc["docs"]
        digest = hashlib.sha256(json.dumps(docs, allow_nan=False).encode()).hexdigest()
        if doc["sha256"] == digest and isinstance(docs, list) and len(docs) == 2:
            return docs
    except (TypeError, ValueError, KeyError, RecursionError):
        pass
    return None


def _config_text(data: bytes, filename: str) -> str:
    """A config file's text, with the newline translation `Path.read_text` applies."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{filename}: not valid UTF-8 at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_config(
    pipeline: bytes, params: bytes | None, memo: bytes | None
) -> tuple[PipelineSpec, dict, bytes | None]:
    """The validated spec and params tree of both files' bytes (`params`
    None: no params file), and the memo entry to store.

    `memo` is the entry stored under `memo_key(pipeline, params)`, if any.
    When it decodes, its documents are validated as a fresh parse's would be,
    and there is no entry to store. Otherwise the YAML is parsed, and the
    entry is None only where JSON cannot hold the documents type for type.
    """
    docs = None if memo is None else _memo_docs(memo)
    if docs is not None:
        return validate_pipeline(docs[0]), validate_params(docs[1]), None
    pipeline_doc = _load_yaml(_config_text(pipeline, PIPELINE_FILE), PIPELINE_FILE)
    spec = validate_pipeline(pipeline_doc)
    params_doc = None if params is None else _load_yaml(_config_text(params, PARAMS_FILE), PARAMS_FILE)
    tree = validate_params(params_doc)
    return spec, tree, _memo_entry([pipeline_doc, params_doc])


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
