"""Materialize cross-validation folds as explicit index lists.

Folds are written once and reused by every model, so comparisons always use
identical splits and reruns are exact. Strategies:

- ``kfold(k)``: seeded Fisher-Yates shuffle, then contiguous chunks; the
  first ``n mod k`` folds are one element larger.
- ``shuffle(test_fraction, repeats)``: an independent seeded permutation per
  repeat; test = first ceil(fraction * n) indices.
- ``groupkfold(k, group_column)``: whole groups assigned greedily (largest
  group first, ties by group key) to the currently smallest fold.

Each fold's ``train`` and ``test`` indices are held as ``array('q')``, not as
lists of Python ints. `write_fold_file` writes the fold file index list by
index list, in chunks, with the bytes `canonical.dump_canonical` gives the
document, so the whole encoding is never held at once. `load_fold_file`
decodes a fold file with ``json.load`` and turns every object value that is
a list of 64-bit ints into an ``array('q')``; any other list stays a list,
so `gridsearch.check_folds` can name its first bad index.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import compress
from pathlib import Path
from typing import Sequence, TextIO

from ..canonical import canonical_json
from ..errors import BuiltinError
from . import StageRequest, get, section
from .rng import Rng
from .tables import read_column, read_table

STRATEGIES = ("kfold", "shuffle", "groupkfold")


def _others(test: Sequence[int], n: int) -> array:
    """The indices in ``[0, n)`` that are not in `test`, ascending."""
    keep = bytearray(b"\x01") * n
    for idx in test:
        keep[idx] = 0
    return array("q", list(compress(range(n), keep)))  # from a list: one bulk copy


def kfold_folds(n: int, k: int, seed: int) -> list[dict]:
    if not 2 <= k <= n:
        raise BuiltinError(f"split: kfold needs 2 <= k <= n, got k={k}, n={n}")
    order = list(range(n))
    Rng(seed).shuffle(order)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = array("q", sorted(order[start:start + size]))
        start += size
        folds.append({"train": _others(test, n), "test": test})
    return folds


def shuffle_folds(n: int, test_fraction: float, repeats: int, seed: int) -> list[dict]:
    if not 0.0 < test_fraction < 1.0:
        raise BuiltinError(f"split: test_fraction must be in (0, 1), got {test_fraction}")
    if repeats < 1:
        raise BuiltinError(f"split: repeats must be >= 1, got {repeats}")
    test_size = math.ceil(test_fraction * n)
    if test_size >= n:
        raise BuiltinError(f"split: test size {test_size} leaves no training rows (n={n})")
    rng = Rng(seed)
    folds = []
    for _ in range(repeats):
        order = list(range(n))
        rng.shuffle(order)
        test = array("q", sorted(order[:test_size]))
        train = array("q", sorted(order[test_size:]))
        folds.append({"train": train, "test": test})
    return folds


def group_kfold_folds(groups: list[str], k: int) -> list[dict]:
    n = len(groups)
    if any(g == "" for g in groups):
        raise BuiltinError("split: empty group value in group column")
    members: dict[str, list[int]] = {}
    for idx, group in enumerate(groups):
        members.setdefault(group, []).append(idx)
    if not 2 <= k <= len(members):
        raise BuiltinError(
            f"split: groupkfold needs 2 <= k <= number of groups, got k={k}, groups={len(members)}"
        )
    # Largest groups first (ties by key), each into the currently smallest fold.
    ordered = sorted(members.items(), key=lambda item: (-len(item[1]), item[0]))
    buckets: list[list[int]] = [[] for _ in range(k)]
    for _, idxs in ordered:
        smallest = min(range(k), key=lambda i: (len(buckets[i]), i))
        buckets[smallest].extend(idxs)
    folds = []
    for bucket in buckets:
        test = array("q", sorted(bucket))
        folds.append({"train": _others(test, n), "test": test})
    return folds


def make_fold_file(n: int, cfg: dict, groups: list[str] | None, where: str = "split") -> dict:
    strategy = get(cfg, "strategy", "str", where)
    seed = get(cfg, "seed", "int", where, default=0)
    if strategy == "kfold":
        folds = kfold_folds(n, get(cfg, "k", "int", where), seed)
    elif strategy == "shuffle":
        folds = shuffle_folds(
            n,
            float(get(cfg, "test_fraction", "number", where)),
            get(cfg, "repeats", "int", where),
            seed,
        )
    elif strategy == "groupkfold":
        if groups is None:
            raise BuiltinError(f"{where}: groupkfold requires group values")
        folds = group_kfold_folds(groups, get(cfg, "k", "int", where))
    else:
        raise BuiltinError(f"{where}: unknown strategy '{strategy}' (allowed: {STRATEGIES})")
    return {"strategy": strategy, "seed": seed, "n_samples": n, "folds": folds}


# Indices rendered per write: each chunk's text is a few pages, whatever the list's length.
_CHUNK_INDICES = 2048


def _write_indices(handle: TextIO, idxs: Sequence[int]) -> None:
    for lo in range(0, len(idxs), _CHUNK_INDICES):
        handle.write(("," if lo else "") + canonical_json(idxs[lo:lo + _CHUNK_INDICES])[1:-1])


def write_fold_file(doc: dict, path: Path | str) -> None:
    """Write the fold document `doc` to `path` with the bytes of
    ``canonical.dump_canonical(doc, path)``, one index list at a time.

    `doc` is laid out as `make_fold_file` lays it out: the keys ``folds``,
    ``n_samples``, ``seed`` and ``strategy``, and each fold a mapping of
    ``train`` and ``test`` to a sequence of ints.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write('{"folds":[')
        for fold_idx, fold in enumerate(doc["folds"]):
            handle.write(',{"test":[' if fold_idx else '{"test":[')
            _write_indices(handle, fold["test"])
            handle.write('],"train":[')
            _write_indices(handle, fold["train"])
            handle.write("]}")
        tail = canonical_json({key: doc[key] for key in ("n_samples", "seed", "strategy")})
        handle.write("]," + tail[1:] + "\n")  # tail[1:] drops its "{"


def run(request: StageRequest) -> None:
    cfg = section(request, "split")
    where = f"stage '{request.stage}'"
    table_path = request.dep(0, "prepared CSV")
    table = read_table(table_path, request.table_memo)
    groups = None
    if get(cfg, "strategy", "str", where) == "groupkfold":
        column = get(cfg, "group_column", "str", where)
        groups = read_column(table_path, column)
    doc = make_fold_file(table.n_rows, cfg, groups, where)
    write_fold_file(doc, request.out(0, "fold file JSON"))


def _int_arrays(doc: dict) -> dict:
    """`doc` with each value that is a non-empty list of 64-bit ints as an
    ``array('q')``; any other value stays as it is."""
    for key, value in doc.items():
        if type(value) is list and value and all(type(item) is int for item in value):
            try:
                doc[key] = array("q", value)
            except OverflowError:  # an int beyond 64 bits: the list stays a list
                pass
    return doc


def load_fold_file(path: Path | str) -> dict:
    """The fold document at `path`, decoded by ``json.load`` with every
    object value that is a list of 64-bit ints as an ``array('q')``."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            doc = json.load(handle, object_hook=_int_arrays)
    except (OSError, ValueError, RecursionError) as exc:
        raise BuiltinError(f"unreadable fold file {path}: {exc}") from None
    if not isinstance(doc, dict) or "folds" not in doc or "n_samples" not in doc:
        raise BuiltinError(f"{path}: not a fold file")
    return doc
