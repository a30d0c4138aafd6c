"""Materialize cross-validation folds as explicit index lists.

Folds are written once and reused by every model, so comparisons always use
identical splits and reruns are exact. Strategies:

- ``kfold(k)``: seeded Fisher-Yates shuffle, then contiguous chunks; the
  first ``n mod k`` folds are one element larger.
- ``shuffle(test_fraction, repeats)``: an independent seeded permutation per
  repeat; test = first ceil(fraction * n) indices.
- ``groupkfold(k, group_column)``: whole groups assigned greedily (largest
  group first, ties by group key) to the currently smallest fold.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..canonical import dump_canonical
from ..errors import BuiltinError
from . import StageRequest, get, section
from .rng import Rng
from .tables import read_column, read_table

STRATEGIES = ("kfold", "shuffle", "groupkfold")


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
        test = sorted(order[start:start + size])
        start += size
        test_set = set(test)
        folds.append({"train": [j for j in range(n) if j not in test_set], "test": test})
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
        test = sorted(order[:test_size])
        train = sorted(order[test_size:])
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
        test = sorted(bucket)
        test_set = set(test)
        folds.append({"train": [j for j in range(n) if j not in test_set], "test": test})
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
    out = request.out(0, "fold file JSON")
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_canonical(doc, out)


def load_fold_file(path: Path | str) -> dict:
    import json

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BuiltinError(f"unreadable fold file {path}: {exc}") from None
    if not isinstance(doc, dict) or "folds" not in doc or "n_samples" not in doc:
        raise BuiltinError(f"{path}: not a fold file")
    return doc
