"""Content hashing, the content-addressed object store, stage fingerprints,
and the lock file recording committed stage executions.

Objects live at ``<cache>/sha256/<2 hex>/<62 hex>`` so every object is
self-verifying: its content hashes to its own address. The run cache keeps
every committed execution at ``<cache>/runcache/<fingerprint>.json``, so a
return to an earlier input restores instead of re-executing. All file writes
are atomic (write to a temp path on the same filesystem, then rename), so a
crash never leaves a partially written object, run-cache entry or lock file.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Mapping, Sequence

from .canonical import canonical_bytes
from .configmodel import StageSpec
from .errors import StoreError

HASH_ALGORITHM = "sha256"
_CHUNK = 1 << 20
_MANIFEST_SEP = "\t"
_RUNCACHE_DIR = "runcache"


@dataclass(frozen=True)
class ContentHash:
    hex: str
    algorithm: str = HASH_ALGORITHM

    def __str__(self) -> str:
        return self.hex


def hash_bytes(data: bytes) -> ContentHash:
    return ContentHash(hashlib.sha256(data).hexdigest())


def hash_file(path: Path | str) -> ContentHash:
    """Streamed SHA-256 of a regular file; symlinks are rejected."""
    path = Path(path)
    if path.is_symlink():
        raise StoreError(f"symlink not allowed: {path}")
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(_CHUNK):
                digest.update(chunk)
    except FileNotFoundError:
        raise StoreError(f"missing file: {path}") from None
    except PermissionError:
        raise StoreError(f"permission denied: {path}") from None
    return ContentHash(digest.hexdigest())


def tree_manifest(path: Path | str) -> bytes:
    """Canonical directory manifest: sorted ``<relpath>\\t<hex>`` lines, newline-joined.

    Empty directories contribute nothing; symlinks anywhere in the tree are
    rejected.
    """
    root = Path(path)
    if not root.is_dir():
        raise StoreError(f"not a directory: {root}")
    entries: list[tuple[str, str]] = []
    for current, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for sub in list(dirnames):
            if (Path(current) / sub).is_symlink():
                raise StoreError(f"symlink not allowed: {Path(current) / sub}")
        for filename in sorted(filenames):
            file_path = Path(current) / filename
            rel = file_path.relative_to(root).as_posix()
            if _MANIFEST_SEP in rel or "\n" in rel:
                raise StoreError(f"unsupported character in file name: {rel!r}")
            entries.append((rel, hash_file(file_path).hex))
    entries.sort()
    return "\n".join(f"{rel}{_MANIFEST_SEP}{hexd}" for rel, hexd in entries).encode("utf-8")


def parse_manifest(data: bytes) -> list[tuple[str, str]]:
    if not data:
        return []
    entries = []
    for line in data.decode("utf-8").split("\n"):
        rel, _, hexd = line.partition(_MANIFEST_SEP)
        if not rel or len(hexd) != 64:
            raise StoreError("corrupt tree manifest")
        entries.append((rel, hexd))
    return entries


def hash_path(path: Path | str) -> tuple[ContentHash, bool, int]:
    """Hash a file or directory. Returns (hash, is_tree, size_bytes)."""
    path = Path(path)
    if path.is_symlink():
        raise StoreError(f"symlink not allowed: {path}")
    if path.is_dir():
        manifest = tree_manifest(path)
        size = sum((Path(path) / rel).stat().st_size for rel, _ in parse_manifest(manifest))
        return hash_bytes(manifest), True, size
    return hash_file(path), False, path.stat().st_size


# ---------------------------------------------------------------------------
# Object store


class ObjectStore:
    """Content-addressed object store rooted at a cache directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _addr(self, hexd: str) -> Path:
        return self.root / HASH_ALGORITHM / hexd[:2] / hexd[2:]

    def has(self, ch: ContentHash | str) -> bool:
        return self._addr(str(ch)).is_file()

    def _tmp_path(self, prefix: str = "obj") -> Path:
        tmp_dir = self.root / "tmp"
        tmp_dir.mkdir(parents=True, exist_ok=True)
        return tmp_dir / f"{prefix}-{os.getpid()}-{os.urandom(8).hex()}"

    def _install(self, tmp: Path, hexd: str) -> None:
        target = self._addr(hexd)
        if target.exists():
            tmp.unlink()
            return
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, target)

    def put_bytes(self, data: bytes) -> ContentHash:
        ch = hash_bytes(data)
        if not self.has(ch):
            tmp = self._tmp_path()
            tmp.write_bytes(data)
            self._install(tmp, ch.hex)
        return ch

    def put_file(self, path: Path | str) -> ContentHash:
        path = Path(path)
        if path.is_symlink():
            raise StoreError(f"symlink not allowed: {path}")
        digest = hashlib.sha256()
        tmp = self._tmp_path()
        try:
            with open(path, "rb") as src, open(tmp, "wb") as dst:
                while chunk := src.read(_CHUNK):
                    digest.update(chunk)
                    dst.write(chunk)
        except FileNotFoundError:
            tmp.unlink(missing_ok=True)
            raise StoreError(f"missing file: {path}") from None
        ch = ContentHash(digest.hexdigest())
        self._install(tmp, ch.hex)
        return ch

    def read_bytes(self, ch: ContentHash | str) -> bytes:
        addr = self._addr(str(ch))
        try:
            return addr.read_bytes()
        except FileNotFoundError:
            raise StoreError(f"object missing from store: {ch}") from None

    def materialize(self, ch: ContentHash | str, dest: Path | str) -> None:
        """Copy an object out to `dest` atomically (copy semantics, never links)."""
        addr = self._addr(str(ch))
        if not addr.is_file():
            raise StoreError(f"object missing from store: {ch}")
        dest = Path(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = dest.parent / f".locpipe-restore-{os.getpid()}-{os.urandom(4).hex()}"
        try:
            shutil.copyfile(addr, tmp)
            os.replace(tmp, dest)
        finally:
            tmp.unlink(missing_ok=True)

    def same_bytes(self, ch: ContentHash | str, path: Path | str) -> bool:
        """True when `path` is a regular file holding exactly the bytes of object `ch`."""
        path = Path(path)
        try:
            if path.is_symlink() or not path.is_file():
                return False
            with open(self._addr(str(ch)), "rb") as obj, open(path, "rb") as handle:
                if os.fstat(obj.fileno()).st_size != os.fstat(handle.fileno()).st_size:
                    return False
                while chunk := obj.read(_CHUNK):
                    if handle.read(len(chunk)) != chunk:
                        return False
            return True
        except OSError:
            return False

    def iter_hexes(self) -> Iterator[str]:
        base = self.root / HASH_ALGORITHM
        if not base.is_dir():
            return
        for prefix in sorted(p for p in base.iterdir() if p.is_dir()):
            for obj in sorted(prefix.iterdir()):
                yield prefix.name + obj.name

    def remove(self, hexd: str) -> None:
        self._addr(hexd).unlink(missing_ok=True)

    def verify(self) -> list[str]:
        """Re-hash every stored object; returns addresses whose content mismatches."""
        bad = []
        for hexd in self.iter_hexes():
            if hash_file(self._addr(hexd)).hex != hexd:
                bad.append(hexd)
        return bad


# ---------------------------------------------------------------------------
# Fingerprints


def stage_kind(stage: StageSpec, builtin_version: int | None = None) -> dict:
    """What a stage runs, as fingerprinted and recorded in its lock entry:
    the command string, or the builtin id and version."""
    if stage.builtin is None:
        return {"cmd": stage.cmd}
    if builtin_version is None:
        raise StoreError(f"stage '{stage.name}': builtin version required for fingerprint")
    return {"builtin": stage.builtin, "builtin_version": builtin_version}


def stage_fingerprint(
    stage: StageSpec,
    dep_hashes: Mapping[str, ContentHash | str],
    params_canonical: bytes,
    builtin_version: int | None = None,
) -> ContentHash:
    """Content-derived identity of one stage execution.

    Covers the stage kind (command string, or builtin id + version), the
    sorted dep path -> hash pairs, the canonical param subset, and the sorted
    out path list. Independent of dep declaration order by construction.
    """
    declared = set(stage.deps)
    provided = set(dep_hashes)
    if declared != provided:
        missing = sorted(declared - provided) + sorted(provided - declared)
        raise StoreError(f"stage '{stage.name}': dep hash set mismatch: {missing}")
    return _fingerprint(
        stage_kind(stage, builtin_version), dep_hashes, params_canonical.decode("utf-8"), stage.outs
    )


def _fingerprint(
    kind: dict, deps: Mapping[str, ContentHash | str], params: str, outs: Iterable[str]
) -> ContentHash:
    """The one payload every fingerprint hashes, whether of a stage about to
    run or of a recorded execution."""
    payload = {
        "deps": {path: str(deps[path]) for path in sorted(deps)},
        "kind": kind,
        "outs": sorted(outs),
        "params": params,
    }
    return hash_bytes(canonical_bytes(payload))


# ---------------------------------------------------------------------------
# Lock file


@dataclass(frozen=True)
class OutRecord:
    hash: str
    size: int
    tree: bool = False


@dataclass(frozen=True)
class LockEntry:
    fingerprint: str
    kind: dict
    deps: dict[str, str]          # dep path -> content hash
    params: str                   # canonical param subset text
    outs: dict[str, OutRecord]    # out path -> committed object
    committed_at: str

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "deps": dict(sorted(self.deps.items())),
            "params": self.params,
            "outs": {
                path: {"hash": rec.hash, "size": rec.size, "tree": rec.tree}
                for path, rec in sorted(self.outs.items())
            },
            "committed_at": self.committed_at,
        }

    @staticmethod
    def from_json(doc: dict) -> "LockEntry":
        try:
            outs = {
                path: OutRecord(hash=rec["hash"], size=rec["size"], tree=rec.get("tree", False))
                for path, rec in doc["outs"].items()
            }
            return LockEntry(
                fingerprint=doc["fingerprint"],
                kind=doc["kind"],
                deps=dict(doc["deps"]),
                params=doc["params"],
                outs=outs,
                committed_at=doc["committed_at"],
            )
        except (KeyError, TypeError, AttributeError):
            raise StoreError("corrupt lock file entry") from None


LockFile = dict[str, LockEntry]


def load_lock(path: Path | str) -> LockFile:
    path = Path(path)
    if not path.exists():
        return {}
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt lock file {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), dict):
        raise StoreError(f"corrupt lock file {path}: missing 'stages'")
    return {name: LockEntry.from_json(entry) for name, entry in doc["stages"].items()}


def write_lock(lock: LockFile, path: Path | str) -> None:
    """Atomically write the lock file (canonical encoding, temp file + rename)."""
    path = Path(path)
    doc = {"version": 1, "stages": {name: entry.to_json() for name, entry in sorted(lock.items())}}
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
    tmp.write_bytes(canonical_bytes(doc) + b"\n")
    os.replace(tmp, path)


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def missing_outs(store: ObjectStore, entry: LockEntry) -> list[str]:
    """Sorted outs of `entry` whose object, or one of whose tree members, is
    gone from the store."""
    missing = []
    for out, rec in sorted(entry.outs.items()):
        if not store.has(rec.hash) or (
            rec.tree
            and not all(store.has(member) for _, member in parse_manifest(store.read_bytes(rec.hash)))
        ):
            missing.append(out)
    return missing


def _derived_fingerprint(entry: LockEntry) -> str:
    """The fingerprint an entry's own recorded fields give."""
    return _fingerprint(entry.kind, entry.deps, entry.params, entry.outs).hex


def _run_path(store: ObjectStore, fingerprint: str) -> Path:
    return store.root / _RUNCACHE_DIR / f"{fingerprint}.json"


def _recorded_run(store: ObjectStore, fingerprint: str) -> LockEntry | None:
    """The run-cache entry for `fingerprint`, or None if it is absent or
    unreadable, or if its own fingerprint, or the one its recorded fields
    re-derive, differs, as after an edit."""
    try:
        entry = LockEntry.from_json(json.loads(_run_path(store, fingerprint).read_bytes()))
        if entry.fingerprint == _derived_fingerprint(entry) == fingerprint:
            return entry
    except (FileNotFoundError, ValueError, TypeError, StoreError):
        pass  # malformed entries are misses; gc deletes them
    return None


def record_run(store: ObjectStore, entry: LockEntry) -> None:
    """Keep a committed execution in the run cache, keyed by its fingerprint."""
    path = _run_path(store, entry.fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store._tmp_path("run")
    tmp.write_bytes(canonical_bytes(entry.to_json()) + b"\n")
    os.replace(tmp, path)


def cache_lookup(lock: LockFile, store: ObjectStore, stage: str, fingerprint: ContentHash) -> LockEntry | None:
    """The committed execution with this fingerprint, or None.

    The stage's lock entry is asked first; if it records another execution,
    the run cache is. A run-cache entry counts only if its own recorded
    fields re-derive the fingerprint, so an edited entry is never served.
    Either way it is a hit only while every committed object (including
    tree members) is still present in the store.
    """
    entry = lock.get(stage)
    if entry is None or entry.fingerprint != fingerprint.hex:
        if entry is not None and _derived_fingerprint(entry) == fingerprint.hex:
            # the lock entry records this execution under a wrong fingerprint:
            # a miss, so the stage runs again and repairs the lock
            return None
        entry = _recorded_run(store, fingerprint.hex)
        if entry is None:
            return None
    return None if missing_outs(store, entry) else entry


def commit_outputs(
    store: ObjectStore,
    stage: StageSpec,
    fingerprint: ContentHash,
    kind: dict,
    dep_hashes: Mapping[str, ContentHash | str],
    params_canonical: bytes,
    root: Path | str,
) -> LockEntry:
    """Ingest every declared out into the store and build the lock entry.

    Directory outs are ingested file-wise plus a manifest object.
    """
    root = Path(root)
    outs: dict[str, OutRecord] = {}
    for out in stage.outs:
        path = root / out
        if path.is_symlink():
            raise StoreError(f"stage '{stage.name}': symlink not allowed: {out}")
        if path.is_dir():
            manifest = tree_manifest(path)
            size = 0
            for rel, _ in parse_manifest(manifest):
                member = path / rel
                store.put_file(member)
                size += member.stat().st_size
            ch = store.put_bytes(manifest)
            outs[out] = OutRecord(hash=ch.hex, size=size, tree=True)
        elif path.is_file():
            ch = store.put_file(path)
            outs[out] = OutRecord(hash=ch.hex, size=path.stat().st_size, tree=False)
        else:
            raise StoreError(f"stage '{stage.name}' declared out '{out}' but did not produce it")
    return LockEntry(
        fingerprint=fingerprint.hex,
        kind=kind,
        deps={path: str(ch) for path, ch in dep_hashes.items()},
        params=params_canonical.decode("utf-8"),
        outs=outs,
        committed_at=_utc_now(),
    )


def _tree_in_place(store: ObjectStore, members: list[tuple[str, str]], dest: Path) -> bool:
    """True when directory `dest` holds exactly `members` and no other file or
    directory, each member with its object's bytes."""
    if dest.is_symlink() or not dest.is_dir():
        return False
    expected = {rel for rel, _ in members}
    expected |= {str(parent) for rel in expected for parent in PurePosixPath(rel).parents}
    expected.discard(".")
    found = set()
    for current, dirnames, filenames in os.walk(dest):
        base = Path(current).relative_to(dest)
        found.update((base / name).as_posix() for name in (*dirnames, *filenames))
    return found == expected and all(store.same_bytes(hexd, dest / rel) for rel, hexd in members)


def restore_outputs(store: ObjectStore, entry: LockEntry, root: Path | str) -> None:
    """Materialize every out of a committed entry into the workspace (copy semantics).

    An out whose workspace copy already holds exactly its objects' bytes is
    left alone: restoring it would rewrite the same bytes.
    """
    root = Path(root)
    for out, rec in sorted(entry.outs.items()):
        dest = root / out
        if rec.tree:
            members = parse_manifest(store.read_bytes(rec.hash))
            if _tree_in_place(store, members, dest):
                continue
            if dest.is_symlink() or (dest.exists() and not dest.is_dir()):
                dest.unlink()
            elif dest.is_dir():
                shutil.rmtree(dest)
            dest.mkdir(parents=True, exist_ok=True)
            for rel, member in members:
                store.materialize(member, dest / rel)
        elif not store.same_bytes(rec.hash, dest):
            if dest.is_dir() and not dest.is_symlink():
                shutil.rmtree(dest)
            store.materialize(rec.hash, dest)


def referenced_hexes(lock: LockFile, store: ObjectStore) -> set[str]:
    refs: set[str] = set()
    for entry in lock.values():
        for rec in entry.outs.values():
            refs.add(rec.hash)
            if rec.tree and store.has(rec.hash):
                refs.update(member for _, member in parse_manifest(store.read_bytes(rec.hash)))
    return refs


def gc(lock: LockFile, store: ObjectStore) -> int:
    """Remove store objects referenced by no current lock entry; returns removed count.

    Then drop each run-cache entry that cannot be read or names an object no
    longer in the store, and the temp files a crashed write left in the
    store. Call it holding the project lock, so no write is in flight.
    """
    refs = referenced_hexes(lock, store)
    removed = 0
    failures = []
    for hexd in list(store.iter_hexes()):
        if hexd in refs:
            continue
        try:
            store.remove(hexd)
            removed += 1
        except OSError as exc:  # pragma: no cover - exotic fs failures
            failures.append(f"{hexd}: {exc}")
    if failures:
        raise StoreError(f"gc removed {removed} object(s) but failed on: " + "; ".join(failures))
    for path in (store.root / _RUNCACHE_DIR).glob("*.json"):
        entry = _recorded_run(store, path.stem)
        if entry is None or missing_outs(store, entry):
            path.unlink()
    for tmp in (store.root / "tmp").glob("*"):
        tmp.unlink()
    return removed
