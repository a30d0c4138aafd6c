"""Content hashing, the content-addressed object store, stage fingerprints,
and the lock file recording committed stage executions.

Every digest is a lowercase hex SHA-256 string. Objects live at
``<cache>/sha256/<2 hex>/<62 hex>`` so every object is self-verifying: its
content hashes to its own address. A directory hashes to its tree manifest,
built from one walk (`_tree_files`) and read back only by
`ObjectStore.members`. The run cache keeps every committed execution at
``<cache>/runcache/<fingerprint>.json``, so a return to an earlier input
restores instead of re-executing. The config parse memo keeps the loaded
documents of the two config files at ``<cache>/config/<key>.json`` (see
`configmodel.memo_key`). Every file locpipe writes but a stage's outs goes
through `write_atomic`, the one temp-and-rename writer: cache files through
``<cache>/tmp``, the lock, manifests, restores and ``params.yaml`` through a
temp file beside them. `gc` sweeps both. Every file is read through
`_open_regular`, which refuses a symlink or a FIFO without blocking on it.

The records here are named tuples, not dataclasses, so the orchestrator's
imports stay small; `LockEntry.to_json` spells out the encoded fields.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import stat
from datetime import datetime, timezone
from pathlib import Path, PurePosixPath
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple

from .canonical import canonical_bytes
from .configmodel import StageSpec, paths_overlap
from .errors import StoreError
from .loctk import builtin_version, table_memo_dir

HASH_ALGORITHM = "sha256"
_CHUNK = 1 << 20
_MANIFEST_SEP = "\t"
_RUNCACHE_DIR = "runcache"
_CONFIG_DIR = "config"
_TMP_DIR = "tmp"
TMP_PREFIX = ".locpipe-tmp-"


def write_atomic(
    dest: Path | Callable[[], Path], data: bytes | Iterable[bytes], tmp_dir: Path | None = None
) -> None:
    """Write `data` (bytes, or bytes-like chunks) to a temp file
    ``.locpipe-tmp-<pid>-<hex>`` in `tmp_dir` (default: beside `dest`, and
    always on its filesystem), then rename it onto `dest`. A `dest` function
    is called after the write, for a content address. A failed write removes
    its temp file; a killed one leaves it for `gc` to sweep.
    """
    tmp = Path(tmp_dir or dest.parent) / f"{TMP_PREFIX}{os.getpid()}-{os.urandom(8).hex()}"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as handle:
            handle.writelines([data] if isinstance(data, bytes) else data)
        target = dest() if callable(dest) else dest
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_regular(path: Path) -> BinaryIO:
    """`path` opened for reading if it is a regular file. A symlink is not
    followed, and a FIFO, socket, device or directory is refused unread."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except FileNotFoundError:
        raise StoreError(f"missing file: {path}") from None
    except PermissionError:
        raise StoreError(f"permission denied: {path}") from None
    except OSError as exc:
        if exc.errno not in (errno.ELOOP, errno.ENXIO):  # ENXIO: a socket
            raise
        refusal = "symlink not allowed" if exc.errno == errno.ELOOP else "not a regular file"
        raise StoreError(f"{refusal}: {path}") from None
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise StoreError(f"not a regular file: {path}")
    return open(fd, "rb")


def _chunks(handle: BinaryIO, digest=None) -> Iterator[bytes]:
    """The blocks of an open file, each fed to `digest` if one is given."""
    while chunk := handle.read(_CHUNK):
        if digest is not None:
            digest.update(chunk)
        yield chunk


def hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_file(path: Path | str) -> str:
    """Streamed SHA-256 of a regular file; anything else is refused."""
    digest = hashlib.sha256()
    with _open_regular(Path(path)) as handle:
        for chunk in _chunks(handle):
            digest.update(chunk)
    return digest.hexdigest()


def _tree_files(root: Path) -> list[tuple[str, Path]]:
    """Every file under directory `root` as sorted (relpath, path) pairs.

    Empty directories contribute nothing. A symlinked directory is rejected
    here; a symlink or FIFO among the files, by `hash_file` or `put_file`
    when it is read.
    """
    files: list[tuple[str, Path]] = []
    for current, dirnames, filenames in os.walk(root):
        base = Path(current).relative_to(root)
        for name in dirnames:
            if (Path(current) / name).is_symlink():
                raise StoreError(f"symlink not allowed: {Path(current) / name}")
        for name in filenames:
            rel = (base / name).as_posix()
            if _MANIFEST_SEP in rel or "\n" in rel:
                raise StoreError(f"unsupported character in file name: {rel!r}")
            files.append((rel, Path(current) / name))
    return sorted(files)


def _manifest(members: Iterable[tuple[str, str]]) -> bytes:
    """Canonical tree manifest: sorted ``<relpath>\\t<hex>`` lines, newline-joined."""
    return "\n".join(f"{rel}{_MANIFEST_SEP}{hexd}" for rel, hexd in sorted(members)).encode("utf-8")


def hash_path(path: Path | str) -> tuple[str, bool, int]:
    """Hash a file or directory. Returns (hash, is_tree, size_bytes)."""
    path = Path(path)
    if path.is_symlink():
        raise StoreError(f"symlink not allowed: {path}")
    if path.is_dir():
        files = _tree_files(path)
        manifest = _manifest((rel, hash_file(member)) for rel, member in files)
        return hash_bytes(manifest), True, sum(member.stat().st_size for _, member in files)
    return hash_file(path), False, path.stat().st_size


# ---------------------------------------------------------------------------
# Object store


class ObjectStore:
    """Content-addressed object store rooted at a cache directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _addr(self, hexd: str) -> Path:
        return self.root / HASH_ALGORITHM / hexd[:2] / hexd[2:]

    def has(self, hexd: str) -> bool:
        return self._addr(hexd).is_file()

    def write(self, dest: Path | Callable[[], Path], data: bytes | Iterable[bytes]) -> None:
        """`write_atomic` for a file of this cache, through its ``tmp`` directory."""
        write_atomic(dest, data, self.root / _TMP_DIR)

    def put_bytes(self, data: bytes) -> str:
        hexd = hash_bytes(data)
        if not self.has(hexd):
            self.write(self._addr(hexd), data)
        return hexd

    def put_file(self, path: Path | str) -> str:
        """Store a regular file's bytes, read once; returns their hash."""
        digest = hashlib.sha256()
        with _open_regular(Path(path)) as handle:
            self.write(lambda: self._addr(digest.hexdigest()), _chunks(handle, digest))
        return digest.hexdigest()

    def read_bytes(self, hexd: str) -> bytes:
        try:
            return self._addr(hexd).read_bytes()
        except FileNotFoundError:
            raise StoreError(f"object missing from store: {hexd}") from None

    def members(self, hexd: str) -> list[tuple[str, str]]:
        """The sorted (relpath, hex) members of the tree manifest object `hexd`."""
        data = self.read_bytes(hexd)
        if not data:
            return []
        members = []
        for line in data.decode("utf-8").split("\n"):
            rel, _, member = line.partition(_MANIFEST_SEP)
            if not rel or len(member) != 64:
                raise StoreError("corrupt tree manifest")
            members.append((rel, member))
        return members

    def materialize(self, hexd: str, dest: Path | str) -> None:
        """Copy an object out to `dest` atomically (copy semantics, never links)."""
        try:
            handle = open(self._addr(hexd), "rb")
        except FileNotFoundError:
            raise StoreError(f"object missing from store: {hexd}") from None
        with handle:
            write_atomic(Path(dest), _chunks(handle))

    def same_bytes(self, hexd: str, path: Path | str) -> bool:
        """True when `path` is a regular file holding exactly the bytes of object `hexd`."""
        path = Path(path)
        try:
            if path.is_symlink() or not path.is_file():
                return False
            with open(self._addr(hexd), "rb") as obj, open(path, "rb") as handle:
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

    def intact(self, hexd: str) -> bool:
        """True when object `hexd` is stored and its bytes hash to `hexd`."""
        addr = self._addr(hexd)
        return addr.is_file() and hash_file(addr) == hexd

    def verify(self) -> list[str]:
        """Re-hash every stored object; returns addresses whose content mismatches."""
        return [hexd for hexd in self.iter_hexes() if not self.intact(hexd)]


# ---------------------------------------------------------------------------
# Fingerprints


def stage_kind(stage: StageSpec) -> dict:
    """What a stage runs, as fingerprinted and recorded in its lock entry:
    the command string, or the builtin id and the digest of builtin code."""
    if stage.builtin is None:
        return {"cmd": stage.cmd}
    return {"builtin": stage.builtin, "code": builtin_version(stage.builtin)}


def stage_fingerprint(
    stage: StageSpec, dep_hashes: Mapping[str, str], params_canonical: bytes
) -> str:
    """Content-derived identity of one stage execution.

    Covers the stage kind (command string, or builtin id + code digest), the
    sorted dep path -> hash pairs, the canonical param subset, and the sorted
    out path list. Independent of dep declaration order by construction.
    """
    declared = set(stage.deps)
    provided = set(dep_hashes)
    if declared != provided:
        missing = sorted(declared - provided) + sorted(provided - declared)
        raise StoreError(f"stage '{stage.name}': dep hash set mismatch: {missing}")
    return _fingerprint(
        stage_kind(stage), dep_hashes, params_canonical.decode("utf-8"), stage.outs
    )


def _fingerprint(
    kind: dict, deps: Mapping[str, str], params: str, outs: Iterable[str]
) -> str:
    """The one payload every fingerprint hashes, whether of a stage about to
    run or of a recorded execution."""
    payload = {
        "deps": {path: deps[path] for path in sorted(deps)},
        "kind": kind,
        "outs": sorted(outs),
        "params": params,
    }
    return hash_bytes(canonical_bytes(payload))


# ---------------------------------------------------------------------------
# Lock file


class OutRecord(NamedTuple):
    hash: str
    size: int
    tree: bool = False


class LockEntry(NamedTuple):
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
            "deps": self.deps,
            "params": self.params,
            "outs": {
                path: {"hash": rec.hash, "size": rec.size, "tree": rec.tree}
                for path, rec in self.outs.items()
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise StoreError(f"corrupt lock file {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), dict):
        raise StoreError(f"corrupt lock file {path}: missing 'stages'")
    return {name: LockEntry.from_json(entry) for name, entry in doc["stages"].items()}


def write_lock(lock: LockFile, path: Path | str) -> None:
    """Atomically write the lock file in its canonical encoding."""
    doc = {"version": 1, "stages": {name: entry.to_json() for name, entry in sorted(lock.items())}}
    write_atomic(Path(path), canonical_bytes(doc) + b"\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def missing_outs(store: ObjectStore, entry: LockEntry) -> list[str]:
    """Sorted outs of `entry` whose object, or one of whose tree members, is
    gone from the store."""
    missing = []
    for out, rec in sorted(entry.outs.items()):
        if not store.has(rec.hash) or (
            rec.tree
            and not all(store.has(member) for _, member in store.members(rec.hash))
        ):
            missing.append(out)
    return missing


def _derived_fingerprint(entry: LockEntry) -> str | None:
    """The fingerprint an entry's own recorded fields give; None if they
    cannot be encoded."""
    try:
        return _fingerprint(entry.kind, entry.deps, entry.params, entry.outs)
    except (TypeError, ValueError, RecursionError):
        return None


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
    except (FileNotFoundError, ValueError, TypeError, RecursionError, StoreError):
        pass  # malformed entries are misses; gc deletes them
    return None


def record_run(store: ObjectStore, entry: LockEntry) -> None:
    """Keep a committed execution in the run cache, keyed by its fingerprint."""
    store.write(_run_path(store, entry.fingerprint), canonical_bytes(entry.to_json()) + b"\n")


def cache_lookup(lock: LockFile, store: ObjectStore, stage: str, fingerprint: str) -> LockEntry | None:
    """The committed execution with this fingerprint, or None.

    The stage's lock entry is asked first; if it records another execution,
    the run cache is. Either entry counts only if its own recorded fields
    re-derive the fingerprint, so an edited entry is never served: a lock
    entry that names this fingerprint or re-derives it, but not both, is a
    miss, so the stage runs again and repairs the lock. Either way it is a
    hit only while every committed object (including tree members) is still
    present in the store.
    """
    entry = lock.get(stage)
    derived = None if entry is None else _derived_fingerprint(entry)
    if entry is not None and fingerprint in (entry.fingerprint, derived):
        if entry.fingerprint != derived:
            return None
    else:
        entry = _recorded_run(store, fingerprint)
        if entry is None:
            return None
    return None if missing_outs(store, entry) else entry


def config_memo_path(store: ObjectStore, key: str) -> Path:
    """Where the config parse-memo entry under `key` is kept."""
    return store.root / _CONFIG_DIR / f"{key}.json"


def write_table_memo(entry: Path, data: Iterable[bytes]) -> None:
    """Write a table-memo entry, ``<cache>/tables/<code digest>/<CSV digest>``
    (see `loctk.table_memo_dir`), through ``<cache>/tmp``."""
    ObjectStore(entry.parents[2]).write(entry, data)


def commit_outputs(
    store: ObjectStore,
    stage: StageSpec,
    fingerprint: str,
    kind: dict,
    dep_hashes: Mapping[str, str],
    params_canonical: bytes,
    root: Path | str,
) -> LockEntry:
    """Ingest every declared out into the store and build the lock entry, or
    raise a StoreError naming the first out that is missing or refused.

    Directory outs are ingested file-wise plus a manifest object built from
    the digests the ingest returns, so each member is read once.
    """
    root = Path(root)
    outs: dict[str, OutRecord] = {}
    for out in stage.outs:
        path = root / out
        if not os.path.lexists(path):
            raise StoreError(f"declared out not produced: {out}")
        try:
            if path.is_symlink():
                raise StoreError("symlink not allowed")
            if path.is_dir():
                files = _tree_files(path)
                manifest = _manifest((rel, store.put_file(member)) for rel, member in files)
                size = sum(member.stat().st_size for _, member in files)
                outs[out] = OutRecord(hash=store.put_bytes(manifest), size=size, tree=True)
            else:
                outs[out] = OutRecord(hash=store.put_file(path), size=path.stat().st_size, tree=False)
        except StoreError as exc:
            raise StoreError(f"declared out {out} refused: {exc}") from None
    return LockEntry(
        fingerprint=fingerprint,
        kind=kind,
        deps=dict(dep_hashes),
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
            members = store.members(rec.hash)
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


def restored_hash(store: ObjectStore, outs: Mapping[str, OutRecord], root: Path | str, path: str) -> str | None:
    """The hash that workspace `path`, which equals, lies under or holds an
    out in `outs`, will have once `restore_outputs` has put those outs in
    place under `root`; None if it will then be missing.

    A directory that holds outs hashes to the manifest of its own files
    outside them plus the outs' recorded members.
    """
    if path in outs:
        return outs[path].hash
    restored: dict[str, str] = {}  # workspace path -> hash of every file the outs restore
    for out, rec in outs.items():
        if rec.tree:
            restored.update((f"{out}/{rel}", hexd) for rel, hexd in store.members(rec.hash))
        else:
            restored[out] = rec.hash
    if path in restored:
        return restored[path]
    prefix = path + "/"
    members = [(file[len(prefix):], hexd) for file, hexd in restored.items() if file.startswith(prefix)]
    holds_outs = any(out.startswith(prefix) for out in outs)
    if holds_outs and (Path(root) / path).is_dir():
        members += [
            (rel, hash_file(file)) for rel, file in _tree_files(Path(root) / path)
            if not any(paths_overlap(prefix + rel, out) for out in outs)
        ]
    return hash_bytes(_manifest(members)) if members or holds_outs else None


def referenced_hexes(lock: LockFile, store: ObjectStore) -> set[str]:
    refs: set[str] = set()
    for entry in lock.values():
        for rec in entry.outs.values():
            refs.add(rec.hash)
            if rec.tree and store.has(rec.hash):
                refs.update(member for _, member in store.members(rec.hash))
    return refs


def gc(lock: LockFile, store: ObjectStore, config_key: str | None = None, project=None) -> int:
    """Remove store objects referenced by no current lock entry; returns removed count.

    Then drop each run-cache entry that cannot be read or names an object no
    longer in the store, every parsed-table memo directory of other builtin
    code, each memo entry whose CSV digest no lock entry records as a dep or
    an out, every config parse-memo entry but the one under `config_key`
    (the current files' key), and the temp files in ``<cache>/tmp``. Given
    a `runner.Project`, also remove the `write_atomic` temp files in its
    root, its run manifests' directory, and every directory a restore of a
    lock or run-cache entry's outs writes to. Call it holding the project
    lock, so no write is in flight.
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
    restorable = [entry.outs for entry in lock.values()]
    for path in (store.root / _RUNCACHE_DIR).glob("*.json"):
        entry = _recorded_run(store, path.stem)
        if entry is not None:
            restorable.append(entry.outs)
        if entry is None or missing_outs(store, entry):
            path.unlink()
    memo = table_memo_dir(store.root)
    recorded = refs.union(*(entry.deps.values() for entry in lock.values()))
    for stale in (store.root / "tables").glob("*"):
        if stale != memo:
            shutil.rmtree(stale)
    for entry in memo.glob("*"):
        if entry.name not in recorded:
            entry.unlink()
    for entry in (store.root / _CONFIG_DIR).glob("*"):
        if entry.name != f"{config_key}.json":
            entry.unlink()
    for tmp in (store.root / _TMP_DIR).glob("*"):
        tmp.unlink()
    if project is not None:
        _sweep_workspace_temps(project.root, {project.root, project.runs_dir}, restorable)
    return removed


def _sweep_workspace_temps(root: Path, dirs: set[Path], restorable: list[dict]) -> None:
    """Remove the temp files in `dirs` and wherever `restorable` restores to."""
    for outs in restorable:
        for out, rec in outs.items():
            dest = root / out
            dirs.add(dest.parent)
            if rec.tree and dest.is_dir() and not dest.is_symlink():
                dirs.update(Path(current) for current, _, _ in os.walk(dest))
    for directory in dirs:
        for tmp in directory.glob(TMP_PREFIX + "*"):
            if not tmp.is_dir():
                tmp.unlink()
