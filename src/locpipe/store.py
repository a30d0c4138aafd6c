"""Content hashing, the content-addressed object store, stage fingerprints,
and the lock file recording committed stage executions.

One record, `LockEntry`, describes an execution both as a stage is about
to run it, with its declared out paths, and as its commit records it, with
their records: `commit_outputs` fills in the outs of the record it is given.
One function, `derive_fingerprint`, gives the fingerprint of either, so a
stage about to run and a recorded entry are matched by one rule.

Every digest is a lowercase hex SHA-256 string. Objects live at
``<cache>/sha256/<2 hex>/<62 hex>`` so every object is self-verifying: its
content hashes to its own address. A directory hashes to its tree manifest,
read back only by `ObjectStore.members`. `hash_path` is the one walk of a
file or tree: it hashes a dep, and, given the store's `put_file` and
`put_bytes`, ingests an out as it hashes it. `commit_outputs` records its
own run: once the objects are stored, it keeps the committed execution at
``<cache>/runcache/<fingerprint>.json``, so a return to an earlier input
restores instead of re-executing. The config parse memo keeps a
`canonical.frame` of the loaded documents of the two config files at
``<cache>/config/<key>.json`` (see `configmodel.memo_key`).

A lock or run-cache entry is a pure function of the execution it records:
it holds no time, so a forced rerun leaves the lock byte-identical, and a
cold run writes the same lock and run-cache bytes in any directory.
`_servable` is the one rule by which a recorded entry is served or kept. A
dep's or out record's hash and path, and a manifest's members, are joined
into paths, so `LockEntry.from_json` and `ObjectStore.members` refuse any
that is not a hex digest or a path `configmodel.is_inside` its root.

`restore_outputs` places each file of `out_files` by one rule: a regular
file holding its object's bytes is kept, anything else there is replaced.
A tree out is first pruned to its members and their parent directories.
No out is restored, made or committed through a parent directory below the
project root that is a symlink or not a directory (`check_out_parents`).

Every file locpipe writes but a stage's outs goes through `write_atomic`:
an object through ``<cache>/tmp``, as its address is known only once its
bytes are hashed, every other file through a temp file beside it. `gc`
keeps what live records name and removes every other file of the cache.
Deps, outs, the lock, run-cache entries and metric files are read through
`open_regular`, which refuses a symlink or a FIFO without blocking on it.

The records here are named tuples, not dataclasses, so the orchestrator's
imports stay small; `LockEntry.to_json` spells out the encoded fields.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import shutil
import stat
from pathlib import Path, PurePosixPath
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple

from .canonical import canonical_bytes
from .configmodel import StageSpec, is_inside, paths_overlap
from .errors import StoreError
from .loctk import builtin_version, table_memo_dir

HASH_ALGORITHM = "sha256"
# as fast to hash as 1 MiB blocks; a read allocates a whole block, and a
# table-memo hit (`loctk.tables.read_table`) hashes its CSV first
_CHUNK = 1 << 16
_MANIFEST_SEP = "\t"
_RUNCACHE_DIR = "runcache"
_CONFIG_DIR = "config"
_TMP_DIR = "tmp"
TMP_PREFIX = ".locpipe-tmp-"
_HEX_RE = re.compile("[0-9a-f]{64}")


def _is_hex(hexd: object) -> bool:
    return isinstance(hexd, str) and _HEX_RE.fullmatch(hexd) is not None


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


def open_regular(path: Path) -> BinaryIO:
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
    with open_regular(Path(path)) as handle:
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


def hash_path(path: Path | str, put_file=hash_file, put_bytes=hash_bytes) -> tuple[str, bool, int]:
    """Hash a file or directory: (hash, is_tree, size_bytes). Given a store's
    `put_file` and `put_bytes`, the same walk ingests it, each file read once."""
    path = Path(path)
    if path.is_symlink():
        raise StoreError(f"symlink not allowed: {path}")
    if path.is_dir():
        files = _tree_files(path)
        manifest = _manifest((rel, put_file(member)) for rel, member in files)
        return put_bytes(manifest), True, sum(member.stat().st_size for _, member in files)
    return put_file(path), False, path.stat().st_size


def check_out_parents(root: Path, out: str) -> None:
    """Refuse out path `out` unless each of its parent directories below
    `root` that exists is a real directory: the first that is a symlink or
    not a directory is named in a StoreError. So nothing written, read or
    removed for an out can land outside the project. Components above `root`
    are not checked, and the out's own path is its caller's to judge."""
    path = Path(root)
    for part in PurePosixPath(out).parts[:-1]:
        path = path / part
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            return  # nothing lies below a missing directory
        if stat.S_ISLNK(mode):
            raise StoreError(f"symlink not allowed: {path}")
        if not stat.S_ISDIR(mode):
            raise StoreError(f"not a directory: {path}")


# ---------------------------------------------------------------------------
# Object store


class ObjectStore:
    """Content-addressed object store rooted at a cache directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _addr(self, hexd: str) -> Path:
        if not _is_hex(hexd):
            raise StoreError(f"not an object address: {hexd!r}")
        return self.root / HASH_ALGORITHM / hexd[:2] / hexd[2:]

    def has(self, hexd: str) -> bool:
        return self._addr(hexd).is_file()

    def put_bytes(self, data: bytes) -> str:
        hexd = hash_bytes(data)
        if not self.has(hexd):
            write_atomic(self._addr(hexd), data, self.root / _TMP_DIR)
        return hexd

    def put_file(self, path: Path | str) -> str:
        """Store a regular file's bytes, read once; returns their hash."""
        digest = hashlib.sha256()
        with open_regular(Path(path)) as handle:
            write_atomic(lambda: self._addr(digest.hexdigest()), _chunks(handle, digest), self.root / _TMP_DIR)
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
            if not is_inside(rel) or not _is_hex(member):
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
        """The address of every object; a file not named by one is no object."""
        base = self.root / HASH_ALGORITHM
        if not base.is_dir():
            return
        for prefix in sorted(p for p in base.iterdir() if p.is_dir()):
            for obj in sorted(prefix.iterdir()):
                if _is_hex(hexd := prefix.name + obj.name):
                    yield hexd

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
# Execution records


def stage_kind(stage: StageSpec) -> dict:
    """What a stage runs, as fingerprinted and recorded in its lock entry:
    the command string, or the builtin id and the digest of builtin code."""
    if stage.builtin is None:
        return {"cmd": stage.cmd}
    return {"builtin": stage.builtin, "code": builtin_version(stage.builtin)}


class OutRecord(NamedTuple):
    hash: str
    size: int
    tree: bool = False


class LockEntry(NamedTuple):
    """One stage execution: about to run, when `outs` is the tuple of its
    declared out paths, or committed, when `outs` maps each to its record."""

    fingerprint: str | None       # `derive_fingerprint` of the other fields
    kind: dict                    # `stage_kind`
    deps: dict[str, str]          # dep path -> content hash
    params: str                   # canonical param subset text
    outs: dict[str, OutRecord] | tuple[str, ...]  # out path -> committed object

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
        }

    @staticmethod
    def from_json(doc: dict) -> "LockEntry":
        """The entry of a decoded lock or run-cache record; StoreError unless
        every dep and out is a normalized relative path with a hex hash, and
        every out has a non-negative int size and a bool tree flag, as they
        are used as paths."""
        try:
            deps = dict(doc["deps"])
            outs = {
                path: OutRecord(hash=rec["hash"], size=rec["size"], tree=rec.get("tree", False))
                for path, rec in doc["outs"].items()
            }
            for path, hexd in deps.items():
                if not (is_inside(path) and _is_hex(hexd)):
                    raise ValueError(path)
            for path, rec in outs.items():
                if not (
                    is_inside(path) and _is_hex(rec.hash) and type(rec.size) is int
                    and rec.size >= 0 and type(rec.tree) is bool
                ):
                    raise ValueError(path)
            return LockEntry(
                fingerprint=doc["fingerprint"],
                kind=doc["kind"],
                deps=deps,
                params=doc["params"],
                outs=outs,
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            raise StoreError("corrupt lock file entry") from None


def derive_fingerprint(entry: LockEntry) -> str | None:
    """Content-derived identity of an execution, about to run or recorded:
    the hash of its kind, deps, params text and sorted out paths (not their
    records); None if a recorded entry's fields cannot be encoded."""
    try:
        payload = {"deps": entry.deps, "kind": entry.kind, "outs": sorted(entry.outs), "params": entry.params}
        return hash_bytes(canonical_bytes(payload))
    except (TypeError, ValueError, RecursionError):
        return None


# ---------------------------------------------------------------------------
# Lock file


LockFile = dict[str, LockEntry]


def load_lock(path: Path | str) -> LockFile:
    path = Path(path)
    if not os.path.lexists(path):
        return {}
    with open_regular(path) as handle:
        data = handle.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise StoreError(f"corrupt lock file {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), dict):
        raise StoreError(f"corrupt lock file {path}: missing 'stages'")
    return {name: LockEntry.from_json(entry) for name, entry in doc["stages"].items()}


def write_lock(lock: LockFile, path: Path | str) -> None:
    """Atomically write the lock file in its canonical encoding."""
    doc = {"version": 1, "stages": {name: entry.to_json() for name, entry in sorted(lock.items())}}
    write_atomic(Path(path), canonical_bytes(doc) + b"\n")


def out_files(store: ObjectStore, out: str, rec: OutRecord) -> list[tuple[str, str]]:
    """The (workspace path, object) pair of file out `out`, or of each member
    of tree out `out`."""
    if not rec.tree:
        return [(out, rec.hash)]
    return [(f"{out}/{rel}", member) for rel, member in store.members(rec.hash)]


def missing_outs(store: ObjectStore, entry: LockEntry) -> list[str]:
    """Sorted outs of `entry` whose object, or one of whose tree members, is
    gone from the store."""
    return [
        out for out, rec in sorted(entry.outs.items())
        if not store.has(rec.hash) or not all(store.has(hexd) for _, hexd in out_files(store, out, rec))
    ]


def _run_path(store: ObjectStore, fingerprint: str) -> Path:
    return store.root / _RUNCACHE_DIR / f"{fingerprint}.json"


def _servable(store: ObjectStore, entry: LockEntry, fingerprint: str) -> bool:
    """True when `entry` names `fingerprint`, its own recorded fields
    re-derive it, as after no edit, and no object it names is missing."""
    return entry.fingerprint == fingerprint == derive_fingerprint(entry) and not missing_outs(store, entry)


def _recorded_run(store: ObjectStore, fingerprint: str) -> LockEntry | None:
    """The run-cache entry kept under `fingerprint`, or None if it is absent
    or does not decode."""
    try:
        with open_regular(_run_path(store, fingerprint)) as handle:
            return LockEntry.from_json(json.load(handle))
    except (OSError, ValueError, TypeError, RecursionError, StoreError):
        return None  # malformed entries are misses; gc deletes them


def cache_lookup(lock: LockFile, store: ObjectStore, stage: str, fingerprint: str) -> LockEntry | None:
    """The committed execution with this fingerprint, or None.

    The stage's lock entry is asked first; if it neither names nor
    re-derives this fingerprint, the run cache is. The entry found is served
    only if `_servable`: so a lock entry that names this fingerprint or
    re-derives it, but not both, as after an edit, is a miss, and the stage
    runs again and repairs the lock.
    """
    entry = lock.get(stage)
    if entry is None or entry.fingerprint != fingerprint != derive_fingerprint(entry):
        entry = _recorded_run(store, fingerprint)
    return entry if entry is not None and _servable(store, entry, fingerprint) else None


def config_memo_path(store: ObjectStore, key: str) -> Path:
    """Where the config parse-memo entry under `key` is kept."""
    return store.root / _CONFIG_DIR / f"{key}.json"


def commit_outputs(store: ObjectStore, want: LockEntry, root: Path | str) -> LockEntry:
    """Ingest every out `want` names into the store, each file read once by
    `hash_path`, then keep the committed entry, `want` with their records, in
    the run cache under its fingerprint and return it. A StoreError names the
    first out that is missing or refused, and leaves no run-cache entry."""
    root = Path(root)
    outs: dict[str, OutRecord] = {}
    for out in want.outs:
        path = root / out
        if not os.path.lexists(path):
            raise StoreError(f"declared out not produced: {out}")
        try:
            check_out_parents(root, out)
            if path.is_symlink():
                raise StoreError("symlink not allowed")
            hexd, tree, size = hash_path(path, store.put_file, store.put_bytes)
        except StoreError as exc:
            raise StoreError(f"declared out {out} refused: {exc}") from None
        outs[out] = OutRecord(hexd, size, tree)
    entry = want._replace(outs=outs)
    write_atomic(_run_path(store, entry.fingerprint), canonical_bytes(entry.to_json()) + b"\n")
    return entry


def _prune(dest: Path, members: list[str]) -> None:
    """Make `dest` a real directory below which nothing is left but regular
    files at the paths `members`, relative to it, and their parent
    directories. A symlink is removed, never kept or followed."""
    files = set(members)
    parents = {str(parent) for rel in files for parent in PurePosixPath(rel).parents}
    if dest.is_symlink() or (os.path.lexists(dest) and not dest.is_dir()):
        dest.unlink()
    dest.mkdir(parents=True, exist_ok=True)
    for current, dirnames, filenames in os.walk(dest):
        base = Path(current).relative_to(dest)
        for name in (*dirnames, *filenames):
            path, rel = Path(current, name), (base / name).as_posix()
            mode = path.lstat().st_mode
            if stat.S_ISDIR(mode) and rel not in parents:
                shutil.rmtree(path)
            elif not stat.S_ISDIR(mode) and not (stat.S_ISREG(mode) and rel in files):
                path.unlink()
        dirnames[:] = [name for name in dirnames if os.path.isdir(Path(current, name))]  # kept real dirs


def restore_outputs(store: ObjectStore, entry: LockEntry, root: Path | str) -> None:
    """Materialize every out of a committed entry into the workspace (copy
    semantics), file by file, a tree out `_prune`d first. A regular file
    already holding its object's bytes is left alone: restoring it would
    rewrite the same bytes. An out whose parent directories
    `check_out_parents` refuses is refused before anything is done for it."""
    root = Path(root)
    for out, rec in sorted(entry.outs.items()):
        check_out_parents(root, out)
        files = out_files(store, out, rec)
        if rec.tree:
            _prune(root / out, [path[len(out) + 1:] for path, _ in files])
        for path, hexd in files:
            dest = root / path
            if not store.same_bytes(hexd, dest):
                if dest.is_dir() and not dest.is_symlink():
                    shutil.rmtree(dest)
                store.materialize(hexd, dest)


def restored_hash(store: ObjectStore, outs: Mapping[str, OutRecord], root: Path | str, path: str) -> str | None:
    """The hash that workspace `path`, which equals, lies under or holds an
    out in `outs`, will have once `restore_outputs` has put those outs in
    place under `root`; None if it will then be missing.

    A directory that holds outs hashes to the manifest of its own files
    outside them plus the outs' recorded members.
    """
    if path in outs:
        return outs[path].hash
    # workspace path -> hash of every file the outs restore
    restored = dict(pair for out, rec in outs.items() for pair in out_files(store, out, rec))
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


def referenced_hexes(entries: Iterable[LockEntry], store: ObjectStore) -> set[str]:
    """Every object the outs of `entries` name, stored tree members included."""
    refs: set[str] = set()
    for entry in entries:
        for out, rec in entry.outs.items():
            refs.add(rec.hash)
            if store.has(rec.hash):
                refs.update(hexd for _, hexd in out_files(store, out, rec))
    return refs


def gc(lock: LockFile, store: ObjectStore, config_key: str | None = None, project=None) -> int:
    """Remove every file of the cache no live record names; returns the count
    of objects removed. Live are: the objects lock entries name; each
    run-cache entry `_servable` under its own name that names only those; the
    table-memo entries of this code named by a dep or out hash of the lock;
    the config-memo entry under `config_key`. One bottom-up walk removes all
    else and each directory it empties below the cache's top level. Given a
    `runner.Project`, also remove the `write_atomic` temp files in its root,
    its run manifests' directory, and every directory a restore of a lock or
    run-cache entry's outs writes to. Call it holding the project lock, so
    no write is in flight.
    """
    live = referenced_hexes(lock.values(), store)
    keep = {store._addr(hexd) for hexd in live}
    restorable = [entry.outs for entry in lock.values()]
    for path in (store.root / _RUNCACHE_DIR).glob("*.json"):
        entry = _recorded_run(store, path.stem)
        if entry is not None:
            restorable.append(entry.outs)
            if _servable(store, entry, path.stem) and referenced_hexes([entry], store) <= live:
                keep.add(path)
    recorded = live.union(*(entry.deps.values() for entry in lock.values()))
    keep.update(table_memo_dir(store.root) / hexd for hexd in recorded)
    if config_key is not None:
        keep.add(config_memo_path(store, config_key))
    removed, failures = 0, []
    for current, _, filenames in os.walk(store.root, topdown=False):
        directory = Path(current)
        for path in (directory / name for name in filenames):
            if path in keep:
                continue
            try:
                path.unlink()
            except OSError as exc:  # pragma: no cover - exotic fs failures
                failures.append(f"{path.relative_to(store.root)}: {exc}")
                continue
            hexd = directory.name + path.name
            removed += _is_hex(hexd) and store._addr(hexd) == path
        if len(directory.relative_to(store.root).parts) > 1 and not os.listdir(directory):
            directory.rmdir()
    if failures:
        raise StoreError(f"gc removed {removed} object(s) but failed on: " + "; ".join(failures))
    if project is not None:
        _sweep_workspace_temps(project.root, {project.root, project.runs_dir}, restorable)
    return removed


def _sweep_workspace_temps(root: Path, dirs: set[Path], restorable: list[dict]) -> None:
    """Remove the temp files in `dirs` and wherever `restorable` restores to."""
    for outs in restorable:
        for out, rec in outs.items():
            try:
                check_out_parents(root, out)
            except StoreError:
                continue  # a restore refuses this out, and its parents may lie outside the project
            dest = root / out
            dirs.add(dest.parent)
            if rec.tree and dest.is_dir() and not dest.is_symlink():
                dirs.update(Path(current) for current, _, _ in os.walk(dest))
    for directory in dirs:
        for tmp in directory.glob(TMP_PREFIX + "*"):
            if not tmp.is_dir():
                tmp.unlink()
