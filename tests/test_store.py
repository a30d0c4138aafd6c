import hashlib
import json
import os
import random
import shutil
import stat
import subprocess
import tempfile
import time
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_key, run, tree_snapshot, write_params, write_pipeline
from locpipe import loctk
from locpipe.canonical import canonical_bytes, canonical_json
from locpipe.configmodel import StageSpec
from locpipe.errors import StoreError
from locpipe.runner import Project, status
from locpipe.store import (
    TMP_PREFIX,
    LockEntry,
    ObjectStore,
    cache_lookup,
    commit_outputs,
    derive_fingerprint,
    gc,
    hash_bytes,
    hash_file,
    hash_path,
    load_lock,
    missing_outs,
    out_files,
    restore_outputs,
    stage_kind,
    write_lock,
)
from oracles import manifest_digest

EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


class TestHashing:
    def test_published_vectors(self):
        assert hash_bytes(b"") == EMPTY_SHA
        assert hash_bytes(b"abc") == ABC_SHA

    def test_hash_repeatable(self):
        data = os.urandom(1000)
        assert hash_bytes(data) == hash_bytes(data)

    def test_hash_file_matches_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"abc")
        assert hash_file(path) == ABC_SHA

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty"
        path.touch()
        assert hash_file(path) == EMPTY_SHA

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="missing"):
            hash_file(tmp_path / "nope")

    @pytest.mark.skipif(shutil.which("sha256sum") is None, reason="no external checksum tool")
    def test_large_file_against_external_tool(self, tmp_path):
        path = tmp_path / "big.bin"
        rng = random.Random(42)
        with open(path, "wb") as handle:
            for _ in range(8):  # 8 MiB, forces multiple read chunks
                handle.write(rng.randbytes(1 << 20))
        expected = subprocess.run(
            ["sha256sum", str(path)], capture_output=True, text=True, check=True
        ).stdout.split()[0]
        assert hash_file(path) == expected

    def test_symlink_rejected(self, tmp_path):
        target = tmp_path / "real"
        target.write_text("x")
        link = tmp_path / "link"
        link.symlink_to(target)
        with pytest.raises(StoreError, match="symlink"):
            hash_file(link)


class TestHashTree:
    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "d"
        empty.mkdir()
        assert hash_path(empty)[0] == EMPTY_SHA

    def test_creation_order_irrelevant(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        for root, order in ((one, ["a", "b"]), (two, ["b", "a"])):
            root.mkdir()
            for name in order:
                (root / name).write_text(name)
        assert hash_path(one)[0] == hash_path(two)[0]

    def test_against_hand_built_manifest(self, tmp_path):
        root = tmp_path / "tree"
        (root / "b").mkdir(parents=True)
        (root / "a.txt").write_bytes(b"alpha")
        (root / "b" / "c.txt").write_bytes(b"gamma")
        expected = manifest_digest([("a.txt", b"alpha"), ("b/c.txt", b"gamma")])
        assert hash_path(root)[0] == expected

    def test_empty_subdirs_contribute_nothing(self, tmp_path):
        root = tmp_path / "tree"
        (root / "sub").mkdir(parents=True)
        (root / "a").write_text("x")
        with_empty = hash_path(root)[0]
        (root / "sub").rmdir()
        assert hash_path(root)[0] == with_empty

    def test_one_walk_hashes_or_ingests(self, tmp_path):
        """Given a store's `put_file` and `put_bytes`, `hash_path` ingests the
        tree it hashes: the same result, and the manifest and members stored."""
        root = tmp_path / "d"
        (root / "sub").mkdir(parents=True)
        (root / "a").write_bytes(b"1")
        (root / "sub" / "b").write_bytes(b"22")
        store = ObjectStore(tmp_path / "cache")
        hashed = hash_path(root)
        assert hash_path(root, store.put_file, store.put_bytes) == hashed == (hashed[0], True, 3)
        assert store.members(hashed[0]) == [("a", hash_bytes(b"1")), ("sub/b", hash_bytes(b"22"))]
        assert all(store.has(hexd) for _, hexd in store.members(hashed[0]))

    def test_symlink_inside_tree_rejected(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "real").write_text("x")
        (root / "link").symlink_to(root / "real")
        with pytest.raises(StoreError, match="symlink"):
            hash_path(root)


STAGE = StageSpec(name="s", cmd="do", deps=("a", "b"), outs=("out.txt",))


def _want(stage: StageSpec, deps: dict, params: str, fingerprint: str | None = None) -> LockEntry:
    """The record of `stage` about to run on `deps` with the params text `params`."""
    return LockEntry(fingerprint, stage_kind(stage), deps, params, stage.outs)


class TestFingerprint:
    def hashes(self, a: bytes, b: bytes) -> dict:
        return {"a": hash_bytes(a), "b": hash_bytes(b)}

    def test_identical_inputs_identical_fingerprint(self):
        one = derive_fingerprint(_want(STAGE, self.hashes(b"1", b"2"), "{}"))
        two = derive_fingerprint(_want(STAGE, self.hashes(b"1", b"2"), "{}"))
        assert one == two

    def test_dep_declaration_order_irrelevant(self):
        hashes = self.hashes(b"1", b"2")
        reordered = dict(reversed(list(hashes.items())))
        one = derive_fingerprint(_want(STAGE, hashes, "{}"))
        assert one == derive_fingerprint(_want(STAGE, reordered, "{}"))

    def test_single_byte_flip_changes_fingerprint(self):
        rng = random.Random(11)
        for _ in range(50):
            data = bytearray(rng.randbytes(rng.randint(1, 64)))
            base = derive_fingerprint(_want(STAGE, self.hashes(bytes(data), b"2"), "{}"))
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
            flipped = derive_fingerprint(_want(STAGE, self.hashes(bytes(data), b"2"), "{}"))
            assert base != flipped

    def test_params_reformat_same_fingerprint(self):
        from locpipe.configmodel import parse_params, select_params

        one = parse_params("split:\n  k: 5\n  seed: 7\n")
        two = parse_params("split: {seed: 7, k: 5}")
        fp = lambda tree: derive_fingerprint(_want(
            STAGE, self.hashes(b"1", b"2"), canonical_json(select_params(tree, ["split"]))
        ))
        assert fp(one) == fp(two)

    def test_params_change_changes_fingerprint(self):
        base = derive_fingerprint(_want(STAGE, self.hashes(b"1", b"2"), '{"k":5}'))
        assert base != derive_fingerprint(_want(STAGE, self.hashes(b"1", b"2"), '{"k":6}'))

    def test_builtin_version_enters_fingerprint(self, monkeypatch):
        stage = StageSpec(name="s", builtin="loc.synth", deps=(), outs=("o",))
        monkeypatch.setattr(loctk, "_code_digest", lambda: "1" * 64)
        one = derive_fingerprint(_want(stage, {}, "{}"))
        monkeypatch.setattr(loctk, "_code_digest", lambda: "2" * 64)
        two = derive_fingerprint(_want(stage, {}, "{}"))
        assert one != two

    def test_collision_freedom_at_test_scale(self):
        rng = random.Random(23)
        seen: dict[str, tuple] = {}
        for i in range(500):
            dep_bytes = rng.randbytes(rng.randint(0, 32))
            params = f'{{"knob":{i % 7},"salt":{rng.randint(0, 10**6)}}}'
            key = (dep_bytes, params)
            fp = derive_fingerprint(_want(STAGE, self.hashes(dep_bytes, b"fixed"), params))
            if fp in seen:
                assert seen[fp] == key, "distinct inputs produced the same fingerprint"
            seen[fp] = key
        assert len(seen) >= 490  # essentially all distinct inputs stayed distinct

    def test_payload_is_pinned(self):
        """Any change to what the fingerprint covers, or to its encoding,
        would make every existing lock entry miss once."""
        want = LockEntry(
            None, {"cmd": "do"}, {"b": hash_bytes(b"2"), "a": hash_bytes(b"1")}, '{"k":5}', ("o2", "o1")
        )
        assert derive_fingerprint(want) == "aca88dcd103ed3405cbd5e58e25f07d4c7fa188c5d21ceb47c1aa6a025a35658"


_names = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
_hexes = st.binary(max_size=8).map(hash_bytes)
_params = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_kinds = st.builds(lambda cmd: {"cmd": cmd}, st.text()) | st.builds(
    lambda name, code: {"builtin": f"loc.{name}", "code": code}, _names, _hexes
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=_kinds,
    deps=st.dictionaries(st.lists(_names, min_size=1, max_size=3).map("/".join), _hexes, max_size=4),
    params=st.dictionaries(_names, _params, max_size=3),
    outs=st.dictionaries(_names.map(lambda name: f"o_{name}"), st.binary(max_size=16), max_size=4),
)
def test_want_and_its_committed_entry_share_one_fingerprint(tmp_path_factory, kind, deps, params, outs):
    """The record a stage is about to run and the entry its commit writes
    derive one fingerprint, whatever the order of its deps and outs, also once
    the entry has been encoded and decoded as the lock and run cache keep it."""
    root = tmp_path_factory.mktemp("want")
    for out, data in outs.items():
        (root / out).write_bytes(data)
    want = LockEntry(None, kind, deps, canonical_json(params), tuple(outs))
    want = want._replace(fingerprint=derive_fingerprint(want))
    entry = commit_outputs(ObjectStore(root / "cache"), want, root)
    assert entry.fingerprint == want.fingerprint is not None
    decoded = LockEntry.from_json(json.loads(canonical_bytes(entry.to_json())))
    assert derive_fingerprint(decoded) == want.fingerprint


class TestObjectStore:
    def test_round_trip_and_address(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        ch = store.put_bytes(b"hello")
        assert store.has(ch)
        assert store.read_bytes(ch) == b"hello"
        # address structure: sha256/<2 hex>/<62 hex>
        addr = (tmp_path / "cache" / "sha256" / ch[:2] / ch[2:])
        assert addr.is_file()

    def test_self_verification_scan(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        for i in range(10):
            store.put_bytes(f"payload {i}".encode())
        assert store.verify() == []

    def test_verify_detects_corruption(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        ch = store.put_bytes(b"payload")
        (tmp_path / "cache" / "sha256" / ch[:2] / ch[2:]).write_bytes(b"tampered")
        assert store.verify() == [ch]

    def test_put_file_streams(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        src = tmp_path / "src.bin"
        src.write_bytes(os.urandom(3 << 20))
        ch = store.put_file(src)
        assert ch == hash_file(src)
        assert store.read_bytes(ch) == src.read_bytes()


def _commit(tmp_path, stage, files: dict[str, bytes]):
    """Write out files, commit them, and return (store, lock, entry)."""
    root = tmp_path / "ws"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    store = ObjectStore(tmp_path / "cache")
    fp = derive_fingerprint(_want(stage, {}, "{}"))  # what the entry's own fields derive
    entry = commit_outputs(store, _want(stage, {}, "{}", fp), root)
    return root, store, fp, entry


class TestCommitRestore:
    def test_single_out(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        _, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        assert list(entry.outs) == ["out.txt"]
        assert entry.outs["out.txt"].hash == hash_bytes(b"payload")
        assert entry.outs["out.txt"].size == len(b"payload")

    def test_directory_out_counts_objects(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        files = {"d/a": b"1", "d/b": b"2", "d/c": b"3"}
        _, store, _, entry = _commit(tmp_path, stage, files)
        # oracle: 3 file objects + 1 manifest object
        assert len(list(store.iter_hexes())) == 4
        assert entry.outs["d"].tree is True

    def test_missing_out_names_path(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("never.txt",))
        store = ObjectStore(tmp_path / "cache")
        with pytest.raises(StoreError, match="never.txt"):
            commit_outputs(store, _want(stage, {}, "{}", hash_bytes(b"f")), tmp_path)

    def test_restore_after_delete(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        (root / "out.txt").unlink()
        restore_outputs(store, entry, root)
        assert (root / "out.txt").read_bytes() == b"payload"

    def test_restore_replaces_stale(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        (root / "out.txt").write_bytes(b"stale")
        restore_outputs(store, entry, root)
        assert (root / "out.txt").read_bytes() == b"payload"

    def test_tree_members_hashed_only_by_their_ingest(self, tmp_path, monkeypatch):
        """A tree out's manifest is built from the digests `put_file` returns."""
        def no_hash(path):
            raise AssertionError(f"member hashed apart from its ingest: {path}")

        monkeypatch.setattr("locpipe.store.hash_file", no_hash)
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        files = {"d/a": b"1", "d/sub/b": b"22", "d/sub/c": b"333"}
        root, store, _, entry = _commit(tmp_path, stage, files)
        shutil.rmtree(root / "d")
        restore_outputs(store, entry, root)
        assert {rel: (root / rel).read_bytes() for rel in files} == files
        monkeypatch.undo()
        assert hash_path(root / "d")[0] == entry.outs["d"].hash

    def test_commit_records_its_run(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt", "d"))
        _, store, fp, entry = _commit(tmp_path, stage, {"out.txt": b"p", "d/a": b"1", "d/b": b"2"})
        assert entry.fingerprint == fp
        record = store.root / "runcache" / f"{fp}.json"
        assert record.read_bytes() == canonical_bytes(entry.to_json()) + b"\n"

    def test_refused_second_out_leaves_no_run_cache_entry(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("a.txt", "link.txt"))
        root = tmp_path / "ws"
        root.mkdir()
        (root / "a.txt").write_bytes(b"a")
        (root / "link.txt").symlink_to("a.txt")
        store = ObjectStore(tmp_path / "cache")
        with pytest.raises(StoreError, match="^declared out link.txt refused: symlink not allowed$"):
            commit_outputs(store, _want(stage, {}, "{}", hash_bytes(b"fp")), root)
        assert store.has(hash_bytes(b"a"))  # the first out was ingested
        assert not (store.root / "runcache").exists()

    def test_restore_reads_a_tree_manifest_once(self, tmp_path, monkeypatch):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        files = {"d/a": b"1", "d/sub/b": b"22", "d/sub/c": b"333"}
        root, store, _, entry = _commit(tmp_path, stage, files)
        shutil.rmtree(root / "d")
        (root / "d" / "stray").mkdir(parents=True)
        read: list[str] = []
        members = ObjectStore.members
        monkeypatch.setattr(ObjectStore, "members", lambda self, hexd: read.append(hexd) or members(self, hexd))
        restore_outputs(store, entry, root)
        assert read == [entry.outs["d"].hash]
        assert tree_snapshot(root / "d") == {rel[2:]: hash_bytes(data) for rel, data in files.items()}

    def test_restore_directory_tree_hash_matches(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        files = {"d/a": b"1", "d/sub/b": b"22"}
        root, store, _, entry = _commit(tmp_path, stage, files)
        before = hash_path(root / "d")[0]
        shutil.rmtree(root / "d")
        restore_outputs(store, entry, root)
        assert hash_path(root / "d")[0] == before
        assert before == entry.outs["d"].hash


def _identity(path):
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


class TestRestoreSkipsOutsInPlace:
    """An out whose workspace copy already holds its object's bytes is left
    alone; anything else is restored, never reported as an error."""

    def test_correct_file_and_tree_untouched(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt", "d"))
        files = {"out.txt": b"payload", "d/a": b"1", "d/sub/b": b"22"}
        root, store, _, entry = _commit(tmp_path, stage, files)
        before = {rel: _identity(root / rel) for rel in files}
        restore_outputs(store, entry, root)
        assert {rel: _identity(root / rel) for rel in files} == before

    def test_flipped_byte_restored(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        (root / "out.txt").write_bytes(b"paxload")
        restore_outputs(store, entry, root)
        assert (root / "out.txt").read_bytes() == b"payload"

    def test_tree_with_extra_member_restored(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        root, store, _, entry = _commit(tmp_path, stage, {"d/a": b"1", "d/sub/b": b"22"})
        (root / "d" / "extra").write_bytes(b"x")
        (root / "d" / "empty").mkdir()
        restore_outputs(store, entry, root)
        assert sorted(p.relative_to(root).as_posix() for p in (root / "d").rglob("*")) == [
            "d/a", "d/sub", "d/sub/b",
        ]
        assert hash_path(root / "d")[0] == entry.outs["d"].hash

    def test_tree_member_flipped_restored(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        root, store, _, entry = _commit(tmp_path, stage, {"d/a": b"1", "d/sub/b": b"22"})
        (root / "d" / "sub" / "b").write_bytes(b"23")
        restore_outputs(store, entry, root)
        assert (root / "d" / "sub" / "b").read_bytes() == b"22"

    def test_symlinks_replaced(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt", "d"))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload", "d/a": b"1"})
        # each symlink points at the right bytes, but a symlink is never an out
        shutil.move(root / "out.txt", tmp_path / "same.txt")
        (root / "out.txt").symlink_to(tmp_path / "same.txt")
        shutil.move(root / "d", tmp_path / "same_dir")
        (root / "d").symlink_to(tmp_path / "same_dir", target_is_directory=True)
        restore_outputs(store, entry, root)
        assert not (root / "out.txt").is_symlink() and not (root / "d").is_symlink()
        assert (root / "out.txt").read_bytes() == b"payload"
        assert hash_path(root / "d")[0] == entry.outs["d"].hash

    def test_directory_at_a_file_out_replaced(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        (root / "out.txt").unlink()
        (root / "out.txt" / "sub").mkdir(parents=True)
        (root / "out.txt" / "sub" / "x").write_bytes(b"x")
        restore_outputs(store, entry, root)
        assert (root / "out.txt").is_file() and (root / "out.txt").read_bytes() == b"payload"

    def test_compared_with_the_object_not_the_recorded_hash(self, tmp_path):
        # a damaged object still reaches the workspace, where checks can see it
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        store._addr(entry.outs["out.txt"].hash).write_bytes(b"paxload")
        restore_outputs(store, entry, root)
        assert (root / "out.txt").read_bytes() == b"paxload"


# The whole-tree restore rule that per-file placement replaced, kept here as
# the oracle for the end state of `restore_outputs`.
def _whole_tree_in_place(store, members, dest):
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


def _whole_tree_restore(store, entry, root):
    root = Path(root)
    for out, rec in sorted(entry.outs.items()):
        dest = root / out
        if rec.tree:
            members = store.members(rec.hash)
            if _whole_tree_in_place(store, members, dest):
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


_NAME = st.sampled_from(["a", "b", "c"])
_REL = st.lists(_NAME, min_size=1, max_size=3).map("/".join)


def _no_nesting(paths):
    return not any(other.startswith(path + "/") for path in paths for other in paths)


_TREES = st.dictionaries(_REL, st.binary(max_size=6), min_size=1, max_size=5).filter(_no_nesting)
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from([
            "delete", "flip", "dir_at_member", "file_at_parent", "extra_file", "extra_dir",
            "symlink_member", "fifo_member", "symlink_subdir", "tree_file", "tree_symlink",
        ]),
        st.integers(0, 4),
        _REL,
    ),
    max_size=4,
)


def _remove(path):
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def _outside_copy(files, prefix, target):
    """`target` holding the members under `prefix` with their bytes."""
    for rel, data in files.items():
        if rel.startswith(prefix):
            (target / rel[len(prefix):]).parent.mkdir(parents=True, exist_ok=True)
            (target / rel[len(prefix):]).write_bytes(data)
    target.mkdir(parents=True, exist_ok=True)


def _mutate(tree, outside, files, mutations):
    for n, (kind, index, rel) in enumerate(mutations):
        member = sorted(files)[index % len(files)]
        path, parent = tree / member, (tree / member).parent
        try:
            if kind == "delete":
                path.unlink()
            elif kind == "flip" and path.is_file():  # never open a FIFO
                data = path.read_bytes()
                path.write_bytes(bytes([data[0] ^ 1]) + data[1:] if data else b"\0")
            elif kind == "dir_at_member":
                path.unlink()
                path.mkdir()
                (path / "x").write_bytes(b"x")
            elif kind == "file_at_parent" and parent != tree:
                _remove(parent)
                parent.write_bytes(b"p")
            elif kind == "extra_file" and not os.path.lexists(tree / rel):
                (tree / rel).parent.mkdir(parents=True, exist_ok=True)
                (tree / rel).write_bytes(b"extra")
            elif kind == "extra_dir":
                (tree / rel).mkdir(parents=True, exist_ok=True)
            elif kind == "symlink_member":
                (outside / f"file{n}").write_bytes(files[member])
                path.unlink()
                path.symlink_to(outside / f"file{n}")
            elif kind == "fifo_member":
                path.unlink()
                os.mkfifo(path)
            elif kind == "symlink_subdir" and parent != tree:
                prefix = parent.relative_to(tree).as_posix() + "/"
                _outside_copy(files, prefix, outside / f"dir{n}")
                _remove(parent)
                parent.symlink_to(outside / f"dir{n}", target_is_directory=True)
            elif kind == "tree_file":
                _remove(tree)
                tree.write_bytes(b"t")
            elif kind == "tree_symlink":
                _outside_copy(files, "", outside / f"tree{n}")
                _remove(tree)
                tree.symlink_to(outside / f"tree{n}", target_is_directory=True)
        except OSError:
            pass  # an earlier mutation removed what this one acts on


def _listing(top):
    """Sorted (relpath, type, bytes) of every entry under `top`; symlinks
    are listed, not followed."""
    entries = []
    for current, dirnames, filenames in os.walk(top):
        for name in (*dirnames, *filenames):
            path = Path(current, name)
            mode = path.lstat().st_mode
            kind = {stat.S_IFREG: "file", stat.S_IFDIR: "dir", stat.S_IFLNK: "link"}.get(stat.S_IFMT(mode), "other")
            entries.append((path.relative_to(top).as_posix(), kind, path.read_bytes() if kind == "file" else b""))
    return sorted(entries)


def _in_place(tree, files):
    """Members that are regular files with their bytes, reached through real
    directories only, mapped to their inode."""
    kept = {}
    for rel, data in files.items():
        path = tree / rel
        chain = [tree, *(tree / parent for parent in reversed(PurePosixPath(rel).parents[:-1]))]
        if all(os.path.lexists(p) and stat.S_ISDIR(p.lstat().st_mode) for p in chain) and (
            os.path.lexists(path) and stat.S_ISREG(path.lstat().st_mode) and path.read_bytes() == data
        ):
            kept[rel] = path.lstat().st_ino
    return kept


class TestRestoreMatchesWholeTreeRule:
    """Per-file placement leaves a tree out in the state the whole-tree rule
    left it in, and keeps each member already in place."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(files=_TREES, mutations=_MUTATIONS)
    def test_same_end_state_and_members_in_place_kept(self, files, mutations):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            stage = StageSpec(name="s", cmd="do", outs=("d",))
            root, store, _, entry = _commit(tmp, stage, {f"d/{rel}": data for rel, data in files.items()})
            shutil.rmtree(root)
            listings = []
            for name, restore in (("old", _whole_tree_restore), ("new", restore_outputs)):
                ws, outside = tmp / name / "ws", tmp / name / "outside"
                _outside_copy(files, "", ws / "d")
                (outside / "canary").mkdir(parents=True)
                (outside / "canary" / "keep").write_bytes(b"keep")
                _mutate(ws / "d", outside, files, mutations)
                canary, kept = _listing(outside), _in_place(ws / "d", files)
                restore(store, entry, ws)
                assert _listing(outside) == canary
                listings.append(_listing(ws))
                if restore is restore_outputs:
                    assert {rel: (ws / "d" / rel).lstat().st_ino for rel in kept} == kept
            assert listings[0] == listings[1]
            assert hash_path(tmp / "new" / "ws" / "d")[0] == entry.outs["d"].hash


class TestCacheLookup:
    def test_fresh_project_misses(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        assert cache_lookup({}, store, "s", hash_bytes(b"fp")) is None

    def test_hit_after_commit(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        _, store, fp, entry = _commit(tmp_path, stage, {"out.txt": b"p"})
        assert cache_lookup({"s": entry}, store, "s", fp) is entry
        assert cache_lookup({"s": entry}, store, "s", hash_bytes(b"other")) is None

    def test_deleted_object_self_heals_to_miss(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        _, store, fp, entry = _commit(tmp_path, stage, {"out.txt": b"p"})
        store._addr(entry.outs["out.txt"].hash).unlink()
        assert cache_lookup({"s": entry}, store, "s", fp) is None

    def test_deleted_tree_member_misses(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        _, store, fp, entry = _commit(tmp_path, stage, {"d/a": b"1", "d/b": b"2"})
        store._addr(hash_bytes(b"1")).unlink()
        assert cache_lookup({"s": entry}, store, "s", fp) is None

    def test_corrupt_lock_file(self, tmp_path):
        path = tmp_path / "pipeline.lock.json"
        path.write_text("{not json")
        with pytest.raises(StoreError, match="corrupt lock"):
            load_lock(path)

    def test_lock_entry_deps_not_a_mapping(self, tmp_path):
        path = tmp_path / "pipeline.lock.json"
        entry = {
            "fingerprint": hash_bytes(b"fp"), "kind": {"cmd": "do"}, "deps": ["not", "a", "mapping"],
            "params": "{}", "outs": {}, "committed_at": "2026-01-01T00:00:00Z",
        }
        path.write_text(json.dumps({"version": 1, "stages": {"s": entry}}))
        with pytest.raises(StoreError, match="^corrupt lock file entry$"):
            load_lock(path)

    @pytest.mark.parametrize("out, record", [
        ("out.txt", {"hash": 5, "size": 1}),
        ("out.txt", {"hash": "zz", "size": 1}),
        ("out.txt", {"hash": ABC_SHA.upper(), "size": 1}),
        ("out.txt", {"hash": ".." + ABC_SHA, "size": 1}),
        ("out.txt", {"hash": ABC_SHA, "size": -1}),
        ("out.txt", {"hash": ABC_SHA, "size": True}),
        ("out.txt", {"hash": ABC_SHA, "size": "1"}),
        ("out.txt", {"hash": ABC_SHA, "size": 1, "tree": "yes"}),
        ("../out.txt", {"hash": ABC_SHA, "size": 1}),
        ("/tmp/out.txt", {"hash": ABC_SHA, "size": 1}),
        ("d/../out.txt", {"hash": ABC_SHA, "size": 1}),
        ("./out.txt", {"hash": ABC_SHA, "size": 1}),
        ("", {"hash": ABC_SHA, "size": 1}),
    ], ids=[
        "hash-int", "hash-not-hex", "hash-upper-case", "hash-a-path", "size-negative", "size-bool",
        "size-str", "tree-str", "out-parent", "out-absolute", "out-not-normal", "out-dot", "out-empty",
    ])
    def test_out_record_used_as_a_path_is_checked(self, tmp_path, out, record):
        path = tmp_path / "pipeline.lock.json"
        entry = {
            "fingerprint": hash_bytes(b"fp"), "kind": {"cmd": "do"}, "deps": {},
            "params": "{}", "outs": {out: record}, "committed_at": "2026-01-01T00:00:00Z",
        }
        path.write_text(json.dumps({"version": 1, "stages": {"s": entry}}))
        with pytest.raises(StoreError, match="^corrupt lock file entry$"):
            load_lock(path)
        entry["outs"] = {"out.txt": {"hash": ABC_SHA, "size": 0}, "d/sub": {"hash": ABC_SHA, "size": 3, "tree": True}}
        path.write_text(json.dumps({"version": 1, "stages": {"s": entry}}))
        assert sorted(load_lock(path)["s"].outs) == ["d/sub", "out.txt"]

    def test_address_must_be_hex(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        (tmp_path / "secret.txt").write_bytes(b"s")
        for hexd in ["zz", ".." + str(tmp_path / "secret.txt"), ABC_SHA.upper(), ABC_SHA + "0"]:
            with pytest.raises(StoreError, match="^not an object address: "):
                store.has(hexd)
        assert store.has(ABC_SHA) is False

    @pytest.mark.parametrize("rel", ["../x", "/abs/x", "a/../x", "./x", "a//x", ".", "a/"])
    def test_manifest_member_outside_its_tree_is_corrupt(self, tmp_path, rel):
        store = ObjectStore(tmp_path / "cache")
        member = store.put_bytes(b"1")
        for manifest in (f"{rel}\t{member}", f"x\t{member.upper()}"):
            with pytest.raises(StoreError, match="^corrupt tree manifest$"):
                store.members(store.put_bytes(manifest.encode()))
        assert store.members(store.put_bytes(f" \t{member}\nd/x\t{member}".encode())) == [(" ", member), ("d/x", member)]

    def test_file_not_named_by_an_address_is_no_object(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        hexd = store.put_bytes(b"1")
        (tmp_path / "cache" / "sha256" / hexd[:2] / "stray").write_bytes(b"x")
        assert list(store.iter_hexes()) == [hexd]
        assert store.verify() == []


class TestLockFile:
    def entry(self, store) -> "LockEntry":  # noqa: F821
        from locpipe.store import LockEntry, OutRecord

        return LockEntry(
            fingerprint=hash_bytes(b"fp"),
            kind={"cmd": "do"},
            deps={"a": hash_bytes(b"1")},
            params="{}",
            outs={"out.txt": OutRecord(hash=hash_bytes(b"p"), size=1)},
        )

    def test_round_trip(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        lock = {"s": self.entry(store)}
        path = tmp_path / "pipeline.lock.json"
        write_lock(lock, path)
        assert load_lock(path) == lock
        # canonical encoding: sorted keys, no whitespace
        doc = path.read_text()
        assert doc.index('"fingerprint"') < doc.index('"kind"')

    def test_atomic_write_survives_crash(self, tmp_path, monkeypatch):
        import locpipe.store as store_mod

        path = tmp_path / "pipeline.lock.json"
        store = ObjectStore(tmp_path / "cache")
        write_lock({"s": self.entry(store)}, path)
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("injected crash between temp-write and rename")

        monkeypatch.setattr(store_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected"):
            write_lock({}, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_lock(path) != {}

    def test_missing_lock_is_empty(self, tmp_path):
        assert load_lock(tmp_path / "absent.json") == {}


class TestGc:
    def test_nothing_unreferenced(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        _, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"p"})
        assert gc({"s": entry}, store) == 0
        assert store.has(entry.outs["out.txt"].hash)

    def test_empty_store(self, tmp_path):
        assert gc({}, ObjectStore(tmp_path / "cache")) == 0

    def test_recommit_orphans_old_objects(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry1 = _commit(tmp_path, stage, {"out.txt": b"old"})
        (root / "out.txt").write_bytes(b"new")
        entry2 = commit_outputs(store, _want(stage, {}, "{}", hash_bytes(b"fp2")), root)
        lock = {"s": entry2}
        # oracle: removable = present - referenced
        present = set(store.iter_hexes())
        referenced = {rec.hash for rec in entry2.outs.values()}
        removable = present - referenced
        assert gc(lock, store) == len(removable) >= 1
        assert set(store.iter_hexes()) == referenced

    def test_gc_keeps_tree_members(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        _, store, _, entry = _commit(tmp_path, stage, {"d/a": b"1", "d/b": b"2"})
        assert gc({"s": entry}, store) == 0
        assert len(list(store.iter_hexes())) == 3

    def test_removes_every_file_the_live_set_does_not_name(self, make_project):
        project = make_project("baseline")
        assert run(project).failed == 0
        cache = project.cache_dir
        lock, store = load_lock(project.lock_path), ObjectStore(cache)

        def files() -> set[Path]:
            return {path for path in cache.rglob("*") if path.is_file()}

        live = files()
        memo = loctk.table_memo_dir(cache)
        prepared = hashlib.sha256((project.root / "data/prepared.csv").read_bytes()).hexdigest()
        orphan = store.put_bytes(b"no lock entry names this")
        (cache / "sha256" / "ee").mkdir()
        strays = [
            cache / "sha256" / orphan[:2] / orphan[2:],
            cache / "sha256" / "ab" / "not-an-address",
            cache / "unknown" / "deeper" / "file",
            cache / "tables" / ("1" * 64) / prepared,  # an entry of older builtin code
            memo / f"{TMP_PREFIX}1-0123456789abcdef",  # a killed memo write
            cache / "runcache" / "notes.txt",
            cache / "runcache" / "stray.json" / "inner" / "file",  # a directory named like an entry
            cache / "config" / f"{'2' * 64}.json",
            cache / "stray-at-the-top",
        ]
        for path in strays[1:]:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"stray")

        assert gc(lock, store, config_key(project)) == 1  # only the orphan is an object
        assert files() == live
        assert not (cache / "sha256" / "ab").exists() and not (cache / "sha256" / "ee").exists()
        assert not (cache / "tables" / ("1" * 64)).exists() and not (cache / "unknown" / "deeper").exists()
        assert not (cache / "runcache" / "stray.json").exists()
        assert sorted(path.name for path in cache.iterdir()) == [
            "config", "runcache", "sha256", "tables", "tmp", "unknown",
        ]
        assert run(project).cached == 6


class TestOutFiles:
    """`out_files` against the files of the committed workspace."""

    def test_file_out(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("sub/out.txt",))
        _, store, _, entry = _commit(tmp_path, stage, {"sub/out.txt": b"payload"})
        rec = entry.outs["sub/out.txt"]
        assert out_files(store, "sub/out.txt", rec) == [("sub/out.txt", hash_bytes(b"payload"))]

    def test_tree_out(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        files = {"d/b": b"2", "d/a": b"1", "d/e/c": b"3"}
        _, store, _, entry = _commit(tmp_path, stage, files)
        expected = sorted((path, hash_bytes(data)) for path, data in files.items())
        assert out_files(store, "d", entry.outs["d"]) == expected

    def test_empty_tree_out(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        root = tmp_path / "ws"
        (root / "d").mkdir(parents=True)
        store = ObjectStore(tmp_path / "cache")
        entry = commit_outputs(store, _want(stage, {}, "{}", hash_bytes(b"fp")), root)
        assert out_files(store, "d", entry.outs["d"]) == []


class TestRunCache:
    """Every committed execution stays in the run cache, so setting a param
    back to an earlier value restores that run's outs instead of re-executing."""

    def project(self, tmp_path, value) -> Project:
        root = tmp_path / "proj"
        root.mkdir(exist_ok=True)
        write_pipeline(root, {
            "emit": {"cmd": "grep value params.yaml > out.txt", "params": ["knob"], "outs": ["out.txt"]},
        })
        write_params(root, {"knob": {"value": value}})
        return Project(root=root)

    def there_and_back(self, tmp_path):
        """Run value 1, then value 2, then set value 1 back; returns the
        project and value 1's lock entry."""
        project = self.project(tmp_path, 1)
        assert run(project).executed == 1
        first = load_lock(project.lock_path)["emit"]
        self.project(tmp_path, 2)
        assert run(project).executed == 1
        self.project(tmp_path, 1)
        return project, first

    def run_path(self, project, entry):
        return project.cache_dir / "runcache" / f"{entry.fingerprint}.json"

    def test_return_restores_first_run(self, tmp_path):
        project, first = self.there_and_back(tmp_path)
        assert [s.state for s in status(project)] == ["unchanged"]
        report = run(project)
        assert (report.executed, report.cached, report.results[0].reason) == (0, 1, "run cache")
        assert (project.root / "out.txt").read_text() == "  value: 1\n"
        assert load_lock(project.lock_path) == {"emit": first}

    @pytest.mark.parametrize("edit", [
        {"params": '{"knob":{"value":3}}'},
        {"deps": ["not", "a", "mapping"]},
        {"kind": float("nan")},
    ], ids=["params", "deps", "kind"])
    def test_edited_entry_ignored(self, tmp_path, edit):
        project, first = self.there_and_back(tmp_path)
        path = self.run_path(project, first)
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        store = ObjectStore(project.cache_dir)
        assert cache_lookup(load_lock(project.lock_path), store, "emit", first.fingerprint) is None
        # a miss named against the lock entry, which records value 2
        assert [(s.state, s.reasons) for s in status(project)] == [("changed", ("params: knob.value",))]
        assert run(project).executed == 1

    def test_entry_with_removed_object_reexecutes(self, tmp_path):
        project, first = self.there_and_back(tmp_path)
        ObjectStore(project.cache_dir)._addr(first.outs["out.txt"].hash).unlink()
        report = run(project)
        assert report.executed == 1
        assert (project.root / "out.txt").read_text() == "  value: 1\n"
        assert load_lock(project.lock_path)["emit"].outs == first.outs

    def test_gc_drops_entries_naming_missing_objects(self, tmp_path):
        project, first = self.there_and_back(tmp_path)
        store = ObjectStore(project.cache_dir)
        runcache = project.cache_dir / "runcache"
        (runcache / "garbage.json").write_text("{not json")
        lock = load_lock(project.lock_path)
        assert gc(lock, store) == 1  # value 1's out
        remaining = sorted(runcache.iterdir())
        assert remaining == [self.run_path(project, lock["emit"])]
        for path in remaining:
            assert missing_outs(store, LockEntry.from_json(json.loads(path.read_text()))) == []
        assert run(project).executed == 1


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=512))
def test_commit_restore_identity(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("roundtrip")
    stage = StageSpec(name="s", cmd="do", outs=("f.bin",))
    root = tmp / "ws"
    root.mkdir()
    (root / "f.bin").write_bytes(data)
    store = ObjectStore(tmp / "cache")
    entry = commit_outputs(store, _want(stage, {}, "{}", hash_bytes(b"fp")), root)
    (root / "f.bin").unlink()
    restore_outputs(store, entry, root)
    assert (root / "f.bin").read_bytes() == data


def _schema(value: object) -> object:
    """Every key of a decoded JSON document, with each value's type name."""
    if isinstance(value, dict):
        return {key: _schema(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_schema(item) for item in value]
    return type(value).__name__


def test_lock_runcache_and_manifest_layout(baseline_project):
    """The records these files are written from are named tuples; the
    documents keep one key per field and the same value types."""
    cold = run(baseline_project)
    warm = run(baseline_project)
    spec, _ = baseline_project.load()
    out = {"hash": "str", "size": "int", "tree": "bool"}
    lock = json.loads(baseline_project.lock_path.read_text())
    assert set(lock) == {"version", "stages"} and lock["version"] == 1
    assert list(lock["stages"]) == sorted(spec.stages)
    for name, entry in lock["stages"].items():
        stage = spec.stages[name]
        assert _schema(entry) == {
            "deps": {dep: "str" for dep in sorted(stage.deps)},
            "fingerprint": "str",
            "kind": {"builtin": "str", "code": "str"},
            "outs": {path: out for path in sorted(stage.outs)},
            "params": "str",
        }
        recorded = baseline_project.cache_dir / "runcache" / f"{entry['fingerprint']}.json"
        assert json.loads(recorded.read_text()) == entry
    executed = {
        "action": "str", "cpu_s": "float", "exit_code": "int", "log_err": "str", "log_out": "str",
        "orchestrator_rss_bytes": "int", "peak_rss_bytes": "int", "pid": "int", "reason": "str",
        "stage": "str", "wall_s": "float",
    }
    cached = {
        "action": "str", "cpu_s": "float", "exit_code": "NoneType", "log_err": "NoneType",
        "log_out": "NoneType", "peak_rss_bytes": "int", "pid": "NoneType", "reason": "str",
        "stage": "str", "wall_s": "float",
    }
    for report, result in ((cold, executed), (warm, cached)):
        manifest = json.loads(report.manifest_path.read_text())
        assert _schema(manifest) == {
            "config_hashes": {"params.yaml": "str", "pipeline.yaml": "str"},
            "created_utc": "str",
            "options": {"force": "bool", "jobs": "int", "targets": []},
            "results": [result] * 6,
            "run_id": "str",
            "tool_version": "str",
        }
        assert manifest["results"] == [r.to_json() for r in report.results]


class TestPureRecords:
    """A lock or run-cache entry is a function of the execution it records
    and holds no time: the same run writes the same bytes, anywhere."""

    def _records(self, project: Project) -> dict[str, bytes]:
        runcache = project.cache_dir / "runcache"
        records = {path.name: path.read_bytes() for path in runcache.iterdir()}
        return {"pipeline.lock.json": project.lock_path.read_bytes(), **records}

    def test_forced_rerun_leaves_the_lock_byte_identical(self, baseline_project):
        run(baseline_project)
        before = self._records(baseline_project)
        time.sleep(1.1)  # a recorded time in seconds would now differ
        assert run(baseline_project, force=True).executed == 6
        assert self._records(baseline_project) == before

    def test_cold_runs_in_two_directories_write_the_same_bytes(self, make_project):
        first, second = make_project(), make_project()
        run(first)
        time.sleep(1.1)  # a recorded time in seconds would now differ
        run(second)
        records = self._records(first)
        assert len(records) == 7  # the lock and one run-cache entry per stage
        assert self._records(second) == records
        assert tree_snapshot(first.cache_dir) == tree_snapshot(second.cache_dir)

    def test_entries_with_a_commit_time_still_served(self, baseline_project):
        """Entries written with the former `committed_at` field load, and no
        stage re-executes."""
        run(baseline_project)
        lock = json.loads(baseline_project.lock_path.read_bytes())
        for entry in lock["stages"].values():
            entry["committed_at"] = "2026-01-01T00:00:00Z"
            path = baseline_project.cache_dir / "runcache" / f"{entry['fingerprint']}.json"
            path.write_bytes(canonical_bytes(entry) + b"\n")
        baseline_project.lock_path.write_bytes(canonical_bytes(lock) + b"\n")
        assert [s.state for s in status(baseline_project)] == ["unchanged"] * 6
        report = run(baseline_project)
        assert (report.executed, report.cached) == (0, 6)
        baseline_project.lock_path.unlink()
        report = run(baseline_project)
        assert (report.executed, report.cached) == (0, 6)
        assert {r.reason for r in report.results} == {"run cache"}
        assert b"committed_at" not in baseline_project.lock_path.read_bytes()
        assert [s.state for s in status(baseline_project)] == ["unchanged"] * 6
