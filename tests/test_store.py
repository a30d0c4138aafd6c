import json
import os
import random
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run, write_params, write_pipeline
from locpipe.configmodel import StageSpec
from locpipe.errors import StoreError
from locpipe.runner import Project, status
from locpipe.store import (
    ContentHash,
    LockEntry,
    ObjectStore,
    cache_lookup,
    commit_outputs,
    gc,
    hash_bytes,
    hash_file,
    hash_path,
    load_lock,
    missing_outs,
    restore_outputs,
    stage_fingerprint,
    write_lock,
)
from oracles import manifest_digest

EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


class TestHashing:
    def test_published_vectors(self):
        assert hash_bytes(b"").hex == EMPTY_SHA
        assert hash_bytes(b"abc").hex == ABC_SHA

    def test_hash_repeatable(self):
        data = os.urandom(1000)
        assert hash_bytes(data) == hash_bytes(data)

    def test_hash_file_matches_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"abc")
        assert hash_file(path).hex == ABC_SHA

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty"
        path.touch()
        assert hash_file(path).hex == EMPTY_SHA

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
        assert hash_file(path).hex == expected

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
        assert hash_path(empty)[0].hex == EMPTY_SHA

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
        assert hash_path(root)[0].hex == expected

    def test_empty_subdirs_contribute_nothing(self, tmp_path):
        root = tmp_path / "tree"
        (root / "sub").mkdir(parents=True)
        (root / "a").write_text("x")
        with_empty = hash_path(root)[0]
        (root / "sub").rmdir()
        assert hash_path(root)[0] == with_empty

    def test_symlink_inside_tree_rejected(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "real").write_text("x")
        (root / "link").symlink_to(root / "real")
        with pytest.raises(StoreError, match="symlink"):
            hash_path(root)


STAGE = StageSpec(name="s", cmd="do", deps=("a", "b"), outs=("out.txt",))


class TestFingerprint:
    def hashes(self, a: bytes, b: bytes) -> dict:
        return {"a": hash_bytes(a), "b": hash_bytes(b)}

    def test_identical_inputs_identical_fingerprint(self):
        one = stage_fingerprint(STAGE, self.hashes(b"1", b"2"), b"{}")
        two = stage_fingerprint(STAGE, self.hashes(b"1", b"2"), b"{}")
        assert one == two

    def test_dep_declaration_order_irrelevant(self):
        hashes = self.hashes(b"1", b"2")
        reordered = dict(reversed(list(hashes.items())))
        assert stage_fingerprint(STAGE, hashes, b"{}") == stage_fingerprint(STAGE, reordered, b"{}")

    def test_single_byte_flip_changes_fingerprint(self):
        rng = random.Random(11)
        for _ in range(50):
            data = bytearray(rng.randbytes(rng.randint(1, 64)))
            base = stage_fingerprint(STAGE, self.hashes(bytes(data), b"2"), b"{}")
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
            flipped = stage_fingerprint(STAGE, self.hashes(bytes(data), b"2"), b"{}")
            assert base != flipped

    def test_params_reformat_same_fingerprint(self):
        from locpipe.configmodel import canonicalize, parse_params, select_params

        one = parse_params("split:\n  k: 5\n  seed: 7\n")
        two = parse_params("split: {seed: 7, k: 5}")
        fp = lambda tree: stage_fingerprint(
            STAGE, self.hashes(b"1", b"2"), canonicalize(select_params(tree, ["split"]))
        )
        assert fp(one) == fp(two)

    def test_params_change_changes_fingerprint(self):
        base = stage_fingerprint(STAGE, self.hashes(b"1", b"2"), b'{"k":5}')
        assert base != stage_fingerprint(STAGE, self.hashes(b"1", b"2"), b'{"k":6}')

    def test_missing_dep_hash_rejected(self):
        with pytest.raises(StoreError, match="mismatch"):
            stage_fingerprint(STAGE, {"a": hash_bytes(b"1")}, b"{}")

    def test_builtin_version_enters_fingerprint(self):
        stage = StageSpec(name="s", builtin="loc.x", deps=(), outs=("o",))
        one = stage_fingerprint(stage, {}, b"{}", builtin_version=1)
        two = stage_fingerprint(stage, {}, b"{}", builtin_version=2)
        assert one != two

    def test_collision_freedom_at_test_scale(self):
        rng = random.Random(23)
        seen: dict[str, tuple] = {}
        for i in range(500):
            dep_bytes = rng.randbytes(rng.randint(0, 32))
            params = f'{{"knob":{i % 7},"salt":{rng.randint(0, 10**6)}}}'.encode()
            key = (dep_bytes, params)
            fp = stage_fingerprint(STAGE, self.hashes(dep_bytes, b"fixed"), params).hex
            if fp in seen:
                assert seen[fp] == key, "distinct inputs produced the same fingerprint"
            seen[fp] = key
        assert len(seen) >= 490  # essentially all distinct inputs stayed distinct


class TestObjectStore:
    def test_round_trip_and_address(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        ch = store.put_bytes(b"hello")
        assert store.has(ch)
        assert store.read_bytes(ch) == b"hello"
        # address structure: sha256/<2 hex>/<62 hex>
        addr = (tmp_path / "cache" / "sha256" / ch.hex[:2] / ch.hex[2:])
        assert addr.is_file()

    def test_self_verification_scan(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        for i in range(10):
            store.put_bytes(f"payload {i}".encode())
        assert store.verify() == []

    def test_verify_detects_corruption(self, tmp_path):
        store = ObjectStore(tmp_path / "cache")
        ch = store.put_bytes(b"payload")
        (tmp_path / "cache" / "sha256" / ch.hex[:2] / ch.hex[2:]).write_bytes(b"tampered")
        assert store.verify() == [ch.hex]

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
    fp = hash_bytes(b"fp")
    entry = commit_outputs(store, stage, fp, {"cmd": "do"}, {}, b"{}", root)
    return root, store, fp, entry


class TestCommitRestore:
    def test_single_out(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        _, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        assert list(entry.outs) == ["out.txt"]
        assert entry.outs["out.txt"].hash == hash_bytes(b"payload").hex
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
            commit_outputs(store, stage, hash_bytes(b"f"), {"cmd": "do"}, {}, b"{}", tmp_path)

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

    def test_restore_directory_tree_hash_matches(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        files = {"d/a": b"1", "d/sub/b": b"22"}
        root, store, _, entry = _commit(tmp_path, stage, files)
        before = hash_path(root / "d")[0]
        shutil.rmtree(root / "d")
        restore_outputs(store, entry, root)
        assert hash_path(root / "d")[0] == before
        assert before.hex == entry.outs["d"].hash


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
        assert hash_path(root / "d")[0].hex == entry.outs["d"].hash

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
        assert hash_path(root / "d")[0].hex == entry.outs["d"].hash

    def test_compared_with_the_object_not_the_recorded_hash(self, tmp_path):
        # a damaged object still reaches the workspace, where checks can see it
        stage = StageSpec(name="s", cmd="do", outs=("out.txt",))
        root, store, _, entry = _commit(tmp_path, stage, {"out.txt": b"payload"})
        store._addr(entry.outs["out.txt"].hash).write_bytes(b"paxload")
        restore_outputs(store, entry, root)
        assert (root / "out.txt").read_bytes() == b"paxload"


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
        store.remove(entry.outs["out.txt"].hash)
        assert cache_lookup({"s": entry}, store, "s", fp) is None

    def test_deleted_tree_member_misses(self, tmp_path):
        stage = StageSpec(name="s", cmd="do", outs=("d",))
        _, store, fp, entry = _commit(tmp_path, stage, {"d/a": b"1", "d/b": b"2"})
        store.remove(hash_bytes(b"1").hex)
        assert cache_lookup({"s": entry}, store, "s", fp) is None

    def test_corrupt_lock_file(self, tmp_path):
        path = tmp_path / "pipeline.lock.json"
        path.write_text("{not json")
        with pytest.raises(StoreError, match="corrupt lock"):
            load_lock(path)


class TestLockFile:
    def entry(self, store) -> "LockEntry":  # noqa: F821
        from locpipe.store import LockEntry, OutRecord

        return LockEntry(
            fingerprint=hash_bytes(b"fp").hex,
            kind={"cmd": "do"},
            deps={"a": hash_bytes(b"1").hex},
            params="{}",
            outs={"out.txt": OutRecord(hash=hash_bytes(b"p").hex, size=1)},
            committed_at="2026-01-01T00:00:00Z",
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
        entry2 = commit_outputs(store, stage, hash_bytes(b"fp2"), {"cmd": "do"}, {}, b"{}", root)
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
        assert cache_lookup(load_lock(project.lock_path), store, "emit", ContentHash(first.fingerprint)) is None
        # a miss named against the lock entry, which records value 2
        assert [(s.state, s.reasons) for s in status(project)] == [("changed", ("params: knob.value",))]
        assert run(project).executed == 1

    def test_entry_with_removed_object_reexecutes(self, tmp_path):
        project, first = self.there_and_back(tmp_path)
        ObjectStore(project.cache_dir).remove(first.outs["out.txt"].hash)
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
    entry = commit_outputs(store, stage, hash_bytes(b"fp"), {"cmd": "do"}, {}, b"{}", root)
    (root / "f.bin").unlink()
    restore_outputs(store, entry, root)
    assert (root / "f.bin").read_bytes() == data
