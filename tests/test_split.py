import json
import tempfile
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locpipe.canonical import canonical_bytes, dump_canonical
from locpipe.errors import BuiltinError
from locpipe.loctk import split
from locpipe.loctk.gridsearch import run_grid_search
from locpipe.loctk.split import (
    group_kfold_folds,
    kfold_folds,
    load_fold_file,
    make_fold_file,
    shuffle_folds,
    write_fold_file,
)
from oracles import greedy_group_assignment, kfold_sizes
from test_gridsearch import RIDGE_GRID, make_table


def check_partition(folds, n):
    tests = [fold["test"] for fold in folds]
    union = [i for t in tests for i in t]
    assert sorted(union) == list(range(n)), "tests must cover [0, n) exactly once"
    sizes = [len(t) for t in tests]
    assert max(sizes) - min(sizes) <= 1
    for fold in folds:
        assert set(fold["train"]) == set(range(n)) - set(fold["test"])
        assert not set(fold["train"]) & set(fold["test"])


class TestKFold:
    def test_n10_k5(self):
        folds = kfold_folds(10, 5, seed=7)
        assert len(folds) == 5
        assert all(len(f["test"]) == 2 for f in folds)
        check_partition(folds, 10)

    def test_leave_one_out(self):
        folds = kfold_folds(6, 6, seed=0)
        assert all(len(f["test"]) == 1 for f in folds)
        check_partition(folds, 6)

    def test_n7_k3_sizes(self):
        folds = kfold_folds(7, 3, seed=1)
        assert [len(f["test"]) for f in folds] == kfold_sizes(7, 3) == [3, 2, 2]

    def test_deterministic(self):
        assert kfold_folds(50, 5, seed=3) == kfold_folds(50, 5, seed=3)
        assert kfold_folds(50, 5, seed=3) != kfold_folds(50, 5, seed=4)

    def test_k_out_of_range(self):
        with pytest.raises(BuiltinError):
            kfold_folds(5, 6, seed=0)
        with pytest.raises(BuiltinError):
            kfold_folds(5, 1, seed=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_partition_law(self, n, k, seed):
        if k > n:
            with pytest.raises(BuiltinError):
                kfold_folds(n, k, seed)
            return
        check_partition(kfold_folds(n, k, seed), n)

    def test_larger_folds_first(self):
        folds = kfold_folds(11, 4, seed=9)
        assert [len(f["test"]) for f in folds] == [3, 3, 3, 2]


class TestShuffle:
    def test_sizes_and_disjointness(self):
        folds = shuffle_folds(10, test_fraction=0.25, repeats=4, seed=2)
        assert len(folds) == 4
        for fold in folds:
            assert len(fold["test"]) == 3  # ceil(0.25 * 10)
            assert sorted(fold["train"] + fold["test"]) == list(range(10))

    def test_repeats_use_independent_permutations(self):
        folds = shuffle_folds(40, test_fraction=0.5, repeats=3, seed=2)
        assert folds[0]["test"] != folds[1]["test"] or folds[1]["test"] != folds[2]["test"]

    def test_deterministic(self):
        assert shuffle_folds(20, 0.2, 2, seed=5) == shuffle_folds(20, 0.2, 2, seed=5)

    def test_fraction_bounds(self):
        with pytest.raises(BuiltinError):
            shuffle_folds(10, 0.0, 1, 0)
        with pytest.raises(BuiltinError):
            shuffle_folds(10, 1.0, 1, 0)
        with pytest.raises(BuiltinError):
            shuffle_folds(10, 0.2, 0, 0)

    def test_tiny_fraction_keeps_train_nonempty(self):
        folds = shuffle_folds(3, 0.34, 1, 0)
        assert len(folds[0]["test"]) == 2 and len(folds[0]["train"]) == 1


class TestGroupKFold:
    GROUPS = ["a", "a", "a", "b", "b", "c", "c", "d", "e", "f"]

    def test_groups_never_split(self):
        folds = group_kfold_folds(self.GROUPS, 3)
        for fold in folds:
            test_groups = {self.GROUPS[i] for i in fold["test"]}
            train_groups = {self.GROUPS[i] for i in fold["train"]}
            assert not test_groups & train_groups

    def test_matches_greedy_oracle(self):
        folds = group_kfold_folds(self.GROUPS, 3)
        expected_buckets = greedy_group_assignment(self.GROUPS, 3)
        actual_buckets = [{self.GROUPS[i] for i in fold["test"]} for fold in folds]
        assert actual_buckets == expected_buckets

    def test_covers_everything(self):
        folds = group_kfold_folds(self.GROUPS, 4)
        union = sorted(i for fold in folds for i in fold["test"])
        assert union == list(range(len(self.GROUPS)))

    def test_empty_group_value(self):
        with pytest.raises(BuiltinError, match="empty group"):
            group_kfold_folds(["a", "", "b"], 2)

    def test_k_exceeds_group_count(self):
        with pytest.raises(BuiltinError):
            group_kfold_folds(["a", "a", "b"], 3)

    def test_deterministic(self):
        assert group_kfold_folds(self.GROUPS, 3) == group_kfold_folds(self.GROUPS, 3)


class TestFoldFile:
    def test_document_shape(self):
        doc = make_fold_file(10, {"strategy": "kfold", "k": 5, "seed": 7}, None)
        assert doc["strategy"] == "kfold"
        assert doc["seed"] == 7
        assert doc["n_samples"] == 10
        assert len(doc["folds"]) == 5
        json.loads(canonical_bytes(doc))  # canonically encodable

    def test_unknown_strategy(self):
        with pytest.raises(BuiltinError, match="unknown strategy"):
            make_fold_file(10, {"strategy": "montecarlo", "seed": 0}, None)

    def test_byte_identical_for_same_seed(self):
        one = canonical_bytes(make_fold_file(30, {"strategy": "kfold", "k": 3, "seed": 9}, None))
        two = canonical_bytes(make_fold_file(30, {"strategy": "kfold", "k": 3, "seed": 9}, None))
        assert one == two


Q_MIN, Q_MAX = -(2**63), 2**63 - 1

indices = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=Q_MIN, max_value=Q_MAX),
        st.integers(min_value=-(2**80), max_value=2**80),  # beyond 64 bits
    ),
    max_size=40,
)
fold_docs = st.fixed_dictionaries({
    "strategy": st.text(),  # any text, non-ASCII included
    "seed": st.integers(),
    "n_samples": st.integers(min_value=0),
    "folds": st.lists(st.fixed_dictionaries({"train": indices, "test": indices}), max_size=4),
})


def as_arrays(doc: dict) -> dict:
    """`doc` with each index list that fits in 64 bits as an ``array('q')``,
    as `make_fold_file` holds it."""
    def part(idxs):
        return array("q", idxs) if all(Q_MIN <= i <= Q_MAX for i in idxs) else idxs

    return {**doc, "folds": [{k: part(v) for k, v in fold.items()} for fold in doc["folds"]]}


def plain(doc: dict) -> dict:
    """`doc` with every index sequence as a list."""
    return {**doc, "folds": [{k: list(v) for k, v in fold.items()} for fold in doc["folds"]]}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


def as_lists(value: object) -> object:
    """`value` with every ``array`` in it as a list."""
    if isinstance(value, (list, array)):
        return [as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


def encodings(doc: dict) -> tuple[bytes, bytes]:
    """(write_fold_file's bytes, dump_canonical's bytes) of `doc`."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, reference = Path(tmp) / "ours.json", Path(tmp) / "reference.json"
        write_fold_file(doc, ours)
        dump_canonical(doc, reference)
        return ours.read_bytes(), reference.read_bytes()


def loaded(text: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "folds.json"
        path.write_text(text, encoding="utf-8")
        return load_fold_file(path)


class TestFoldFileCodec:
    @settings(max_examples=150, deadline=None)
    @given(fold_docs, st.booleans(), st.sampled_from([1, 3, split._CHUNK_INDICES]))
    def test_writer_bytes_equal_dump_canonical(self, doc, arrays, chunk):
        doc = as_arrays(doc) if arrays else doc
        with mock.patch.object(split, "_CHUNK_INDICES", chunk):
            ours, reference = encodings(doc)
        assert ours == reference

    @settings(max_examples=150, deadline=None)
    @given(fold_docs)
    def test_loader_gives_back_the_same_indices(self, doc):
        ours, _ = encodings(as_arrays(doc))
        back = loaded(ours.decode("utf-8"))
        assert plain(back) == doc
        for fold in back["folds"]:
            for idxs in fold.values():
                fits = idxs and all(Q_MIN <= i <= Q_MAX for i in idxs)
                assert isinstance(idxs, array if fits else list)

    @pytest.mark.parametrize("layout", [
        {}, {"indent": 3}, {"separators": (" ,\n", " :\t")},
    ], ids=["compact", "indent", "spaced"])
    def test_long_lists_in_any_layout(self, layout):
        """Long lists, in layouts other than the canonical one, and items of
        every kind between the ints."""
        doc = {
            "strategy": "kfold \u00e9\u6f22", "seed": 2**70, "n_samples": 9,
            "folds": [
                {"train": list(range(30000)), "test": [1, 2.5, "a,b", True, None, 3]},
                {"train": [i if i % 997 else [2.5, "x,]", 10**30][i % 3] for i in range(20000)],
                 "test": [1]},
                {"train": [10**40] + list(range(5000)) + [-(2**63)], "test": [-0, 7]},
                {"train": [[1, 2], {"k": [3]}] + list(range(3000)), "test": []},
            ],
            "extra": {"nested": [1, [2, [3]]]},
        }
        text = json.dumps(doc, **layout)
        assert json.loads(canonical_bytes(loaded(text))) == json.loads(text)

    @settings(max_examples=200, deadline=None)
    @given(json_values, st.sampled_from([None, 0, 2]))
    def test_loader_decodes_what_json_decodes(self, value, indent):
        text = json.dumps({"folds": value, "n_samples": 0}, indent=indent, ensure_ascii=False)
        assert as_lists(loaded(text)) == json.loads(text)

    @pytest.mark.parametrize("text", [
        "", "[", "{", '{"folds": [1, 2', '{"folds": [1 2]}', '{"folds": [01]}',
        '{"folds": [1,,2]}', '{"folds": [,1]}', '{"folds": [1,]}', '{"a" 1}',
        '{"folds": []} x', '{"folds": "unterminated', '{"folds": [-]}',
    ])
    def test_malformed_json_is_unreadable(self, text):
        with pytest.raises(BuiltinError, match="unreadable fold file"):
            loaded(text)

    def test_too_deep_is_unreadable(self):
        with pytest.raises(BuiltinError, match="unreadable fold file .*: maximum recursion depth"):
            loaded('{"folds": ' + "[" * 5000 + "]" * 5000 + ', "n_samples": 1}')

    def test_other_documents_are_not_fold_files(self):
        with pytest.raises(BuiltinError, match="not a fold file"):
            loaded('{"folds": []}')
        with pytest.raises(BuiltinError, match="not a fold file"):
            loaded("[1, 2, 3]")

    @pytest.mark.parametrize("item, message", [
        ("1.0", "gridsearch: fold 0: train index 1.0 is not an int"),
        ("true", "gridsearch: fold 0: train index True is not an int"),
        ('"2"', "gridsearch: fold 0: train index '2' is not an int"),
        ("10", "gridsearch: fold 0: train index 10 out of range for 10 rows"),
        (str(2**70), f"gridsearch: fold 0: train index {2**70} out of range for 10 rows"),
    ])
    def test_bad_index_in_a_fold_file_keeps_its_message(self, item, message):
        text = (
            '{"folds":[{"test":[5,6,7,8,9],"train":[0,1,' + item + ',3]}],'
            '"n_samples":10,"seed":0,"strategy":"kfold"}'
        )
        doc = loaded(text)
        with pytest.raises(BuiltinError) as info:
            run_grid_search(make_table(n=10), doc, RIDGE_GRID, "rmse", ["rmse"])
        assert str(info.value) == message


def traced_peak(call) -> int:
    """The peak bytes traced while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fold_write_allocates_less_than_half_its_output(tmp_path):
    """The fold file is written index list by index list, in chunks: at 24k
    rows the write's peak allocation stays under half the bytes it writes."""
    doc = make_fold_file(24000, {"strategy": "kfold", "k": 5, "seed": 7}, None)
    path = tmp_path / "folds.json"
    peak = traced_peak(lambda: write_fold_file(doc, path))
    written = path.stat().st_size
    assert written == len(canonical_bytes(doc)) + 1
    assert peak < written / 2, (peak, written)


def test_fold_load_never_sets_the_gridsearch_peak(tmp_path):
    """Loading the folds is not what bounds gridsearch's memory: at 5 folds
    of 24k rows the load's traced peak stays below the bytes the loaded
    document keeps plus `run_grid_search`'s traced peak above them."""
    doc = make_fold_file(24000, {"strategy": "kfold", "k": 5, "seed": 7}, None)
    path = tmp_path / "folds.json"
    write_fold_file(doc, path)
    table = make_table(n=24000)
    tracemalloc.start()
    try:
        folds = load_fold_file(path)
        kept, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run_grid_search(table, folds, RIDGE_GRID, "rmse", ["rmse"])
        search_peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    print(f"load peak {load_peak} B, kept {kept} B, search peak above it {search_peak} B")
    assert folds["folds"] == doc["folds"]
    assert load_peak < kept + search_peak, (load_peak, kept, search_peak)
