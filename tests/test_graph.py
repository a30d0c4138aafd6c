import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locpipe.configmodel import PipelineSpec, StageSpec, parse_pipeline
from locpipe.errors import ConfigError
from locpipe.graph import (
    build_graph,
    to_dot,
    topo_order,
    upstream_closure,
)


def spec_from(stage_defs: dict[str, tuple[list[str], list[str]]]) -> PipelineSpec:
    stages = {
        name: StageSpec(name=name, cmd="true", deps=tuple(deps), outs=tuple(outs))
        for name, (deps, outs) in stage_defs.items()
    }
    return PipelineSpec(version=1, stages=stages)


CHAIN = spec_from({
    "prepare": ([], ["prepared.csv"]),
    "featurize": (["prepared.csv"], ["features.csv"]),
    "split": (["features.csv"], ["folds.json"]),
    "gridsearch": (["folds.json"], ["results.json"]),
})

DIAMOND = spec_from({
    "A": ([], ["a.out"]),
    "B": (["a.out"], ["b.out"]),
    "C": (["a.out"], ["c.out"]),
    "D": (["b.out", "c.out"], ["d.out"]),
})


class TestBuildGraph:
    def test_four_stage_chain_has_three_edges(self):
        graph = build_graph(CHAIN)
        assert set(graph.edges) == {
            ("prepare", "featurize"), ("featurize", "split"), ("split", "gridsearch"),
        }

    def test_single_stage_no_edges(self):
        graph = build_graph(spec_from({"only": ([], [])}))
        assert graph.edges == ()

    def test_directory_prefix_containment(self):
        spec = spec_from({
            "A": ([], ["d"]),
            "B": (["d/x.csv"], ["y.csv"]),
            "C": (["other.csv"], []),
        })
        graph = build_graph(spec)
        # oracle: exhaustive dep-under-out check over all stage pairs
        expected = set()
        for p, (pdeps, pouts) in {"A": ([], ["d"]), "B": (["d/x.csv"], ["y.csv"]), "C": (["other.csv"], [])}.items():
            for c, (cdeps, couts) in {"A": ([], ["d"]), "B": (["d/x.csv"], ["y.csv"]), "C": (["other.csv"], [])}.items():
                if p != c and any(d == o or d.startswith(o + "/") for d in cdeps for o in pouts):
                    expected.add((p, c))
        assert set(graph.edges) == expected == {("A", "B")}

    def test_cycle_reports_sequence(self):
        spec = spec_from({
            "a": (["c.out"], ["a.out"]),
            "b": (["a.out"], ["b.out"]),
            "c": (["b.out"], ["c.out"]),
        })
        with pytest.raises(ConfigError, match="cycle.*->"):
            build_graph(spec)

    def test_declaration_order_irrelevant(self):
        text_a = """\
version: 1
stages:
  one:
    cmd: x
    outs: [f1]
  two:
    cmd: y
    deps: [f1]
    outs: [f2]
"""
        text_b = """\
version: 1
stages:
  two:
    cmd: y
    deps: [f1]
    outs: [f2]
  one:
    cmd: x
    outs: [f1]
"""
        assert build_graph(parse_pipeline(text_a)) == build_graph(parse_pipeline(text_b))


class TestTopoOrder:
    def test_diamond_lexicographically_least(self):
        graph = build_graph(DIAMOND)
        order = topo_order(graph)
        # oracle: enumerate every valid topological order, take the least
        nodes = list(graph.nodes)
        valid = [
            list(perm)
            for perm in itertools.permutations(nodes)
            if all(perm.index(p) < perm.index(c) for p, c in graph.edges)
        ]
        assert order == min(valid)
        assert order == ["A", "B", "C", "D"]

    def test_independent_stages_tie_break(self):
        graph = build_graph(spec_from({"b": ([], []), "a": ([], [])}))
        assert topo_order(graph) == ["a", "b"]

    def test_chain_order(self):
        assert topo_order(build_graph(CHAIN)) == ["prepare", "featurize", "split", "gridsearch"]


class TestDownstreamClosure:
    def test_unknown_stage(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            upstream_closure(build_graph(CHAIN), {"nope"})

    def test_upstream_closure(self):
        graph = build_graph(DIAMOND)
        assert upstream_closure(graph, {"D"}) == {"A", "B", "C", "D"}


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"s{i}" for i in range(n)]
    defs = {}
    for i, name in enumerate(names):
        deps = [
            f"o{j}" for j in range(i)
            if draw(st.booleans())
        ]
        defs[name] = (deps, [f"o{i}"])
    return spec_from(defs)


@given(random_dags())
def test_topo_is_valid_permutation(spec):
    graph = build_graph(spec)
    order = topo_order(graph)
    assert sorted(order) == sorted(graph.nodes)
    position = {name: i for i, name in enumerate(order)}
    for producer, consumer in graph.edges:
        assert position[producer] < position[consumer]


@given(random_dags(), st.data())
def test_closure_monotone(spec, data):
    graph = build_graph(spec)
    nodes = list(graph.nodes)
    small = set(data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes))))
    extra = set(data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes))))
    assert upstream_closure(graph, small) <= upstream_closure(graph, small | extra)


def test_dot_output_stable():
    graph = build_graph(DIAMOND)
    dot = to_dot(graph)
    assert dot.startswith("digraph pipeline {")
    assert '"A" -> "B";' in dot
    assert dot == to_dot(build_graph(DIAMOND))


def test_shuffled_declaration_same_graph():
    rng = random.Random(3)
    defs = {
        "w": ([], ["w.out"]),
        "x": (["w.out"], ["x.out"]),
        "y": (["w.out"], ["y.out"]),
        "z": (["x.out", "y.out"], ["z.out"]),
    }
    base = build_graph(spec_from(defs))
    for _ in range(5):
        items = list(defs.items())
        rng.shuffle(items)
        assert build_graph(spec_from(dict(items))) == base
