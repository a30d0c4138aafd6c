"""Stage dependency graph: derivation from declared paths, ordering, closures.

Edges are derived purely from declared paths (a consumer dep that equals,
lies under or contains a producer out: `configmodel.paths_overlap`), never
from reading files, so planning works before any stage has run. `topo_order`
orders the stages and reports a cycle in one walk, deterministically with
lexicographic tie-breaking. What a plan does with the graph (its actions and
reasons) lives with its only producer, `runner.plan`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

from .configmodel import PipelineSpec, paths_overlap
from .errors import ConfigError


class StageGraph(NamedTuple):
    nodes: tuple[str, ...]                 # sorted by name
    edges: tuple[tuple[str, str], ...]     # sorted (producer, consumer) pairs

    def consumers(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for producer, consumer in self.edges:
            out[producer].append(consumer)
        return out

    def producers(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for producer, consumer in self.edges:
            out[consumer].append(producer)
        return out


def build_graph(spec: PipelineSpec) -> StageGraph:
    """Derive the producer -> consumer graph; deps with no producer are source
    files. Raises ConfigError on a cycle."""
    names = sorted(spec.stages)
    edges: set[tuple[str, str]] = set()
    for consumer_name in names:
        consumer = spec.stages[consumer_name]
        for producer_name in names:
            if producer_name == consumer_name:
                continue
            producer = spec.stages[producer_name]
            if any(paths_overlap(d, o) for d in consumer.deps for o in producer.outs):
                edges.add((producer_name, consumer_name))
    graph = StageGraph(nodes=tuple(names), edges=tuple(sorted(edges)))
    topo_order(graph)
    return graph


def topo_order(graph: StageGraph) -> list[str]:
    """Kahn's algorithm with a min-heap: producers first, ties by ascending name.

    Stages left unordered each have an unordered producer, so walking back
    along those from any of them must revisit a stage; that loop is the
    cycle reported.
    """
    consumers, producers = graph.consumers(), graph.producers()
    indegree = {n: len(producers[n]) for n in graph.nodes}
    ready = [n for n in graph.nodes if indegree[n] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in consumers[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) < len(graph.nodes):
        walk = [min(n for n in graph.nodes if indegree[n])]
        while walk.count(walk[-1]) == 1:
            walk.append(min(p for p in producers[walk[-1]] if indegree[p]))
        cycle = walk[walk.index(walk[-1]):]
        raise ConfigError("dependency cycle: " + " -> ".join(reversed(cycle)))
    return order


def upstream_closure(graph: StageGraph, targets: Iterable[str]) -> set[str]:
    """The targets plus every producer they transitively depend on."""
    producers = graph.producers()
    frontier = list(targets)
    for name in frontier:
        if name not in producers:
            raise ConfigError(f"unknown stage '{name}'")
    seen = set(frontier)
    while frontier:
        for nxt in producers[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def to_dot(graph: StageGraph) -> str:
    """Graphviz text with stable node and edge ordering."""
    lines = ["digraph pipeline {"]
    for node in graph.nodes:
        lines.append(f'  "{node}";')
    for producer, consumer in graph.edges:
        lines.append(f'  "{producer}" -> "{consumer}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
