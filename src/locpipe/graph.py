"""Stage dependency graph: derivation from declared paths, ordering, closures.

Edges are derived purely from declared paths (a consumer dep that equals or
lies under a producer out), never from reading files, so planning works
before any stage has run. All orderings are deterministic with lexicographic
tie-breaking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .configmodel import PipelineSpec
from .errors import ConfigError

ACTION_RUN = "run"
ACTION_CACHED = "cached"
ACTION_BLOCKED = "blocked"


@dataclass(frozen=True)
class StageGraph:
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


@dataclass(frozen=True)
class PlanEntry:
    stage: str
    action: str  # run | cached | blocked
    reason: str = ""


@dataclass(frozen=True)
class ExecutionPlan:
    entries: tuple[PlanEntry, ...]


def _dep_under_out(dep: str, out: str) -> bool:
    return dep == out or dep.startswith(out + "/")


def build_graph(spec: PipelineSpec) -> StageGraph:
    """Derive the producer -> consumer graph; deps with no producer are source files."""
    names = sorted(spec.stages)
    edges: set[tuple[str, str]] = set()
    for consumer_name in names:
        consumer = spec.stages[consumer_name]
        for producer_name in names:
            if producer_name == consumer_name:
                continue
            producer = spec.stages[producer_name]
            if any(_dep_under_out(d, o) for d in consumer.deps for o in producer.outs):
                edges.add((producer_name, consumer_name))
    graph = StageGraph(nodes=tuple(names), edges=tuple(sorted(edges)))
    _check_acyclic(graph)
    return graph


def _check_acyclic(graph: StageGraph) -> None:
    if len(topo_order(graph, _raise_on_cycle=False)) == len(graph.nodes):
        return
    # Find one concrete cycle for the error message.
    consumers = graph.consumers()
    state: dict[str, int] = {}  # 0 = visiting, 1 = done
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 0
        stack.append(node)
        for nxt in consumers[node]:
            if state.get(nxt) == 0:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = 1
        return None

    for node in graph.nodes:
        if node not in state:
            cycle = visit(node)
            if cycle:
                raise ConfigError("dependency cycle: " + " -> ".join(cycle))
    raise ConfigError("dependency cycle detected")  # pragma: no cover


def topo_order(graph: StageGraph, _raise_on_cycle: bool = True) -> list[str]:
    """Kahn's algorithm with a min-heap: producers first, ties by ascending name."""
    indegree = {n: 0 for n in graph.nodes}
    consumers = graph.consumers()
    for _, consumer in graph.edges:
        indegree[consumer] += 1
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
    if _raise_on_cycle and len(order) != len(graph.nodes):
        _check_acyclic(graph)
    return order


def _closure(graph: StageGraph, start: Iterable[str], neighbours: dict[str, list[str]]) -> set[str]:
    start = list(start)
    for name in start:
        if name not in neighbours:
            raise ConfigError(f"unknown stage '{name}'")
    seen = set(start)
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        for nxt in neighbours[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def downstream_closure(graph: StageGraph, changed: Iterable[str]) -> set[str]:
    """The changed stages plus every stage reachable through consumer edges."""
    return _closure(graph, changed, graph.consumers())


def upstream_closure(graph: StageGraph, targets: Iterable[str]) -> set[str]:
    """The targets plus every producer they transitively depend on."""
    return _closure(graph, targets, graph.producers())


def to_dot(graph: StageGraph) -> str:
    """Graphviz text with stable node and edge ordering."""
    lines = ["digraph pipeline {"]
    for node in graph.nodes:
        lines.append(f'  "{node}";')
    for producer, consumer in graph.edges:
        lines.append(f'  "{producer}" -> "{consumer}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
