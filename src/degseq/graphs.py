"""Simple undirected graphs on integer-labeled vertices.

Loop-free and multi-edge-free throughout; isolated vertices are allowed
(they matter for induced subgraphs even though degree sequences never
contain zeros). ``SimpleGraph`` takes its edges as any iterable of
(u, v) pairs and stores them once, as a frozenset of tuples with u < v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain


# Edges between vertices below this label are shared tuple objects, much as
# CPython shares small ints. The comparison routes keep many small graphs
# alive at once (every witness holds two), and without sharing a third of
# their memory is copies of the same few dozen edge tuples.
_SHARED_LABELS = 32
_SHARED_EDGES = tuple(tuple((u, v) for v in range(_SHARED_LABELS))
                      for u in range(_SHARED_LABELS))


@dataclass(frozen=True, slots=True)
class SimpleGraph:
    """An undirected graph: ``vertex_count`` vertices, edges as (u, v) with u < v.

    ``edges`` may be any iterable of pairs, in either order and with
    repeats; it is stored as a frozenset of normalized tuples.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        shared = _SHARED_EDGES
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u > v:
                u, v = v, u
                edge = (u, v)
            elif type(edge) is not tuple:
                edge = (u, v)
            # otherwise the caller's normalized tuple is kept, so a graph
            # built from another graph's edges allocates no new tuples
            normalized.add(shared[u][v] if v < _SHARED_LABELS else edge)
        # a frozenset copied from a set is sized to fit; grown edge by edge, it can be twice as big
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def degree_sequence(graph: SimpleGraph) -> list[int]:
    """Vertex degrees sorted nonincreasing. Zeros appear for isolated vertices."""
    degrees = [0] * graph.vertex_count
    for u, v in graph.edges:
        degrees[u] += 1
        degrees[v] += 1
    return sorted(degrees, reverse=True)


def disjoint_union(first: SimpleGraph, second: SimpleGraph) -> SimpleGraph:
    """Place ``second`` after ``first``, shifting its vertex labels."""
    shift = first.vertex_count
    shifted = ((u + shift, v + shift) for u, v in second.edges)
    return SimpleGraph(first.vertex_count + second.vertex_count,
                       chain(first.edges, shifted))


def components_with_vertices(graph: SimpleGraph) -> list[tuple[SimpleGraph, tuple[int, ...]]]:
    """Connected components with their original vertex lists.

    Each component is relabeled 0..k-1 following ascending original ids;
    the paired tuple maps new label -> original vertex. Components are
    ordered by their smallest original vertex.
    """
    neigh: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    component = [-1] * graph.vertex_count
    position = [0] * graph.vertex_count
    members_of: list[list[int]] = []
    for start in range(graph.vertex_count):
        if component[start] >= 0:
            continue
        label = len(members_of)
        component[start] = label
        stack = [start]
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in neigh[v]:
                if component[w] < 0:
                    component[w] = label
                    stack.append(w)
        members.sort()
        for i, v in enumerate(members):
            position[v] = i
        members_of.append(members)
    # u < v and positions follow ascending ids, so each relabeled edge is
    # already normalized
    edges_of: list[list[tuple[int, int]]] = [[] for _ in members_of]
    for u, v in graph.edges:
        edges_of[component[u]].append((position[u], position[v]))
    return [(SimpleGraph(len(members), edges), tuple(members))
            for members, edges in zip(members_of, edges_of)]


def components(graph: SimpleGraph) -> list[SimpleGraph]:
    """Connected components as standalone relabeled graphs."""
    return [part for part, _ in components_with_vertices(graph)]


# Serialization. Text form:
#     p <vertex_count>
#     u v        (one line per edge, sorted lexicographically)
# Lines starting with 'c' are comments. JSON form mirrors the dataclass.


def to_edge_list_text(graph: SimpleGraph) -> str:
    lines = [f"p {graph.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> SimpleGraph:
    vertex_count = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            vertex_count = int(line.split()[1])
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    if vertex_count is None:
        raise ValueError("missing 'p <vertex_count>' header line")
    return SimpleGraph(vertex_count, edges)


def to_json_dict(graph: SimpleGraph) -> dict:
    return {
        "vertex_count": graph.vertex_count,
        "edges": [[u, v] for u, v in sorted(graph.edges)],
    }


def from_json_dict(data: dict) -> SimpleGraph:
    return SimpleGraph(data["vertex_count"], data["edges"])


def to_json_text(graph: SimpleGraph) -> str:
    return json.dumps(to_json_dict(graph), indent=2) + "\n"
