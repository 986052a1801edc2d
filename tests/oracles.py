"""Independent brute-force oracles that pin expected values.

Everything here sweeps raw search spaces directly (edge masks,
permutations, injections) and stays independent of the library's
decision procedures, so library results can be checked against them.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from itertools import accumulate, combinations, permutations

import numpy as np

from degseq.graphs import SimpleGraph
from degseq.sequences import (
    GraphicalityVerdict,
    IntegerSequence,
    erdos_gallai_check,
    parse_sequence,
)

_MULTISET_CACHE: dict[int, set[tuple[int, ...]]] = {}


def all_graphs(n: int):
    """Every simple graph on n labeled vertices, ascending edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1)
        yield SimpleGraph(n, edges)


def realizable_degree_multisets(n: int) -> set[tuple[int, ...]]:
    """Sorted-ascending degree tuples over all 2^C(n,2) graphs on n vertices.

    Vectorized mask sweep; cached per n because the n=7 space has ~2M
    graphs.
    """
    if n in _MULTISET_CACHE:
        return _MULTISET_CACHE[n]
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.int64)
    degrees = np.zeros((1 << m, n), dtype=np.int8)
    for index, (u, v) in enumerate(pairs):
        bit = ((masks >> index) & 1).astype(np.int8)
        degrees[:, u] += bit
        degrees[:, v] += bit
    degrees.sort(axis=1)
    result = {tuple(int(x) for x in row) for row in np.unique(degrees, axis=0)}
    _MULTISET_CACHE[n] = result
    return result


def is_graphic_by_enumeration(entries: tuple[int, ...]) -> bool:
    """Is there a graph on len(entries) labeled vertices with these degrees?"""
    return tuple(sorted(entries)) in realizable_degree_multisets(len(entries))


def permutation_code(graph: SimpleGraph, perm: tuple[int, ...]) -> list[int]:
    """Adjacency code of ``graph`` under a vertex ordering.

    Entry t packs the adjacency bits of perm[t] to perm[0..t-1], earliest
    placement most significant.
    """
    cols = []
    for t in range(graph.vertex_count):
        bits = 0
        for i in range(t):
            u, v = perm[i], perm[t]
            edge = (u, v) if u < v else (v, u)
            bits = (bits << 1) | (1 if edge in graph.edges else 0)
        cols.append(bits)
    return cols


def brute_minimum_code(graph: SimpleGraph) -> list[int]:
    """Minimum adjacency code over every vertex permutation."""
    return min(permutation_code(graph, perm)
               for perm in permutations(range(graph.vertex_count)))


def brute_induced_embedding_exists(small: SimpleGraph, host: SimpleGraph) -> bool:
    """Try every injection of small's vertices into host's."""
    k = small.vertex_count
    if k > host.vertex_count:
        return False
    for chosen in combinations(range(host.vertex_count), k):
        for image in permutations(chosen):
            ok = True
            for u in range(k):
                for v in range(u + 1, k):
                    pair = (min(image[u], image[v]), max(image[u], image[v]))
                    if ((u, v) in small.edges) != (pair in host.edges):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def recursive_kuhn_matching(table: list[list[bool]], columns: int) -> list[int] | None:
    """Kuhn's augmenting-path matching of every row into a distinct column.

    The textbook recursive form, columns tried in ascending order. Returns
    the row matched to each column (-1 for none), or None as soon as a row
    stays unmatched.
    """
    match = [-1] * columns

    def augment(i: int, visited: list[bool]) -> bool:
        for j, ok in enumerate(table[i]):
            if ok and not visited[j]:
                visited[j] = True
                if match[j] == -1 or augment(match[j], visited):
                    match[j] = i
                    return True
        return False

    for i in range(len(table)):
        if not augment(i, [False] * columns):
            return None
    return match


def resort_reduction(block: IntegerSequence, offset: int) -> list[tuple[int, int]]:
    """The edges of the highest-degree-first reduction, re-sorting every step.

    At each step all n vertices are sorted by (highest residual, lowest
    index); the first is wired to the next ``demand`` vertices. Vertex i
    is labeled ``offset + i``. O(n^2 log n), kept as the reference for the
    library's bucket-queue reduction, whose edges must equal these in
    the same order.
    """
    n = block.n
    residual = list(block.entries)
    edges = []
    while True:
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        v = order[0]
        demand = residual[v]
        if demand == 0:
            return edges
        targets = order[1:demand + 1]
        if len(targets) < demand or residual[targets[-1]] == 0:
            raise RuntimeError(f"reduction failed on graphic input {block}")
        residual[v] = 0
        for u in targets:
            residual[u] -= 1
            edges.append((offset + min(u, v), offset + max(u, v)))


def erdos_gallai_every_k(seq: IntegerSequence) -> GraphicalityVerdict:
    """The Erdos-Gallai verdict from testing every prefix length k in turn.

    One binary search per k; kept as the reference for the library's
    run-end test, whose verdicts must equal these field for field.
    """
    d = seq.entries
    n = len(d)
    prefix = (0, *accumulate(d))
    total = prefix[n]
    if total % 2 != 0:
        return GraphicalityVerdict(False, None)
    ascending = d[::-1]
    for k in range(1, n + 1):
        lhs = prefix[k]
        ge = n - bisect_left(ascending, k)  # entries >= k
        capped = max(0, ge - k)
        tail_start = max(k, ge)
        rhs = k * (k - 1) + k * capped + (total - prefix[tail_start])
        if lhs > rhs:
            return GraphicalityVerdict(False, k, lhs, rhs)
    return GraphicalityVerdict(True, None)


def expand_tokens_one_by_one(text: str, room: int, ceiling: int) -> list[int]:
    """Expand a sequence text token by token, as the CLI did before its fast path.

    ``ceiling`` is the figure the refusal message names. Kept as the
    reference for ``cli._expand_tokens``, whose entries and messages must
    equal these.
    """
    power = re.compile(r"^(-?\d+)\^(\d+)$")
    entries: list[int] = []
    for token in text.replace(",", " ").split():
        match = power.match(token)
        copies = 1
        if match:
            try:
                entry, copies = int(match.group(1)), int(match.group(2))
            except ValueError:
                raise ValueError(f"cannot parse token {token!r}") from None
        if len(entries) + copies > room:
            raise ValueError(
                f"sequence expands past {ceiling} entries at token {token!r}")
        if match:
            entries.extend([entry] * copies)
            continue
        try:
            entries.append(int(token))
        except ValueError:
            raise ValueError(f"cannot parse token {token!r}") from None
    return entries


def read_by_expanding(texts: list[str], ceiling: int,
                      strip_zeros: bool) -> list[IntegerSequence]:
    """Expand every text token by token and sort it, as the CLI read sequences before.

    The texts share one budget of ``ceiling`` entries, zeros count toward
    it before ``strip_zeros`` drops them. Kept as the reference for
    ``cli._read_sequences``, whose sequences and messages must equal these.
    """
    room = ceiling
    sequences = []
    for text in texts:
        entries = expand_tokens_one_by_one(text, room, ceiling)
        room -= len(entries)
        if strip_zeros:
            entries = [e for e in entries if e != 0]
        sequences.append(parse_sequence(entries))
    return sequences


def random_graphic_sequence(rng: random.Random, max_entry: int,
                            max_length: int) -> IntegerSequence:
    """Rejection-sample a graphic sequence (parity repaired, then EG-filtered)."""
    while True:
        n = rng.randint(1, max_length)
        entries = sorted((rng.randint(1, max_entry) for _ in range(n)),
                         reverse=True)
        if sum(entries) % 2 != 0:
            bigger_odd = [e for e in entries if e % 2 == 1 and e > 1]
            if bigger_odd:
                entries.remove(bigger_odd[0])
                entries.append(bigger_odd[0] - 1)
                entries.sort(reverse=True)
            elif n < max_length:
                entries.append(1)
            else:
                continue
        candidate = IntegerSequence(tuple(entries))
        if erdos_gallai_check(candidate).graphic:
            return candidate
