"""The induced-subgraph order on graphic sequences.

D1 <= D2 holds when some realization of D1 is an induced subgraph of some
realization of D2. Three routes are provided:

* ``rao_leq_oracle`` — exact brute force for small instances: every
  labeled realization of D2 is enumerated and scanned for an induced
  subgraph with degree sequence D1. A None answer is a refutation.
* ``rao_leq_sufficient`` — constructive test through regularity counts:
  when the count vectors compare pointwise and the count difference
  expands to a graphic sequence, the disjoint union of a realization of
  D1 and a realization of the difference realizes D2, giving an explicit
  witness. None is inconclusive.
* ``rao_leq_via_components`` — both sequences are realized with bounded
  components; if the small graph's components embed injectively into
  distinct components of the large graph (induced embedding per part,
  chosen by maximum bipartite matching), the union of the matched images
  is an induced copy. Components keep the labels they have in their
  realization: induced containment does not depend on labels, so no
  canonical relabeling is needed. None is inconclusive: only one
  realization pair is examined.

``compare`` runs the routes in order and returns the first decision
as an :class:`Outcome`. Every successful route returns a
:class:`RaoWitness` that can be revalidated independently of how it was
found. ``canonical_form`` is kept as a standalone isomorphism-invariant
labeling; no route uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, filterfalse
from typing import Iterator, Literal, Optional

from .errors import CapExceededError
from .graphs import (
    SimpleGraph,
    components_with_vertices,
    degree_sequence,
    to_json_dict,
)
from .realization import _reduce, realize_bounded, require_graphic
from .sequences import (
    IntegerSequence,
    RegularitySequence,
    erdos_gallai_check,
    from_regularity,
    leq_pointwise,
    to_regularity,
)

DEFAULT_ORACLE_CAP = 8
DEFAULT_INDUCED_CAP = 10
DEFAULT_PART_CAP = 16
ROUTES = ("sufficient", "components", "oracle")


def _adjacency_masks(graph: SimpleGraph) -> list[int]:
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# Canonical relabeling


def canonical_form(graph: SimpleGraph,
                   max_vertices: int = DEFAULT_PART_CAP) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Relabel ``graph`` into a canonical vertex order.

    The order minimises the adjacency code: the concatenation, vertex by
    vertex, of each newly placed vertex's adjacency bits to all earlier
    ones (the upper triangle of the adjacency matrix read column by
    column). The minimum is taken over all permutations via depth-first
    search with prefix pruning, so two graphs receive equal canonical
    forms exactly when they are isomorphic.

    Returns ``(canonical_graph, ordering)`` where ``ordering[i]`` is the
    original vertex placed at canonical index i.
    """
    n = graph.vertex_count
    if n > max_vertices:
        raise CapExceededError(
            f"canonicalization guard: {n} vertices exceeds cap {max_vertices}")
    if n <= 1:
        return graph, tuple(range(n))

    adj = _adjacency_masks(graph)
    best_cols: list[int] | None = None
    best_perm: tuple[int, ...] = ()
    placed: list[int] = []
    cols: list[int] = []
    used = [False] * n

    def extension(u: int) -> int:
        bits = 0
        row = adj[u]
        for w in placed:
            bits = (bits << 1) | ((row >> w) & 1)
        return bits

    def search(known_less: bool) -> None:
        nonlocal best_cols, best_perm
        t = len(placed)
        if t == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols.copy()
                best_perm = tuple(placed)
            return
        ranked = sorted((extension(u), u) for u in range(n) if not used[u])
        for ext, u in ranked:
            less = known_less
            if best_cols is not None and not known_less:
                if ext > best_cols[t]:
                    break  # ranked ascending: nothing later can stay minimal
                if ext < best_cols[t]:
                    less = True
            used[u] = True
            placed.append(u)
            cols.append(ext)
            search(less)
            cols.pop()
            placed.pop()
            used[u] = False

    search(False)
    position = {v: i for i, v in enumerate(best_perm)}
    relabeled = ((position[u], position[v]) for u, v in graph.edges)
    return SimpleGraph(n, relabeled), best_perm


# ---------------------------------------------------------------------------
# Induced-subgraph search


def is_induced_subgraph(small: SimpleGraph, host: SimpleGraph,
                        max_host_vertices: int = DEFAULT_INDUCED_CAP
                        ) -> Optional[tuple[int, ...]]:
    """Find an induced embedding of ``small`` into ``host``.

    Returns a tuple mapping each vertex of ``small`` to a distinct vertex
    of ``host`` with adjacency preserved in both directions (images are
    adjacent exactly when the preimages are), or None when no embedding
    exists. Exhaustive backtracking in vertex order, candidates tried
    ascending, so the result is deterministic.

    Raises :class:`CapExceededError` when the host exceeds the guard;
    callers at larger scale should fall back to a sufficient test.
    """
    if host.vertex_count > max_host_vertices:
        raise CapExceededError(
            f"induced-subgraph guard: host has {host.vertex_count} vertices,"
            f" cap is {max_host_vertices}")
    k, n = small.vertex_count, host.vertex_count
    if k > n:
        return None
    if k == 0:
        return ()
    adj_small = _adjacency_masks(small)
    adj_host = _adjacency_masks(host)
    deg_small = [m.bit_count() for m in adj_small]
    deg_host = [m.bit_count() for m in adj_host]
    image = [-1] * k
    taken = [False] * n

    def place(i: int) -> bool:
        for c in range(n):
            if taken[c] or deg_host[c] < deg_small[i]:
                continue
            if any(((adj_small[i] >> j) & 1) != ((adj_host[c] >> image[j]) & 1)
                   for j in range(i)):
                continue
            image[i] = c
            taken[c] = True
            if i + 1 == k or place(i + 1):
                return True
            taken[c] = False
        return False

    return tuple(image) if place(0) else None


# ---------------------------------------------------------------------------
# Witnesses


@dataclass(frozen=True, slots=True)
class RaoWitness:
    """An explicit induced embedding between realizations.

    ``embedding[i]`` is the vertex of ``g_large`` that vertex i of
    ``g_small`` maps to.
    """

    g_small: SimpleGraph
    g_large: SimpleGraph
    embedding: tuple[int, ...]

    def validates(self, d_small: IntegerSequence, d_large: IntegerSequence) -> bool:
        """Recheck every witness invariant from scratch."""
        if degree_sequence(self.g_small) != list(d_small.entries):
            return False
        if degree_sequence(self.g_large) != list(d_large.entries):
            return False
        emb = self.embedding
        if len(emb) != self.g_small.vertex_count:
            return False
        if len(set(emb)) != len(emb):
            return False
        if any(not 0 <= v < self.g_large.vertex_count for v in emb):
            return False
        large = self.g_large.edges
        for u in range(self.g_small.vertex_count):
            for v in range(u + 1, self.g_small.vertex_count):
                image = (min(emb[u], emb[v]), max(emb[u], emb[v]))
                if ((u, v) in self.g_small.edges) != (image in large):
                    return False
        return True


def witness_to_json(d_small: IntegerSequence, d_large: IntegerSequence,
                    witness: RaoWitness) -> dict:
    return {
        "d1": list(d_small.entries),
        "d2": list(d_large.entries),
        "g_small": to_json_dict(witness.g_small),
        "g_large": to_json_dict(witness.g_large),
        "embedding": list(witness.embedding),
    }


# ---------------------------------------------------------------------------
# Exact oracle


def labeled_realizations(seq: IntegerSequence) -> Iterator[SimpleGraph]:
    """Yield every simple graph in which vertex i has degree ``entries[i]``.

    Graphs appear in ascending order of their edge-indicator vector over
    lexicographically sorted vertex pairs. Pinning degrees to the sorted
    entries enumerates one representative per labeling orbit, which loses
    nothing for containment questions (they are isomorphism-invariant).
    """
    n = seq.n
    if any(d > n - 1 for d in seq.entries):
        return
    pairs = list(combinations(range(n), 2))
    residual = list(seq.entries)
    chosen: list[tuple[int, int]] = []
    # Depth first, skip before take: branch[t] is 0 on entering pair t, 1 once
    # its skip is explored, 2 while it is taken. After pair (u, v), u is in
    # n-1-v of the pairs left and v in n-2-u, which bounds a skip.
    branch = [0]
    while branch:
        t = len(branch) - 1
        if t == len(pairs):
            yield SimpleGraph(n, chosen)
            branch.pop()
            continue
        u, v = pairs[t]
        if branch[t] == 0:
            branch[t] = 1
            if residual[u] <= n - 1 - v and residual[v] <= n - 2 - u:
                branch.append(0)
        elif branch[t] == 1 and residual[u] > 0 and residual[v] > 0:
            branch[t] = 2
            residual[u] -= 1
            residual[v] -= 1
            chosen.append((u, v))
            branch.append(0)
        else:
            if branch[t] == 2:
                chosen.pop()
                residual[u] += 1
                residual[v] += 1
            branch.pop()


def _induced_on(host: SimpleGraph, vertices: tuple[int, ...]) -> SimpleGraph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = ((index[u], index[v]) for u, v in host.edges if u in index and v in index)
    return SimpleGraph(len(vertices), edges)


def rao_leq_oracle(d_small: IntegerSequence, d_large: IntegerSequence,
                   max_vertices: int = DEFAULT_ORACLE_CAP) -> Optional[RaoWitness]:
    """Exact decision by exhaustive search; None is a genuine refutation.

    Every realization of ``d_large`` (degrees pinned descending) is
    scanned over all vertex subsets of size ``d_small.n`` for an induced
    subgraph with degree sequence ``d_small``. The first hit in
    enumeration order is returned.
    """
    require_graphic(d_small)
    require_graphic(d_large)
    if d_large.n > max_vertices:
        raise CapExceededError(
            f"oracle guard: {d_large.n} vertices exceeds cap {max_vertices}")
    if d_small.n > d_large.n:
        return None
    want = list(d_small.entries)
    k = d_small.n
    for host in labeled_realizations(d_large):
        masks = _adjacency_masks(host)
        for subset in combinations(range(d_large.n), k):
            inside = 0
            for v in subset:
                inside |= 1 << v
            degrees = sorted(((masks[v] & inside).bit_count() for v in subset),
                             reverse=True)
            if degrees == want:
                return RaoWitness(_induced_on(host, subset), host, subset)
    return None


# ---------------------------------------------------------------------------
# Constructive sufficient test via regularity counts


def rao_leq_sufficient(d_small: IntegerSequence, d_large: IntegerSequence,
                       bound: int) -> Optional[RaoWitness]:
    """Try to certify d_small <= d_large through regularity counts.

    When the count vectors (with shared degree ``bound``) compare
    pointwise and their difference expands to a graphic sequence, the
    disjoint union of a realization of ``d_small`` and a realization of
    the difference realizes ``d_large``; the witness embeds the small
    realization identically. None is inconclusive, not a refutation.

    Each of ``d_small``, ``d_large`` and the difference gets one
    Erdős–Gallai pass. Both realizations are then reduced unchecked into
    one edge list, the difference at the vertices after ``d_small``'s.
    """
    if bound < max(d_small.max_degree, d_large.max_degree):
        raise ValueError(
            f"degree bound {bound} is smaller than a maximum entry"
            f" ({d_small.max_degree} / {d_large.max_degree})")
    require_graphic(d_small)
    require_graphic(d_large)
    counts_small = to_regularity(d_small, bound)
    counts_large = to_regularity(d_large, bound)
    if not leq_pointwise(counts_small, counts_large):
        return None
    difference = tuple(b - a for a, b in zip(counts_small.counts, counts_large.counts))
    rest = None
    if any(difference):
        rest = from_regularity(RegularitySequence(difference))
        if not erdos_gallai_check(rest).graphic:
            return None
    edges: list[tuple[int, int]] = []
    _reduce(d_small, 0, edges)
    small_graph = SimpleGraph(d_small.n, edges)
    embedding = tuple(range(d_small.n))
    if rest is None:
        return RaoWitness(small_graph, small_graph, embedding)
    _reduce(rest, d_small.n, edges)
    big = SimpleGraph(d_small.n + rest.n, edges)
    return RaoWitness(small_graph, big, embedding)


# ---------------------------------------------------------------------------
# Component decomposition and multiset embedding


Parts = list[tuple[SimpleGraph, tuple[int, ...]]]


def decompose(graph: SimpleGraph, max_part_vertices: int = DEFAULT_PART_CAP) -> Parts:
    """Split ``graph`` into its connected components.

    Returns the ``(part, vertices)`` pairs of
    :func:`~degseq.graphs.components_with_vertices`: parts ordered by
    their smallest original vertex, ``vertices[p]`` the original vertex at
    position p of the part. Raises :class:`CapExceededError` when a
    component has more than ``max_part_vertices`` vertices, since each
    part later goes through the exhaustive induced-subgraph search.
    """
    found = components_with_vertices(graph)
    for part, _ in found:
        if part.vertex_count > max_part_vertices:
            raise CapExceededError(
                f"component guard: {part.vertex_count} vertices exceeds cap"
                f" {max_part_vertices}")
    return found


def higman_embeds(first: Parts, second: Parts, induced_cap: int = DEFAULT_PART_CAP
                  ) -> Optional[dict[int, tuple[int, tuple[int, ...]]]]:
    """Map every part of ``first`` to a distinct part of ``second`` it embeds into.

    Returns ``{i: (j, embedding)}`` with ``embedding`` an induced embedding
    of part i of ``first`` into part j of ``second``, or None when no
    injective assignment exists. Decided by maximum bipartite matching
    (augmenting paths), so one small part relating to several images
    never causes a false negative. Each distinct pair of part graphs is
    searched once: equal parts, as a long regular sequence realizes, share
    the answer.
    """
    def distinct(parts: Parts) -> tuple[list[SimpleGraph], list[int]]:
        # the distinct graphs in order of first appearance, and each part's index among them
        index: dict[SimpleGraph, int] = {}
        classes = [index.setdefault(part, len(index)) for part, _ in parts]
        return list(index), classes

    graphs_first, class_first = distinct(first)
    graphs_second, class_second = distinct(second)
    table = [[is_induced_subgraph(part, other, max_host_vertices=induced_cap)
              for other in graphs_second]
             for part in graphs_first]
    # the columns each class of ``first`` embeds into, ascending
    candidates = [[j for j, b in enumerate(class_second) if row[b] is not None]
                  for row in table]
    match_right = [-1] * len(second)

    def augment(root: int, visited: list[bool]) -> bool:
        # depth first on an explicit stack, as a path through k equal parts is
        # k deep; a frame is [part, the column it tries]. A column passed in
        # this call stays visited, so the frames of one class can share one
        # scan of its candidates and keep the recursive search order: k equal
        # parts cost O(k * m) steps, not O(k^2 * m)
        scans = [filterfalse(visited.__getitem__, columns) for columns in candidates]
        stack = [[root, -1]]
        while stack:
            frame = stack[-1]
            j = frame[1] = next(scans[class_first[frame[0]]], -1)
            if j < 0:
                stack.pop()
            elif match_right[j] < 0:
                for i, j in stack:
                    match_right[j] = i
                return True
            else:
                visited[j] = True
                stack.append([match_right[j], -1])
        return False

    # a part left unmatched now stays unmatched, so the first failure decides
    if not all(augment(i, [False] * len(second)) for i in range(len(first))):
        return None
    return {i: (j, table[class_first[i]][class_second[j]])
            for j, i in enumerate(match_right) if i != -1}


def rao_leq_via_components(d_small: IntegerSequence, d_large: IntegerSequence,
                           part_cap: int = DEFAULT_PART_CAP) -> Optional[RaoWitness]:
    """Certify d_small <= d_large by matching bounded components.

    Realizes both sequences with bounded components, decomposes both
    graphs, and matches the small graph's components into distinct
    components of the large graph under induced containment. Matched full
    components form an induced image, giving an explicit witness. None is
    inconclusive: only this one realization pair is examined.
    """
    small_graph = realize_bounded(d_small)
    large_graph = realize_bounded(d_large)
    small_parts = decompose(small_graph, max_part_vertices=part_cap)
    large_parts = decompose(large_graph, max_part_vertices=part_cap)
    matched = higman_embeds(small_parts, large_parts, part_cap)
    if matched is None:
        return None
    mapping = [-1] * small_graph.vertex_count
    for i, (j, part_embedding) in matched.items():
        large_vertices = large_parts[j][1]
        for vertex, pos in zip(small_parts[i][1], part_embedding):
            mapping[vertex] = large_vertices[pos]
    return RaoWitness(small_graph, large_graph, tuple(mapping))


# ---------------------------------------------------------------------------
# The comparison cascade


@dataclass(frozen=True, slots=True)
class Outcome:
    """The verdict of :func:`compare`.

    ``method`` names the route that decided (None when inconclusive) and
    ``refusals`` holds, in route order, the message of every size guard
    that stopped a route.
    """

    result: Literal["holds", "does_not_hold", "inconclusive"]
    method: Optional[str]
    witness: Optional[RaoWitness]
    refusals: tuple[str, ...]


def compare(d_small: IntegerSequence, d_large: IntegerSequence, bound: int, *,
            methods: tuple[str, ...] = ROUTES,
            oracle_cap: int = DEFAULT_ORACLE_CAP) -> Outcome:
    """Decide d_small <= d_large by running the routes in ``methods`` in order.

    The first route that returns a witness decides "holds"; only the
    oracle decides "does_not_hold". A route whose size guard raises
    :class:`CapExceededError` is recorded in ``Outcome.refusals`` and the
    cascade moves on. ``bound`` is the shared degree bound of the
    sufficient route. :class:`NotGraphicError` and the sufficient route's
    ValueError for a bound below a maximum entry propagate.
    """
    routes = {
        "sufficient": lambda: rao_leq_sufficient(d_small, d_large, bound),
        "components": lambda: rao_leq_via_components(d_small, d_large),
        "oracle": lambda: rao_leq_oracle(d_small, d_large, max_vertices=oracle_cap),
    }
    unknown = [m for m in methods if m not in routes]
    if unknown:
        raise ValueError(f"unknown comparison method(s): {', '.join(unknown)}")
    refusals: list[str] = []
    for method in methods:
        try:
            witness = routes[method]()
        except CapExceededError as exc:
            refusals.append(str(exc))
            continue
        if witness is not None:
            return Outcome("holds", method, witness, tuple(refusals))
        if method == "oracle":
            return Outcome("does_not_hold", method, None, tuple(refusals))
    return Outcome("inconclusive", None, None, tuple(refusals))
