"""Constructing graphs that realize a graphic sequence.

Both constructions share one highest-degree-first reduction: the vertex
with the largest remaining demand is wired to the next-largest demands,
which succeeds for every graphic input and is deterministic (ties break
on vertex index). A bucket queue, one min-heap of vertex indices per
remaining demand, finds both without re-sorting, so a block of n
vertices and m edges is reduced in O(m log n + d1).

``realize_bounded`` keeps every connected component small. With L = d1^2
a sequence shorter than L is one block; a longer one is cut into
q = floor(n / L) chunks (the last absorbs the remainder), and chunks with
odd sum are paired in ascending order and merged. The length lemma (even
sum and at least d1^2 entries force graphicality) does the checking: a
long sequence is graphic exactly when its sum is even, and each block
has even sum and between L and 3L entries, so its length is at least the
square of its own largest entry and the block is graphic too. Only a
short sequence needs an Erdős–Gallai pass, and the blocks are reduced
side by side into one graph with no component above 3 * d1^2 vertices.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import NotGraphicError
from .graphs import SimpleGraph
from .sequences import IntegerSequence, erdos_gallai_check


def require_graphic(seq: IntegerSequence) -> None:
    """Raise :class:`NotGraphicError` (with certificate) unless ``seq`` is graphic."""
    verdict = erdos_gallai_check(seq)
    if verdict.graphic:
        return
    if verdict.failing_index is None:
        raise NotGraphicError(f"sequence {seq} has odd degree sum", verdict)
    raise NotGraphicError(
        f"sequence {seq} is not graphic"
        f" (k={verdict.failing_index}: {verdict.lhs} > {verdict.rhs})",
        verdict)


def _reduce(block: IntegerSequence, offset: int, edges: list[tuple[int, int]]) -> None:
    """Append the edges of the reduction of graphic ``block`` to ``edges``.

    Vertex i of the block is vertex ``offset + i`` of the edge list, one
    int object that all edges of the vertex share. Order the vertices by
    highest residual, then lowest index; each step wires the first one to
    as many of the next as its residual.

    ``buckets[r]`` is a min-heap of the labels whose residual is r: a
    step pops the lowest label of the highest nonempty bucket, takes its
    targets as the lowest labels of the buckets from there down, and
    pushes each target one bucket lower; a residual of 0 leaves the
    queue. One pop and one push per edge make O(m log n + d1) for m edges.
    """
    # the entries are nonincreasing, so each bucket starts as an ascending
    # run of labels, which is already a heap
    buckets: list[list[int]] = [[] for _ in range(block.max_degree + 1)]
    for label, entry in enumerate(block.entries, offset):
        buckets[entry].append(label)
    top = block.max_degree
    while True:
        while top and not buckets[top]:
            top -= 1
        if top == 0:
            return
        v = heappop(buckets[top])
        # all targets are taken before any moves down a bucket, so none is
        # taken twice
        targets: list[tuple[int, int]] = []
        r = top
        while len(targets) < top:
            if r == 0:
                raise RuntimeError(f"reduction failed on graphic input {block}")
            bucket = buckets[r]
            while bucket and len(targets) < top:
                targets.append((r, heappop(bucket)))
            r -= 1
        for r, u in targets:
            if r > 1:
                heappush(buckets[r - 1], u)
            edges.append((u, v) if u < v else (v, u))


def realize(seq: IntegerSequence) -> SimpleGraph:
    """Build a simple graph whose degree sequence equals ``seq``.

    Vertex i ends with degree ``seq.entries[i]``.
    """
    require_graphic(seq)
    edges: list[tuple[int, int]] = []
    _reduce(seq, 0, edges)
    return SimpleGraph(seq.n, edges)


def plan_bounded(seq: IntegerSequence) -> tuple[IntegerSequence, ...]:
    """Cut ``seq`` into graphic blocks for :func:`realize_bounded`.

    With L = d1^2, a sequence shorter than L is its own single block.
    A longer one is cut into q = floor(n / L) chunks of length L, the
    last absorbing the division remainder (length L..2L-1). Odd-sum
    chunks are merged pairwise in ascending chunk order; a merged block
    sits at the position of its earlier chunk and stays nonincreasing,
    since every entry of an earlier chunk is at least every entry of a
    later one. Every block then has even sum and length between L and
    3L, so it is graphic by the length lemma.

    Raises :class:`NotGraphicError` unless ``seq`` is graphic: a sequence
    shorter than L gets an Erdős–Gallai pass, a longer one only a parity
    check, since by the same lemma an odd sum is its only way to fail.
    """
    chunk_length = seq.max_degree ** 2
    q = seq.n // chunk_length
    if q == 0:
        require_graphic(seq)
        return (seq,)
    if seq.total % 2 != 0:
        require_graphic(seq)  # raises: odd degree sum
    entries = seq.entries
    starts = [i * chunk_length for i in range(q)] + [seq.n]
    blocks: list[tuple[int, ...]] = []
    pending: int | None = None  # index of the odd-sum block awaiting a partner
    for lo, hi in zip(starts, starts[1:]):
        piece = entries[lo:hi]
        if sum(piece) % 2 == 0:
            blocks.append(piece)
        elif pending is None:
            pending = len(blocks)
            blocks.append(piece)
        else:
            blocks[pending] += piece
            pending = None
    return tuple(IntegerSequence(b) for b in blocks)


def realize_bounded(seq: IntegerSequence) -> SimpleGraph:
    """Realize ``seq`` with every connected component at most 3 * d1^2 vertices.

    Every block of :func:`plan_bounded` is graphic, so each is reduced
    unchecked into one edge list, past the blocks before it, and block k
    occupies a contiguous vertex range. A sequence shorter than d1^2 is
    one block, whose whole graph has fewer than d1^2 vertices.
    """
    edges: list[tuple[int, int]] = []
    offset = 0
    for block in plan_bounded(seq):
        _reduce(block, offset, edges)
        offset += block.n
    return SimpleGraph(offset, edges)
