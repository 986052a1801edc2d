"""Constructing graphs that realize a graphic sequence.

``realize`` is a highest-degree-first repeated reduction: the vertex with
the largest remaining demand is wired to the next-largest demands, which
succeeds for every graphic input and is deterministic (ties break on
vertex index).

``realize_bounded`` keeps every connected component small. With L = d1^2
the sorted sequence is cut into q = floor(n / L) chunks (the last absorbs
the remainder), chunks with odd sum are paired in ascending order and
merged, and every block is realized independently. Each block has even
sum and between L and 3L entries, so its length is at least the square of
its own largest entry and the block is guaranteed graphic; placing the
blocks side by side therefore realizes the input with no component larger
than 3 * d1^2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGraphicError, PlanNotApplicableError
from .graphs import SimpleGraph
from .sequences import IntegerSequence, erdos_gallai_check, erdos_gallai_sides


def require_graphic(seq: IntegerSequence) -> None:
    """Raise :class:`NotGraphicError` (with certificate) unless ``seq`` is graphic."""
    verdict = erdos_gallai_check(seq)
    if verdict.graphic:
        return
    if verdict.failing_index is None:
        raise NotGraphicError(f"sequence {seq} has odd degree sum", verdict)
    lhs, rhs = erdos_gallai_sides(seq, verdict.failing_index)
    raise NotGraphicError(
        f"sequence {seq} is not graphic (k={verdict.failing_index}: {lhs} > {rhs})",
        verdict)


def realize(seq: IntegerSequence) -> SimpleGraph:
    """Build a simple graph whose degree sequence equals ``seq``.

    Vertex i ends with degree ``seq.entries[i]``.
    """
    require_graphic(seq)
    n = seq.n
    residual = list(seq.entries)
    edges: list[tuple[int, int]] = []
    while True:
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        v = order[0]
        demand = residual[v]
        if demand == 0:
            break
        targets = order[1:demand + 1]
        if len(targets) < demand or residual[targets[-1]] == 0:
            raise RuntimeError(f"reduction failed on graphic input {seq}")
        residual[v] = 0
        for u in targets:
            residual[u] -= 1
            edges.append((u, v) if u < v else (v, u))
    return SimpleGraph(n, frozenset(edges))


@dataclass(frozen=True)
class RealizationPlan:
    """Chunking and pairing used by the bounded-component construction."""

    chunk_length: int
    chunks: tuple[IntegerSequence, ...]
    paired_blocks: tuple[IntegerSequence, ...]


def plan_bounded(seq: IntegerSequence) -> RealizationPlan:
    """Cut ``seq`` into chunks of length L = d1^2 and pair the odd-sum ones.

    The last chunk absorbs the division remainder (length L..2L-1). Odd-sum
    chunks are merged pairwise in ascending chunk order; a merged block
    sits at the position of its earlier chunk. Every resulting block is
    re-sorted nonincreasing, has even sum, and length between L and 3L.

    Raises :class:`PlanNotApplicableError` when n < L (no chunking to do)
    and :class:`NotGraphicError` for non-graphic input.
    """
    require_graphic(seq)
    chunk_length = seq.max_degree ** 2
    q, r = divmod(seq.n, chunk_length)
    if q == 0:
        raise PlanNotApplicableError(
            f"sequence has {seq.n} entries, fewer than one chunk of {chunk_length};"
            " realize it directly")
    entries = seq.entries
    pieces = [entries[i * chunk_length:(i + 1) * chunk_length] for i in range(q - 1)]
    pieces.append(entries[(q - 1) * chunk_length:])
    chunks = tuple(IntegerSequence(p) for p in pieces)

    keyed_blocks: list[tuple[int, tuple[int, ...]]] = []
    pending: tuple[int, tuple[int, ...]] | None = None
    for idx, piece in enumerate(pieces):
        if sum(piece) % 2 == 0:
            keyed_blocks.append((idx, piece))
        elif pending is None:
            pending = (idx, piece)
        else:
            merged = tuple(sorted(pending[1] + piece, reverse=True))
            keyed_blocks.append((pending[0], merged))
            pending = None
    if pending is not None:
        # Even total degree makes the number of odd-sum chunks even.
        raise RuntimeError(f"unpaired odd-sum chunk for graphic input {seq}")
    keyed_blocks.sort(key=lambda kb: kb[0])
    blocks = tuple(IntegerSequence(b) for _, b in keyed_blocks)
    return RealizationPlan(chunk_length, chunks, blocks)


def realize_bounded(seq: IntegerSequence) -> SimpleGraph:
    """Realize ``seq`` with every connected component at most 3 * d1^2 vertices.

    Sequences shorter than one chunk are realized directly (the whole
    graph then has fewer than d1^2 vertices). Otherwise each block of the
    plan is realized independently and its edges are shifted past the
    blocks before it, so block k occupies a contiguous vertex range.
    """
    if seq.n < seq.max_degree ** 2:
        return realize(seq)
    edges: list[tuple[int, int]] = []
    offset = 0
    for block in plan_bounded(seq).paired_blocks:
        edges.extend((u + offset, v + offset) for u, v in realize(block).edges)
        offset += block.n
    return SimpleGraph(offset, frozenset(edges))
