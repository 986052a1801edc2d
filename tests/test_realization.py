import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from degseq import realization
from degseq.errors import NotGraphicError
from degseq.graphs import components, degree_sequence, disjoint_union
from degseq.harness import enumerate_graphic
from degseq.realization import _reduce, plan_bounded, realize, realize_bounded, require_graphic
from degseq.sequences import erdos_gallai_check, parse_sequence
from oracles import random_graphic_sequence, resort_reduction

raw_lists = st.lists(st.integers(1, 4), min_size=1, max_size=16)


def graphic_sequences():
    def repair(raw):
        entries = sorted(raw, reverse=True)
        if sum(entries) % 2 != 0:
            entries.append(1)
            entries.sort(reverse=True)
        return parse_sequence(entries)

    return raw_lists.map(repair).filter(
        lambda seq: erdos_gallai_check(seq).graphic)


class TestRealize:
    def test_path(self):
        g = realize(parse_sequence([2, 1, 1]))
        assert degree_sequence(g) == [2, 1, 1]
        assert g.edge_count == 2

    def test_k4(self):
        g = realize(parse_sequence([3, 3, 3, 3]))
        assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_two_regular_on_six(self):
        g = realize(parse_sequence([2, 2, 2, 2, 2, 2]))
        assert degree_sequence(g) == [2] * 6

    def test_rejects_non_graphic(self):
        with pytest.raises(NotGraphicError):
            realize(parse_sequence([3, 1]))
        with pytest.raises(NotGraphicError):
            realize(parse_sequence([1, 1, 1]))

    def test_vertex_i_gets_entry_i(self):
        seq = parse_sequence([3, 2, 2, 2, 1])
        g = realize(seq)
        degrees = [0] * g.vertex_count
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert degrees == list(seq.entries)

    @given(graphic_sequences())
    def test_degrees_always_match(self, seq):
        assert degree_sequence(realize(seq)) == list(seq.entries)


def reduced(seq, offset=0):
    edges = []
    _reduce(seq, offset, edges)
    return edges


class TestReduceMatchesResort:
    """The bucket queue keeps the re-sort's tie-break, so every edge stays put."""

    def test_every_small_graphic_sequence(self):
        for seq in enumerate_graphic(4, 9):
            assert reduced(seq, 5) == resort_reduction(seq, 5), seq

    @given(st.builds(random_graphic_sequence, st.randoms(use_true_random=False),
                     st.integers(1, 60), st.just(300)))
    def test_random_graphic_sequences(self, seq):
        assert reduced(seq) == resort_reduction(seq, 0)

    @pytest.mark.parametrize("entries", [[3] * 500, [40] * 200, [7] * 60 + [2] * 90 + [1] * 4])
    def test_long_sequences(self, entries):
        seq = parse_sequence(entries)
        assert reduced(seq, 11) == resort_reduction(seq, 11)


class TestPlanBounded:
    def test_twelve_twos(self):
        blocks = plan_bounded(parse_sequence([2] * 12))
        assert [b.entries for b in blocks] == [(2, 2, 2, 2)] * 3

    def test_two_odd_chunks_merge(self):
        # d1 = 2 gives chunk length 4; thirteen entries split 4 + 4 + 5 and
        # the 2nd and 3rd chunks have odd sums, so they merge into one block.
        seq = parse_sequence([2] * 7 + [1] * 6)
        assert [b.entries for b in plan_bounded(seq)] == [
            (2, 2, 2, 2),
            (2, 2, 2, 1, 1, 1, 1, 1, 1),
        ]

    def test_merged_block_sits_at_the_earlier_chunk(self):
        # d1 = 3 gives chunk length 9: chunks 3^9 and 1^9 have odd sums and
        # merge at the first position, ahead of the even chunk 2^9.
        seq = parse_sequence([3] * 9 + [2] * 9 + [1] * 9)
        assert [b.entries for b in plan_bounded(seq)] == [
            (3,) * 9 + (1,) * 9,
            (2,) * 9,
        ]

    def test_remainder_goes_to_last_chunk(self):
        # n = 14 = 3*4 + 2: the last block absorbs the remainder, L..2L-1
        seq = parse_sequence([2] * 8 + [1] * 6)
        lengths = [b.n for b in plan_bounded(seq)]
        assert lengths == [4, 4, 6]

    def test_short_sequence_is_one_block(self):
        seq = parse_sequence([3, 3, 3, 3])  # n = 4 < 9
        assert plan_bounded(seq) == (seq,)

    def test_non_graphic_rejected(self):
        with pytest.raises(NotGraphicError, match="odd degree sum"):
            plan_bounded(parse_sequence([1] * 5))

    def test_short_non_graphic_rejected_with_certificate(self):
        with pytest.raises(NotGraphicError, match=r"\(k=2: 6 > 4\)$"):
            plan_bounded(parse_sequence([3, 3, 1, 1]))

    @given(graphic_sequences())
    def test_plan_invariants(self, seq):
        chunk_length = seq.max_degree ** 2
        blocks = plan_bounded(seq)
        if seq.n < chunk_length:
            assert blocks == (seq,)
            return
        merged = Counter()
        for block in blocks:
            assert block.total % 2 == 0
            assert chunk_length <= block.n <= 3 * chunk_length
            assert block.n >= block.max_degree ** 2
            assert erdos_gallai_check(block).graphic
            merged.update(block.entries)
        assert merged == Counter(seq.entries)


class TestRealizeBounded:
    def test_twelve_twos_three_components(self):
        g = realize_bounded(parse_sequence([2] * 12))
        assert degree_sequence(g) == [2] * 12
        sizes = [p.vertex_count for p in components(g)]
        assert sizes == [4, 4, 4]
        assert max(sizes) <= 12  # 3 * d1^2

    def test_smallest_paired_case(self):
        g = realize_bounded(parse_sequence([1, 1]))
        assert sorted(g.edges) == [(0, 1)]
        assert components(g)[0].vertex_count == 2 <= 3

    def test_short_sequence_realized_directly(self):
        g = realize_bounded(parse_sequence([3, 3, 3, 3]))
        assert degree_sequence(g) == [3, 3, 3, 3]

    def test_random_bounded_degree_four(self):
        rng = random.Random(40)
        for _ in range(25):
            seq = random_graphic_sequence(rng, 4, 100)
            g = realize_bounded(seq)
            assert degree_sequence(g) == list(seq.entries)
            limit = 3 * seq.max_degree ** 2
            assert all(p.vertex_count <= limit for p in components(g))

    def test_blocks_occupy_contiguous_ranges(self):
        seq = parse_sequence([2] * 12)
        g = realize_bounded(seq)
        offset = 0
        for block in plan_bounded(seq):
            span = range(offset, offset + block.n)
            for u, v in g.edges:
                assert (u in span) == (v in span)
            offset += block.n

    @given(graphic_sequences())
    def test_bound_and_degrees_always_hold(self, seq):
        g = realize_bounded(seq)
        assert degree_sequence(g) == list(seq.entries)
        limit = 3 * seq.max_degree ** 2
        assert all(p.vertex_count <= limit for p in components(g))

    @given(graphic_sequences())
    def test_equals_union_of_block_realizations(self, seq):
        expected = reduce(disjoint_union, map(realize, plan_bounded(seq)))
        assert realize_bounded(seq) == expected

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=30).map(parse_sequence))
    @example(parse_sequence([1] * 5))
    @example(parse_sequence([3, 3, 1, 1]))
    @example(parse_sequence([7] + [1] * 48))
    def test_raises_exactly_when_not_graphic(self, seq):
        if erdos_gallai_check(seq).graphic:
            realize_bounded(seq)
            return
        with pytest.raises(NotGraphicError) as raised:
            realize_bounded(seq)
        with pytest.raises(NotGraphicError) as expected:
            require_graphic(seq)
        assert str(raised.value) == str(expected.value)

    def test_checks_only_blocks(self, monkeypatch):
        # The length lemma makes every planned block graphic, so no block is
        # checked: a long even-sum sequence gets no Erdos-Gallai pass, and a
        # short one (its own single block) gets one, on the whole sequence.
        seen = []
        real = realization.erdos_gallai_check

        def recorded(seq):
            seen.append(seq.entries)
            return real(seq)

        monkeypatch.setattr(realization, "erdos_gallai_check", recorded)
        realize_bounded(parse_sequence([2] * 100))
        assert seen == []
        realize_bounded(parse_sequence([3, 3, 3, 3]))
        assert seen == [(3, 3, 3, 3)]

    @pytest.mark.parametrize("entries", [[5] * 20, [2] * 100],
                             ids=["one-block", "many-blocks"])
    def test_builds_one_graph(self, monkeypatch, entries):
        built = []
        real = realization.SimpleGraph

        def counted(vertex_count, edges):
            built.append(vertex_count)
            return real(vertex_count, edges)

        monkeypatch.setattr(realization, "SimpleGraph", counted)
        realize_bounded(parse_sequence(entries))
        assert built == [len(entries)]
