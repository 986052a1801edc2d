import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseq.sequences import (
    IntegerSequence,
    RegularitySequence,
    erdos_gallai_check,
    erdos_gallai_sides,
    from_regularity,
    from_runs,
    leq_pointwise,
    parse_sequence,
    sufficient_by_length,
    to_regularity,
)
from oracles import erdos_gallai_every_k, is_graphic_by_enumeration

sequences = st.lists(st.integers(1, 6), min_size=1, max_size=10).map(parse_sequence)
# a few runs of equal entries, long enough for the inequality to fail inside one
long_run_sequences = st.lists(
    st.tuples(st.integers(1, 80), st.integers(1, 60)), min_size=1, max_size=8,
).map(lambda runs: parse_sequence([value for value, length in runs for _ in range(length)]))


@st.composite
def count_vector_triples(draw):
    bound = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 5), min_size=bound, max_size=bound)
    return tuple(RegularitySequence(tuple(draw(vec))) for _ in range(3))


class TestParse:
    def test_sorts_nonincreasing(self):
        assert parse_sequence([1, 3, 2]).entries == (3, 2, 1)

    def test_singleton(self):
        assert parse_sequence([1]).entries == (1,)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            parse_sequence([2, 0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_sequence([])

    def test_direct_construction_requires_sorted(self):
        with pytest.raises(ValueError):
            IntegerSequence((1, 2))

    def test_errors_name_the_first_offending_entry(self):
        with pytest.raises(ValueError, match=r"^entries must be >= 1, got 0 at position 3$"):
            parse_sequence([2, 0, 2])
        with pytest.raises(ValueError, match=r"^entries must be >= 1, got -1 at position 2$"):
            IntegerSequence((3, -1, 0))
        with pytest.raises(ValueError,
                           match=r"^entries must be nonincreasing, got 3 after 2 at position 3$"):
            IntegerSequence((4, 2, 3, 1))

    @pytest.mark.parametrize("entries", [(2,) * 99_999 + (0,), (1,) * 99_999 + (2,)],
                             ids=["zero-last", "rise-last"])
    def test_error_message_length_does_not_grow_with_the_input(self, entries):
        with pytest.raises(ValueError) as caught:
            IntegerSequence(entries)
        assert str(caught.value).endswith("at position 100000")
        assert len(str(caught.value)) < 80


class TestErdosGallai:
    def test_complete_graph_sequence(self):
        assert erdos_gallai_check(parse_sequence([3, 3, 3, 3])).graphic

    def test_3311_not_graphic_with_certificate(self):
        verdict = erdos_gallai_check(parse_sequence([3, 3, 1, 1]))
        assert not verdict.graphic
        assert verdict.failing_index == 2
        assert (verdict.lhs, verdict.rhs) == (6, 4)
        assert erdos_gallai_sides(parse_sequence([3, 3, 1, 1]), 2) == (6, 4)
        # brute force over all graphs on 4 labeled vertices agrees
        assert not is_graphic_by_enumeration((3, 3, 1, 1))

    def test_triangle(self):
        assert erdos_gallai_check(parse_sequence([2, 2, 2])).graphic

    def test_odd_sum_has_no_failing_index(self):
        verdict = erdos_gallai_check(parse_sequence([1, 1, 1]))
        assert not verdict.graphic
        assert verdict.failing_index is None
        assert verdict.lhs is verdict.rhs is None

    @given(sequences)
    def test_agrees_with_exhaustive_enumeration_small(self, seq):
        if seq.n > 5:
            return
        expected = is_graphic_by_enumeration(seq.entries)
        assert erdos_gallai_check(seq).graphic == expected

    @given(sequences)
    def test_failure_certificate_rechecks(self, seq):
        verdict = erdos_gallai_check(seq)
        if verdict.failing_index is None:
            return
        k = verdict.failing_index
        lhs, rhs = erdos_gallai_sides(seq, k)
        assert (verdict.lhs, verdict.rhs) == (lhs, rhs)
        assert lhs > rhs
        # smallest violating index: everything before it holds
        for earlier in range(1, k):
            lhs, rhs = erdos_gallai_sides(seq, earlier)
            assert lhs <= rhs

    @settings(max_examples=300)
    @given(long_run_sequences)
    def test_run_end_test_equals_every_k_test(self, seq):
        # the smallest failing k may sit inside a long run, before its end
        assert erdos_gallai_check(seq) == erdos_gallai_every_k(seq)

    def test_sides_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            erdos_gallai_sides(parse_sequence([1, 1]), 3)


class TestSufficientByLength:
    def test_four_cycle(self):
        seq = parse_sequence([2, 2, 2, 2])
        assert sufficient_by_length(seq)
        assert erdos_gallai_check(seq).graphic

    def test_bound_not_met(self):
        assert not sufficient_by_length(parse_sequence([3, 1, 1, 1]))

    def test_every_even_sequence_of_length_nine_with_top_three_is_graphic(self):
        # exhaustive over nonincreasing sequences: d1 = 3, n = 9, even sum
        from itertools import combinations_with_replacement

        checked = 0
        for rest in combinations_with_replacement((1, 2, 3), 8):
            entries = tuple(sorted((3,) + rest, reverse=True))
            seq = IntegerSequence(entries)
            if seq.total % 2 != 0:
                continue
            assert sufficient_by_length(seq)
            assert erdos_gallai_check(seq).graphic
            checked += 1
        assert checked > 0

    @given(sequences)
    def test_sufficient_implies_graphic(self, seq):
        if sufficient_by_length(seq):
            assert erdos_gallai_check(seq).graphic

    @given(st.lists(st.integers(1, 3), min_size=9, max_size=14))
    def test_inequality_holds_in_all_three_prefix_regimes(self, raw):
        # For even-sum sequences with n >= d1^2 the inequality can be
        # verified regime by regime: k = 1, then 1 < k <= d1, then k > d1.
        seq = parse_sequence(raw)
        if seq.total % 2 != 0 or seq.n < seq.max_degree ** 2:
            return
        d1 = seq.max_degree
        for k in range(1, seq.n + 1):
            lhs, rhs = erdos_gallai_sides(seq, k)
            assert lhs <= rhs, f"regime for k={k} (d1={d1}) failed"


class TestRegularity:
    def test_encode_simple(self):
        counts = to_regularity(parse_sequence([3, 2, 2, 1]), 3)
        assert counts.descending == (1, 2, 1)

    def test_encode_pads_to_bound(self):
        assert to_regularity(parse_sequence([1, 1]), 3).descending == (0, 0, 2)

    def test_encode_rejects_small_bound(self):
        with pytest.raises(ValueError):
            to_regularity(parse_sequence([4, 1]), 3)

    def test_decode_simple(self):
        counts = RegularitySequence((1, 2, 1))  # by degree value: one 1, two 2s, one 3
        assert from_regularity(counts).entries == (3, 2, 2, 1)

    def test_decode_padding(self):
        assert from_regularity(RegularitySequence((2, 0, 0))).entries == (1, 1)

    def test_decode_rejects_all_zero(self):
        with pytest.raises(ValueError):
            from_regularity(RegularitySequence((0, 0, 0)))

    def test_negative_count_names_its_degree(self):
        with pytest.raises(ValueError) as excinfo:
            RegularitySequence((1,) * 100_000 + (-1,))
        assert str(excinfo.value) == "counts must be nonnegative, got -1 for degree 100001"
        with pytest.raises(ValueError, match="got -2 for degree 2$"):
            RegularitySequence((0, -2, -1))

    @given(st.lists(st.tuples(st.integers(-2, 6), st.integers(0, 4)), max_size=6))
    def test_runs_lay_down_the_sorted_entries(self, runs):
        runs = sorted(dict(runs).items(), reverse=True)
        raw = [value for value, copies in runs for _ in range(copies)]

        def outcome(build, arg):
            try:
                return build(arg)
            except ValueError as exc:
                return str(exc)

        assert outcome(from_runs, runs) == outcome(parse_sequence, raw)

    def test_runs_out_of_order_are_refused(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            from_runs([(1, 2), (2, 1)])

    @given(sequences, st.integers(0, 4))
    def test_round_trip(self, seq, slack):
        bound = seq.max_degree + slack
        assert from_regularity(to_regularity(seq, bound)) == seq

    @given(sequences, st.integers(0, 4))
    def test_degree_sum_consistency(self, seq, slack):
        counts = to_regularity(seq, seq.max_degree + slack)
        assert counts.degree_total == seq.total
        assert counts.vertex_count == seq.n


class TestPointwiseOrder:
    def test_reflexive_example(self):
        v = RegularitySequence((1, 2, 1))
        assert leq_pointwise(v, v)

    def test_incomparable_pair(self):
        a, b = RegularitySequence((0, 1)), RegularitySequence((1, 0))
        assert not leq_pointwise(a, b)
        assert not leq_pointwise(b, a)

    def test_coordinatewise(self):
        assert leq_pointwise(RegularitySequence((1, 0, 2)),
                             RegularitySequence((2, 0, 2)))

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            leq_pointwise(RegularitySequence((1,)), RegularitySequence((1, 0)))

    @given(count_vector_triples())
    def test_partial_order_laws(self, triple):
        a, b, c = triple
        assert leq_pointwise(a, a)
        if leq_pointwise(a, b) and leq_pointwise(b, a):
            assert a == b
        if leq_pointwise(a, b) and leq_pointwise(b, c):
            assert leq_pointwise(a, c)
