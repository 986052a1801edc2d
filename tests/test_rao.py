import inspect
import random
import sys
from itertools import combinations, filterfalse

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from degseq import rao, realization
from degseq.errors import CapExceededError
from degseq.graphs import (
    SimpleGraph,
    components_with_vertices,
    degree_sequence,
    disjoint_union,
)
from degseq.harness import enumerate_graphic
from degseq.rao import (
    ROUTES,
    RaoWitness,
    canonical_form,
    compare,
    decompose,
    higman_embeds,
    is_induced_subgraph,
    labeled_realizations,
    rao_leq_oracle,
    rao_leq_sufficient,
    rao_leq_via_components,
)
from degseq.realization import realize, realize_bounded
from degseq.sequences import (
    RegularitySequence,
    erdos_gallai_check,
    from_regularity,
    parse_sequence,
)
from oracles import (
    all_graphs,
    brute_induced_embedding_exists,
    brute_minimum_code,
    permutation_code,
    recursive_kuhn_matching,
)

K3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
K4 = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
P3 = SimpleGraph(3, [(0, 1), (1, 2)])


def relabeled(graph, perm):
    return SimpleGraph(graph.vertex_count,
                       frozenset((perm[u], perm[v]) for u, v in graph.edges))


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    return SimpleGraph(n, frozenset(chosen))


class TestInducedSubgraph:
    def test_clique_containment(self):
        assert is_induced_subgraph(K3, K4) is not None

    def test_triangle_free_host(self):
        assert is_induced_subgraph(K3, C4) is None

    def test_non_edge_must_be_preserved(self):
        # P3's missing edge rules out an embedding into the triangle.
        assert is_induced_subgraph(P3, K3) is None

    def test_embedding_is_induced(self):
        embedding = is_induced_subgraph(P3, C5)
        assert embedding is not None
        for u in range(3):
            for v in range(u + 1, 3):
                image = (min(embedding[u], embedding[v]),
                         max(embedding[u], embedding[v]))
                assert ((u, v) in P3.edges) == (image in C5.edges)

    def test_size_guard(self):
        big = SimpleGraph(11, frozenset())
        with pytest.raises(CapExceededError):
            is_induced_subgraph(K3, big)
        assert is_induced_subgraph(K3, big, max_host_vertices=11) is None

    @given(small_graphs(max_n=4), small_graphs(max_n=5))
    def test_agrees_with_brute_force(self, small, host):
        found = is_induced_subgraph(small, host)
        assert (found is not None) == brute_induced_embedding_exists(small, host)


class TestCanonicalForm:
    def test_matches_brute_minimum_on_all_four_vertex_graphs(self):
        for g in all_graphs(4):
            canon, ordering = canonical_form(g)
            assert permutation_code(g, ordering) == brute_minimum_code(g)
            # the canonical graph in identity order carries that code
            assert permutation_code(canon, tuple(range(4))) == brute_minimum_code(g)

    @given(small_graphs(max_n=7), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        canon_a, _ = canonical_form(g)
        canon_b, _ = canonical_form(relabeled(g, perm))
        assert canon_a == canon_b

    def test_distinguishes_non_isomorphic(self):
        canon_p, _ = canonical_form(P3)
        canon_k, _ = canonical_form(K3)
        assert canon_p != canon_k

    def test_size_guard(self):
        with pytest.raises(CapExceededError):
            canonical_form(SimpleGraph(17, frozenset()))


class TestLabeledRealizations:
    def test_first_graph_of_a_long_sequence(self):
        # 1035 vertex pairs, one search level each
        first = next(labeled_realizations(parse_sequence([2] * 46)))
        degrees = [0] * 46
        for u, v in first.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert degrees == [2] * 46

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pinned_graph_in_indicator_order(self, n):
        pairs = list(combinations(range(n), 2))
        by_degrees = {}
        for g in all_graphs(n):
            degrees = [0] * n
            for u, v in g.edges:
                degrees[u] += 1
                degrees[v] += 1
            by_degrees.setdefault(tuple(degrees), []).append(g)
        for degrees, expected in by_degrees.items():
            if 0 in degrees or list(degrees) != sorted(degrees, reverse=True):
                continue
            expected.sort(key=lambda g: [pair in g.edges for pair in pairs])
            assert list(labeled_realizations(parse_sequence(degrees))) == expected

    def test_single_edge(self):
        graphs = list(labeled_realizations(parse_sequence([1, 1])))
        assert graphs == [SimpleGraph(2, [(0, 1)])]

    def test_two_regular_on_four_gives_all_cycles(self):
        graphs = list(labeled_realizations(parse_sequence([2, 2, 2, 2])))
        assert len(graphs) == 3
        for g in graphs:
            assert degree_sequence(g) == [2, 2, 2, 2]

    def test_degrees_pinned_descending(self):
        for g in labeled_realizations(parse_sequence([3, 2, 2, 2, 1])):
            degrees = [0] * 5
            for u, v in g.edges:
                degrees[u] += 1
                degrees[v] += 1
            assert degrees == [3, 2, 2, 2, 1]

    def test_infeasible_degree_yields_nothing(self):
        assert list(labeled_realizations(parse_sequence([3, 1, 1, 1]))) != []
        assert list(labeled_realizations(parse_sequence([2, 2]))) == []


class TestOracle:
    def test_edge_into_matching(self):
        d1, d2 = parse_sequence([1, 1]), parse_sequence([1, 1, 1, 1])
        witness = rao_leq_oracle(d1, d2)
        assert witness is not None
        assert witness.validates(d1, d2)

    def test_refutes_triangle_into_four_cycle(self):
        # the only realization of (2,2,2,2) is a 4-cycle, which has no
        # induced subgraph with degrees (2,2,2)
        assert rao_leq_oracle(parse_sequence([2, 2, 2]),
                              parse_sequence([2, 2, 2, 2])) is None

    def test_reflexive_on_every_small_sequence(self):
        for seq in enumerate_graphic(3, 6):
            witness = rao_leq_oracle(seq, seq)
            assert witness is not None
            assert witness.validates(seq, seq)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            rao_leq_oracle(parse_sequence([1, 1]), parse_sequence([1] * 10))
        assert rao_leq_oracle(parse_sequence([1, 1]), parse_sequence([1] * 10),
                              max_vertices=10) is not None

    def test_larger_small_side_is_immediate_none(self):
        assert rao_leq_oracle(parse_sequence([1, 1, 1, 1]),
                              parse_sequence([1, 1])) is None


class TestSufficient:
    def test_edge_into_two_edges(self):
        d1, d2 = parse_sequence([1, 1]), parse_sequence([1, 1, 1, 1])
        witness = rao_leq_sufficient(d1, d2, 1)
        assert witness is not None
        assert witness.validates(d1, d2)
        assert witness.g_large.vertex_count == 4
        assert witness.g_large.edge_count == 2

    def test_inconclusive_when_difference_not_graphic(self):
        # difference expands to (2): one vertex of degree 2 is impossible
        assert rao_leq_sufficient(parse_sequence([2, 2, 2]),
                                  parse_sequence([2, 2, 2, 2]), 2) is None

    def test_equal_sequences_share_a_realization(self):
        d = parse_sequence([2, 2, 2])
        witness = rao_leq_sufficient(d, d, 2)
        assert witness is not None
        assert witness.g_small == witness.g_large
        assert witness.validates(d, d)

    def test_bound_below_max_degree_rejected(self):
        with pytest.raises(ValueError):
            rao_leq_sufficient(parse_sequence([2, 2, 2]), parse_sequence([2, 2, 2]), 1)

    def test_one_erdos_gallai_pass_per_sequence(self, monkeypatch):
        # d_small, d_large and the difference 2,2,2 are each checked once;
        # the realizations that follow are not checked again
        seen = []
        real = realization.erdos_gallai_check

        def recorded(seq):
            seen.append(seq.entries)
            return real(seq)

        monkeypatch.setattr(realization, "erdos_gallai_check", recorded)
        monkeypatch.setattr(rao, "erdos_gallai_check", recorded)
        d_small, d_large = parse_sequence([1, 1]), parse_sequence([2, 2, 2, 1, 1])
        witness = rao_leq_sufficient(d_small, d_large, 2)
        assert witness is not None and witness.validates(d_small, d_large)
        assert seen == [(1, 1), (2, 2, 2, 1, 1), (2, 2, 2)]

    @given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
           st.lists(st.integers(0, 3), min_size=3, max_size=3))
    def test_witness_graphs_match_separate_realizations(self, base, extra):
        # base and extra count degrees 1..3, and d_large has their sums; the
        # reference realizes d_small, then takes its disjoint union with a
        # realization of the difference, the counts in extra
        assume(any(base))
        d_small = from_regularity(RegularitySequence(tuple(base)))
        d_large = from_regularity(RegularitySequence(tuple(map(sum, zip(base, extra)))))
        assume(erdos_gallai_check(d_small).graphic and erdos_gallai_check(d_large).graphic)
        small = realize(d_small)
        expected = (small, small)
        if any(extra):
            rest = from_regularity(RegularitySequence(tuple(extra)))
            expected = None
            if erdos_gallai_check(rest).graphic:
                expected = (small, disjoint_union(small, realize(rest)))
        witness = rao_leq_sufficient(d_small, d_large, 3)
        assert (None if witness is None else (witness.g_small, witness.g_large)) == expected

    def test_large_gap_always_yields_witness(self):
        # once the count difference has at least bound^2 entries (and both
        # endpoints are graphic), the expanded difference is guaranteed
        # graphic, so a witness must appear
        rng = random.Random(4)
        produced = 0
        for _ in range(60):
            bound = rng.randint(1, 4)
            while True:
                base = [rng.randint(0, 3) for _ in range(bound)]
                if sum((i + 1) * c for i, c in enumerate(base)) % 2 == 0 and sum(base) > 0:
                    d_small = from_regularity(RegularitySequence(tuple(base)))
                    if erdos_gallai_check(d_small).graphic:
                        break
            delta = [rng.randint(0, 3) for _ in range(bound)]
            delta[0] += max(0, bound ** 2 - sum(delta))
            if sum((i + 1) * c for i, c in enumerate(delta)) % 2 != 0:
                delta[0] += 1
            combined = tuple(b + d for b, d in zip(base, delta))
            d_large = from_regularity(RegularitySequence(combined))
            witness = rao_leq_sufficient(d_small, d_large, bound)
            assert witness is not None
            assert witness.validates(d_small, d_large)
            produced += 1
        assert produced == 60


class TestDecompose:
    def test_parts_ordered_by_smallest_vertex(self):
        # relabel so that components interleave: C4 on {0,2,5,7}, K3 on
        # {1,4,6}, K3 on {3,8,9}
        g = relabeled(disjoint_union(disjoint_union(C4, K3), K3),
                      [0, 2, 5, 7, 1, 4, 6, 3, 8, 9])
        parts = decompose(g)
        assert [vertices for _, vertices in parts] == [(0, 2, 5, 7), (1, 4, 6), (3, 8, 9)]
        assert [part.vertex_count for part, _ in parts] == [4, 3, 3]
        assert parts == components_with_vertices(g)

    def test_source_vertices_track_originals(self):
        g = disjoint_union(K3, C4)
        for part, sources in decompose(g):
            for p in range(part.vertex_count):
                for q in range(p + 1, part.vertex_count):
                    original = (min(sources[p], sources[q]),
                                max(sources[p], sources[q]))
                    assert ((p, q) in part.edges) == (original in g.edges)

    def test_part_cap(self):
        with pytest.raises(CapExceededError):
            decompose(SimpleGraph(20, frozenset((i, i + 1) for i in range(19))))


class TestHigmanEmbeds:
    def test_long_augmenting_paths_without_recursion(self, monkeypatch):
        # every part embeds everywhere, so part i reaches a free part only
        # along an augmenting path through all i parts matched before it
        monkeypatch.setattr(rao, "is_induced_subgraph",
                            lambda small, host, max_host_vertices: (0,))
        point = SimpleGraph(1, [])
        first = [(point, (i,)) for i in range(200)]
        second = [(point, (j,)) for j in range(220)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            matched = higman_embeds(first, second)
        finally:
            sys.setrecursionlimit(limit)
        assert matched == {i: (199 - i, (0,)) for i in range(200)}

    def test_equal_parts_are_searched_once(self, monkeypatch):
        calls = []

        def counted(small, host, max_host_vertices):
            calls.append((small, host))
            return (0, 1)

        monkeypatch.setattr(rao, "is_induced_subgraph", counted)
        # equal graphs, but a distinct object for every part
        first = [(SimpleGraph(2, [(0, 1)]), (2 * i, 2 * i + 1)) for i in range(200)]
        second = [(SimpleGraph(2, [(0, 1)]), (2 * j, 2 * j + 1)) for j in range(220)]
        matched = higman_embeds(first, second)
        assert len(calls) == 1
        assert sorted(j for j, _ in matched.values()) == list(range(200))

    def test_equal_parts_scan_each_column_once_per_augmenting_search(self, monkeypatch):
        monkeypatch.setattr(rao, "is_induced_subgraph",
                            lambda small, host, max_host_vertices: (0,))
        scanned = []

        def counted_filterfalse(predicate, columns):
            def visited(j):
                scanned.append(j)
                return predicate(j)
            return filterfalse(visited, columns)

        monkeypatch.setattr(rao, "filterfalse", counted_filterfalse)
        point = SimpleGraph(1, [])
        k, m = 1000, 1100
        matched = higman_embeds([(point, (i,)) for i in range(k)],
                                [(point, (j,)) for j in range(m)])
        assert matched == {i: (k - 1 - i, (0,)) for i in range(k)}
        # the part matched i-th walks a path through all i parts before it;
        # rescanning the columns passed at every step costs about k^3 / 6
        assert len(scanned) <= k * m

    def test_matching_follows_recursive_kuhn(self, monkeypatch):
        rng = random.Random(3)
        for _ in range(500):
            k, m = rng.randint(0, 6), rng.randint(0, 7)
            table = [[rng.random() < 0.4 for _ in range(m)] for _ in range(k)]
            # parts are their indices here, an embedding the index pair
            monkeypatch.setattr(rao, "is_induced_subgraph",
                                lambda i, j, max_host_vertices: (i, j) if table[i][j] else None)
            match = recursive_kuhn_matching(table, m)
            expected = None if match is None else {
                i: (j, (i, j)) for j, i in enumerate(match) if i != -1}
            assert higman_embeds([(i, ()) for i in range(k)],
                                 [(j, ()) for j in range(m)]) == expected

    def test_sub_multiset_equality(self):
        assert higman_embeds(decompose(K3), decompose(disjoint_union(K3, C4))) is not None

    def test_multiplicity_matters(self):
        assert higman_embeds(decompose(disjoint_union(K3, K3)),
                             decompose(disjoint_union(K3, C4))) is None

    def test_induced_base(self):
        assert higman_embeds(decompose(P3), decompose(C5)) is not None
        assert higman_embeds(decompose(K3), decompose(C5)) is None

    def test_matching_avoids_greedy_trap(self):
        # the edge relates to both parts; a greedy scan that eats the
        # triangle's only image first would fail, matching must not
        first = decompose(disjoint_union(SimpleGraph(2, [(0, 1)]), K3))
        second = decompose(disjoint_union(K3, C4))
        matched = higman_embeds(first, second)
        assert matched is not None
        assert sorted(j for j, _ in matched.values()) == [0, 1]
        assert matched[1][0] == 0  # the triangle can only go to the triangle


class TestViaComponents:
    def test_twelve_into_sixteen_twos(self):
        d1, d2 = parse_sequence([2] * 12), parse_sequence([2] * 16)
        witness = rao_leq_via_components(d1, d2)
        assert witness is not None
        assert witness.validates(d1, d2)

    def test_identical_sequences(self):
        d = parse_sequence([2, 2, 1, 1])
        witness = rao_leq_via_components(d, d)
        assert witness is not None
        assert witness.validates(d, d)

    def test_route_is_sound_but_incomplete(self):
        # the order holds here (the count-difference route proves it) but
        # the bounded realizations decompose into a triangle vs one 4-cycle
        # plus one 5-cycle, so component matching finds nothing
        d1, d2 = parse_sequence([2, 2, 2]), parse_sequence([2] * 9)
        assert rao_leq_sufficient(d1, d2, 2) is not None
        assert rao_leq_via_components(d1, d2) is None

    def test_parts_beyond_canonical_labeling_reach(self):
        # the bounded realization of 3^28 has 18-vertex components; matching
        # them needs no canonical labeling, so a raised part cap is cheap
        d1, d2 = parse_sequence([3] * 10), parse_sequence([3] * 28)
        with pytest.raises(CapExceededError):
            rao_leq_via_components(d1, d2)
        witness = rao_leq_via_components(d1, d2, part_cap=27)
        assert witness is not None
        assert witness.validates(d1, d2)

    def test_found_embeddings_recheck_against_oracle(self):
        small_sequences = list(enumerate_graphic(2, 6))
        rng = random.Random(11)
        pairs = [(rng.choice(small_sequences), rng.choice(small_sequences))
                 for _ in range(30)]
        for d1, d2 in pairs:
            witness = rao_leq_via_components(d1, d2)
            if witness is None:
                continue
            assert witness.validates(d1, d2)
            if d2.n <= 7:
                assert rao_leq_oracle(d1, d2) is not None


class TestWitnessAlgebra:
    def test_union_with_any_graphic_rest_is_a_witness(self):
        for d_small in enumerate_graphic(2, 4):
            for rest in enumerate_graphic(2, 3):
                g_small = realize(d_small)
                union = disjoint_union(g_small, realize(rest))
                d_union = parse_sequence(degree_sequence(union))
                witness = RaoWitness(g_small, union,
                                     tuple(range(g_small.vertex_count)))
                assert witness.validates(d_small, d_union)
                if d_union.n <= 7:
                    assert rao_leq_oracle(d_small, d_union) is not None

    def test_witness_embeddings_compose(self):
        d1, d2 = parse_sequence([1, 1]), parse_sequence([2, 1, 1])
        first = rao_leq_oracle(d1, d2)
        assert first is not None
        # extend first's host by a triangle: an explicit second witness
        extension = parse_sequence([2, 2, 2])
        bigger = disjoint_union(first.g_large, realize(extension))
        d3 = parse_sequence(degree_sequence(bigger))
        second = RaoWitness(first.g_large, bigger,
                            tuple(range(first.g_large.vertex_count)))
        assert second.validates(d2, d3)
        composed = RaoWitness(
            first.g_small, bigger,
            tuple(second.embedding[v] for v in first.embedding))
        assert composed.validates(d1, d3)

    def test_union_of_whole_components_is_induced(self):
        g = realize_bounded(parse_sequence([2] * 8 + [1] * 4))
        parts = components_with_vertices(g)
        for keep in range(1, len(parts) + 1):
            chosen = parts[:keep]
            vertices = [v for _, originals in chosen for v in originals]
            small = SimpleGraph(
                len(vertices),
                frozenset((vertices.index(u), vertices.index(v))
                          for u, v in g.edges
                          if u in vertices and v in vertices))
            witness = RaoWitness(small, g, tuple(vertices))
            d_small = parse_sequence(degree_sequence(small))
            d_large = parse_sequence(degree_sequence(g))
            assert witness.validates(d_small, d_large)

    def test_validates_rejects_broken_embeddings(self):
        d = parse_sequence([2, 2, 2])
        g = realize(d)
        assert not RaoWitness(g, g, (0, 0, 1)).validates(d, d)  # not injective
        assert not RaoWitness(g, g, (0, 1)).validates(d, d)     # wrong length
        bigger = disjoint_union(g, realize(parse_sequence([1, 1])))
        d_big = parse_sequence(degree_sequence(bigger))
        # maps a triangle vertex next to an edge endpoint: adjacency broken
        assert not RaoWitness(g, bigger, (0, 1, 3)).validates(d, d_big)


class TestCompare:
    def test_verdicts_match_the_oracle(self):
        universe = list(enumerate_graphic(3, 6))
        for a in universe:
            for b in universe:
                if a.n > b.n:
                    continue
                outcome = compare(a, b, 3)
                expected = rao_leq_oracle(a, b)
                assert (outcome.result == "holds") == (expected is not None), (a, b)
                if outcome.result == "holds":
                    assert outcome.method in ROUTES
                    assert outcome.witness.validates(a, b)
                else:
                    assert outcome.result == "does_not_hold"
                    assert outcome.method == "oracle"
                    assert outcome.witness is None

    def test_refusal_is_recorded(self):
        outcome = compare(parse_sequence([3] * 10), parse_sequence([3] * 28), 3,
                          methods=("components",))
        assert outcome.result == "inconclusive"
        assert outcome.method is None
        assert outcome.witness is None
        assert outcome.refusals == ("component guard: 18 vertices exceeds cap 16",)

    def test_refusal_then_later_route_decides(self):
        outcome = compare(parse_sequence([3] * 10), parse_sequence([3] * 28), 3,
                          methods=("components", "sufficient"))
        assert outcome.result == "holds"
        assert outcome.method == "sufficient"
        assert outcome.refusals == ("component guard: 18 vertices exceeds cap 16",)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison method"):
            compare(parse_sequence([1, 1]), parse_sequence([1, 1]), 1,
                    methods=("sufficient", "nope"))
