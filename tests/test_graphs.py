import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degseq.graphs import (
    SimpleGraph,
    components,
    components_with_vertices,
    degree_sequence,
    disjoint_union,
    from_edge_list_text,
    from_json_dict,
    to_edge_list_text,
    to_json_dict,
    to_json_text,
)

K3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
K4 = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
P3 = SimpleGraph(3, [(0, 1), (1, 2)])
EDGE = SimpleGraph(2, [(0, 1)])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=len(pairs)))
    else:
        chosen = []
    return SimpleGraph(n, frozenset(chosen))


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, [(0, 2)])

    def test_normalizes_edge_order(self):
        assert SimpleGraph(3, [(2, 0)]) == SimpleGraph(3, [(0, 2)])

    @pytest.mark.parametrize("make", [
        lambda: [(2, 0), (0, 1)],
        lambda: ((0, 1), (0, 2), (1, 0)),
        lambda: ((u, v) for u, v in [(0, 2), (0, 1)]),
        lambda: [[0, 1], [2, 0]],
    ], ids=["list", "tuple", "generator", "lists"])
    def test_any_iterable_of_pairs(self, make):
        g = SimpleGraph(3, make())
        assert g == SimpleGraph(3, frozenset({(0, 1), (0, 2)}))
        assert type(g.edges) is frozenset
        assert all(type(edge) is tuple for edge in g.edges)


class TestDegreeSequence:
    def test_k4(self):
        assert degree_sequence(K4) == [3, 3, 3, 3]

    def test_single_vertex(self):
        assert degree_sequence(SimpleGraph(1, frozenset())) == [0]

    def test_path(self):
        assert degree_sequence(P3) == [2, 1, 1]


class TestDisjointUnion:
    def test_two_triangles(self):
        g = disjoint_union(K3, K3)
        assert g.vertex_count == 6
        assert g.edge_count == 6
        assert degree_sequence(g) == [2] * 6

    def test_isolated_vertex_adds_zero(self):
        g = disjoint_union(K3, SimpleGraph(1, frozenset()))
        assert degree_sequence(g) == [2, 2, 2, 0]

    def test_two_edges(self):
        g = disjoint_union(EDGE, EDGE)
        assert degree_sequence(g) == [1, 1, 1, 1]
        assert sorted(g.edges) == [(0, 1), (2, 3)]

    @given(graphs(max_n=6), graphs(max_n=6))
    def test_degree_additivity(self, g1, g2):
        combined = Counter(degree_sequence(g1)) + Counter(degree_sequence(g2))
        assert Counter(degree_sequence(disjoint_union(g1, g2))) == combined


class TestComponents:
    def test_two_triangles_split(self):
        parts = components(disjoint_union(K3, K3))
        assert len(parts) == 2
        assert all(p == K3 for p in parts)

    def test_connected_graph_is_single_part(self):
        assert components(K4) == [K4]

    def test_edgeless_graph(self):
        parts = components(SimpleGraph(3, frozenset()))
        assert len(parts) == 3
        assert all(p.vertex_count == 1 for p in parts)

    @given(graphs())
    def test_partition_of_vertices_and_edges(self, g):
        parts = components(g)
        assert sum(p.vertex_count for p in parts) == g.vertex_count
        assert sum(p.edge_count for p in parts) == g.edge_count

    @given(graphs(max_n=12))
    def test_parts_are_induced_on_members_by_smallest_vertex(self, g):
        found = components_with_vertices(g)
        smallest = [members[0] for _, members in found]
        assert smallest == sorted(smallest)
        for part, members in found:
            assert list(members) == sorted(members)
            index = {v: i for i, v in enumerate(members)}
            induced = frozenset((index[u], index[v]) for u, v in g.edges
                                if u in index and v in index)
            assert part == SimpleGraph(len(members), induced)


class TestSerialization:
    def test_edge_list_text(self):
        text = to_edge_list_text(P3)
        assert text == "p 3\n0 1\n1 2\n"
        assert from_edge_list_text(text) == P3

    def test_edge_list_skips_comments(self):
        assert from_edge_list_text("c note\np 2\n0 1\n") == EDGE

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list_text("0 1\n")

    def test_json_dict_sorted_edges(self):
        data = to_json_dict(K3)
        assert data == {"vertex_count": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
        assert from_json_dict(data) == K3

    def test_json_text_round_trip(self):
        assert from_json_dict(json.loads(to_json_text(K4))) == K4

    @given(graphs())
    def test_round_trips(self, g):
        assert from_edge_list_text(to_edge_list_text(g)) == g
        assert from_json_dict(to_json_dict(g)) == g
