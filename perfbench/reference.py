"""Independent references that the benchmark checks the library against.

Written apart from ``degseq`` on purpose: a wrong answer in the library
must not be able to confirm itself.
"""

from __future__ import annotations

from collections import Counter


def eg_verdict_line(entries: list[int]) -> str:
    """The ``degseq check`` line for ``entries``, by an independent Erdos-Gallai test.

    Uses running sums over a value histogram instead of per-k tail sums:
    with ge(k) the number of entries >= k, the sum over all i of
    min(d_i, k) grows by ge(k) from k-1 to k, and the head part
    sum over i <= k of min(d_i, k) is k*min(k, ge(k)) plus the head
    entries below k.
    """
    d = sorted(entries, reverse=True)
    n = len(d)
    total = sum(d)
    if total % 2:
        return "not graphic (odd degree sum)"
    prefix = [0] * (n + 1)
    for i, value in enumerate(d):
        prefix[i + 1] = prefix[i] + value
    count = Counter(d)
    ge = n                      # entries >= k, for the current k
    all_min = 0                 # sum over all i of min(d_i, k)
    for k in range(1, n + 1):
        ge -= count.get(k - 1, 0)
        all_min += ge
        head_big = min(k, ge)
        head_min = k * head_big + prefix[k] - prefix[head_big]
        lhs = prefix[k]
        rhs = k * (k - 1) + all_min - head_min
        if lhs > rhs:
            return f"not graphic (k={k}: {lhs} > {rhs})"
    return "graphic"


def check_bounded_realization(entries: tuple[int, ...], graph,
                              parts: list[tuple[object, tuple[int, ...]]]) -> list[str]:
    """Problems with a bounded realization and its component split (empty if none).

    The degrees must be the entries, the components must partition the
    vertices, no edge may cross two components, and each component has at
    most 3*d1^2 vertices.
    """
    problems = []
    degree = [0] * graph.vertex_count
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    if sorted(degree, reverse=True) != list(entries):
        problems.append("degree sequence differs from the input")
    cap = 3 * entries[0] ** 2
    owner = [-1] * graph.vertex_count
    for index, (part, members) in enumerate(parts):
        if part.vertex_count != len(members):
            problems.append(f"component {index} lists {len(members)} of its"
                            f" {part.vertex_count} vertices")
        if len(members) > cap:
            problems.append(f"component {index} has {len(members)} vertices, cap {cap}")
        for v in members:
            if owner[v] != -1:
                problems.append(f"vertex {v} is in two components")
            owner[v] = index
    if -1 in owner:
        problems.append("some vertex is in no component")
    inner_edges = Counter()
    for u, v in graph.edges:
        if owner[u] != owner[v]:
            problems.append(f"edge ({u}, {v}) joins two components")
            break
        inner_edges[owner[u]] += 1
    if any(part.edge_count != inner_edges[i] for i, (part, _) in enumerate(parts)):
        problems.append("a component's edge count differs from the graph's")
    return problems
