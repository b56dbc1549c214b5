import inspect
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specls.graph import (
    MAX_VERTICES,
    Graph,
    add_edge,
    adjacency_matrix,
    bits,
    build_graph,
    complement,
    complete_graph,
    components,
    cut_stats,
    empty_graph,
    from_matrix,
    from_rows,
    from_slot_bits,
    induced,
    is_bipartite,
    is_complete_bipartite,
    is_connected,
    partition_witness,
    remove_edge,
    slot_bits,
    slot_ends,
)


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def test_build_k4():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert g.m == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_build_empty_and_cycle():
    assert build_graph(3, []).m == 0
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert c5.m == 5
    assert all(c5.degree(v) == 2 for v in range(5))


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_from_rows_validates():
    with pytest.raises(ValueError):
        from_rows(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        from_rows(2, [0b01, 0b10])  # self-loops
    g = from_rows(2, [0b10, 0b01])
    assert g.m == 1


def test_degree_sum_is_twice_m():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 14))
        assert sum(g.degrees()) == 2 * g.m


def test_complement_involution():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 17))
        assert complement(complement(g)) == g
    assert complement(empty_graph(4)) == complete_graph(4)


def test_induced_path_from_cycle():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    p = induced(c5, mask_of([0, 1, 2]))
    assert p.n == 3 and p.m == 2


def test_is_bipartite():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_bipartite(c5) is None
    k34 = build_graph(7, [(i, 3 + j) for i in range(3) for j in range(4)])
    w = is_bipartite(k34)
    assert w is not None
    assert {w.S.bit_count(), w.T.bit_count()} == {3, 4}
    assert w.eS == w.eT == 0 and w.eST == 12
    w = is_bipartite(empty_graph(5))
    assert w is not None and w.eST == 0


def test_connectivity_and_components():
    g = build_graph(5, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert len(components(g)) == 3
    assert is_connected(complete_graph(5))
    assert is_connected(empty_graph(1))
    assert is_connected(empty_graph(0))


def test_cut_stats_matches_naive():
    rng = random.Random(4)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 10))
        S = rng.getrandbits(g.n)
        eS, eT, eST = cut_stats(g, S)
        naive = [0, 0, 0]
        for u, v in g.edges():
            su, sv = bool(S >> u & 1), bool(S >> v & 1)
            naive[0 if su and sv else (1 if not su and not sv else 2)] += 1
        assert [eS, eT, eST] == naive
        w = partition_witness(g, S)
        assert w.eS + w.eT + w.eST == g.m
        assert w.S | w.T == g.full_mask() and w.S & w.T == 0


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_vertex_cap():
    with pytest.raises(ValueError):
        build_graph(5000, [])


def test_adjacency_matrix_matches_the_bit_rows():
    rng = random.Random(31)
    for n in (0, 1, 7, 8, 9, 16, 17, 70):
        g = random_graph(rng, n, 0.4)
        A = adjacency_matrix(g)
        assert A.shape == (n, n) and A.dtype == "float64"
        assert [[int(A[v, w]) for w in range(n)] for v in range(n)] == [
            [int(g.has_edge(v, w)) for w in range(n)] for v in range(n)
        ]


# -- complete bipartite test: the O(n) row test against a BFS reference ------


def _is_complete_bipartite_bfs(g):
    """The BFS definition: connected, bipartite, and m = |S| |T|."""
    if g.n == 0:
        return False
    w = is_bipartite(g)
    if w is None:
        return False
    return g.m == w.S.bit_count() * w.T.bit_count() and len(components(g)) == 1


def _graph_of_mask(n, mask):
    """The graph whose i-th pair (in lexicographic order) is an edge iff bit i is set."""
    rows = [0] * n
    m = 0
    for i, (u, v) in enumerate((u, v) for u in range(n) for v in range(u + 1, n)):
        if mask >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
    return Graph(n, tuple(rows), m)


def test_complete_bipartite_matches_bfs_on_every_small_graph():
    found = 0
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = _graph_of_mask(n, mask)
            expected = _is_complete_bipartite_bfs(g)
            assert is_complete_bipartite(g) == expected, (n, mask)
            found += expected
    # labelled connected K_{a,b}: 1 (n=1) + 1 + 3 + 7 + 15 + 31 (n=2..6)
    assert found == 58


def test_complete_bipartite_small_orders():
    assert not is_complete_bipartite(empty_graph(0))
    assert is_complete_bipartite(empty_graph(1))
    assert not is_complete_bipartite(empty_graph(2))
    assert is_complete_bipartite(complete_graph(2))


def _relabelled_kab(rng, a, b):
    perm = list(range(a + b))
    rng.shuffle(perm)
    return build_graph(a + b, [(perm[i], perm[a + j]) for i in range(a) for j in range(b)]), perm


def test_complete_bipartite_relabelled_with_one_edge_changed():
    rng = random.Random(5)
    for a in range(1, 7):
        for b in range(a, 9):
            g, perm = _relabelled_kab(rng, a, b)
            assert is_complete_bipartite(g) and _is_complete_bipartite_bfs(g)
            changed = [remove_edge(g, perm[rng.randrange(a)], perm[a + rng.randrange(b)])]
            if b >= 2:
                u, v = rng.sample(perm[a:], 2)
                changed.append(add_edge(g, u, v))
            for h in changed:
                assert not is_complete_bipartite(h), (a, b)
                assert not _is_complete_bipartite_bfs(h), (a, b)


def test_complete_bipartite_rejects_disjoint_unions():
    rng = random.Random(6)
    for _ in range(60):
        a, b, c, d = (rng.randrange(0, 4) for _ in range(4))
        if a + b == 0 or c + d == 0:
            continue
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        off = a + b
        edges += [(off + i, off + c + j) for i in range(c) for j in range(d)]
        g = build_graph(a + b + c + d, edges)
        assert not is_complete_bipartite(g), (a, b, c, d)
        assert not _is_complete_bipartite_bfs(g), (a, b, c, d)


# -- the three entries: build_graph, from_rows, from_matrix -----------------


@st.composite
def graphs_as_edges(draw, max_n=20):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=3 * n))


def _rows_of(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _matrix_of(n, edges, dtype=np.uint8):
    A = np.zeros((n, n), dtype)
    for u, v in edges:
        A[u, v] = A[v, u] = 1
    return A


def _message(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


@settings(max_examples=200, deadline=None)
@given(graphs_as_edges(), st.sampled_from([np.uint8, np.int64, np.float64, bool]))
def test_the_three_entries_build_equal_graphs(case, dtype):
    n, edges = case
    g = build_graph(n, edges)
    assert g == from_rows(n, _rows_of(n, edges)) == from_matrix(_matrix_of(n, edges, dtype))
    assert g.m == len({frozenset(e) for e in edges})
    assert build_graph(n, ((np.int64(u), np.int64(v)) for u, v in edges)) == g


@settings(max_examples=100, deadline=None)
@given(graphs_as_edges(), st.data())
def test_the_three_entries_reject_a_self_loop_alike(case, data):
    n, edges = case
    if n == 0:
        return
    v = data.draw(st.integers(0, n - 1))
    rows = _rows_of(n, edges)
    rows[v] |= 1 << v
    A = _matrix_of(n, edges)
    A[v, v] = 1
    expected = f"self-loop at vertex {v}"
    assert _message(build_graph, n, edges + [(v, v)]) == expected
    assert _message(from_rows, n, rows) == expected
    assert _message(from_matrix, A) == expected


@settings(max_examples=100, deadline=None)
@given(graphs_as_edges(), st.data())
def test_an_endpoint_out_of_range_is_rejected_alike(case, data):
    n, edges = case
    if n == 0:
        return
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(n, n + 70))
    rows = _rows_of(n, edges)
    rows[u] |= 1 << v
    expected = f"edge ({u},{v}) has endpoint outside 0..{n - 1}"
    assert _message(build_graph, n, edges + [(u, v)]) == expected
    assert _message(from_rows, n, rows) == expected
    assert _message(build_graph, n, [(-1, u)]) == f"edge (-1,{u}) has endpoint outside 0..{n - 1}"


@settings(max_examples=100, deadline=None)
@given(graphs_as_edges(), st.data())
def test_an_asymmetric_pair_is_rejected_alike(case, data):
    n, edges = case
    if n < 2:
        return
    u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows = _rows_of(n, edges)
    A = _matrix_of(n, edges)
    rows[u] ^= 1 << v
    A[u, v] ^= 1
    expected = f"asymmetric pair ({min(u, v)},{max(u, v)})"
    assert _message(from_rows, n, rows) == expected
    assert _message(from_matrix, A) == expected


@pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
def test_from_matrix_rejects_entries_other_than_0_and_1(value):
    A = _matrix_of(4, [(0, 1), (2, 3)], np.float64)
    A[1, 3] = A[3, 1] = value
    with np.errstate(invalid="ignore"):
        assert _message(from_matrix, A) == "entry (1,3) is not 0 or 1"
    assert _message(from_matrix, np.zeros((3, 4))).endswith("is not square")


@pytest.mark.parametrize("endpoint", [1.0, 1.5, "1", np.float64(1.0), None])
def test_build_graph_rejects_non_integer_endpoints(endpoint):
    with pytest.raises(TypeError):
        build_graph(3, [(0, 2), (0, endpoint)])


def test_the_three_entries_share_the_vertex_cap():
    n = MAX_VERTICES + 1
    expected = f"vertex count {n} outside 0..{MAX_VERTICES}"
    assert _message(build_graph, n, []) == expected
    assert _message(from_rows, n, [0] * n) == expected
    assert _message(from_matrix, np.broadcast_to(np.uint8(0), (n, n))) == expected
    assert _message(build_graph, -1, []) == _message(from_rows, -1, []) == "vertex count -1 outside 0..4096"


def _edges_bit_walk(g):
    for u in range(g.n):
        for off in bits(g.rows[u] >> (u + 1)):
            yield (u, u + 1 + off)


@settings(max_examples=200, deadline=None)
@given(graphs_as_edges(max_n=70))
def test_edges_is_a_lazy_walk_in_the_bit_walk_order(case):
    g = build_graph(*case)
    assert inspect.isgenerator(g.edges())
    assert list(g.edges()) == list(_edges_bit_walk(g))


# The edge-slot codec, against the nested-loop order: slot s = j(j-1)/2 + i
# joins i < j, column by column through the upper triangle.


def _nested_slots(n):
    return [(i, j) for j in range(n) for i in range(j)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 62, 63, 70])
def test_slot_ends_follow_the_nested_loop_order(n):
    i, j = slot_ends(n)
    assert i.dtype == j.dtype == np.int64
    assert list(zip(i.tolist(), j.tolist())) == _nested_slots(n)
    assert (j * (j - 1) // 2 + i).tolist() == list(range(n * (n - 1) // 2))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 70])
def test_slot_bits_round_trip(n):
    rng = random.Random(n)
    for p in (0.0, 0.3, 1.0):
        g = random_graph(rng, n, p)
        b = slot_bits(g)
        assert b.dtype == np.uint8
        assert b.tolist() == [int(g.has_edge(i, j)) for i, j in _nested_slots(n)]
        assert from_slot_bits(n, b) == g
        assert from_slot_bits(n, b.astype(bool)) == g


def test_from_slot_bits_validates():
    with pytest.raises(ValueError, match="expected 6 bits"):
        from_slot_bits(4, np.ones(5, np.uint8))
    with pytest.raises(ValueError, match="not 0 or 1"):
        from_slot_bits(4, np.array([0, 0, 2, 0, 0, 0]))
    with pytest.raises(ValueError, match="not 0 or 1"):
        from_slot_bits(3, np.array([0.5, 0.0, 1.0]))
    with pytest.raises(ValueError, match="outside 0..4096"):
        from_slot_bits(MAX_VERTICES + 1, np.zeros(0, np.uint8))


def test_only_graph_derives_the_slot_order():
    src = Path(__file__).resolve().parents[1] / "src" / "specls"
    callers = sorted(p.name for p in src.glob("*.py")
                     if re.search(r"\b(tril|triu)_indices\b|_triangle_pos", p.read_text()))
    assert set(callers) <= {"graph.py"}, callers
