import random

import pytest

from specls.graph import (
    adjacency_matrix,
    bits,
    build_graph,
    complement,
    complete_graph,
    components,
    cut_stats,
    delete_vertex,
    empty_graph,
    from_rows,
    induced,
    is_bipartite,
    is_connected,
    mask_of,
    partition_witness,
)


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


def test_delete_vertex_edge_count():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 12))
        v = rng.randrange(g.n)
        assert delete_vertex(g, v).m == g.m - g.degree(v)
    assert delete_vertex(complete_graph(4), 0) == complete_graph(3)


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
