import random

from specls.families import book_join, t_n2q, y_n2q
from specls.graph import build_graph, complete_graph
from specls.morphism import are_isomorphic, refine_colors


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def permuted(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_isomorphic_to_relabeling():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 10))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permuted(g, perm)
        assert are_isomorphic(g, h)


def test_non_isomorphic_pairs():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not are_isomorphic(c4, p4)
    # same degree sequence, not isomorphic: C6 vs two triangles
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    tt = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert not are_isomorphic(c6, tt)


def test_star_vs_matching_constructions_differ():
    assert not are_isomorphic(t_n2q(12, 2).graph, y_n2q(12, 2).graph)


def test_book_self():
    assert are_isomorphic(book_join(3).graph, permuted(book_join(3).graph, [4, 3, 2, 1, 0]))


def test_refine_colors_regular():
    colors = refine_colors(complete_graph(5))
    assert len(set(colors)) == 1
    colors = refine_colors(t_n2q(8, 2).graph)
    # center, leaves, rest of the star part, other part
    assert len(set(colors)) == 4

