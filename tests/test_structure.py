import pytest

from aomdd import (
    StructuralError,
    build_primal_graph,
    chain_pseudo_tree,
    compile_be,
    compile_search,
    dumps,
    generate_pseudo_tree,
    induced_width,
    loads,
    make_model,
    min_fill_ordering,
)
from aomdd.structure import PrimalGraph, compute_buckets, compute_contexts

import structure_reference as ref
from conftest import EXAMPLE_ORDER, random_model, seeded_rng

# Variable ids of the worked example
A, B, C, D, E, F, G, H = range(8)


def test_primal_graph_example(example_model):
    g = build_primal_graph(example_model)
    expected = {
        (F, H), (A, H), (A, B), (A, G), (B, G), (F, G),
        (B, F), (A, E), (C, E), (C, D), (B, C),
    }
    assert _edges(g) == {tuple(sorted(e)) for e in expected}


def test_primal_graph_trivial_cases():
    unary = make_model([2, 2], [((0,), [1, 1])])
    assert _edges(build_primal_graph(unary)) == set()
    full = make_model([2, 2, 2], [((0, 1, 2), [1] * 8)])
    assert _edges(build_primal_graph(full)) == {(0, 1), (0, 2), (1, 2)}


def _edges(g):
    return {(u, v) for u in range(g.n) for v in g.adj[u] if u < v}


def _graph(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return PrimalGraph(n, tuple(frozenset(s) for s in adj))


def test_min_fill_widths():
    chain = _graph(4, [(0, 1), (1, 2), (2, 3)])
    assert induced_width(chain, min_fill_ordering(chain)) == 1
    k4 = _graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert induced_width(k4, min_fill_ordering(k4)) == 3
    empty = _graph(4, [])
    assert induced_width(empty, min_fill_ordering(empty)) == 0


def test_min_fill_deterministic_per_seed():
    g = _graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    assert min_fill_ordering(g, seed=7) == min_fill_ordering(g, seed=7)


def test_induced_width_example(example_model):
    g = build_primal_graph(example_model)
    assert induced_width(g, EXAMPLE_ORDER) == 3


def test_induced_width_rejects_non_permutation():
    g = _graph(3, [(0, 1)])
    with pytest.raises(StructuralError):
        induced_width(g, [0, 1, 1])


def test_pseudo_tree_example(example_tree):
    t = example_tree
    assert t.parent[B] == A
    assert sorted(t.children[B]) == [C, F]
    assert sorted(t.children[C]) == [D, E]
    assert sorted(t.children[F]) == [G, H]
    assert t.root == A
    assert t.height == 3


def test_pseudo_tree_backarc_property():
    rng = seeded_rng(3)
    for _ in range(20):
        m = random_model(rng, weighted=False)
        g = build_primal_graph(m)
        d = min_fill_ordering(g, seed=1)
        t = generate_pseudo_tree(g, d)
        for u, v in _edges(g):
            assert t.is_ancestor_or_self(u, v) or t.is_ancestor_or_self(v, u)


def test_pseudo_tree_disconnected():
    g = _graph(3, [])
    t = generate_pseudo_tree(g, [0, 1, 2])
    assert t.root == 0
    assert sorted(t.children[0]) == [1, 2]


def test_chain_pseudo_tree():
    g = _graph(3, [(0, 1), (1, 2)])
    t = chain_pseudo_tree(g, [2, 0, 1])
    assert t.root == 2
    assert t.parent[0] == 2 and t.parent[1] == 0


def test_contexts_example(example_tree):
    ctx = example_tree.context
    assert ctx[G] == {A, B, F}
    assert ctx[H] == {A, F}
    assert ctx[D] == {C}
    assert ctx[A] == set()


def test_context_width_agreement():
    rng = seeded_rng(11)
    for _ in range(25):
        m = random_model(rng, weighted=False)
        g = build_primal_graph(m)
        d = min_fill_ordering(g, seed=2)
        t = generate_pseudo_tree(g, d)
        assert max(len(c) for c in t.context) == induced_width(g, d)


def test_buckets_example(example_model, example_tree):
    buckets = compute_buckets(example_tree, example_model)[0]
    # clauses F|H and A|~H land in H's bucket; the xor's table and F|G in G's
    assert buckets[H] == (0, 1)
    assert buckets[G] == (2, 3)
    assert sum(len(b) for b in buckets) == len(example_model.functions)
    for v, bucket in enumerate(buckets):
        allowed = {v, *example_tree.context[v]}
        for fid in bucket:
            assert set(example_model.functions[fid].scope) <= allowed


def test_bucket_contexts_are_the_primal_graph_contexts():
    # read off the scopes bottom-up, the contexts are the primal graph's,
    # along generated, chain and loaded trees alike
    rng = seeded_rng(29)
    for i in range(300):
        m = random_model(rng, weighted=i % 2 == 0)
        g = build_primal_graph(m)
        d = min_fill_ordering(g, seed=i)
        t = generate_pseudo_tree(g, d)
        loaded = loads(dumps(compile_search(m, t))).tree
        for tree in (t, chain_pseudo_tree(g, d), loaded):
            contexts = compute_buckets(tree, m)[1]
            assert contexts == list(compute_contexts(tree, g))


def test_buckets_off_path_scope_rejected():
    m = make_model([2, 2, 2], [((1, 2), [1, 1, 1, 0])])
    g = _graph(3, [(0, 1), (0, 2)])  # tree 0 -> {1, 2}: scope {1,2} off-path
    t = generate_pseudo_tree(g, [0, 1, 2])
    with pytest.raises(StructuralError):
        compute_buckets(t, m)


def test_off_path_tree_fails_every_compile():
    # the tree 0 -> {1, 2} breaks the backarc property on the edge 1-2:
    # the context of 2 lists its earlier neighbour 1, which is no
    # ancestor, and both compilers reject the tree from its buckets
    m = make_model([2, 2, 2], [((0, 1), [1, 1, 1, 0]), ((1, 2), [1, 1, 1, 0])])
    t = generate_pseudo_tree(_graph(3, [(0, 1), (0, 2)]), [0, 1, 2])
    assert compute_contexts(t, build_primal_graph(m))[2] == {1}
    for compile_ in (compile_search, lambda m, t: compile_be(m, tree=t)):
        with pytest.raises(StructuralError, match="not on a root-to-leaf path"):
            compile_(m, t)


def _path_model(n):
    eq = [1, 0, 0, 1]
    return make_model([2] * n, [((i, i + 1), eq) for i in range(n - 1)], kind="constraint")


@pytest.mark.parametrize("method", ["search", "be"])
@pytest.mark.parametrize("n, loaded", [(3, False), (5, False), (6, True)])
def test_tree_over_another_variable_count_is_structural(method, n, loaded):
    # checked before anything indexes the tree; a tree read back by
    # ``loads`` has no contexts, so search would build them from the model
    other = _path_model(n)
    tree = generate_pseudo_tree(build_primal_graph(other), list(range(n)))
    if loaded:
        tree = loads(dumps(compile_search(other, tree))).tree
    compile_ = compile_search if method == "search" else lambda m, t: compile_be(m, tree=t)
    with pytest.raises(StructuralError, match="pseudo tree has %d variables, model has 4" % n):
        compile_(_path_model(4), tree)


def _random_graph(rng, n, density):
    return _graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density],
    )


def _disjoint_union(g, h):
    edges = list(_edges(g)) + [(u + g.n, v + g.n) for u, v in _edges(h)]
    return _graph(g.n + h.n, edges)


def _identity_corpus():
    """Seeded random graphs plus edgeless, complete and disconnected ones."""
    rng = seeded_rng(2024)
    graphs = []
    for i in range(1000):
        n = rng.randint(1, 40)
        kind = i % 10
        if kind == 0:
            graphs.append(_graph(n, []))
        elif kind == 1:
            graphs.append(_random_graph(rng, n, 1.0))
        elif kind == 2 and n > 1:
            k = rng.randint(1, n - 1)
            graphs.append(
                _disjoint_union(
                    _random_graph(rng, k, rng.uniform(0.02, 0.8)),
                    _random_graph(rng, n - k, rng.uniform(0.02, 0.8)),
                )
            )
        else:
            graphs.append(_random_graph(rng, n, rng.uniform(0.02, 0.8)))
    return graphs


IDENTITY_CORPUS = _identity_corpus()


def test_min_fill_matches_reference():
    for i, g in enumerate(IDENTITY_CORPUS):
        for seed in (i % 5, 5 + i % 7):
            assert min_fill_ordering(g, seed=seed) == ref.min_fill_ordering(g, seed=seed)


def test_trees_and_contexts_match_reference():
    rng = seeded_rng(5)
    for g in IDENTITY_CORPUS:
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        for order in (min_fill_ordering(g, seed=3), shuffled):
            t = generate_pseudo_tree(g, order)
            parent, children = ref.pseudo_tree_links(g, order)
            assert t.parent == parent
            assert t.children == children
            assert t.context == tuple(map(set, ref.contexts(t, g)))
            assert induced_width(g, order) == ref.induced_width(g, order)
            c = chain_pseudo_tree(g, order)
            assert c.context == tuple(map(set, ref.contexts(c, g)))
            # the same contexts from the parents alone
            assert compute_contexts(t, g) == t.context
            assert compute_contexts(c, g) == c.context


def test_is_ancestor_or_self_matches_parent_walk():
    rng = seeded_rng(6)
    for g in IDENTITY_CORPUS[::4]:
        order = list(range(g.n))
        rng.shuffle(order)
        for t in (generate_pseudo_tree(g, order), chain_pseudo_tree(g, order)):
            for b in range(g.n):
                above = {b}
                a = t.parent[b]
                while a is not None:
                    above.add(a)
                    a = t.parent[a]
                for a in range(g.n):
                    assert t.is_ancestor_or_self(a, b) == (a in above)


def test_large_shuffled_chain():
    n = 10_000
    rng = seeded_rng(9)
    ids = list(range(n))
    rng.shuffle(ids)
    g = _graph(n, list(zip(ids, ids[1:])))
    order = min_fill_ordering(g, seed=1)
    assert induced_width(g, order) == 1
    t = generate_pseudo_tree(g, order)
    # The elimination tree of a path is the path hung from its first
    # variable, so the height is the longer of the two sides.
    k = ids.index(order[0])
    assert t.height == max(k, n - 1 - k)
    assert max(len(c) for c in t.context) == 1


def test_large_edgeless_graph():
    n = 10_000
    g = _graph(n, [])
    order = min_fill_ordering(g, seed=1)
    assert sorted(order) == list(range(n))
    assert induced_width(g, order) == 0
    t = generate_pseudo_tree(g, order)
    assert t.height == 1
    assert t.root == order[0]
    assert t.children[order[0]] == tuple(order[1:])
    assert all(c == set() for c in t.context)
