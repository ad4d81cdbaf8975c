from fractions import Fraction

import pytest

from aomdd import (
    StructuralError,
    build_primal_graph,
    compile_be,
    compile_search,
    count_stats,
    dumps,
    generate_pseudo_tree,
    loads,
    make_model,
    min_fill_ordering,
    normalized_root_sum,
    parse_dimacs_cnf,
    parse_uai,
    structural_equal,
    to_dot,
)
from aomdd.diagram import (
    MetaNode,
    UniqueTable,
    make_node,
    normalize_arcs,
    reachable_nodes,
)
from aomdd.errors import ResourceLimitError

import diagram_reference as ref
from diagram_reference import check_reduced
from conftest import bench_workloads, open_nodes, random_model, seeded_rng


def test_make_node_redundant_returns_children():
    table = UniqueTable(weighted=False, domains=(2,))
    const, children = make_node(0, [(1, ()), (1, ())], table)
    assert (const, children) == (1, ())
    assert len(table) == 0


def test_make_node_weighted_promotes_constant():
    table = UniqueTable(weighted=True, domains=(2,))
    const, children = make_node(0, [(2, ()), (2, ())], table)
    # redundant: the common weight comes back unchanged
    assert const == 2
    assert children == ()


def test_make_node_isomorphism_hit():
    table = UniqueTable(weighted=False, domains=(2, 2))
    a = make_node(1, [(0, ()), (1, ())], table)
    b = make_node(1, [(0, ()), (1, ())], table)
    assert a == b
    assert a[1][0] is b[1][0]
    assert len(table) == 1


def test_make_node_dead():
    table = UniqueTable(weighted=False, domains=(2,))
    assert make_node(0, [(0, ()), (0, ())], table) == (0, ())


def test_make_node_domain_mismatch():
    table = UniqueTable(weighted=False, domains=(3,))
    with pytest.raises(StructuralError):
        make_node(0, [(1, ()), (0, ())], table)


def test_node_cap():
    table = UniqueTable(weighted=False, node_cap=1, domains=(2, 2))
    make_node(0, [(0, ()), (1, ())], table)
    with pytest.raises(ResourceLimitError):
        make_node(1, [(1, ()), (0, ())], table)
    assert len(table) == 1
    assert table.created_per_var == {0: 1}
    # a node already present is found at the cap
    assert make_node(0, [(0, ()), (1, ())], table)[1][0].uid == 0


class _CountedWeight:
    """A weight that counts how often it is hashed."""

    hashes = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        _CountedWeight.hashes += 1
        return hash(self.value)

    def __eq__(self, other):
        return self.value == other.value


def test_intern_hashes_key_once():
    table = UniqueTable(weighted=True, domains=(2,))
    arcs = ((_CountedWeight(1), ()), (_CountedWeight(2), ()))
    _CountedWeight.hashes = 0
    node = table.intern(0, arcs)
    assert _CountedWeight.hashes == 2
    assert table.intern(0, arcs) is node
    assert _CountedWeight.hashes == 4
    assert (len(table), node.uid, table.created_per_var) == (1, 0, {0: 1})


def test_normalize_arcs():
    # the primitive integer vector of the ray; the constant is the input sum
    arcs, const = normalize_arcs([(2, ()), (2, ())])
    assert const == 4
    assert arcs == ((1, ()), (1, ()))
    arcs, const = normalize_arcs([(0, ()), (3, ())])
    assert const == 3
    assert arcs == ((0, ()), (1, ()))
    arcs, const = normalize_arcs([(6, ()), (4, ()), (0, ())])
    assert const == 10
    assert arcs == ((3, ()), (2, ()), (0, ()))


def test_count_stats_terminal(example_model, example_tree):
    from aomdd.diagram import Aomdd

    table = UniqueTable(weighted=False, domains=example_model.domains)
    empty = Aomdd(example_tree, example_model.domains, (), 1, table, False)
    stats = count_stats(empty)
    assert stats["total_meta_nodes"] == 0
    assert stats["total_edges"] == 0


def test_example_counts(example_model, example_tree):
    compiled = compile_search(example_model, example_tree)
    stats = count_stats(compiled)
    assert stats["total_meta_nodes"] == 18
    assert stats["total_edges"] == 47
    check_reduced(open_nodes(compiled.table))


def test_structural_equal_across_tables():
    rng = seeded_rng(5)
    for _ in range(10):
        m = random_model(rng, weighted=True)
        a = compile_search(m)
        b = compile_search(m)
        assert a.table is not b.table
        assert structural_equal(a, b)


def test_structural_equal_tree_mismatch(example_model):
    from aomdd import build_primal_graph, chain_pseudo_tree, generate_pseudo_tree

    g = build_primal_graph(example_model)
    t1 = generate_pseudo_tree(g, list(range(8)))
    t2 = chain_pseudo_tree(g, list(range(8)))
    a = compile_search(example_model, t1)
    b = compile_search(example_model, t2)
    with pytest.raises(StructuralError):
        structural_equal(a, b)


def _one_entry_changed(model, rng):
    """A copy of ``model`` with one table entry set to 0, or to 1 if it was 0."""
    functions = [(f.scope, list(f.values)) for f in model.functions]
    values = rng.choice(functions)[1]
    i = rng.randrange(len(values))
    values[i] = 1 if values[i] == 0 else 0
    return make_model(model.domains, functions, kind=model.kind)


def _structural_equal_pairs():
    """100 seeded ``(a, b, changed)`` triples: ``b`` equals ``a``, ``changed`` may not."""
    rng = seeded_rng(10)
    for i in range(100):
        model = random_model(rng, weighted=i % 2 == 0)
        a = compile_search(model)
        b = compile_be(model, tree=a.tree)
        yield a, b, compile_search(_one_entry_changed(model, rng), a.tree)


def test_structural_equal_matches_reference():
    changed_verdicts = set()
    for a, b, changed in _structural_equal_pairs():
        for x, y in ((a, b), (a, changed), (loads(dumps(changed)), a)):
            verdict = structural_equal(x, y)
            assert verdict == structural_equal(y, x) == ref.structural_equal(x, y)
        assert structural_equal(a, b)
        changed_verdicts.add(structural_equal(a, changed))
    assert changed_verdicts == {True, False}


def test_structural_equal_on_two_loaded_diagrams():
    # the pairs above, both sides loaded: neither has a unique table.
    # Not checked against ``ref``, whose table shortcut needs real tables.
    for a, b, changed in _structural_equal_pairs():
        for x, y in ((a, b), (a, changed)):
            verdict = structural_equal(x, y)
            loaded_x = loads(dumps(x))
            text = dumps(y)
            reflowed = text.replace(" ", "  \t").replace("\n", " \n\n")
            for loaded_y in (loads(text), loads(reflowed)):
                assert loaded_x.table is loaded_y.table is None
                assert structural_equal(loaded_x, loaded_y) == verdict
                assert structural_equal(loaded_y, loaded_x) == verdict


def test_structural_equal_mode_mismatch():
    c = compile_search(make_model([3], [((0,), [1, 1, 0])], kind="constraint"))
    half = Fraction(1, 2)
    w = compile_search(make_model([3], [((0,), [half, half, 0])]), c.tree)
    # the isomorphism walk compared the arcs and never the mode
    assert ref.structural_equal(c, w)
    with pytest.raises(StructuralError):
        structural_equal(c, w)
    with pytest.raises(StructuralError):
        structural_equal(w, c)


def test_normalized_root_sum_is_one():
    rng = seeded_rng(6)
    for _ in range(10):
        m = random_model(rng, weighted=True)
        compiled = compile_search(m)
        if compiled.constant != 0:
            assert normalized_root_sum(compiled) == 1


def test_dot_deterministic(example_model, example_tree):
    a = compile_search(example_model, example_tree)
    b = compile_search(example_model, example_tree)
    text = to_dot(a)
    assert text == to_dot(b)
    assert text.count("shape=square") >= 1


DOT_THREE_CLAUSES = """\
digraph aomdd {
  node [shape=record];
  n0 [label="{X2 | { <p0> 0: 0 | <p1> 1: 1 }}"];
  n1 [label="{X2 | { <p0> 0: 1 | <p1> 1: 0 }}"];
  n2 [label="{X1 | { <p0> 0: 0 | <p1> 1: 1 }}"];
  n3 [label="{X1 | { <p0> 0: 1 | <p1> 1: 0 }}"];
  n4 [label="{X0 | { <p0> 0: 1 | <p1> 1: 1 }}"];
  t0 [shape=square, label="0"];
  t1 [shape=square, label="1"];
  n0:p0 -> t0;
  n0:p1 -> t1;
  n1:p0 -> t1;
  n1:p1 -> t0;
  n2:p0 -> t0;
  n2:p1 -> n1;
  n3:p0 -> n0;
  n3:p1 -> t0;
  n4:p0 -> n2;
  n4:p1 -> n3;
  label="root constant 1";
}
"""

DOT_WEIGHTED_BRANCHES = """\
digraph aomdd {
  node [shape=record];
  n0 [label="{X2 | { <p0> 0: 1/3 | <p1> 1: 2/3 }}"];
  n1 [label="{X1 | { <p0> 0: 1/3 | <p1> 1: 2/3 | <p2> 2: 0 }}"];
  n2 [label="{X1 | { <p0> 0: 2/3 | <p1> 1: 1/6 | <p2> 2: 1/6 }}"];
  n3 [label="{X0 | { <p0> 0: 1/21 | <p1> 1: 20/21 }}"];
  t0 [shape=square, label="0"];
  t1 [shape=square, label="1"];
  n0:p0 -> t1;
  n0:p1 -> t1;
  n1:p0 -> t1;
  n1:p1 -> t1;
  n1:p2 -> t0;
  n2:p0 -> t1;
  n2:p1 -> t1;
  n2:p2 -> t1;
  n3:p0 -> n1;
  n3:p0 -> n0;
  n3:p1 -> n2;
  label="root constant 189/2";
}
"""


def _along(model, order):
    return generate_pseudo_tree(build_primal_graph(model), order)


def test_dot_golden_text():
    cnf = parse_dimacs_cnf("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
    weighted = make_model(
        [2, 3, 2],
        [((0,), [1, 3]),
         ((0, 1), [1, 2, 0, 4, 1, 1]),
         ((0, 2), [Fraction(1, 2), 1, 5, 5])],
    )
    for model, golden in ((cnf, DOT_THREE_CLAUSES), (weighted, DOT_WEIGHTED_BRANCHES)):
        tree = _along(model, [0, 1, 2])
        for compiled in (compile_search(model, tree), compile_be(model, tree=tree)):
            assert to_dot(compiled) == golden
            assert to_dot(loads(dumps(compiled))) == golden


def test_dot_golden_text_terminal_diagrams():
    unsat = compile_search(parse_dimacs_cnf("p cnf 2 2\n1 0\n-1 0\n"))
    assert not unsat.roots and unsat.constant == 0
    assert to_dot(unsat) == (
        'digraph aomdd {\n  node [shape=record];\n  t0 [shape=square, label="0"];\n'
        '  label="root constant 0";\n}\n'
    )
    constant = compile_search(make_model([2], [((), [Fraction(5, 2)])]))
    assert not constant.roots and constant.constant == Fraction(5, 2)
    assert to_dot(constant) == (
        'digraph aomdd {\n  node [shape=record];\n  t1 [shape=square, label="1"];\n'
        '  label="root constant 5/2";\n}\n'
    )


def test_check_reduced_enforces_primitive_integers():
    for weighted in (False, True):
        rng = seeded_rng(8)
        for _ in range(10):
            assert check_reduced(open_nodes(compile_search(random_model(rng, weighted)).table))
    table = UniqueTable(weighted=True, domains=(2, 2))
    table.intern(0, ((1, ()), (2, ())))
    assert check_reduced(open_nodes(table))
    table.intern(1, ((2, ()), (4, ())))  # gcd 2: not the primitive vector
    with pytest.raises(AssertionError, match="gcd 2"):
        check_reduced(open_nodes(table))
    table = UniqueTable(weighted=True, domains=(2,))
    table.intern(0, ((Fraction(1, 3), ()), (Fraction(2, 3), ())))
    with pytest.raises(AssertionError, match="not a non-negative int"):
        check_reduced(open_nodes(table))


def test_check_reduced_enforces_children_first():
    rng = seeded_rng(9)
    for i in range(20):
        model = random_model(rng, weighted=i % 2 == 0)
        a = compile_search(model)
        assert check_reduced(open_nodes(a.table))
        for d in (compile_be(model, tree=a.tree), loads(dumps(a))):
            assert check_reduced(reachable_nodes(d))
    orphan = MetaNode(1, ((0, ()), (1, ())), 5)  # uid past its parent's
    with pytest.raises(AssertionError, match="not created before"):
        check_reduced([MetaNode(0, ((0, ()), (1, (orphan,))), 0)])


def test_check_reduced_enforces_no_isomorphic_pair():
    low = MetaNode(1, ((0, ()), (1, ())), 0)
    assert check_reduced([low, MetaNode(0, ((1, (low,)), (0, ())), 1)])
    # two hand-built nodes with one key: no dict keying stops them
    twin = MetaNode(1, ((0, ()), (1, ())), 1)
    with pytest.raises(AssertionError, match="isomorphic"):
        check_reduced([low, twin])


def _assert_same_as_reference(a, b):
    """``a`` in integer form equals ``b`` in sum-to-1 form: bytes, uids, counts."""
    assert dumps(a) == ref.dumps(b)
    assert a.constant == b.constant
    assert a.table.created_per_var == b.table.created_per_var
    by_uid = {u.uid: u for u in open_nodes(b.table)}
    assert len(by_uid) == len(a.table)
    for u in open_nodes(a.table):
        v = by_uid[u.uid]
        total = sum(w for w, _ in u.arcs) if a.weighted else 1
        assert u.var == v.var
        assert [Fraction(w, total) for w, _ in u.arcs] == [w for w, _ in v.arcs]
        assert [[c.uid for c in ch] for _, ch in u.arcs] == [
            [c.uid for c in ch] for _, ch in v.arcs
        ]


def test_integer_form_matches_fraction_reference(monkeypatch):
    rng = seeded_rng(2024)
    for i in range(300):
        model = random_model(rng, weighted=i % 3 != 0)
        g = build_primal_graph(model)
        order = min_fill_ordering(g, seed=i)
        tree = generate_pseudo_tree(g, order)
        a = compile_search(model, tree)
        _assert_same_as_reference(a, ref.compile_reference(monkeypatch, model, tree))
        assert dumps(compile_be(model, d=order, tree=tree)) == dumps(a)


def test_integer_form_matches_fraction_reference_on_grid(monkeypatch):
    workloads = bench_workloads()
    for seed in (1, 2, 3):
        model = parse_uai(workloads.grid(seed).model_text)
        a = compile_search(model)
        _assert_same_as_reference(a, ref.compile_reference(monkeypatch, model))
        check_reduced(open_nodes(a.table))
