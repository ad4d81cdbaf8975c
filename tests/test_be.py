import functools
import gc
import itertools
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from aomdd import (
    bcp_hook,
    brute_force_table,
    build_primal_graph,
    chain_pseudo_tree,
    compile_be,
    compile_search,
    count_stats,
    dumps,
    evaluate,
    generate_pseudo_tree,
    loads,
    make_model,
    min_fill_ordering,
    parse_dimacs_cnf,
    parse_uai,
    structural_equal,
)
from aomdd import be_compiler
from aomdd.be_compiler import apply_fragments, group_descendants
from aomdd.diagram import UniqueTable, reachable_nodes
from aomdd.serialize import weight_strs
from aomdd.structure import PrimalGraph, compute_buckets, compute_contexts

import be_reference
from diagram_reference import check_reduced
from conftest import (
    bench_workloads,
    bytes_and_counters,
    compiles,
    open_nodes,
    per_clause_model,
    queens_model,
    random_cnf_text,
    random_model,
    seeded_rng,
)

A, B, C, D, E, F, G, H = range(8)


def test_chain_diagram_xor():
    # C xor D: one C node splitting into the two D cofactors
    xor = make_model([2, 2], [((0, 1), [0, 1, 1, 0])], kind="constraint")
    compiled = compile_be(xor, d=[0, 1], chain=True)
    assert count_stats(compiled)["total_meta_nodes"] == 3
    for x in itertools.product(range(2), repeat=2):
        assert evaluate(compiled, list(x)) == (x[0] ^ x[1])


def test_chain_diagram_constant():
    m = make_model([2], [((), [Fraction(5, 2)])])
    compiled = compile_be(m, d=[0])
    assert not compiled.roots
    assert compiled.constant == Fraction(5, 2)


def test_chain_diagram_unary_weighted():
    m = make_model([2], [((0,), [Fraction(2, 5), Fraction(3, 5)])])
    compiled = compile_be(m, d=[0])
    assert compiled.constant == 1
    assert len(reachable_nodes(compiled)) == 1
    node = compiled.roots[0]
    # the primitive integer vector of (2/5, 3/5), read as n_i / sum(n)
    assert [w for w, _ in node.arcs] == [2, 3]
    assert weight_strs(node, True) == ["2/5", "3/5"]


def test_chain_fragment_deeper_than_recursion_limit():
    # one table over 1,500 domain-1 variables unfolds along a 1,500-level chain
    n = 1500
    m = make_model([1] * n, [(range(n), [Fraction(3, 2)])])
    tree = chain_pseudo_tree(build_primal_graph(m), range(n))
    assert dumps(compile_be(m, tree=tree)) == dumps(compile_search(m, tree))


def test_group_descendants_paper_case(example_model, example_tree):
    table = UniqueTable(weighted=False, domains=example_model.domains)

    def node_of(var):
        # distinct live single-variable nodes for grouping purposes
        arcs = [(1, ())] * (example_model.domains[var] - 1) + [(0, ())]
        return table.intern(var, tuple(arcs))

    nc, ng, nh = node_of(C), node_of(G), node_of(H)
    ne, nf = node_of(E), node_of(F)
    groups = group_descendants([nc, ng, nh], [ne, nf], example_tree)
    shaped = [(head.var, sorted(m.var for m in members)) for head, members in groups]
    assert shaped == [(C, [E]), (F, [G, H])]


def test_group_descendants_singletons(example_tree):
    table = UniqueTable(weighted=False, domains=(2,) * 8)
    nd = table.intern(D, ((1, ()), (0, ())))
    ng = table.intern(G, ((1, ()), (0, ())))
    assert group_descendants([nd], [], example_tree) == [(nd, [])]
    groups = group_descendants([nd], [ng], example_tree)
    assert [(h.var, members) for h, members in groups] == [(D, []), (G, [])]


def _loaded_copy(model, tree):
    return loads(dumps(compile_search(model, tree))).tree


def test_compilers_read_a_foreign_trees_contexts_off_the_buckets():
    # the chain 0 - 1 - 2 gives context(2) = {1}; a table over (0, 2)
    # lies on a root-to-leaf path of that tree, and compiles with its own
    # context(2) = {0}, as along the tree's loaded copy
    chain = make_model([2, 2, 2], [((0, 1), [1, 2, 3, 4]), ((1, 2), [1, 2, 3, 4])])
    tree = generate_pseudo_tree(build_primal_graph(chain), [0, 1, 2])
    assert tree.context[2] == {1}
    model = make_model([2, 2, 2], [((0, 2), [1, 2, 3, 4])])
    oracle = brute_force_table(model)
    along = compiles(model, tree)
    for name, compiled in along.items():
        for x in itertools.product(range(2), repeat=3):
            assert evaluate(compiled, list(x)) == oracle.value_at(x), name
    loaded = _loaded_copy(model, tree)
    assert loaded == tree and loaded.context is None
    assert bytes_and_counters(along) == bytes_and_counters(compiles(model, loaded))


def _union_graph(a, b):
    return PrimalGraph(a.n, tuple(u | v for u, v in zip(a.adj, b.adj)))


def test_tree_and_its_loaded_copy_compile_alike():
    # two models compiled along one common tree: the min-fill tree of the
    # union of their primal graphs, whose stored contexts are the union's
    rng = seeded_rng(29)
    wider = 0
    for i in range(40):
        a = random_model(rng, weighted=i % 2 == 0)
        b = random_model(rng, weighted=i % 2 == 1)
        while b.n != a.n:
            b = random_model(rng, weighted=i % 2 == 1)
        union = _union_graph(build_primal_graph(a), build_primal_graph(b))
        tree = generate_pseudo_tree(union, min_fill_ordering(union))
        for model in (a, b):
            loaded = _loaded_copy(model, tree)
            assert loaded == tree
            own = compute_contexts(tree, build_primal_graph(model))
            wider += own != tree.context
            got = bytes_and_counters(compiles(model, tree))
            assert got == bytes_and_counters(compiles(model, loaded))
    assert wider > 0  # some stored contexts are wider than the model's own


def test_apply_terminal_absorption(example_tree):
    table = UniqueTable(weighted=False, domains=(2,) * 8)
    assert apply_fragments((0, ()), (1, ()), example_tree, table) == (0, ())
    nd = table.intern(D, ((1, ()), (0, ())))
    assert apply_fragments((1, (nd,)), (1, ()), example_tree, table) == (
        1,
        (nd,),
    )


def test_apply_pointwise_weights():
    m = make_model(
        [2],
        [((0,), [Fraction(1, 5), Fraction(4, 5)]),
         ((0,), [Fraction(1, 2), Fraction(1, 2)])],
    )
    compiled = compile_be(m, d=[0])
    # product is proportional to (0.1, 0.4): normalized (0.2, 0.8), constant 0.5
    assert compiled.constant == Fraction(1, 2)
    node = compiled.roots[0]
    assert [w for w, _ in node.arcs] == [1, 4]
    assert weight_strs(node, True) == ["1/5", "4/5"]


def test_apply_clause_product():
    # (F|H) * (A|~H) over the chain A, F, H
    m = parse_dimacs_cnf("p cnf 3 2\n2 3 0\n1 -3 0\n")
    compiled = compile_be(m, d=[0, 1, 2], chain=True)
    sols = {
        x
        for x in itertools.product(range(2), repeat=3)
        if evaluate(compiled, list(x)) == 1
    }
    assert sols == {(0, 1, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)}


def test_apply_squares_constraints(example_model, example_tree):
    # APPLY interns into the search compile's table, which stays open
    a = compile_search(example_model, example_tree)
    fragment = (a.constant, a.roots)
    # squaring a 0/1 function is the identity
    assert apply_fragments(fragment, fragment, example_tree, a.table) == fragment


def test_bucket_fold_order_independent(example_model, example_tree):
    reordered = make_model(
        example_model.domains,
        [(f.scope, f.values) for f in reversed(example_model.functions)],
        kind="constraint",
    )
    a = compile_be(example_model, d=list(range(8)))
    b = compile_be(reordered, d=list(range(8)))
    assert structural_equal(a, b)


def test_be_matches_search_randomized():
    # BE follows the tree it is given, whatever ``d`` says
    rng = seeded_rng(32)
    for i in range(60):
        m = random_model(rng, weighted=rng.random() < 0.5)
        g = build_primal_graph(m)
        d = min_fill_ordering(g, seed=4)
        shuffled = rng.sample(range(m.n), m.n)
        for tree in (generate_pseudo_tree(g, d), chain_pseudo_tree(g, d)):
            expected = dumps(compile_search(m, tree))
            assert dumps(compile_be(m, tree=tree)) == expected
            assert dumps(compile_be(m, d=shuffled, tree=tree)) == expected
            assert dumps(compile_be(m, d=shuffled, tree=tree, chain=i % 2 == 0)) == expected


def test_shared_clause_tables_change_no_bytes_and_create_no_more():
    # the parser's one table per clause scope against one table per clause
    rng = seeded_rng(5)
    merged = shared = per_clause = 0
    for _ in range(300):
        text = random_cnf_text(rng)
        model, oracle = parse_dimacs_cnf(text), per_clause_model(text)
        got = bytes_and_counters(compiles(model))
        want = bytes_and_counters(compiles(oracle))
        assert got["search"] == want["search"]
        assert got["bcp"] == want["bcp"]
        assert got["be"][0] == want["be"][0]
        assert sum(got["be"][1].values()) <= sum(want["be"][1].values())
        merged += len(model.functions) < len(oracle.functions)
        shared += sum(got["be"][1].values())
        per_clause += sum(want["be"][1].values())
    assert (merged, shared, per_clause) == (216, 8181, 8657)


def _creations(compile_, structures, monkeypatch):
    """Run ``compile_``; return its diagram and the nodes its table created.

    Each creation is logged in order as ``(var, structure id)``.  A
    node's structure is its variable, weights and children's structure
    ids, and ``structures`` numbers the distinct ones across runs.  A
    structure is created again only once its earlier node is freed.
    """
    intern = UniqueTable.intern
    by_uid = {}
    latest = {}  # structure id -> weak reference to its latest node
    created = []

    def recording(table, var, arcs):
        before = len(table)
        node = intern(table, var, arcs)
        if len(table) != before:
            key = (var, tuple((w, tuple(by_uid[c.uid] for c in ch)) for w, ch in arcs))
            sid = structures.setdefault(key, len(structures))
            earlier = latest.get(sid)
            assert earlier is None or earlier() is None, "two live nodes of one structure"
            latest[sid] = weakref.ref(node)
            by_uid[node.uid] = sid
            created.append((var, sid))
        return node

    with monkeypatch.context() as patched:
        patched.setattr(UniqueTable, "intern", recording)
        return compile_(), created


def _logged_reference(model, d, tree, monkeypatch):
    """``be_reference.compile_be``'s text, table size, creations and their numbering."""
    structures = {}
    b, want = _creations(lambda: be_reference.compile_be(model, d, tree), structures, monkeypatch)
    return dumps(b), len(b.table), want, structures


def _assert_same_as_oracle(model, d, tree, monkeypatch, reference=None):
    # the reference keeps every node, so it creates each structure once;
    # BE frees dead message nodes early and may create one again, but it
    # creates the same structures.  ``reference`` is the reference's
    # ``_logged_reference``, made here when not given.
    text, size, want, structures = reference or _logged_reference(model, d, tree, monkeypatch)
    a, made = _creations(lambda: compile_be(model, tree=tree), dict(structures), monkeypatch)
    assert dumps(a) == text
    assert len(set(want)) == len(want) == size
    assert set(made) == set(want)
    assert len(a.table) == len(made)
    assert a.table.created_per_var == Counter(var for var, _ in made)
    return a, len(made) - len(want)


def test_tree_schedule_matches_ordering_schedule(monkeypatch):
    # for a tree built from ``d`` the tree schedule folds the same
    # fragments in the same order as the schedule along ``d``
    rng = seeded_rng(2024)
    for i in range(300):
        m = random_model(rng, weighted=i % 3 != 0)
        g = build_primal_graph(m)
        d = min_fill_ordering(g, seed=i)
        tree = chain_pseudo_tree(g, d) if i % 4 == 0 else generate_pseudo_tree(g, d)
        _assert_same_as_oracle(m, d, tree, monkeypatch)


@functools.cache
def _workload(name, seed=1, *sizes):
    """A bench workload's model, its min-fill order and that order's pseudo tree.

    Made once per session; no compile changes a model or a tree.
    """
    workload = getattr(bench_workloads(), name)(seed, *sizes)
    parse = parse_uai if workload.model_file.endswith(".uai") else parse_dimacs_cnf
    model = parse(workload.model_text)
    g = build_primal_graph(model)
    d = min_fill_ordering(g)
    return model, d, generate_pseudo_tree(g, d)


class ReferenceCompiles(dict):
    """The ``be_reference`` schedules of the bench workloads, each compiled once.

    ``self[name, seed, schedule]`` is the text and table size of
    ``be_reference.<schedule>`` along ``_workload(name, seed)``;
    ``self[name]`` is the seed-1 ``compile_be`` schedule's
    ``_logged_reference``, which also gives ``self[name, 1, "compile_be"]``.
    """

    def __missing__(self, key):
        if isinstance(key, str):
            with pytest.MonkeyPatch.context() as patched:
                value = _logged_reference(*_workload(key), patched)
            self[key, 1, "compile_be"] = value[:2]
        else:
            name, seed, schedule = key
            compiled = getattr(be_reference, schedule)(*_workload(name, seed))
            value = dumps(compiled), len(compiled.table)
        self[key] = value
        return value


@pytest.fixture(scope="session")
def reference_compiles():
    return ReferenceCompiles()


def test_tree_schedule_matches_ordering_schedule_on_bench_workloads(monkeypatch, reference_compiles):
    again = {}
    for name in ("grid", "chain", "cnf"):
        reference = reference_compiles[name]
        _, again[name] = _assert_same_as_oracle(*_workload(name), monkeypatch, reference)
    # a few freed message nodes come back on grid and cnf
    assert again == {"grid": 8, "chain": 0, "cnf": 33}


# Node structures each schedule creates at seed 1 (the references keep
# every node): (tables pushed down, one bucket per variable; pushed and
# each join's single-child chain folded into its bucket; folded only;
# neither).  Chain's only join is its root, so nothing there folds, and
# no context there holds a table's scope, so no table moves.
FOLDED_CREATIONS = {
    "grid": (18360, 18098, 19734, 25952),
    "chain": (11989, 11989, 11989, 11989),
    "cnf": (57355, 57440, 75265, 115708),
}


def test_pushing_tables_down_creates_no_more_nodes(reference_compiles):
    pushed = folded = per_bucket = 0
    schedules = ("compile_be", "compile_be_folded", "compile_be_unpushed", "compile_be_per_bucket")
    for name in ("grid", "chain", "cnf"):
        for seed in (1, 2, 3):
            texts, counts = zip(*(reference_compiles[name, seed, s] for s in schedules))
            assert len(set(texts)) == 1
            if seed == 1:
                assert counts == FOLDED_CREATIONS[name]
            pushed += counts[0]
            folded += counts[2]
            per_bucket += counts[3]
    assert pushed <= folded <= per_bucket


def test_a_bucket_makes_one_apply_per_operand_past_its_first(bench_compiles):
    # a bucket folds its tables' chain diagrams, then its children's
    # messages, from the first of them: k operands make k - 1 APPLYs, and
    # a bucket with none or one makes none
    applies = {}
    for name in ("grid", "chain", "cnf"):
        workload, tree = bench_compiles[name], bench_compiles[name, "be"].tree
        parse = parse_uai if workload.model_file.endswith(".uai") else parse_dimacs_cnf
        model = parse(workload.model_text)
        buckets = be_compiler._push_down(tree, model, *compute_buckets(tree, model))
        operands = [len(buckets[v]) + len(tree.children[v]) for v in range(tree.n)]
        applies[name] = bench_compiles.applies[name, "be"]
        assert applies[name] == sum(k - 1 for k in operands if k)
    assert applies == {"grid": 224, "chain": 1998, "cnf": 106}


def test_node_products_per_bench_workload(bench_compiles):
    # each ``_apply_node`` call is one node product; a kernel that makes
    # more of them on the seed-1 bench workloads fails here
    products = {}
    for name in ("grid", "chain", "cnf"):
        bench_compiles[name, "be"]
        products[name] = bench_compiles.products[name, "be"]
    assert products == {"grid": 17965, "chain": 5992, "cnf": 125732}


def test_a_moved_table_lies_in_the_context_of_its_new_bucket():
    # each table ends in one bucket at or below its deepest variable; a
    # moved one has its scope in that bucket's context, and no child of
    # the bucket has its scope in its own context
    rng = seeded_rng(71)
    models = [random_model(rng, weighted=i % 2 == 0) for i in range(200)]
    models += [_workload(name)[0] for name in ("grid", "chain", "cnf")]
    moved = 0
    for model in models:
        tree = compile_be(model).tree
        buckets, contexts = compute_buckets(tree, model)
        tables = be_compiler._push_down(tree, model, buckets, contexts)
        assert list(map(list, tables)) == be_reference.pushed_tables(tree, model)
        assert sorted(sum(tables, ())) == sorted(sum(buckets, ()))
        origin = {fid: var for var, fids in enumerate(buckets) for fid in fids}
        for var, fids in enumerate(tables):
            for fid in fids:
                scope = set(model.functions[fid].scope)
                assert tree.is_ancestor_or_self(origin[fid], var)
                if var != origin[fid]:
                    moved += 1
                    assert scope <= contexts[var]
                assert not any(scope <= contexts[c] for c in tree.children[var])
    assert moved > 100


def _broom(n, weighted):
    """A path ``0 - 1 - ... - n-1`` whose end ``n-1`` has two 3-variable branches.

    Pairwise tables on every edge, and the pseudo tree of the order
    that lists the path from ``0`` and then each branch from its top,
    which is the broom itself.
    """
    edges = [(v, v + 1) for v in range(n - 1)]
    for top in (n, n + 3):
        edges += [(n - 1, top), (top, top + 1), (top + 1, top + 2)]
    tables = [(e, [1 + i % 3, 2, 3, 4 - i % 2] if weighted else [1, 1, 0, 1]) for i, e in enumerate(edges)]
    model = make_model([2] * (n + 6), tables, kind="weighted" if weighted else "constraint")
    tree = generate_pseudo_tree(build_primal_graph(model), list(range(n + 6)))
    assert [len(tree.children[v]) for v in range(n)] == [1] * (n - 1) + [2]
    return model, tree


@pytest.mark.parametrize("weighted", [True, False])
def test_each_level_closes_in_its_own_bucket_past_the_recursion_limit(weighted, monkeypatch):
    # a level closes when its own bucket is done, and a bucket folds
    # from its first operand: along the handle each bucket below the
    # root holds one table and one child's message, so its level closes
    # one APPLY after the level below it, bottom-up, and the join ``n-1``
    # after one APPLY per child; a leaf's bucket (one table) and the
    # root's (one message) make none, so the branch done second has its
    # leaf close at the count the first one's top did, and the root
    # closes with its child
    n = 1500
    assert n > sys.getrecursionlimit()
    model, tree = _broom(n, weighted)
    applies = 0
    closed = {}
    apply_fragments_, close = be_compiler.apply_fragments, UniqueTable.close

    def counting(*args):
        nonlocal applies
        applies += 1
        return apply_fragments_(*args)

    def recording(table, var):
        closed[var] = applies
        close(table, var)

    monkeypatch.setattr(be_compiler, "apply_fragments", counting)
    monkeypatch.setattr(UniqueTable, "close", recording)
    compiled = compile_be(model, tree=tree)
    assert dumps(compiled) == dumps(compile_search(model, tree))
    assert len(closed) == n + 6
    assert closed[0] == closed[1]
    assert [closed[v] for v in range(1, n)] == list(range(applies, applies - n + 1, -1))
    assert sorted(closed[v] for v in range(n, n + 6)) == [0, 1, 2, 2, 3, 4]
    assert applies == n + 4


def _checked_apply(monkeypatch):
    """Check every grouping APPLY decides against ``be_reference``; return the counts.

    Each ``_groups`` call (``apply_fragments``' top-level grouping) and
    each ``group_descendants`` call is compared with the all-pairs
    ``be_reference.group_descendants``.  Each node product's arcs, whose
    pairs of single nodes ``_apply_node`` groups in place, are compared
    with ``be_reference.product_children``: the children it passes to
    ``make_node``, which it calls last, against those the reference
    groups assemble.  ``counts`` holds ``groupings`` (``_groups`` calls
    and product arcs grouped), ``pairs`` (those of two single nodes),
    ``sorts`` (``group_descendants`` calls) and ``reads`` (memo keys the
    groupings read); ``entered`` lists, per ``apply_fragments`` call,
    the keys of the products it entered.
    """
    counts = Counter()
    entered = []
    made = [None]  # the arcs of the latest ``make_node`` call
    apply_fragments_, apply_node, make_node, groups_, group = (
        be_compiler.apply_fragments,
        be_compiler._apply_node,
        be_compiler.make_node,
        be_compiler._groups,
        be_compiler.group_descendants,
    )

    def checked(list_f, list_g, tree, grouping):
        groups = grouping(list_f, list_g, tree)
        expected = be_reference.group_descendants(list_f, list_g, tree)
        shape = [(id(h), [id(x) for x in members]) for h, members in groups]
        assert shape == [(id(h), [id(x) for x in members]) for h, members in expected]
        return groups

    def top_level(list_f, list_g, tree):
        groups = checked(list_f, list_g, tree, groups_)
        counts["groupings"] += 1
        counts["pairs"] += len(list_f) == 1 == len(list_g)
        counts["reads"] += sum(1 for _, members in groups if members)
        return groups

    def sorting(list_f, list_g, tree):
        counts["sorts"] += 1
        return checked(list_f, list_g, tree, group)

    def per_apply(a, b, tree, table):
        entered.append([])  # ids are reused across calls, never within one
        return apply_fragments_(a, b, tree, table)

    def recording(var, arcs, table):
        made[0] = arcs
        return make_node(var, arcs, table)

    def product(v1, zs, key, tree, memo, table):
        assert key == (id(v1), *map(id, zs))
        entered[-1].append(key)
        result = yield from apply_node(v1, zs, key, tree, memo, table)
        children, groupings = be_reference.product_children(v1, zs, memo, tree)
        assert [ch for _, ch in made[0]] == children
        counts["groupings"] += len(groupings)
        counts["pairs"] += sum(pair for pair, _ in groupings)
        counts["reads"] += sum(reads for _, reads in groupings)
        return result

    monkeypatch.setattr(be_compiler, "_groups", top_level)
    monkeypatch.setattr(be_compiler, "group_descendants", sorting)
    monkeypatch.setattr(be_compiler, "apply_fragments", per_apply)
    monkeypatch.setattr(be_compiler, "make_node", recording)
    monkeypatch.setattr(be_compiler, "_apply_node", product)
    return counts, entered


def test_group_descendants_matches_reference(monkeypatch):
    # every grouping APPLY decides matches the reference: the top-level
    # ones, the sorted ones, and the pairs of single nodes that
    # ``_apply_node`` groups in place
    counts, _ = _checked_apply(monkeypatch)
    rng = seeded_rng(53)
    models = [random_model(rng, weighted=rng.random() < 0.5) for _ in range(60)]
    models.append(queens_model(5))
    for m in models:
        compile_be(m)
    # 2,421 groupings, 2,395 of them of two single nodes; 26 sort
    assert (counts["groupings"], counts["pairs"], counts["sorts"]) == (2421, 2395, 26)


def test_apply_enters_each_memo_key_once(monkeypatch):
    # on this 3-CNF APPLY meets node pairs again; a memo hit makes no subcall
    workload = bench_workloads().cnf(1, 26, 78)
    model = parse_dimacs_cnf(workload.model_text)
    counts, entered = _checked_apply(monkeypatch)
    compiled = compile_be(model)
    assert dumps(compiled) == dumps(compile_search(model, compiled.tree))
    for keys in entered:
        assert len(keys) == len(set(keys))
    assert counts["reads"] > sum(map(len, entered)) > 0
    assert (counts["reads"], sum(map(len, entered))) == (11811, 9031)


def _traced_peak(compile_):
    gc.collect()
    tracemalloc.start()
    try:
        compile_()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Keeping every node and APPLY memo entry to the end, BE peaked at
# 22.1 MiB on grid against 9.8 MiB for search, and at 7.9 against
# 3.0 MiB on chain (Python 3.11).  The memo scoped to one APPLY alone
# gives 12.4 and 5.1 MiB; closing each level when its bucket is done,
# 10.6 and 1.9.
@pytest.mark.parametrize("name, bound", [("grid", 1.5), ("chain", 1.0)])
def test_be_memory_tracks_the_diagram(name, bound):
    model, _, tree = _workload(name)
    search = _traced_peak(lambda: compile_search(model, tree))
    be = _traced_peak(lambda: compile_be(model, tree=tree))
    assert be <= bound * search


# BE's tables hold the message nodes at the levels above the bucket
# weakly.  Before, they stayed until those levels closed near the root,
# and BE peaked at 10.6 MiB on grid and 38.7 MiB on cnf; then 7.6 and
# 28.7 MiB, and with each join's chain folded into its bucket 7.5 and
# 27.6 MiB (Python 3.11).  With tables pushed down as well the folded
# schedule peaked at 7.4, 23.5 and 4.8 MiB on grid, cnf and the
# 32-variable cnf; one bucket per variable peaks at 7.5, 15.0 and 6.1
# MiB (7.46-7.60, 14.80-15.18 and 5.99-6.18 on Python 3.10-3.13).  The
# cnf bound fails the folded schedule, and the 32-variable one any
# further rise.
@pytest.mark.parametrize(
    "name, sizes, mib",
    [("grid", (), 9.0), ("cnf", (), 16.0), ("cnf", (32, 96), 6.5)],
    ids=["grid", "cnf", "cnf32"],
)
def test_be_frees_dead_message_nodes(name, sizes, mib):
    model, _, tree = _workload(name, 1, *sizes)
    assert _traced_peak(lambda: compile_be(model, tree=tree)) <= mib * 2**20


def test_a_weak_level_lets_a_freed_node_go():
    table = UniqueTable(weighted=False, domains=(2, 2))
    table.weaken(0)
    low = table.intern(1, ((1, ()), (0, ())))
    high = table.intern(0, ((1, (low,)), (0, ())))
    assert table.intern(0, ((1, (low,)), (0, ()))) is high
    gone = weakref.ref(high)
    del high
    assert gone() is None
    # its entry went with it: the same arcs make a new node
    again = table.intern(0, ((1, (low,)), (0, ())))
    assert again.uid == 2 and table.created_per_var == {0: 2, 1: 1}
    table.strengthen(0)
    assert [u.uid for u in open_nodes(table)] == [0, 2]
    kept = weakref.ref(again)
    del again
    assert kept() is not None  # a plain level holds it


def test_strengthen_survives_a_node_dying_mid_copy():
    # A sampling profiler that drops the last reference to a node while
    # the level is copied once made strengthen raise "dictionary changed
    # size during iteration"; here a key's hash does it deterministically.
    class Trigger:
        armed = False

        def __hash__(self):
            if Trigger.armed:
                Trigger.armed = False
                nonlocal doomed
                doomed = None  # its callback deletes its entry
            return 1

    table = UniqueTable(weighted=False, domains=(2, 2))
    table.weaken(0)
    low = table.intern(1, ((1, ()), (0, ())))
    first = table.intern(0, (Trigger(),))
    doomed = table.intern(0, ((1, (low,)), (0, ())))
    last = table.intern(0, ((0, ()), (1, (low,))))
    Trigger.armed = True
    table.strengthen(0)
    assert doomed is None and not Trigger.armed
    assert open_nodes(table) == [low, first, last]


def test_interning_at_a_closed_level_raises():
    table = UniqueTable(weighted=False, domains=(2, 2))
    low = table.intern(1, ((1, ()), (0, ())))
    table.close(1)
    with pytest.raises(RuntimeError, match="closed"):
        table.intern(1, ((1, ()), (0, ())))
    with pytest.raises(RuntimeError, match="closed"):
        table.intern(1, ((0, ()), (1, ())))
    # the other level stays open, and the counts keep every creation
    table.intern(0, ((1, (low,)), (0, ())))
    assert (len(table), table.created_per_var) == (2, {0: 1, 1: 1})
    assert [u.var for u in open_nodes(table)] == [0]


def test_be_returns_its_table_closed(monkeypatch, reference_compiles):
    rng = seeded_rng(61)
    cases = [(random_model(rng, weighted=i % 2 == 0), None) for i in range(40)]
    cases.append((_workload("grid")[0], reference_compiles["grid"]))
    for model, reference in cases:
        g = build_primal_graph(model)
        d = min_fill_ordering(g)
        tree = generate_pseudo_tree(g, d)
        compiled, _ = _assert_same_as_oracle(model, d, tree, monkeypatch, reference)
        table = compiled.table
        assert check_reduced(reachable_nodes(compiled))
        # every level is closed: the table serves only its counters
        assert open_nodes(table) == []
        for var in range(len(model.domains)):
            with pytest.raises(RuntimeError, match="closed"):
                table.intern(var, ((1, ()), (0, ())))
