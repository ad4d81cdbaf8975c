import cProfile
import math
import pstats
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
    mpe,
    parse_dimacs_cnf,
    parse_uai,
    structural_equal,
    sum_over,
)
from aomdd.diagram import check_reduced, reachable_nodes
from aomdd.errors import ResourceLimitError
from aomdd.model import full_assignments
from aomdd.search_compiler import integer_tables
from aomdd.structure import compute_contexts

import diagram_reference
import search_reference
from conftest import (
    bench_workloads,
    loaded_tree_models,
    open_nodes,
    queens_model,
    random_cnf_text,
    random_model,
    seeded_rng,
    shuffled_chain_cnf_text,
)

A, B, C, D, E, F, G, H = range(8)


def test_compile_constant_model():
    m = make_model([2, 2], [((0, 1), [1, 1, 1, 1])])
    compiled = compile_search(m)
    assert not compiled.roots
    assert compiled.constant == 1


def test_compile_unsatisfiable():
    m = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    compiled = compile_search(m)
    assert not compiled.roots
    assert compiled.constant == 0


def test_level_sizes_match_final_counts(example_model, example_tree):
    compiled = compile_search(example_model, example_tree)
    stats = count_stats(compiled)
    assert compiled.table.created_per_var == stats["meta_nodes_per_var"]


def test_context_bound_counters():
    rng = seeded_rng(22)
    for _ in range(20):
        m = random_model(rng, weighted=rng.random() < 0.5)
        compiled = compile_search(m)
        tree = compiled.tree
        for v in range(tree.n):
            bound = math.prod(m.domains[c] for c in tree.context[v])
            assert compiled.stats.or_expansions[v] <= bound
            assert compiled.table.created_per_var.get(v, 0) <= bound


def test_node_cap_enforced(example_model, example_tree):
    with pytest.raises(ResourceLimitError):
        compile_search(example_model, example_tree, node_cap=3)


def _verdicts(hook, pairs):
    """Assign ``pairs`` one call each, then undo them all; the verdicts."""
    verdicts = [hook(var, val) for var, val in pairs]
    for _ in pairs:
        hook.undo()
    return verdicts


def test_bcp_unit_chain():
    # x0 is a unit at the root, and x0 = 1 implies x1 = 1
    m = parse_dimacs_cnf("p cnf 2 2\n1 0\n-1 2 0\n")
    hook = bcp_hook(m)
    assert _verdicts(hook, [(0, 1), (1, 1)]) == [True, True]
    assert _verdicts(hook, [(0, 0)]) == [False]
    assert _verdicts(hook, [(0, 1), (1, 0)]) == [True, False]
    assert _verdicts(hook, [(1, 0)]) == [False]
    assert _verdicts(hook, [(1, 1), (0, 1)]) == [True, True]


def test_bcp_contradiction():
    m = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    hook = bcp_hook(m)
    assert _verdicts(hook, [(0, 0)]) == [False]
    assert _verdicts(hook, [(0, 1)]) == [False]


def test_bcp_multivalued():
    # x0 = x1 and x0 != x1 over ternary domains: empty after propagation
    eq = [1 if a == b else 0 for a in range(3) for b in range(3)]
    ne = [0 if a == b else 1 for a in range(3) for b in range(3)]
    m = make_model([3, 3], [((0, 1), eq), ((0, 1), ne)], kind="constraint")
    hook = bcp_hook(m)
    assert _verdicts(hook, [(0, 0)]) == [False]
    # a one-value domain loses its only value without ever being fixed
    m = make_model([1, 2], [((0, 1), [0, 1])], kind="constraint")
    hook = bcp_hook(m)
    assert _verdicts(hook, [(1, 0)]) == [False]
    assert _verdicts(hook, [(1, 1)]) == [True]


def test_bcp_result_unchanged(example_model, example_tree):
    plain = compile_search(example_model, example_tree)
    pruned = compile_search(example_model, example_tree, hook=bcp_hook(example_model))
    assert structural_equal(plain, pruned)


def _hook_corpus():
    rng = seeded_rng(51)
    models = [parse_dimacs_cnf(random_cnf_text(rng)) for _ in range(150)]
    models += [random_model(rng, weighted=False) for _ in range(150)]
    models += [random_model(rng, weighted=True) for _ in range(30)]
    models.append(queens_model(5))
    return models


class _Shadowed:
    """A trail hook checked against the stateless oracles on every call.

    It keeps the partial assignment its calls have built, and asserts
    that each verdict equals what the worklist and fixpoint forms answer
    on that assignment with the new value set.
    """

    def __init__(self, model):
        self.hook = bcp_hook(model)
        self.references = (
            search_reference.bcp_hook(model),
            search_reference.fixpoint_bcp_hook(model),
        )
        self.assignment = [None] * len(model.domains)
        self.assigned = []
        self.calls = self.rejects = 0

    def __call__(self, var, val):
        assert self.assignment[var] is None, (var, self.assignment)
        self.assignment[var] = val
        self.assigned.append(var)
        verdict = self.hook(var, val)
        for reference in self.references:
            assert verdict == reference(self.assignment), self.assignment
        self.calls += 1
        self.rejects += not verdict
        return verdict

    def undo(self):
        self.hook.undo()
        self.assignment[self.assigned.pop()] = None


def test_bcp_matches_reference_during_compile():
    calls = rejects = 0
    for m in _hook_corpus():
        checked = _Shadowed(m)
        compile_search(m, hook=checked)
        assert not checked.assigned
        calls += checked.calls
        rejects += checked.rejects
    assert calls > 2000 and 0 < rejects < calls


def test_bcp_matches_reference_on_random_assignments():
    # each random partial assignment is made one call at a time, in a
    # random order; a rejected call is undone and its variable skipped
    rng = seeded_rng(52)
    calls = rejects = 0
    for m in _hook_corpus():
        checked = _Shadowed(m)
        for _ in range(100):
            unset = rng.random()
            order = list(range(len(m.domains)))
            rng.shuffle(order)
            for var in order:
                if rng.random() >= unset and not checked(var, rng.randrange(m.domains[var])):
                    checked.undo()
            while checked.assigned:
                checked.undo()
        calls += checked.calls
        rejects += checked.rejects
    assert 0 < rejects < calls


def test_bcp_trail_returns_to_root():
    for m in _hook_corpus():
        hook = bcp_hook(m)
        first = compile_search(m, hook=hook)
        with pytest.raises(IndexError):
            hook.undo()  # every call was undone
        fresh = bcp_hook(m)
        for var, k in enumerate(m.domains):
            for val in range(k):
                assert _verdicts(hook, [(var, val)]) == _verdicts(fresh, [(var, val)])
        second = compile_search(m, hook=hook)
        assert dumps(second) == dumps(first)
        assert second.stats == first.stats


def test_bcp_root_conflict_compiles_to_zero():
    # the second model's conflict shows only after propagation
    for text in ("p cnf 1 2\n1 0\n-1 0\n", "p cnf 2 3\n1 0\n-1 2 0\n-2 0\n"):
        m = parse_dimacs_cnf(text)
        hook = bcp_hook(m)
        for var, k in enumerate(m.domains):
            for val in range(k):
                assert _verdicts(hook, [(var, val)]) == [False]
        plain = compile_search(m)
        pruned = compile_search(m, hook=hook)
        assert not pruned.roots and pruned.constant == 0
        assert dumps(pruned) == dumps(plain)


class _Logged:
    """A trail hook that logs each call with its verdict, and each undo."""

    def __init__(self, model):
        self.hook = bcp_hook(model)
        self.log = []

    def __call__(self, var, val):
        verdict = self.hook(var, val)
        self.log.append((var, val, verdict))
        return verdict

    def undo(self):
        self.hook.undo()
        self.log.append("undo")


def test_cache_lookup_before_the_generator_keeps_the_trace():
    # the compiler looks a child's cache up before it makes the child's
    # generator; the reference makes one per child and looks up inside it
    workloads = bench_workloads()
    models = [
        parse_uai(workloads.grid(1, side=6).model_text),
        parse_dimacs_cnf(workloads.cnf(1, n=16, m=48).model_text),
    ] + _hook_corpus()
    hits = rejects = 0
    for m in models:
        h, r = _matches_the_reference(m)
        hits += h
        rejects += r
    assert hits > 0 and rejects > 0


def _dead_caches(m, tree):
    """The root, and each variable whose context is its parent's plus the parent."""
    contexts = tree.context or compute_contexts(tree, build_primal_graph(m))
    return [
        v for v, p in enumerate(tree.parent)
        if p is None or set(contexts[v]) == {*contexts[p], p}
    ]


def _matches_the_reference(m, tree=None):
    """Compile ``m`` with and without a logged hook, as the reference does.

    The stats, the hook log and the bytes must be the reference's.  The
    reference looks up and stores every cache, so it checks that no
    dead cache, which the compiler skips, would ever have hit.
    Returns the unpruned compile's cache hits and the hook's rejections.
    """
    got, want = compile_search(m, tree), search_reference.compile_search(m, tree)
    assert got.stats == want.stats
    assert dumps(got) == dumps(want)
    dead = _dead_caches(m, got.tree)
    assert not any(want.stats.cache_hits[v] for v in dead)
    hits = sum(got.stats.cache_hits.values())
    logged = _Logged(m), _Logged(m)
    got = compile_search(m, tree, hook=logged[0])
    want = search_reference.compile_search(m, tree, hook=logged[1])
    assert got.stats == want.stats
    assert logged[0].log == logged[1].log
    assert dumps(got) == dumps(want)
    assert not any(want.stats.cache_hits[v] for v in dead)
    return hits, sum(entry != "undo" and not entry[2] for entry in logged[0].log)


def test_dead_caches_never_hit_in_the_reference():
    # 300 seeded random models along their default trees, and the
    # loaded-tree corpus along generated and chain trees read back by
    # ``loads``, which carry no contexts
    rng = seeded_rng(2024)
    cases = []
    for i in range(300):
        m = random_model(rng, weighted=i % 3 != 0)
        g = build_primal_graph(m)
        cases.append((m, generate_pseudo_tree(g, min_fill_ordering(g))))
    for m in loaded_tree_models():
        g = build_primal_graph(m)
        d = min_fill_ordering(g)
        for tree in (generate_pseudo_tree(g, d), chain_pseudo_tree(g, d)):
            cases.append((m, loads(dumps(compile_search(m, tree))).tree))
    hits = dead = 0
    for m, tree in cases:
        hits += _matches_the_reference(m, tree)[0]
        dead += len(_dead_caches(m, tree))
    assert hits > 0 and dead > len(cases)  # more than the roots are dead


def _stride_models():
    """Scopes listed deepest-first on a chain tree, 3-valued variables, empty scopes."""
    rng = seeded_rng(53)
    scopes = [(2, 0), (1, 2, 0), (1,), (3, 1), (0, 3, 2), ()]
    models = []
    for domains in ([2, 3, 2, 3], [3, 3, 2, 3], [3, 2, 3, 2]):
        for weighted in (True, False):
            for _ in range(3):
                functions = []
                for scope in scopes:
                    size = math.prod(domains[v] for v in scope)
                    if weighted:
                        values = [rng.choice([0, 1, 2, Fraction(3, 4), Fraction(5, 3)])
                                  for _ in range(size)]
                    else:
                        values = [int(rng.random() < 0.8) for _ in range(size)]
                    if not scope:
                        values = [Fraction(3, 2) if weighted else 1]
                    functions.append((scope, values))
                kind = "weighted" if weighted else "constraint"
                models.append(make_model(domains, functions, kind=kind))
    return models


def test_strided_lookups_match_the_reference():
    # the compiler reads a bucket table by precomputed strides; the
    # reference calls ``value_at``, which reads the scope in its order
    deepest_first = rejects = 0
    for m in _stride_models():
        g = build_primal_graph(m)
        trees = [None, chain_pseudo_tree(g, [0, 1, 2, 3]), chain_pseudo_tree(g, [3, 2, 1, 0])]
        for tree in trees:
            if tree is not None:
                depth = tree.depth_of
                deepest_first += sum(
                    len(f.scope) > 1 and depth[f.scope[0]] == max(depth[v] for v in f.scope)
                    for f in m.functions
                )
            rejects += _matches_the_reference(m, tree)[1]
    assert deepest_first > 0 and rejects > 0


def test_bcp_chain_trace_and_bytes_unchanged():
    # every value of a chain variable is consistent, so pruning rejects
    # nothing; the stateless hook took about 6 s on this chain
    m = parse_dimacs_cnf(shuffled_chain_cnf_text(1000, seed=5))
    plain = compile_search(m)
    pruned = compile_search(m, hook=bcp_hook(m))
    assert pruned.stats.or_expansions == plain.stats.or_expansions
    assert pruned.stats.and_expansions == plain.stats.and_expansions
    assert dumps(pruned) == dumps(plain)


# UAI decimals, an empty-scope table, a single-nonzero table and mixed
# denominators across tables
DECIMAL_UAI = """MARKOV
3
2 2 3
5
1 0
2 0 1
2 1 2
0
1 2
2
0.3 0.25
4
1 0.5 2.75 0.1
6
0 0 0 0.3 0 0
1
0.3
3
1.5 0.125 0
"""


def _scaling_edge_models():
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    yield parse_uai(DECIMAL_UAI)
    mixed = [((0,), [third, quarter]), ((0, 1), [quarter, 2 * third, 0, Fraction(5, 12)])]
    yield make_model([2, 2], mixed)
    yield make_model([2, 2], mixed + [((), [third]), ((), [Fraction(3, 4)])])
    yield make_model([2, 2], mixed + [((1,), [0, 0])])  # an all-zero table
    yield make_model([2, 2], mixed + [((), [0])])  # an all-zero empty-scope table
    yield make_model([2, 3], [((0, 1), [0, 0, 0, 0, Fraction(7, 3), 0])])  # one nonzero
    yield make_model([2, 2], [((), [Fraction(2, 3)]), ((0, 1), [third] * 4)])  # constant
    yield make_model([2], [((), [Fraction(5, 2)])])  # empty scopes only
    rng = seeded_rng(61)
    for _ in range(30):
        n = rng.randint(2, 5)
        domains = [rng.choice([2, 3]) for _ in range(n)]
        functions = []
        for _ in range(rng.randint(1, 6)):
            scope = rng.sample(range(n), rng.randint(0, min(3, n)))
            size = math.prod(domains[v] for v in scope)
            functions.append((scope, [
                0 if rng.random() < 0.3 else Fraction(rng.randint(1, 12), rng.choice([1, 3, 4, 10]))
                for _ in range(size)
            ]))
        yield make_model(domains, functions)


def test_table_scaling_edge_cases(monkeypatch):
    for model in _scaling_edge_models():
        tables, constant = integer_tables(model)
        assert all(type(v) is int for f in tables for v in f.values)
        a = compile_search(model)
        b = compile_be(model)
        reference = diagram_reference.compile_reference(monkeypatch, model)
        check_reduced(open_nodes(a.table))
        check_reduced(reachable_nodes(b))
        assert dumps(a) == dumps(b) == diagram_reference.dumps(reference)
        assert a.constant == b.constant == reference.constant
        oracle = brute_force_table(model)
        values = oracle.values
        assert sum_over(a) == sum_over(b) == sum(values)
        assert mpe(a)[0] == mpe(b)[0] == max(values)
        for x in full_assignments(model.domains):
            assert evaluate(a, x) == evaluate(b, x) == oracle.value_at(x)
        if len(set(values)) == 1:
            assert not a.roots and a.constant == values[0]


def test_compile_search_builds_no_fraction_per_arc():
    # every weight and child constant is an int: at most one Fraction per
    # table entry plus a few for the root constant, not one per arc
    model = parse_uai(bench_workloads().grid(1, side=6).model_text)
    profile = cProfile.Profile()
    compiled = profile.runcall(compile_search, model)
    calls = sum(
        count
        for (path, _, name), (_, count, *_) in pstats.Stats(profile).stats.items()
        if name == "__new__" and path.endswith("fractions.py")
    )
    entries = sum(len(f.values) for f in model.functions)
    assert len(compiled.table) > entries
    assert calls <= entries + 5
