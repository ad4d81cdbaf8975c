import math

import pytest

from aomdd import (
    bcp_hook,
    compile_search,
    count_stats,
    make_model,
    parse_dimacs_cnf,
    structural_equal,
)
from aomdd.errors import ResourceLimitError

from conftest import random_model, seeded_rng

A, B, C, D, E, F, G, H = range(8)


def test_compile_constant_model():
    m = make_model([2, 2], [((0, 1), [1, 1, 1, 1])])
    compiled = compile_search(m)
    assert compiled.is_terminal
    assert compiled.constant == 1


def test_compile_unsatisfiable():
    m = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    compiled = compile_search(m)
    assert compiled.is_terminal
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


def test_bcp_unit_chain():
    m = parse_dimacs_cnf("p cnf 2 2\n1 0\n-1 2 0\n")
    hook = bcp_hook(m)
    assert hook([None, None])
    assert not hook([0, None])
    assert not hook([1, 0])
    assert hook([1, 1])


def test_bcp_contradiction():
    m = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    hook = bcp_hook(m)
    assert not hook([None])


def test_bcp_multivalued():
    # x0 = x1 and x0 != x1 over ternary domains: empty after propagation
    eq = [1 if a == b else 0 for a in range(3) for b in range(3)]
    ne = [0 if a == b else 1 for a in range(3) for b in range(3)]
    m = make_model([3, 3], [((0, 1), eq), ((0, 1), ne)], kind="constraint")
    hook = bcp_hook(m)
    assert not hook([0, None])


def test_bcp_result_unchanged(example_model, example_tree):
    plain = compile_search(example_model, example_tree)
    pruned = compile_search(example_model, example_tree, hook=bcp_hook(example_model))
    assert structural_equal(plain, pruned)
