import math

import pytest

from aomdd import (
    bcp_hook,
    compile_search,
    count_stats,
    dumps,
    make_model,
    parse_dimacs_cnf,
    structural_equal,
)
from aomdd.errors import ResourceLimitError

import search_reference
from conftest import (
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
    # a one-value domain loses its only value without ever being fixed
    m = make_model([1, 2], [((0, 1), [0, 1])], kind="constraint")
    assert not bcp_hook(m)([None, 0])
    assert bcp_hook(m)([None, 1])


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


def test_bcp_matches_reference_during_compile():
    calls = rejects = 0
    for m in _hook_corpus():
        hook = bcp_hook(m)
        reference = search_reference.bcp_hook(m)

        def checked(assignment):
            nonlocal calls, rejects
            verdict = hook(assignment)
            assert verdict == reference(assignment), assignment
            calls += 1
            rejects += not verdict
            return verdict

        compile_search(m, hook=checked)
    assert calls > 2000 and 0 < rejects < calls


def test_bcp_matches_reference_on_random_assignments():
    rng = seeded_rng(52)
    calls = rejects = 0
    for m in _hook_corpus():
        hook = bcp_hook(m)
        reference = search_reference.bcp_hook(m)
        for _ in range(100):
            unset = rng.random()
            assignment = [
                None if rng.random() < unset else rng.randrange(k) for k in m.domains
            ]
            verdict = hook(assignment)
            assert verdict == reference(assignment), assignment
            calls += 1
            rejects += not verdict
    assert 0 < rejects < calls


def test_bcp_chain_trace_and_bytes_unchanged():
    m = parse_dimacs_cnf(shuffled_chain_cnf_text(150, seed=5))
    plain = compile_search(m)
    pruned = compile_search(m, hook=bcp_hook(m))
    assert pruned.stats.or_expansions == plain.stats.or_expansions
    assert pruned.stats.and_expansions == plain.stats.and_expansions
    assert dumps(pruned) == dumps(plain)
