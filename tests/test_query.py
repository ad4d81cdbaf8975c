import math
from fractions import Fraction

import pytest

from aomdd import (
    StructuralError,
    brute_force_table,
    build_primal_graph,
    chain_pseudo_tree,
    compile_be,
    compile_search,
    count_solutions,
    dumps,
    enumerate_solutions,
    evaluate,
    loads,
    make_model,
    mpe,
    normalized_root_sum,
    parse_dimacs_cnf,
    parse_uai,
    parse_uai_evidence,
    structural_equal,
    sum_over,
)
from aomdd import query
from aomdd.diagram import reachable_nodes
from aomdd.model import full_assignments, weight_of_full_assignment

import query_reference as ref
from conftest import (
    EXAMPLE_CNF,
    bench_workloads,
    queens_model,
    random_model,
    seeded_rng,
)

# variable 1 (domain 3) is in no function, so the arcs of variable 0 skip it
SKIP_UAI = "MARKOV\n3\n2 3 2\n1\n2 0 2\n4\n1 2 3 4\n"


def _random_evidence(rng, domains):
    picked = rng.sample(range(len(domains)), rng.randint(0, 2))
    return {v: rng.randrange(domains[v]) for v in picked}


def test_evaluate_matches_oracle():
    rng = seeded_rng(41)
    for _ in range(15):
        m = random_model(rng, weighted=rng.random() < 0.5)
        compiled = compile_search(m)
        bf = brute_force_table(m)
        for x in full_assignments(m.domains):
            assert evaluate(compiled, x) == bf.value_at(x)


def test_evaluate_validates_assignment(example_model):
    # a package error that is also the ValueError the README documents
    assert issubclass(StructuralError, ValueError)
    compiled = compile_search(example_model)
    with pytest.raises(StructuralError, match="variable 7 unassigned or out of domain"):
        evaluate(compiled, [0] * 7 + [None])
    with pytest.raises(StructuralError, match="variable 7 unassigned or out of domain"):
        evaluate(compiled, [0] * 7 + [5])


def test_evaluate_rejects_wrong_length():
    compiled = compile_search(parse_dimacs_cnf("p cnf 3 1\n1 2 3 0\n"))
    assert evaluate(compiled, [0, 1, 1]) == 1
    for x in ([0], [0, 1], [0, 1, 1, 1]):
        with pytest.raises(StructuralError, match="assignment has %d values" % len(x)):
            evaluate(compiled, x)


def test_sum_over_with_evidence():
    rng = seeded_rng(42)
    for _ in range(15):
        m = random_model(rng, weighted=True)
        compiled = compile_search(m)
        evidence = _random_evidence(rng, m.domains)
        weights = [
            weight_of_full_assignment(m, x)
            for x in full_assignments(m.domains)
            if all(x[v] == val for v, val in evidence.items())
        ]
        assert sum_over(compiled, evidence) == sum(weights)
        count = count_solutions(compiled, evidence)
        assert count == sum(1 for w in weights if w != 0)
        assert type(count) is int


def test_sum_over_rejects_bad_evidence(example_model):
    compiled = compile_search(example_model)
    with pytest.raises(StructuralError):
        sum_over(compiled, {0: 9})
    with pytest.raises(StructuralError):
        sum_over(compiled, {42: 0})


def test_count_example():
    compiled = compile_search(parse_dimacs_cnf(EXAMPLE_CNF))
    expected = sum(
        1
        for x in full_assignments((2,) * 8)
        if weight_of_full_assignment(parse_dimacs_cnf(EXAMPLE_CNF), x) == 1
    )
    assert count_solutions(compiled) == expected


def test_count_on_weighted_is_support_size():
    m = make_model([2, 2], [((0,), [0, Fraction(1, 2)]), ((1,), [2, 3])])
    compiled = compile_search(m)
    assert count_solutions(compiled) == 2
    assert sum_over(compiled) == Fraction(5, 2)


def test_queens_count():
    compiled = compile_search(queens_model(4))
    assert count_solutions(compiled) == 2


def test_mpe_matches_brute_force():
    rng = seeded_rng(43)
    for _ in range(15):
        m = random_model(rng, weighted=True)
        compiled = compile_search(m)
        evidence = _random_evidence(rng, m.domains)
        value, witness = mpe(compiled, evidence)
        expected = max(
            weight_of_full_assignment(m, x)
            for x in full_assignments(m.domains)
            if all(x[v] == val for v, val in evidence.items())
        )
        assert value == expected
        assert evaluate(compiled, witness) == value
        for v, val in evidence.items():
            assert witness[v] == val


def test_mpe_witness_is_first_maximizer_in_dfs_order():
    # ties go to the lowest value index at each node, so a positive MPE's
    # witness is the maximizer that comes first when assignments are
    # compared in pseudo-tree DFS order; at value 0 each root component
    # picks its own maximum and the rule does not hold
    rng = seeded_rng(48)
    checked = 0
    for _ in range(100):
        m = random_model(rng, weighted=rng.random() < 0.5)
        compiled = compile_search(m)
        order = compiled.tree.dfs_order
        for evidence in ({}, _random_evidence(rng, m.domains)):
            value, witness = mpe(compiled, evidence)
            if value == 0:
                continue
            consistent = [
                x for x in full_assignments(m.domains)
                if all(x[v] == val for v, val in evidence.items())
            ]
            first = min(
                (x for x in consistent if weight_of_full_assignment(m, x) == value),
                key=lambda x: [x[v] for v in order],
            )
            assert witness == first
            checked += 1
    assert checked > 100


def test_mpe_simple_and_unsat():
    m = make_model([2], [((0,), [Fraction(3, 10), Fraction(7, 10)])])
    value, witness = mpe(compile_search(m))
    assert value == Fraction(7, 10)
    assert witness == [1]
    unsat = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    value, witness = mpe(compile_search(unsat))
    assert value == 0
    assert len(witness) == 1


def test_enumerate_queens():
    compiled = compile_search(queens_model(4))
    sols = list(enumerate_solutions(compiled, limit=10))
    assert len(sols) == 2
    boards = {tuple(x) for x, _ in sols}
    assert boards == {(1, 3, 0, 2), (2, 0, 3, 1)}
    assert all(v == 1 for _, v in sols)


def test_enumerate_limit_and_order(example_tree):
    # the example tree's DFS order is 0..7, so the documented traversal
    # order (value ascending, DFS branch order) is plain lexicographic
    compiled = compile_search(parse_dimacs_cnf(EXAMPLE_CNF), example_tree)
    full = [tuple(x) for x, _ in enumerate_solutions(compiled)]
    assert len(full) == len(set(full)) == count_solutions(compiled)
    assert full == sorted(full)  # value-ascending DFS order over ids 0..7
    short = [tuple(x) for x, _ in enumerate_solutions(compiled, limit=3)]
    assert short == full[:3]


def test_enumerate_terminal_zero():
    unsat = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    assert list(enumerate_solutions(compile_search(unsat))) == []


def test_enumerate_matches_support():
    rng = seeded_rng(44)
    for _ in range(10):
        m = random_model(rng, weighted=rng.random() < 0.5)
        compiled = compile_search(m)
        enumerated = {tuple(x): v for x, v in enumerate_solutions(compiled)}
        expected = {
            tuple(x): weight_of_full_assignment(m, x)
            for x in full_assignments(m.domains)
            if weight_of_full_assignment(m, x) != 0
        }
        assert enumerated == expected


def test_enumerate_matches_reference():
    rng = seeded_rng(45)
    cases = [(queens_model(5), [None, 3], [{}, {0: 2}, {1: 0, 4: 3}])]
    for _ in range(60):
        m = random_model(rng, weighted=rng.random() < 0.5)
        limits = [None, rng.randint(0, 5)]
        cases.append((m, limits, [{}, _random_evidence(rng, m.domains)]))
    for m, limits, evidences in cases:
        compiled = compile_search(m)
        for limit in limits:
            for evidence in evidences:
                got = list(enumerate_solutions(compiled, limit, evidence))
                assert got == list(ref.enumerate_solutions(compiled, limit, evidence))


def test_deep_chain_queries():
    n = 3000
    eq = [1, 0, 0, 1]
    m = make_model([2] * n, [((i, i + 1), eq) for i in range(n - 1)], kind="constraint")
    order = list(range(n))
    tree = chain_pseudo_tree(build_primal_graph(m), order)
    assert tree.height == n - 1
    compiled = compile_search(m, tree)
    sols = list(enumerate_solutions(compiled, limit=2))
    assert sols == [([0] * n, 1), ([1] * n, 1)]
    assert list(enumerate_solutions(compiled)) == sols
    assert count_solutions(compiled) == sum_over(compiled) == 2
    assert count_solutions(compiled, {n - 1: 1}) == 1
    assert mpe(compiled, {0: 1}) == (1, [1] * n)
    assert evaluate(compiled, [0] * (n - 1) + [1]) == 0
    text = dumps(compiled)
    loaded = loads(text)
    assert dumps(loaded) == text
    assert structural_equal(loaded, compiled)


def test_deep_dont_care_queries():
    # x_i == x_{i+2} for even i; the odd variables are in no function,
    # so every arc into an odd level skips a variable
    n = 3000
    eq = [1, 0, 0, 1]
    m = make_model([2] * n, [((i, i + 2), eq) for i in range(0, n - 2, 2)], kind="constraint")
    tree = chain_pseudo_tree(build_primal_graph(m), list(range(n)))
    assert tree.height == n - 1
    compiled = compile_search(m, tree)
    count = count_solutions(compiled)
    assert count == 2**1501
    assert type(count) is int
    assert count_solutions(compiled, {1: 0}) == count_solutions(compiled, {0: 1}) == 2**1500
    assert sum_over(compiled, {3: 1}) == 2**1500
    value, witness = mpe(compiled, {1: 1})
    assert value == 1 and witness[1] == 1
    assert evaluate(compiled, witness) == 1
    assert list(enumerate_solutions(compiled, limit=2)) == [
        ([0] * n, 1),
        ([0] * (n - 1) + [1], 1),
    ]


def test_equivalent_detects_dropped_constraint(example_model, example_tree):
    a = compile_search(example_model, example_tree)
    dropped = make_model(
        example_model.domains,
        [(f.scope, f.values) for f in example_model.functions[:-1]],
        kind="constraint",
    )
    b = compile_search(dropped, example_tree)
    assert not structural_equal(a, b)
    assert structural_equal(a, compile_search(example_model, example_tree))


def _shallow_evidence(rng, diagram):
    """Evidence on the first one or two variables in DFS order, the ones nearest the root."""
    picked = diagram.tree.dfs_order[:rng.randint(1, 2)]
    return {v: rng.randrange(diagram.domains[v]) for v in picked}


def _fold_corpus():
    """Diagrams, each with no evidence, with some, and with evidence near the root.

    300 random models in both modes, the skip model, and the benchmark's
    grid (with its own evidence) and chain at seed 1.
    """
    rng = seeded_rng(74)
    models = [random_model(rng, weighted=i % 2 == 0) for i in range(300)]
    models.append(parse_uai(SKIP_UAI))
    cases = []
    for m in models:
        d = compile_search(m)
        cases += [(d, {}), (d, _random_evidence(rng, m.domains)), (d, _shallow_evidence(rng, d))]
    workloads = bench_workloads()
    grid = workloads.grid(1)
    d = compile_search(parse_uai(grid.model_text))
    cases += [(d, {}), (d, parse_uai_evidence(grid.evidence_text, n=len(d.domains)))]
    d = compile_search(parse_dimacs_cnf(workloads.chain(1).model_text))
    cases += [(d, {}), (d, _random_evidence(rng, d.domains)), (d, _shallow_evidence(rng, d))]
    return cases


def _consistent_walk(diagram, evidence):
    """The nodes reached from the roots along nonzero arcs that agree with the evidence."""
    seen = set()
    stack = list(diagram.roots)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            for val, (w, children) in enumerate(u.arcs):
                if w and evidence.get(u.var, val) == val:
                    stack.extend(children)
    return seen


def _arc_skips(diagram):
    """How many live arcs skip some variable, and how many skip none."""
    tree = diagram.tree
    width = [end - start for start, end in zip(tree.dfs_index, tree.subtree_end)]
    skips = none = 0
    for u in reachable_nodes(diagram):
        for w, children in u.arcs:
            if w:
                covered = 1 + sum(width[c.var] for c in children)
                if covered < width[u.var]:
                    skips += 1
                else:
                    none += 1
    return skips, none


def _typed(value):
    return value, type(value)


def test_queries_match_the_reference_fold():
    skips = none = cut = 0
    for d, evidence in _fold_corpus():
        assert _typed(count_solutions(d, evidence)) == _typed(ref.count_solutions(d, evidence))
        assert _typed(sum_over(d, evidence)) == _typed(ref.sum_over(d, evidence))
        value, witness = mpe(d, evidence)
        want, want_witness = ref.mpe(d, evidence)
        assert _typed(value) == _typed(want) and witness == want_witness
        assert _typed(normalized_root_sum(d)) == _typed(ref.normalized_root_sum(d))
        s, n = _arc_skips(d)
        skips += s
        none += n
        # the fold covers exactly the nodes the evidence leaves reachable
        folded = set(query._fold(d, evidence)[0])
        assert folded == _consistent_walk(d, evidence)
        cut += len(folded) < len(reachable_nodes(d))
    # arcs that list their skipped variables, and arcs that list none
    assert skips > 0 and none > 0
    # evidence that cuts nodes off the fold
    assert cut > 0


def test_fold_under_evidence_skips_the_nodes_it_cuts_off():
    grid = bench_workloads().grid(1)
    d = compile_search(parse_uai(grid.model_text))
    evidence = parse_uai_evidence(grid.evidence_text, n=len(d.domains))
    assert evidence == {0: 1, 49: 0, 70: 0, 77: 0}
    # ``argmax`` holds one entry per folded node
    assert len(query._fold(d, evidence)[0]) == 6769
    assert len(query._fold(d, {})[0]) == len(reachable_nodes(d)) == 11647


def test_folds_list_items_only_for_an_arc_that_skips(monkeypatch):
    calls = []
    arc_items = query._arc_items
    monkeypatch.setattr(query, "_arc_items", lambda *a: calls.append(a) or arc_items(*a))
    grid = compile_search(parse_uai(bench_workloads().grid(1).model_text))
    assert _arc_skips(grid) == (0, 23294)
    count_solutions(grid)
    sum_over(grid)
    assert calls == []  # the reference fold lists the items of all 23,295 arcs, root included
    skip = compile_search(parse_uai(SKIP_UAI))
    assert _arc_skips(skip) == (2, 4)
    assert count_solutions(skip) == 12 and sum_over(skip) == 30
    # the two arcs of variable 0, once per fold
    assert [args[1:3] for args in calls] == [(1, 3)] * 4
    # MPE and the root sum count a skipped variable as 1: they list nothing
    mpe(skip)
    normalized_root_sum(skip)
    assert len(calls) == 4


def _sorted_sizes(monkeypatch):
    """Patch ``aomdd.diagram``'s ``sorted``; return the list of the sizes it sorts."""
    from aomdd import diagram

    sizes = []
    monkeypatch.setattr(
        diagram,
        "sorted",
        lambda *a, **k: sizes.append(len(a[0])) or sorted(*a, **k),
        raising=False,
    )
    return sizes


def test_loaded_diagram_folds_without_a_walk(monkeypatch):
    # a diagram sorts its reachable nodes once, when it is built, and a
    # loaded one not at all: ``loads`` keeps its records, children first.
    # A fold without evidence then sorts nothing on either diagram, and
    # an evidence fold sorts only the set it reaches.
    sorts = _sorted_sizes(monkeypatch)
    grid = bench_workloads().grid(1)
    compiled = compile_search(parse_uai(grid.model_text))
    live = len(reachable_nodes(compiled))
    assert sorts == [live] == [11647]
    evidence = parse_uai_evidence(grid.evidence_text, n=len(compiled.domains))
    reached = len(_consistent_walk(compiled, evidence))
    assert reached == 6769
    want = [
        _typed(ref.count_solutions(compiled)),
        _typed(ref.sum_over(compiled)),
        _typed(ref.sum_over(compiled, evidence)),
        ref.mpe(compiled),
        ref.mpe(compiled, evidence),
        _typed(ref.normalized_root_sum(compiled)),
    ]
    text = dumps(compiled)
    loaded = loads(text)
    assert structural_equal(loaded, loads(text)) and structural_equal(compiled, loaded)
    assert sorts == [live]
    for diagram in (compiled, loaded):
        sorts.clear()
        got = [
            _typed(count_solutions(diagram)),
            _typed(sum_over(diagram)),
            _typed(sum_over(diagram, evidence)),
            mpe(diagram),
            mpe(diagram, evidence),
            _typed(normalized_root_sum(diagram)),
        ]
        assert got == want
        assert sorts == [reached, reached]  # the two evidence folds
    # the records are every reachable node, children first
    assert len(loaded.nodes) == live == 11647
    assert [u.uid for u in loaded.nodes] == list(range(live))


def test_evaluate_sorts_only_the_solution_tree_it_reads(monkeypatch):
    sorts = _sorted_sizes(monkeypatch)
    grid = bench_workloads().grid(1)
    compiled = compile_search(parse_uai(grid.model_text))
    loaded = loads(dumps(compiled))
    x = grid.assignment
    want = _typed(ref.sum_over(compiled, dict(enumerate(x))))
    tree = _consistent_walk(compiled, dict(enumerate(x)))
    assert len(tree) <= 81  # one node per variable at most
    for diagram in (compiled, loaded):
        sorts.clear()
        assert _typed(evaluate(diagram, x)) == want
        assert sorts == [len(tree)]


def _assignments(rng, diagram):
    """Every full assignment when there are at most 256, else 20 seeded ones and the MPE witness."""
    domains = diagram.domains
    if math.prod(domains) <= 256:
        return list(full_assignments(domains))
    sample = [[rng.randrange(k) for k in domains] for _ in range(20)]
    return sample + [mpe(diagram)[1]]


def test_evaluate_is_the_sum_under_its_assignment():
    rng = seeded_rng(35)
    for d in {id(d): d for d, _ in _fold_corpus()}.values():
        loaded = loads(dumps(d))
        for x in _assignments(rng, d):
            for diagram in (d, loaded):
                want = _typed(sum_over(diagram, dict(enumerate(x))))
                assert _typed(evaluate(diagram, x)) == want


def _answers(diagram, evidences, assignments):
    """``(value, type)`` of count, sum and MPE under each evidence, and of eval at each assignment."""
    out = []
    for evidence in evidences:
        value, witness = mpe(diagram, evidence)
        out += [
            _typed(count_solutions(diagram, evidence)),
            _typed(sum_over(diagram, evidence)),
            (_typed(value), witness),
        ]
    return out + [_typed(evaluate(diagram, x)) for x in assignments]


def test_a_compiled_diagram_and_its_loaded_copy_answer_alike():
    rng = seeded_rng(36)
    evidences = {}
    for d, evidence in _fold_corpus():
        evidences.setdefault(d, []).append(evidence)
    # weighted models whose root constants include integers, zero among them
    for seed in range(60, 80):
        models = seeded_rng(seed)
        for _ in range(40):
            m = random_model(models, weighted=True)
            for d in (compile_search(m), compile_be(m)):
                evidences[d] = [{}, _random_evidence(rng, m.domains)]
    for d, cases in evidences.items():
        loaded = loads(dumps(d))
        assert type(d.constant) is type(loaded.constant)
        xs = _assignments(rng, d)
        assert _answers(d, cases, xs) == _answers(loaded, cases, xs)


def _weighted_quarter_chain(n):
    """A pairwise chain over n binary variables whose table entries are j/4, j in 1..4."""
    tables = [
        ((i, i + 1), [Fraction((i + k) % 4 + 1, 4) for k in range(4)]) for i in range(n - 1)
    ]
    return make_model([2] * n, tables)


def test_evaluate_at_the_witness_of_a_weighted_chain():
    # exact weights grow with the height, and eval still reproduces MPE
    d = compile_search(_weighted_quarter_chain(1000))
    for diagram in (d, loads(dumps(d))):
        value, witness = mpe(diagram)
        assert _typed(evaluate(diagram, witness)) == _typed(value)
