"""The package's structures are acyclic, so reference counting frees them.

The CLI runs each command, and each compiler its compile, with the
cyclic collector paused.  That leaks nothing only if no entry point
leaves a reference cycle behind: with the collector disabled,
``gc.collect()`` must find no unreachable object after each call, and
none once every result is dropped.
"""

import gc

import pytest

from aomdd import (
    ParseError,
    ResourceLimitError,
    bcp_hook,
    build_primal_graph,
    chain_pseudo_tree,
    compile_be,
    compile_search,
    count_solutions,
    count_stats,
    dumps,
    enumerate_solutions,
    evaluate,
    generate_pseudo_tree,
    induced_width,
    loads,
    min_fill_ordering,
    mpe,
    normalized_root_sum,
    parse_dimacs_cnf,
    parse_uai,
    parse_uai_evidence,
    structural_equal,
    sum_over,
    to_dot,
)
from aomdd import be_compiler, search_compiler
from aomdd.structure import compute_buckets, compute_contexts

from conftest import bench_workloads


@pytest.fixture
def collector_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _rejected(call, *args, error):
    # no ``pytest.raises``: its ExceptionInfo, held by this frame, would
    # make a cycle through the traceback
    try:
        call(*args)
    except error:
        return True
    return False


@pytest.mark.parametrize("name", ["grid", "chain", "cnf"])
def test_entry_points_leave_no_cycles(name, collector_paused):
    workload = getattr(bench_workloads(), name)(1)
    gc.collect()  # the generators' own garbage
    text = workload.model_text
    parse = parse_uai if workload.model_file.endswith(".uai") else parse_dimacs_cnf
    steps = []

    def step(label, value=None):
        steps.append((label, gc.collect()))
        return value

    model = step("parse", parse(text))
    evidence = step("evidence", parse_uai_evidence(workload.evidence_text, n=model.n))
    g = step("primal", build_primal_graph(model))
    order = step("min_fill", min_fill_ordering(g))
    step("induced_width", induced_width(g, order))
    step("chain_tree", chain_pseudo_tree(g, order))
    tree = step("pseudo_tree", generate_pseudo_tree(g, order))
    step("contexts", compute_contexts(tree, g))
    step("buckets", compute_buckets(tree, model))
    searched = step("search", compile_search(model, tree))
    step("search bcp", compile_search(model, tree, hook=bcp_hook(model)))
    built = step("be", compile_be(model, tree=tree))
    assert step("search cap", _rejected(compile_search, model, tree, None, 3, error=ResourceLimitError))
    assert step("be cap", _rejected(compile_be, model, None, tree, 3, error=ResourceLimitError))
    text = step("dumps", dumps(searched))
    step("to_dot", to_dot(searched))
    loaded = step("loads", loads(text))
    assert step("loads rejected", _rejected(loads, text.replace("nodes", "nodez", 1), error=ParseError))
    step("count", count_solutions(loaded, evidence))
    step("sum", sum_over(loaded, evidence))
    step("mpe", mpe(loaded, evidence))
    step("eval", evaluate(loaded, workload.assignment))
    step("root sum", normalized_root_sum(loaded))
    step("enumerate", list(enumerate_solutions(loaded, limit=3, evidence=evidence)))
    step("count_stats", count_stats(loaded))
    assert step("equal", structural_equal(built, loaded))
    del model, evidence, g, order, tree, searched, built, text, loaded
    step("results dropped")
    assert [(label, n) for label, n in steps if n] == []


@pytest.mark.parametrize("enabled", [True, False])
def test_compilers_restore_collector_state(enabled, example_model, monkeypatch):
    seen = []

    def recording(var, arcs, table, make_node=be_compiler.make_node):
        seen.append(gc.isenabled())
        return make_node(var, arcs, table)

    for module in (be_compiler, search_compiler):
        monkeypatch.setattr(module, "make_node", recording)
    compiles = {
        "search": lambda cap: compile_search(example_model, node_cap=cap),
        "bcp": lambda cap: compile_search(example_model, hook=bcp_hook(example_model), node_cap=cap),
        "be": lambda cap: compile_be(example_model, node_cap=cap),
    }
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for name, compile_ in compiles.items():
            compile_(None)
            assert gc.isenabled() == enabled, name
            with pytest.raises(ResourceLimitError):
                compile_(3)
            assert gc.isenabled() == enabled, name
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # every node was made with the collector paused
