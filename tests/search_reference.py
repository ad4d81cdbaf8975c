"""Reference forms of the BCP pruning hook and of the search compiler, kept as oracles.

``aomdd.search_compiler.bcp_hook`` keeps its propagation on a trail
across calls.  The two forms here are stateless: ``hook(assignment)``
propagates the whole partial assignment from scratch.  ``bcp_hook``
does so from a worklist, ``fixpoint_bcp_hook`` by rescanning every
nogood until a whole pass changes nothing.

``aomdd.search_compiler.compile_search`` looks a child's cache up before
it makes the child's generator.  ``compile_search`` here is the earlier
form, copied verbatim: every child gets a ``solve`` generator, which
looks its own cache up.  Both must count the same expansions and cache
hits and call a hook in the same order.
"""

from operator import itemgetter

from aomdd._recursion import run
from aomdd.diagram import Aomdd, UniqueTable, collector_paused, make_node
from aomdd.model import WEIGHTED, integer_tables
from aomdd.search_compiler import CompileStats, model_nogoods
from aomdd.structure import (
    build_primal_graph,
    compute_buckets,
    compute_contexts,
    generate_pseudo_tree,
    min_fill_ordering,
)


def bcp_hook(model):
    """Pruning hook performing multi-valued unit propagation.

    The clause set is the model's zero tuples read as nogoods.  A nogood
    with all literals matched is a conflict; a nogood with exactly one
    unassigned variable forbids that value, and a variable with a single
    remaining value is fixed and propagated further.  Sound by
    construction: it only reports dead ends that no extension can avoid.

    Each call copies the assignment and propagates from a worklist that
    starts with every nogood.  A nogood can only become unit or
    conflicting when one of its variables is fixed, so only then are
    that variable's nogoods queued again.
    """
    nogoods = model_nogoods(model)
    domains = model.domains
    occurs = [[] for _ in domains]
    for i, nogood in enumerate(nogoods):
        for var in {var for var, _ in nogood}:
            occurs[var].append(i)

    def hook(assignment):
        values = list(assignment)
        forbidden = {}
        queue = list(range(len(nogoods)))
        while queue:
            pending = None
            for var, val in nogoods[queue.pop()]:
                current = values[var]
                if current is None:
                    if pending is not None or val in forbidden.get(var, ()):
                        break
                    pending = (var, val)
                elif current != val:
                    break
            else:
                if pending is None:
                    return False
                var, val = pending
                bad = forbidden.setdefault(var, set())
                bad.add(val)
                if len(bad) == domains[var]:
                    return False
                if len(bad) == domains[var] - 1:
                    values[var] = next(
                        v for v in range(domains[var]) if v not in bad
                    )
                    queue.extend(occurs[var])
        return True

    return hook


def fixpoint_bcp_hook(model):
    """The same propagation as ``bcp_hook``, rescanning to a fixpoint."""
    nogoods = model_nogoods(model)
    domains = model.domains

    def hook(assignment):
        values = list(assignment)
        forbidden = {}
        changed = True
        while changed:
            changed = False
            for nogood in nogoods:
                pending = None
                live = True
                for var, val in nogood:
                    current = values[var]
                    if current is None:
                        if val in forbidden.get(var, ()):
                            live = False
                            break
                        if pending is None:
                            pending = (var, val)
                        else:
                            live = False
                            break
                    elif current != val:
                        live = False
                        break
                if not live:
                    continue
                if pending is None:
                    return False
                var, val = pending
                bad = forbidden.setdefault(var, set())
                if val not in bad:
                    bad.add(val)
                    changed = True
                    if len(bad) == domains[var]:
                        return False
                    if len(bad) == domains[var] - 1:
                        values[var] = next(
                            v for v in range(domains[var]) if v not in bad
                        )
        return True

    return hook


@collector_paused()
def compile_search(model, tree=None, hook=None, node_cap=None):
    """Compile a model into its canonical diagram by AND/OR search.

    The default ``tree`` is the pseudo tree of a min-fill ordering; a
    tree read back by ``loads`` gets its contexts from the primal graph.

    ``hook``, when given, is a sound pruning test with the protocol of
    ``bcp_hook``: ``hook(var, val)`` is called once per value of nonzero
    weight, on top of the values of the ancestors, and assigns the value
    and propagates; returning False turns the arc into a dead end.
    ``hook.undo()`` is called once per call, to retract it: right after
    a rejection, or once the children are expanded.  A hook serves one
    compile at a time.  A sound hook never changes the result, only the
    trace size.
    """
    if tree is None:
        g = build_primal_graph(model)
        tree = generate_pseudo_tree(g, min_fill_ordering(g))
    buckets = compute_buckets(tree, model)[0]
    contexts = tree.context or compute_contexts(tree, build_primal_graph(model))
    weighted = model.kind == WEIGHTED
    table = UniqueTable(weighted, model.domains, node_cap)
    domains = model.domains
    functions, factor = integer_tables(model)
    stats = CompileStats()
    caches = [dict() for _ in range(tree.n)]
    assignment = [None] * tree.n
    # one key per context; a variable's cache is its own, so a
    # one-variable context may key by the bare value
    keys = [itemgetter(*ctx) if ctx else lambda a: () for ctx in contexts]
    undo = hook.undo if hook is not None else None

    def solve(var):
        key = keys[var](assignment)
        cached = caches[var].get(key)
        if cached is not None:
            stats.cache_hits[var] += 1
            return cached
        stats.or_expansions[var] += 1
        arcs = []
        for val in range(domains[var]):
            assignment[var] = val
            w = 1
            for fid in buckets[var]:
                w = w * functions[fid].value_at(assignment)
                if w == 0:
                    break
            if w != 0 and hook is not None and not hook(var, val):
                undo()
                w = 0
            if w == 0:
                arcs.append((0, ()))
                continue
            stats.and_expansions[var] += 1
            children = []
            for child in tree.children[var]:
                c_const, c_children = yield solve(child)
                if c_const == 0:
                    w = 0
                    break
                w = w * c_const
                children.extend(c_children)
            if hook is not None:
                undo()
            arcs.append((w, tuple(children)) if w != 0 else (0, ()))
        assignment[var] = None
        result = make_node(var, arcs, table)
        caches[var][key] = result
        return result

    try:
        const, children = run(solve(tree.root))
    finally:
        # ``solve`` names itself; the cycle through its closure cell would
        # keep the caches and the trace's nodes alive until the cyclic
        # collector ran, so break it and let reference counting free them
        del solve
    constant = const * factor
    if constant == 0:
        children = ()
    return Aomdd(tree, domains, tuple(children), constant, table, weighted, stats)
