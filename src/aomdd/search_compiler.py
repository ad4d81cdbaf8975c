"""Depth-first AND/OR search compilation with context caching.

The compiler expands the AND/OR search space along a pseudo tree,
caching each variable's subproblem by its context assignment (the
contexts ``compute_buckets`` reads off the scopes, for any tree), and
reduces meta-nodes inline on backtrack, so the trace it touches is (a
subset of, under pruning) the context-minimal graph and the output is
the canonical diagram.

Bucket tables are read by stride.  Once per compile, each variable's
bucket becomes a tuple of ``(values, ((var, stride), ...))`` pairs, one
per table, with the strides of ``TableFunction.strides`` (the product
of the domain sizes after a variable in the scope), so the entry at an
assignment is ``values[sum(assignment[var] * stride)]``, the index
``value_at`` computes.  ``solve`` adds that index up inline.  It needs
no check for an unassigned variable: ``compute_buckets`` puts each
table at its deepest variable, and rejects a scope that is not on one
root-to-leaf path, so when ``solve`` reads a variable's bucket every
other scope variable is an ancestor and already assigned.
``TableFunction.value_at`` keeps its check for its other callers.

Only a cache that can hit is kept.  The root is expanded once, and a
variable ``X`` whose context is ``context(parent) + {parent}`` has a
*dead* cache (Darwiche, "Recursive conditioning", AIJ 2001): no two
expansions of ``X`` share a context instance, so a lookup would never
hit.  By induction from the root, distinct expansions of every variable
have distinct context instances: a cached variable is expanded only on
a miss, and a dead one once per value of its parent in each of the
parent's expansions, and the parent is in its context.  Pruning only
removes expansions, so this holds under a hook too.  ``solve`` makes no
key for a dead cache, and neither looks it up nor stores into it.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from ._recursion import run
from .diagram import Aomdd, UniqueTable, collector_paused, make_node
from .model import WEIGHTED, integer_tables
from .structure import (
    build_primal_graph,
    compute_buckets,
    generate_pseudo_tree,
    min_fill_ordering,
)


class CompileStats:
    """Per-variable trace counters of one compilation."""

    __slots__ = ("or_expansions", "and_expansions", "cache_hits")

    def __init__(self):
        self.or_expansions = Counter()
        self.and_expansions = Counter()
        self.cache_hits = Counter()

    def __eq__(self, other):
        if not isinstance(other, CompileStats):
            return NotImplemented
        return (self.or_expansions, self.and_expansions, self.cache_hits) == (
            other.or_expansions, other.and_expansions, other.cache_hits
        )


@collector_paused()
def compile_search(model, tree=None, hook=None, node_cap=None):
    """Compile a model into its canonical diagram by AND/OR search.

    The default ``tree`` is the pseudo tree of a min-fill ordering.  Any
    tree that puts each scope on one root-to-leaf path compiles with the
    model's own contexts, wherever it came from.

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
    buckets, contexts = compute_buckets(tree, model)
    weighted = model.kind == WEIGHTED
    table = UniqueTable(weighted, model.domains, node_cap)
    domains = model.domains
    functions, factor = integer_tables(model)
    tables = [[functions[fid] for fid in bucket] for bucket in buckets]
    lookups = [tuple((f.values, tuple(zip(f.scope, f.strides()))) for f in fs) for fs in tables]
    # per-variable counters, folded into ``CompileStats`` at the end
    or_count, and_count, hit_count = [0] * tree.n, [0] * tree.n, [0] * tree.n
    caches = [dict() for _ in range(tree.n)]
    assignment = [None] * tree.n
    # one key per context; a variable's cache is its own, so a
    # one-variable context may key by the bare value.  A dead cache (the
    # root, and a variable whose context is its parent's plus the
    # parent) gets no key: it is never looked up or stored.
    parent = tree.parent
    keys = [
        None if p is None or ctx == {*contexts[p], p}
        else itemgetter(*ctx) if ctx else lambda a: ()
        for ctx, p in zip(contexts, parent)
    ]
    undo = hook.undo if hook is not None else None

    def solve(var, key):
        """Expand ``var`` under the current assignment, ``key`` its context or None."""
        or_count[var] += 1
        bucket = lookups[var]
        arcs = []
        for val in range(domains[var]):
            assignment[var] = val
            w = 1
            for values, strides in bucket:
                idx = 0
                for v, stride in strides:
                    idx += assignment[v] * stride
                w = w * values[idx]
                if w == 0:
                    break
            if w != 0 and hook is not None and not hook(var, val):
                undo()
                w = 0
            if w == 0:
                arcs.append((0, ()))
                continue
            and_count[var] += 1
            children = []
            for child in tree.children[var]:
                # a cache hit costs a lookup, not a generator and a trampoline step
                key_of = keys[child]
                if key_of is None:
                    solved = yield solve(child, None)
                else:
                    c_key = key_of(assignment)
                    solved = caches[child].get(c_key)
                    if solved is None:
                        solved = yield solve(child, c_key)
                    else:
                        hit_count[child] += 1
                c_const, c_children = solved
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
        if key is not None:
            caches[var][key] = result
        return result

    try:
        const, children = run(solve(tree.root, None))
    finally:
        # ``solve`` names itself; the cycle through its closure cell would
        # keep the caches and the trace's nodes alive until the cyclic
        # collector ran, so break it and let reference counting free them
        del solve
    stats = CompileStats()
    for counter, counts in (
        (stats.or_expansions, or_count),
        (stats.and_expansions, and_count),
        (stats.cache_hits, hit_count),
    ):
        counter.update({var: c for var, c in enumerate(counts) if c})
    constant = const * factor
    if constant == 0:
        children = ()
    return Aomdd(tree, domains, tuple(children), constant, table, weighted, stats)


def model_nogoods(model):
    """The zero tuples of every function, as (var, value) nogood tuples."""
    nogoods = []
    for f in model.functions:
        strides = f.strides()
        for idx, value in enumerate(f.values):
            if value != 0:
                continue
            lits = []
            rem = idx
            for var, stride in zip(f.scope, strides):
                val, rem = divmod(rem, stride)
                lits.append((var, val))
            nogoods.append(tuple(lits))
    return nogoods


def bcp_hook(model):
    """Pruning hook performing multi-valued unit propagation on a trail.

    The clause set is the model's zero tuples read as nogoods.  A nogood
    with all literals matched is a conflict; a nogood with exactly one
    unassigned variable forbids that value, and a variable with a single
    remaining value is fixed and propagated further.  Sound by
    construction: it only reports dead ends that no extension can avoid.

    The returned ``hook(var, val)`` assigns ``var = val`` on top of the
    values earlier calls fixed, propagates, and returns False on a
    conflict; ``hook.undo()`` retracts the latest call that has not been
    undone, whatever it returned.  A hook serves one compile at a time:
    the caller undoes every call, innermost first, and a compile that
    raises leaves the hook unusable.

    Building the hook propagates from every nogood once (the root
    level).  After that a nogood can only become unit or conflicting
    when one of its variables is fixed, so a call scans only the nogoods
    of the variables it fixes, and each variable is fixed at most once
    per call.  Every change is recorded on a trail as the variable and
    its forbidden set before the change (Moskewicz et al., "Chaff", DAC
    2001, without watched literals); ``undo`` pops the trail back to the
    call's mark.  Unit propagation is confluent, so a call answers what
    propagating the whole partial assignment from scratch would.
    """
    nogoods = model_nogoods(model)
    domains = model.domains
    occurs = [[] for _ in domains]
    for nogood in nogoods:
        for var in {var for var, _ in nogood}:
            occurs[var].append(nogood)
    values = [None] * len(domains)  # fixed value per variable, assigned or implied
    bad = [0] * len(domains)  # bitmask of the forbidden values of an unfixed variable
    full = [(1 << k) - 1 for k in domains]
    trail = []  # (var, bad[var]) before each change; var was unfixed then
    marks = []  # trail length at the start of each call not yet undone

    def propagate(queue):
        while queue:
            for nogood in queue.pop():
                pending = None
                for var, val in nogood:
                    current = values[var]
                    if current is None:
                        if pending is not None or bad[var] >> val & 1:
                            break
                        pending = var, val
                    elif current != val:
                        break
                else:
                    if pending is None:
                        return False
                    var, val = pending
                    mask = bad[var]
                    trail.append((var, mask))
                    mask |= 1 << val
                    bad[var] = mask
                    left = full[var] & ~mask
                    if not left:
                        return False
                    if not left & (left - 1):
                        values[var] = left.bit_length() - 1
                        queue.append(occurs[var])
        return True

    if not propagate([nogoods]):
        # a conflict at the root: forbid every value, so every call fails
        values[:] = [None] * len(domains)
        bad[:] = full
    trail.clear()

    def hook(var, val):
        marks.append(len(trail))
        current = values[var]
        if current is not None:
            return current == val
        if bad[var] >> val & 1:
            return False
        trail.append((var, bad[var]))
        values[var] = val
        return propagate([occurs[var]])

    def undo():
        mark = marks.pop()
        while len(trail) > mark:
            var, bad[var] = trail.pop()
            values[var] = None

    hook.undo = undo
    return hook
