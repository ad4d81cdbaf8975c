"""Bucket-elimination compilation: per-function chain diagrams folded by APPLY.

Each input function becomes a small chain diagram over its scope; the
bucket-elimination schedule processes variables from last to first in
the ordering, folding every bucket's diagrams pairwise with the APPLY
combinator and passing the result to the parent bucket.  No variable is
eliminated, so the final message is the full canonical diagram.

All diagrams of one compilation share one unique table, so APPLY
results are shared across messages for free.  Internally a diagram
fragment is carried as a ``(constant, nodes)`` pair — the same shape
``make_node`` returns — where ``nodes`` is a DFS-ordered tuple with at
most one node per pseudo-tree branch.
"""

from __future__ import annotations

from ._recursion import run
from .diagram import Aomdd, UniqueTable, make_node
from .errors import StructuralError
from .model import WEIGHTED
from .structure import (
    build_primal_graph,
    chain_pseudo_tree,
    compute_buckets,
    generate_pseudo_tree,
)


def _chain_fragment(f, chain, domains, table):
    """Reduce the decision-tree unfolding of a table along a variable chain.

    ``chain`` is the scope sorted ancestor-first; returns a
    ``(constant, nodes)`` fragment.
    """
    assignment = {}

    def build(i):
        if i == len(chain):
            return f.value_at(assignment), ()
        var = chain[i]
        arcs = []
        for val in range(domains[var]):
            assignment[var] = val
            arcs.append(build(i + 1))
        del assignment[var]
        return make_node(var, arcs, table)

    return build(0)


def _run_below(nodes, k, stop, pos):
    """End of the run of ``nodes`` from index ``k`` at DFS positions below ``stop``."""
    while k < len(nodes) and pos[nodes[k].var] < stop:
        k += 1
    return k


def group_descendants(list_f, list_g, tree):
    """Group two DFS-ordered node lists by ancestor relationship.

    Within each list no variable is an ancestor of another.  Returns
    ``(head, members)`` pairs ordered by the head's DFS position: every
    member's variable lies in the head's subtree (the equal-variable
    case puts the g-node in the f-node's group), and nodes unrelated to
    the whole other list become singleton groups.

    One merge of the two lists by DFS position, O(|f| + |g|): the next
    node of either list is a head, the f-node on a tie, and its members
    are the run of the other list's nodes that follow it inside its DFS
    interval ``[dfs_index, subtree_end)``.
    """
    pos, end = tree.dfs_index, tree.subtree_end
    groups = []
    i = j = 0
    while i < len(list_f) or j < len(list_g):
        if j == len(list_g) or (
            i < len(list_f) and pos[list_f[i].var] <= pos[list_g[j].var]
        ):
            head = list_f[i]
            i += 1
            k = _run_below(list_g, j, end[head.var], pos)
            groups.append((head, list(list_g[j:k])))
            j = k
        else:
            head = list_g[j]
            j += 1
            k = _run_below(list_f, i, end[head.var], pos)
            groups.append((head, list(list_f[i:k])))
            i = k
    return groups


def _apply_node(v1, zs, tree, memo, table):
    """APPLY of one head node against a list of pairwise-unrelated nodes.

    Generator (driven by the trampoline) returning a ``(constant,
    nodes)`` fragment for the product function.
    """
    for z in zs:
        if not tree.is_ancestor_or_self(v1.var, z.var):
            raise StructuralError(
                "APPLY head %d is not an ancestor of %d" % (v1.var, z.var)
            )
    key = (id(v1),) + tuple(id(z) for z in zs)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if not zs:
        result = (1, (v1,))
    elif len(zs) == 1 and zs[0].var == v1.var:
        z = zs[0]
        arcs = []
        for (w1, ch1), (w2, ch2) in zip(v1.arcs, z.arcs):
            w = w1 * w2
            if w == 0:
                arcs.append((0, ()))
                continue
            const, children = yield _combine_lists(ch1, ch2, tree, memo, table)
            arcs.append((w * const, children) if const != 0 else (0, ()))
        result = make_node(v1.var, arcs, table)
    else:
        arcs = []
        for w1, ch1 in v1.arcs:
            if w1 == 0:
                arcs.append((0, ()))
                continue
            const, children = yield _combine_lists(ch1, zs, tree, memo, table)
            arcs.append((w1 * const, children) if const != 0 else (0, ()))
        result = make_node(v1.var, arcs, table)
    memo[key] = result
    return result


def _combine_lists(list_f, list_g, tree, memo, table):
    """Product of two node lists; generator returning (constant, nodes)."""
    const = 1
    out = []
    for head, members in group_descendants(list_f, list_g, tree):
        if not members:
            out.append(head)
            continue
        c, nodes = yield _apply_node(head, members, tree, memo, table)
        if c == 0:
            return 0, ()
        const = const * c
        out.extend(nodes)
    return const, tuple(out)


def apply_fragments(a, b, tree, memo, table):
    """Product of two (constant, nodes) fragments."""
    ca, na = a
    cb, nb = b
    if ca == 0 or cb == 0:
        return 0, ()
    const, nodes = run(_combine_lists(na, nb, tree, memo, table))
    return ca * cb * const, nodes


def compile_be(model, d=None, tree=None, table=None, node_cap=None, chain=False):
    """Compile a model by the bucket-elimination APPLY schedule.

    ``chain=True`` forces the degenerate chain pseudo tree (MDD/OBDD
    mode).  The result is structurally equal to the search compiler's
    output for the same pseudo tree.
    """
    g = build_primal_graph(model)
    if d is None:
        from .structure import min_fill_ordering

        d = min_fill_ordering(g)
    if tree is None:
        tree = chain_pseudo_tree(g, d) if chain else generate_pseudo_tree(g, d)
    buckets = compute_buckets(tree, model)
    weighted = model.kind == WEIGHTED
    if table is None:
        table = UniqueTable(weighted, node_cap, model.domains)
    domains = model.domains
    memo = {}
    pos = {v: i for i, v in enumerate(d)}

    root_const = 1
    for f in model.functions:
        if not f.scope:
            root_const = root_const * f.values[0]

    inbox = [[] for _ in range(tree.n)]
    final = None
    for var in reversed(d):
        message = (1, ())
        for fid in buckets[var]:
            f = model.functions[fid]
            chain_vars = tuple(sorted(f.scope, key=pos.__getitem__))
            fragment = _chain_fragment(f, chain_vars, domains, table)
            message = apply_fragments(message, fragment, tree, memo, table)
        for fragment in inbox[var]:
            message = apply_fragments(message, fragment, tree, memo, table)
        parent = tree.parent[var]
        if parent is None:
            final = apply_fragments(message, (1, ()) if final is None else final, tree, memo, table)
        else:
            inbox[parent].append(message)

    const, nodes = final
    constant = const * root_const
    if constant == 0:
        nodes = ()
    return Aomdd(tree, domains, tuple(nodes), constant, table, weighted, None)
