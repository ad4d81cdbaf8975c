"""Reference forms of BE's schedule and APPLY grouping, kept as oracles.

``group_descendants`` is the all-pairs form of what
``aomdd.be_compiler.group_descendants`` computes by one sort of both
lists by DFS position and one scan over DFS intervals: every node of one
list is tested against every node of the other with
``is_ancestor_or_self``.

``compile_be`` is the earlier BE schedule, driven by an ordering ``d``
next to the tree: buckets in reverse ``d``, scopes sorted by position in
``d``.  For a tree generated from ``d`` (or the chain along ``d``) it
folds the same fragments in the same order as the tree schedule.
"""

from aomdd.be_compiler import _chain_fragment, apply_fragments
from aomdd.diagram import Aomdd, UniqueTable
from aomdd.model import WEIGHTED
from aomdd.search_compiler import integer_tables
from aomdd.structure import compute_buckets


def compile_be(model, d, tree):
    """BE along ``tree``, scheduled by the ordering ``d`` it came from."""
    buckets = compute_buckets(tree, model)[0]
    weighted = model.kind == WEIGHTED
    table = UniqueTable(weighted, model.domains)
    domains = model.domains
    functions, factor = integer_tables(model)
    pos = {v: i for i, v in enumerate(d)}

    inbox = [[] for _ in range(tree.n)]
    final = None
    for var in reversed(d):
        message = (1, ())
        for fid in buckets[var]:
            f = functions[fid]
            chain_vars = tuple(sorted(f.scope, key=pos.__getitem__))
            fragment = _chain_fragment(f, chain_vars, domains, table)
            message = apply_fragments(message, fragment, tree, table)
        for fragment in inbox[var]:
            message = apply_fragments(message, fragment, tree, table)
        parent = tree.parent[var]
        if parent is None:
            final = apply_fragments(message, (1, ()) if final is None else final, tree, table)
        else:
            inbox[parent].append(message)

    const, nodes = final
    constant = const * factor
    if constant == 0:
        nodes = ()
    return Aomdd(tree, domains, tuple(nodes), constant, table, weighted, None)


def group_descendants(list_f, list_g, tree):
    """Group two DFS-ordered node lists by ancestor relationship.

    Within each list no variable is an ancestor of another.  Returns
    ``(head, members)`` pairs ordered by the head's DFS position: every
    member's variable lies in the head's subtree (the equal-variable
    case puts the g-node in the f-node's group), and nodes unrelated to
    the whole other list become singleton groups.
    """
    groups = []
    claimed_g = set()
    claimed_f = set()
    for y in list_g:
        members = [
            x
            for x in list_f
            if x.var != y.var and tree.is_ancestor_or_self(y.var, x.var)
        ]
        if members:
            groups.append((y, members))
            claimed_g.add(id(y))
            claimed_f.update(id(x) for x in members)
    for x in list_f:
        if id(x) in claimed_f:
            continue
        members = [
            y
            for y in list_g
            if id(y) not in claimed_g and tree.is_ancestor_or_self(x.var, y.var)
        ]
        claimed_g.update(id(y) for y in members)
        groups.append((x, members))
    for y in list_g:
        if id(y) not in claimed_g:
            groups.append((y, []))
    groups.sort(key=lambda p: tree.dfs_index[p[0].var])
    return groups
