"""Bucket-elimination compilation: per-function chain diagrams folded by APPLY.

Each input function becomes a small chain diagram over its scope, placed
in the bucket of its deepest variable.  The schedule is bottom-up along
the pseudo tree, which is the bucket tree: each bucket folds its
diagrams and its children's messages pairwise with the APPLY combinator
and passes the result to its parent's bucket.  No variable is
eliminated, so the root bucket's message is the full canonical diagram.

All diagrams of one compilation share one unique table, so APPLY
results are shared across messages for free.  The bucket of ``X``
makes nodes only on the path from the root to ``X``: its tables'
chain diagrams lie there, and APPLY makes a node at a variable only
where one operand has a node there and the other has one in that
variable's subtree, which below ``X`` never happens, because only one
child's message reaches into each child's subtree.  So once ``X``'s
bucket is done no node of ``X`` will be made again, and the table
closes ``X``'s level; reference counting then frees the message nodes,
intermediate products and chain diagrams that the final diagram does
not use.  The APPLY memo lives for one ``apply_fragments`` call: it
keys by ``id()``, and ids of freed nodes are reused.  Internally a diagram
fragment is carried as a ``(constant, nodes)`` pair — the same shape
``make_node`` returns — where ``nodes`` is a DFS-ordered tuple with at
most one node per pseudo-tree branch.

The tables enter as integers (``model.integer_tables``), and APPLY multiplies
integer arc weights.  Inside APPLY a fragment's constant is an integer
pair ``(num, den)``, reduced once per result, so no arc is divided and
``make_node`` only ever sees integers.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm

from ._recursion import run
from .diagram import (
    Aomdd,
    UniqueTable,
    collector_paused,
    make_node,
    node_total,
    ratio,
    reachable_nodes,
)
from .model import WEIGHTED, integer_tables
from .structure import (
    build_primal_graph,
    chain_pseudo_tree,
    compute_buckets,
    generate_pseudo_tree,
    min_fill_ordering,
)


def _chain_fragment(f, chain, domains, table):
    """Reduce the decision-tree unfolding of a table along a variable chain.

    ``chain`` is the scope sorted ancestor-first; returns a
    ``(constant, nodes)`` fragment.  Built bottom-up: values are read in
    chain order by their strides, and each level's run of ``k`` arcs is
    one ``make_node`` call, whose result is the next arc one level up.
    """
    stride = {}
    step = 1
    for var, k in zip(reversed(f.scope), reversed(f.shape)):
        stride[var] = step
        step *= k
    pending = [[] for _ in chain]
    for index in map(sum, product(*[range(0, domains[v] * stride[v], stride[v]) for v in chain])):
        w = f.values[index]
        arc = (w, ()) if w else (0, ())  # dead arcs share one tuple
        for d in range(len(chain) - 1, -1, -1):
            pending[d].append(arc)
            if len(pending[d]) < domains[chain[d]]:
                break
            arc = make_node(chain[d], pending[d], table)
            pending[d] = []
    return arc  # the last value completes every level


def group_descendants(list_f, list_g, tree):
    """Group two DFS-ordered node lists by ancestor relationship.

    Within each list no variable is an ancestor of another.  Returns
    ``(head, members)`` pairs ordered by the head's DFS position: every
    member's variable lies in the head's subtree (the equal-variable
    case puts the g-node in the f-node's group), and nodes unrelated to
    the whole other list become singleton groups.

    One stable sort of both lists by DFS position (an f-node before a
    g-node of the same variable) and one scan: a node outside the
    current head's DFS interval ``[dfs_index, subtree_end)`` starts a
    new group, and each node inside it joins the head's group.  Each
    list being pairwise unrelated, every member comes from the other
    list.
    """
    pos, end = tree.dfs_index, tree.subtree_end
    groups = []
    stop = 0
    for u in sorted((*list_f, *list_g), key=lambda x: pos[x.var]):
        if pos[u.var] < stop:
            members.append(u)
        else:
            members = []
            groups.append((u, members))
            stop = end[u.var]
    return groups


def _apply_node(v1, zs, tree, memo, table):
    """APPLY of one head node against a list of pairwise-unrelated nodes.

    Generator (driven by the trampoline) returning ``(num, den, nodes)``:
    the product function is ``num / den`` (in lowest terms) times the
    functions of ``nodes``.  Arc weights multiply as integers; the node
    sums that normalize ``v1`` (and ``z``) go into ``den`` once, and the
    arcs' child constants are brought to their lcm denominator, so
    ``make_node`` sees integers and no arc is divided.
    """
    key = (id(v1),) + tuple(id(z) for z in zs)
    cached = memo.get(key)
    if cached is not None:
        return cached
    same = len(zs) == 1 and zs[0].var == v1.var
    den = node_total(v1, table.weighted)
    if same:
        den *= node_total(zs[0], table.weighted)
    parts = []
    for i, (w, children) in enumerate(v1.arcs):
        others = zs
        if same:
            w2, others = zs[0].arcs[i]
            w *= w2
        if w == 0:
            parts.append((0, 1, ()))
        elif not others:
            parts.append((w, 1, children))
        elif not children:
            parts.append((w, 1, tuple(others)))
        else:
            num, q, children = yield _combine_lists(children, others, tree, memo, table)
            parts.append((w * num, q, children))
    common = lcm(*[q for _, q, _ in parts])
    arcs = [(w * (common // q), children) if w else (0, ()) for w, q, children in parts]
    const, nodes = make_node(v1.var, arcs, table)
    den *= common
    g = gcd(const, den)
    result = (const // g, den // g, nodes)
    memo[key] = result
    return result


def _combine_lists(list_f, list_g, tree, memo, table):
    """Product of two node lists; generator returning (num, den, nodes)."""
    num = den = 1
    out = []
    for head, members in group_descendants(list_f, list_g, tree):
        if not members:
            out.append(head)
            continue
        p, q, nodes = yield _apply_node(head, members, tree, memo, table)
        if p == 0:
            return 0, 1, ()
        num *= p
        den *= q
        out.extend(nodes)
    return num, den, tuple(out)


def apply_fragments(a, b, tree, table):
    """Product of two (constant, nodes) fragments.

    The memo of node pairs lives for this call only, while the operands
    keep every keyed node alive.
    """
    ca, na = a
    cb, nb = b
    if ca == 0 or cb == 0:
        return 0, ()
    num, den, nodes = run(_combine_lists(na, nb, tree, {}, table))
    return ca * cb * ratio(num, den), nodes


@collector_paused()
def compile_be(model, d=None, tree=None, node_cap=None, chain=False):
    """Compile a model by bucket elimination along the pseudo tree ``tree``.

    Buckets are processed bottom-up (reverse DFS order) and each sends
    its message to its parent's bucket, so the result is structurally
    equal to ``compile_search(model, tree)``.  ``d`` and ``chain`` only
    choose the tree when none is given: the pseudo tree of ``d``
    (default: a min-fill ordering), or with ``chain=True`` the
    degenerate chain along ``d`` (MDD/OBDD mode).

    Each variable's level of the unique table is closed when its bucket
    is done; the returned table is reopened with the diagram's nodes.
    """
    if tree is None:
        g = build_primal_graph(model)
        if d is None:
            d = min_fill_ordering(g)
        tree = chain_pseudo_tree(g, d) if chain else generate_pseudo_tree(g, d)
    buckets = compute_buckets(tree, model)
    weighted = model.kind == WEIGHTED
    table = UniqueTable(weighted, model.domains, node_cap)
    domains = model.domains
    functions, factor = integer_tables(model)
    depth = tree.depth_of.__getitem__

    inbox = [[] for _ in range(tree.n)]
    for var in reversed(tree.dfs_order):
        message = (1, ())
        for fid in buckets[var]:
            f = functions[fid]
            fragment = _chain_fragment(f, tuple(sorted(f.scope, key=depth)), domains, table)
            message = apply_fragments(message, fragment, tree, table)
        for fragment in inbox[var]:
            message = apply_fragments(message, fragment, tree, table)
        inbox[var] = None
        table.close(var)
        if var != tree.root:
            inbox[tree.parent[var]].append(message)

    # the root comes last in reverse DFS order: ``message`` is its bucket's
    const, nodes = message
    constant = const * factor
    if constant == 0:
        nodes = ()
    diagram = Aomdd(tree, domains, tuple(nodes), constant, table, weighted, None)
    table.reopen(reachable_nodes(diagram))
    return diagram
