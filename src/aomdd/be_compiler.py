"""Bucket-elimination compilation: per-function chain diagrams folded by APPLY.

Each input function becomes a small chain diagram over its scope, placed
in the bucket of its deepest variable, then pushed down into the
deepest bucket below whose context holds its scope (``_push_down``): a
tree decomposition may place a function in any cluster that covers its
scope (Kask, Dechter, Larrosa and Dechter, "Unifying tree
decompositions for reasoning in graphical models", AIJ 2005).  There it
cuts the bucket's message before the context levels.  APPLY's result
is canonical whatever the association (Bryant, IEEE TC 1986), so only
the intermediate products change.  The schedule is bottom-up along
the pseudo tree, which is the bucket tree, one bucket per variable:
each bucket folds its diagrams and its children's messages pairwise
with the APPLY combinator and passes the result to its parent's
bucket.  No variable is eliminated, so the root bucket's message is
the full canonical diagram.

All diagrams of one compilation share one unique table, so APPLY
results are shared across messages for free.  A bucket makes nodes
only on the path from the root to its variable: its tables' chain
diagrams lie there, and APPLY makes a node at a variable only where one
operand has a node there and the other has one in that variable's
subtree, which below the bucket's variable never happens,
because only one child's message reaches into each child's subtree.
Tables only move down, so no bucket above ``X``'s multiplies a table
over ``X``.  So once ``X``'s bucket is done no node of ``X`` will be
made again, and the table closes ``X``'s level; reference counting
then frees the nodes there that the final diagram does not use.  More
narrowly, a bucket makes nodes only at its variable and its
context: its own tables' scopes lie there, a table pushed into it has
its scope in its context, and so, by induction, do its children's
messages.  A variable in the context of any variable but its children
gets message nodes from many buckets, so its level holds them weakly
until its own bucket starts: a message node or an intermediate product
there is freed as soon as no message, fragment or parent node refers
to it, not when its level closes near the root.  A level in no context
but its children's gets nodes only from their buckets and holds them
plainly: on a chain that is the one bucket before its own, and weak
entries cost time.
When a freed node's arcs come back, the node is created again, so the
table's creation count can exceed the reference schedule's.  The
levels stay closed: the returned table serves only its counters.  The
APPLY memo lives for one ``apply_fragments`` call: it keys by
``id()``, and ids of freed nodes are reused.

APPLY runs one trampoline generator per node product, ``_apply_node``.
Its arc loop combines the two child lists itself.  Two single nodes,
the common case, are paired in place by one DFS-interval test, and the
sub-product's node tuple becomes the arc's children; longer lists go
to ``group_descendants``' sort.  The memo is read before a subcall is
made, so a hit costs one dict lookup and no generator.  The product's
arcs are built in one pass and brought to a common denominator only
when theirs differ.  ``apply_fragments`` groups its two operands by
``_groups``, the same interval test with the sort behind it.
Internally a diagram fragment is carried as a ``(constant, nodes)``
pair — the same shape ``make_node`` returns — where ``nodes`` is a
DFS-ordered tuple with at most one node per pseudo-tree branch.

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
    stride = dict(zip(f.scope, f.strides()))
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


def _groups(list_f, list_g, tree):
    """``group_descendants`` of two node lists; two single nodes skip the sort.

    Two single nodes are grouped by one DFS-interval test: the g-node
    joins the f-node's group when it lies in ``[dfs_index, subtree_end)``
    of the f-node's variable (equal variables included), the f-node
    joins the g-node's when it lies strictly inside the g-node's
    interval, and otherwise they are two singleton groups in DFS order.
    """
    if len(list_f) == 1 == len(list_g):
        x, y = list_f[0], list_g[0]
        pos, end = tree.dfs_index, tree.subtree_end
        px, py = pos[x.var], pos[y.var]
        if px <= py < end[x.var]:
            return ((x, list_g),)
        if py < px < end[y.var]:
            return ((y, list_f),)
        return ((x, ()), (y, ())) if px < py else ((y, ()), (x, ()))
    return group_descendants(list_f, list_g, tree)


def _apply_node(v1, zs, key, tree, memo, table):
    """APPLY of one head node against a list of pairwise-unrelated nodes.

    Generator (driven by the trampoline) returning ``(num, den, nodes)``
    and storing it in ``memo`` under ``key``: the product function is
    ``num / den`` (in lowest terms) times the functions of ``nodes``.
    Arc weights multiply as integers; the node sums that normalize ``v1``
    (and ``z``) go into ``den`` once, and the arcs' child constants are
    brought to their lcm denominator where they differ, so ``make_node``
    sees integers and no arc is divided.

    Each arc whose two sides both hold nodes combines its two child lists
    here, and each group with members is read from ``memo`` first, so
    only a miss yields a subcall (one generator per product; a zero
    product ends the arc).  Two single nodes are paired in place by the
    DFS-interval test of ``_groups``, and the sub-product's node tuple
    is the arc's children; longer lists go to ``group_descendants``.
    """
    pos, end = tree.dfs_index, tree.subtree_end
    same = len(zs) == 1 and zs[0].var == v1.var
    den = node_total(v1, table.weighted)
    if same:
        den *= node_total(zs[0], table.weighted)
    arcs = []
    dens = []
    for i, (w, children) in enumerate(v1.arcs):
        others = zs
        if same:
            w2, others = zs[0].arcs[i]
            w *= w2
        q = 1
        if w == 0:
            children = ()
        elif not (children and others):
            children = children or tuple(others)
        elif len(children) == 1 == len(others):
            x, y = children[0], others[0]
            px, py = pos[x.var], pos[y.var]
            if px <= py < end[x.var]:
                head, members, sub = x, others, (id(x), id(y))
            elif py < px < end[y.var]:
                head, members, sub = y, children, (id(y), id(x))
            else:  # unrelated: two singleton groups in DFS order
                sub = None
                children = (x, y) if px < py else (y, x)
            if sub is not None:
                result = memo.get(sub)
                if result is None:
                    result = yield _apply_node(head, members, sub, tree, memo, table)
                p, q, children = result
                w *= p
        else:
            out = []
            for head, members in group_descendants(children, others, tree):
                if not members:
                    out.append(head)
                    continue
                sub = (id(head), *map(id, members))
                result = memo.get(sub)
                if result is None:
                    result = yield _apply_node(head, members, sub, tree, memo, table)
                p, r, nodes = result
                if p == 0:
                    w, q = 0, 1
                    break
                w *= p
                q *= r
                out.extend(nodes)
            children = tuple(out) if w else ()
        arcs.append((w, children))
        dens.append(q)
    common = dens[0]
    if dens.count(common) != len(dens):
        common = lcm(*dens)
        arcs = [(w * (common // q), children) for (w, children), q in zip(arcs, dens)]
    const, nodes = make_node(v1.var, arcs, table)
    den *= common
    g = gcd(const, den)
    result = (const // g, den // g, nodes)
    memo[key] = result
    return result


def apply_fragments(a, b, tree, table):
    """Product of two (constant, nodes) fragments.

    The memo of node pairs lives for this call only, while the operands
    keep every keyed node alive.  The top-level groups lie in unrelated
    subtrees, so none of them is a memo hit; each runs on its own
    trampoline.
    """
    ca, na = a
    cb, nb = b
    if ca == 0 or cb == 0:
        return 0, ()
    if not na or not nb:  # a constant operand scales the other
        return ca * cb, na or nb
    memo = {}
    num = den = 1
    out = []
    for head, members in _groups(na, nb, tree):
        if not members:
            out.append(head)
            continue
        key = (id(head), *map(id, members))
        p, q, nodes = run(_apply_node(head, members, key, tree, memo, table))
        if p == 0:
            num, den, out = 0, 1, ()
            break
        num *= p
        den *= q
        out.extend(nodes)
    return ca * cb * ratio(num, den), tuple(out)


def _push_down(tree, model, buckets, contexts):
    """Function ids per variable, each table moved as deep as contexts allow.

    Top-down, a table leaves a variable's bucket for the first child
    whose context holds its scope, and enters before that child's own
    tables.
    """
    tables = [()] * len(buckets)
    children, functions = tree.children, model.functions
    for var in tree.dfs_order:
        stay = []
        for fid in (*tables[var], *buckets[var]):
            scope = functions[fid].scope
            for c in children[var]:
                if contexts[c].issuperset(scope):
                    tables[c] += (fid,)
                    break
            else:
                stay.append(fid)
        tables[var] = tuple(stay)
    return tables


@collector_paused()
def compile_be(model, d=None, tree=None, node_cap=None, chain=False):
    """Compile a model by bucket elimination along the pseudo tree ``tree``.

    One bucket per variable, processed bottom-up (reverse DFS order):
    each folds its tables' chain diagrams, then its children's messages,
    by APPLY from the first of them, and sends the product to its
    parent's bucket, so the result is structurally equal to
    ``compile_search(model, tree)``.  ``k`` operands make ``k - 1``
    APPLYs; the constant 1 stands only for a bucket with none.  Each
    table is multiplied in the deepest bucket at or below its deepest
    variable whose context holds its scope, before that bucket's own
    tables (``_push_down``).  ``d`` and ``chain`` only choose the tree
    when none is given: the pseudo tree of ``d`` (default: a min-fill
    ordering), or with ``chain=True`` the degenerate chain along ``d``
    (MDD/OBDD mode).

    The level of a variable in the context of any variable but its
    children is held weakly until the variable's own bucket starts (see
    the module docstring).  Each level is closed when that bucket is
    done, and the returned table stays closed: interning into
    it raises, and it serves only its counters.
    """
    if tree is None:
        g = build_primal_graph(model)
        if d is None:
            d = min_fill_ordering(g)
        tree = chain_pseudo_tree(g, d) if chain else generate_pseudo_tree(g, d)
    buckets, contexts = compute_buckets(tree, model)
    buckets = _push_down(tree, model, buckets, contexts)
    weighted = model.kind == WEIGHTED
    table = UniqueTable(weighted, model.domains, node_cap)
    domains = model.domains
    functions, factor = integer_tables(model)
    depth = tree.depth_of.__getitem__

    def operands(var):
        # each table's chain diagram is made when the fold reaches it
        for fid in buckets[var]:
            f = functions[fid]
            yield _chain_fragment(f, tuple(sorted(f.scope, key=depth)), domains, table)
        yield from inbox[var]

    def product_of(var):
        # the operands die with this call, so only the bucket's message
        # outlives the bucket
        message = None
        for operand in operands(var):
            message = operand if message is None else apply_fragments(message, operand, tree, table)
        return (1, ()) if message is None else message

    parent = tree.parent
    inbox = [[] for _ in range(tree.n)]
    weak = {a for x, ctx in enumerate(contexts) for a in ctx if a != parent[x]}
    for var in weak:
        table.weaken(var)
    for var in reversed(tree.dfs_order):
        if var in weak:
            table.strengthen(var)
        message = product_of(var)
        inbox[var] = None  # the children's messages die with their last use
        table.close(var)
        if parent[var] is not None:
            inbox[parent[var]].append(message)

    # the root's bucket comes last: ``message`` is its message
    const, nodes = message
    return Aomdd(tree, domains, tuple(nodes), const * factor, table, weighted, None)
