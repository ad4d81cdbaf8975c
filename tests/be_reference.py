"""Reference forms of BE's schedule and APPLY grouping, kept as oracles.

``group_descendants`` is the all-pairs form of what
``aomdd.be_compiler.group_descendants`` computes by one sort of both
lists by DFS position and one scan over DFS intervals: every node of one
list is tested against every node of the other with
``is_ancestor_or_self``.  ``product_children`` assembles the children
of a node product's arcs from those groups, so every grouping APPLY
decides, a pair of single nodes included, can be checked against it.

``compile_be`` is the BE schedule driven by an ordering ``d`` next to
the tree: one bucket per variable, in reverse ``d``, scopes sorted by
position in ``d``.  Each table descends from its deepest variable, one
child at a time, to the first child whose context holds its scope,
while there is one; a variable's tables are those that stop there,
ordered by the depth they started from and then by id, so a moved
table comes before the bucket's own.  A bucket multiplies its tables,
then its children's messages.  ``compile_be_per_bucket`` is the same
schedule with every table in its deepest variable's bucket.  Two
schedules that fold a join (a variable with two or more children) and
the single-child chain above it into one bucket, taken at the chain's
top, are kept as comparators: the join's tables, then each further
member's own product, bottom-up, then the join's children's messages.
``compile_be_folded`` folds the pushed tables that way and
``compile_be_unpushed`` the unmoved ones.  For a tree generated from
``d`` (or the chain along ``d``) each folds the same fragments in the
same order as ``aomdd.be_compiler.compile_be`` or one of its
predecessors.  All keep every node, so a table's size counts the
distinct node structures its schedule creates.
"""

from aomdd.be_compiler import _chain_fragment, apply_fragments
from aomdd.diagram import Aomdd, UniqueTable, collector_paused
from aomdd.model import WEIGHTED
from aomdd.search_compiler import integer_tables
from aomdd.structure import compute_buckets


def pushed_tables(tree, model):
    """Function ids per variable, each table descended as far as contexts allow."""
    buckets, contexts = compute_buckets(tree, model)
    stops = []
    for start, fids in enumerate(buckets):
        for fid in fids:
            var = start
            scope = set(model.functions[fid].scope)
            while True:
                below = [c for c in tree.children[var] if scope <= contexts[c]]
                if not below:
                    break
                var = below[0]
            stops.append((tree.depth_of[start], fid, var))
    tables = [[] for _ in range(tree.n)]
    for _, fid, var in sorted(stops):
        tables[var].append(fid)
    return tables


def _folded(tree):
    """Each join's single-child chain folded into its bucket, keyed by the chain's top."""
    buckets = {var: [var] for var in range(tree.n)}
    for join in (var for var, kids in enumerate(tree.children) if len(kids) > 1):
        members = buckets.pop(join)
        while members[-1] != tree.root and len(tree.children[tree.parent[members[-1]]]) == 1:
            members += buckets.pop(tree.parent[members[-1]])
        buckets[members[-1]] = members
    return buckets


def _per_variable(tree):
    """One bucket per variable."""
    return {var: [var] for var in range(tree.n)}


def compile_be(model, d, tree):
    """BE along ``tree``, scheduled by ``d``: tables pushed down, one bucket per variable."""
    return _compile(model, d, tree, _per_variable(tree), pushed_tables(tree, model))


def compile_be_folded(model, d, tree):
    """BE along ``tree``, scheduled by ``d``: tables pushed down, joins' chains folded."""
    return _compile(model, d, tree, _folded(tree), pushed_tables(tree, model))


def compile_be_unpushed(model, d, tree):
    """BE along ``tree``, scheduled by ``d``, each join's chain folded into its bucket."""
    return _compile(model, d, tree, _folded(tree), compute_buckets(tree, model)[0])


def compile_be_per_bucket(model, d, tree):
    """BE along ``tree``, scheduled by ``d``, one bucket per variable, no table moved."""
    return _compile(model, d, tree, _per_variable(tree), compute_buckets(tree, model)[0])


@collector_paused()
def _compile(model, d, tree, buckets, tables):
    """BE whose bucket at ``top`` holds the variables ``buckets[top]``, bottom-up.

    ``tables`` lists the function ids each variable multiplies.
    """
    weighted = model.kind == WEIGHTED
    table = UniqueTable(weighted, model.domains)
    domains = model.domains
    functions, factor = integer_tables(model)
    pos = {v: i for i, v in enumerate(d)}

    def fold_tables(var):
        message = (1, ())
        for fid in tables[var]:
            f = functions[fid]
            chain_vars = tuple(sorted(f.scope, key=pos.__getitem__))
            fragment = _chain_fragment(f, chain_vars, domains, table)
            message = apply_fragments(message, fragment, tree, table)
        return message

    inbox = [[] for _ in range(tree.n)]
    final = None
    for var in reversed(d):
        if var not in buckets:
            continue
        bottom, *above = buckets[var]
        message = fold_tables(bottom)
        for member in above:
            message = apply_fragments(message, fold_tables(member), tree, table)
        for fragment in inbox[bottom]:
            message = apply_fragments(message, fragment, tree, table)
        parent = tree.parent[var]
        if parent is None:
            final = apply_fragments(message, (1, ()) if final is None else final, tree, table)
        else:
            inbox[parent].append(message)

    const, nodes = final
    return Aomdd(tree, domains, tuple(nodes), const * factor, table, weighted, None)


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


def product_children(v1, zs, memo, tree):
    """Each arc's children in APPLY's product of ``v1`` and ``zs``, grouped here.

    The arcs pair as in ``aomdd.be_compiler._apply_node``: arc ``i`` of
    ``v1`` with arc ``i`` of ``zs``' one node when that node is of
    ``v1``'s variable, else with the whole list ``zs``.  An arc whose
    two sides both hold nodes groups them by ``group_descendants``
    (all pairs): a singleton group keeps its head, and a group with
    members stands for its sub-product, read from ``memo`` under the
    ids of its head and members; a zero sub-product kills the arc.
    Returns the children of each arc (none for a dead one) and, per
    grouping, ``(pair, reads)``: whether it grouped two single nodes,
    and how many memo keys it read.
    """
    same = len(zs) == 1 and zs[0].var == v1.var
    arcs = []
    groupings = []
    for i, (w, children) in enumerate(v1.arcs):
        others = zs
        if same:
            w2, others = zs[0].arcs[i]
            w *= w2
        if w == 0 or not children or not others:
            arcs.append(tuple(children or others) if w else ())
            continue
        out = []
        reads = 0
        for head, members in group_descendants(children, others, tree):
            if not members:
                out.append(head)
                continue
            reads += 1
            p, _, nodes = memo[(id(head), *map(id, members))]
            if p == 0:
                out = []
                break
            out.extend(nodes)
        arcs.append(tuple(out))
        groupings.append((len(children) == 1 == len(others), reads))
    return arcs, groupings
