"""Structural inputs to compilation: primal graphs, orderings, pseudo trees.

The pseudo tree generated for an ordering ``d`` is the elimination tree
of the graph induced along ``d``, which is also the bucket tree of
bucket elimination along ``d``.  One reverse sweep along ``d`` yields
the tree, the contexts and the induced width: a variable's context is
its set of earlier neighbours in the induced graph.  Min-fill updates
by deltas only the scores of the vertices whose neighbourhood an
elimination step changed.  ``_finish_tree`` builds every pseudo tree,
``serialize.loads``' too, from its parents and an order of the children.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .errors import StructuralError


class PrimalGraph:
    """Undirected graph over variable ids 0..n-1, no self loops."""

    __slots__ = ("n", "adj")

    def __init__(self, n, adj):
        self.n = n
        self.adj = adj  # tuple of frozensets


def build_primal_graph(model):
    """Edge {u,v} iff some function scope contains both u and v."""
    adj = [set() for _ in range(model.n)]
    for f in model.functions:
        scope = f.scope
        for i, u in enumerate(scope):
            for v in scope[i + 1:]:
                adj[u].add(v)
                adj[v].add(u)
    return PrimalGraph(model.n, tuple(frozenset(s) for s in adj))


def min_fill_ordering(g, seed=0):
    """Greedy min-fill ordering; ties broken by seeded random choice.

    Vertices are eliminated in sequence and placed from the last
    position backwards, so the returned order is an elimination order
    when read back-to-front.  Each step picks ``rng.choice`` over the
    ascending list of all vertices of least fill.

    Fill scores are kept per vertex in buckets of equal score, each a
    sorted list, and updated by deltas.  Eliminating ``v`` removes, from
    each neighbour's score, the pairs it formed with ``v`` and a vertex
    not adjacent to ``v``.  Each new fill edge ``a-b`` then adds to
    ``a``'s score one pair per neighbour of ``a`` not adjacent to ``b``
    (and the same for ``b``), and takes one from each common neighbour
    of ``a`` and ``b``.  A step costs O(sum of neighbour degrees + fill
    edges x degree) instead of rescoring each neighbour in O(degree^2).
    """
    rng = random.Random(seed)
    adj = [set(s) for s in g.adj]
    score = [_fill(adj, v) for v in range(g.n)]
    buckets = {}
    for v in range(g.n):
        buckets.setdefault(score[v], []).append(v)
    order = [None] * g.n
    for pos in range(g.n - 1, -1, -1):
        best = rng.choice(buckets[min(buckets)])
        _unbucket(buckets, score[best], best)
        nbrs = adj[best]
        rescored = {}
        for a in nbrs:
            adj[a].discard(best)
            rescored[a] = score[a] - len(adj[a] - nbrs)
        for a in nbrs:
            for b in nbrs - adj[a]:
                if a < b:
                    common = adj[a] & adj[b]
                    for w in common:
                        rescored[w] = rescored.get(w, score[w]) - 1
                    rescored[a] += len(adj[a]) - len(common)
                    rescored[b] += len(adj[b]) - len(common)
                    adj[a].add(b)
                    adj[b].add(a)
        for u, fill in rescored.items():
            if fill != score[u]:
                _unbucket(buckets, score[u], u)
                score[u] = fill
                insort(buckets.setdefault(fill, []), u)
        order[pos] = best
    return order


def _fill(adj, v):
    """Number of non-adjacent pairs among the neighbours of ``v``."""
    nbrs = adj[v]
    return (sum(len(nbrs - adj[a]) for a in nbrs) - len(nbrs)) // 2


def _unbucket(buckets, score, v):
    bucket = buckets[score]
    del bucket[bisect_left(bucket, v)]
    if not bucket:
        del buckets[score]


def _sweep(g, order, parent=None):
    """Parents and contexts from one reverse sweep along ``order``.

    A vertex's context is its earlier primal neighbours plus what its
    children passed up; it passes that context, minus its parent, to its
    parent.  Given parents, each earlier than its children, are followed.
    Otherwise a vertex's parent is the latest member of its context, or
    None if that is empty: the elimination tree of the graph induced
    along ``order``, whose contexts are the earlier induced neighbours.
    """
    pos = {v: i for i, v in enumerate(order)}
    chosen = [None] * g.n
    context = [set() for _ in range(g.n)]
    for i in range(g.n - 1, -1, -1):
        v = order[i]
        ctx = context[v]
        ctx.update(u for u in g.adj[v] if pos[u] < i)
        p = max(ctx, key=pos.__getitem__, default=None) if parent is None else parent[v]
        chosen[v] = p
        if p is not None:
            context[p] |= ctx - {p}
    return chosen, context


def induced_width(g, order):
    """Width of the induced graph along ``order``."""
    _check_permutation(g.n, order)
    return max(map(len, _sweep(g, order)[1]))


def _check_permutation(n, order):
    if n == 0:
        raise StructuralError("model has no variables")
    if sorted(order) != list(range(n)):
        raise StructuralError("order is not a permutation of 0..%d" % (n - 1))


class PseudoTree:
    """Rooted tree over all variables with the backarc property.

    ``children`` lists follow the generating ordering; ``context`` holds
    a frozenset of ancestors per variable, or None when the tree was
    rebuilt without its primal graph (``loads``); no compiler reads it.
    The subtree of ``v`` is the DFS interval
    ``dfs_order[dfs_index[v]:subtree_end[v]]``.
    """

    __slots__ = (
        "parent", "children", "root", "dfs_order", "dfs_index", "depth_of", "subtree_end",
        "context",
    )

    def __init__(
        self, parent, children, root, dfs_order, dfs_index, depth_of, subtree_end, context=None
    ):
        self.parent = parent
        self.children = children
        self.root = root
        self.dfs_order = dfs_order
        self.dfs_index = dfs_index
        self.depth_of = depth_of
        self.subtree_end = subtree_end
        self.context = context

    @property
    def n(self):
        return len(self.parent)

    @property
    def height(self):
        return max(self.depth_of)

    def is_ancestor_or_self(self, a, b):
        """True iff ``a`` is ``b`` or an ancestor of ``b``."""
        return self.dfs_index[a] <= self.dfs_index[b] < self.subtree_end[a]

    def __eq__(self, other):
        if not isinstance(other, PseudoTree):
            return NotImplemented
        return self.parent == other.parent and self.dfs_order == other.dfs_order


def _finish_tree(parent, order, context=None):
    """Index the tree rooted at ``order[0]``, the one vertex without a parent,
    with children in ``order``; ``context`` sets become frozensets.
    """
    n = len(parent)
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    dfs_order = []
    stack = [order[0]]
    while stack:
        v = stack.pop()
        dfs_order.append(v)
        stack.extend(reversed(children[v]))
    dfs_index = [0] * n
    for i, v in enumerate(dfs_order):
        dfs_index[v] = i
    depth_of = [0] * n
    for v in dfs_order[1:]:
        depth_of[v] = depth_of[parent[v]] + 1
    end = [0] * n
    for v in reversed(dfs_order):
        end[v] = end[children[v][-1]] if children[v] else dfs_index[v] + 1
    return PseudoTree(
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        root=order[0],
        dfs_order=tuple(dfs_order),
        dfs_index=tuple(dfs_index),
        depth_of=tuple(depth_of),
        subtree_end=tuple(end),
        context=None if context is None else tuple(map(frozenset, context)),
    )


def generate_pseudo_tree(g, order):
    """Pseudo tree for ``order``: the elimination tree of its induced graph.

    This is the bucket tree of bucket elimination along ``order``, and
    the tree that recursive conditioning on the first variable of each
    component would build.  Disconnected primal graphs yield one tree:
    the root of every other component attaches below the globally first
    variable.  Children are listed in ``order``.
    """
    _check_permutation(g.n, order)
    parent, context = _sweep(g, order)
    parent = [order[0] if p is None and v != order[0] else p for v, p in enumerate(parent)]
    return _finish_tree(parent, order, context)


def chain_pseudo_tree(g, order):
    """Degenerate chain pseudo tree following ``order`` (MDD/OBDD mode)."""
    _check_permutation(g.n, order)
    parent = [None] * g.n
    for prev, v in zip(order, order[1:]):
        parent[v] = prev
    _, context = _sweep(g, order, parent)
    return _finish_tree(parent, order, context)


def compute_contexts(tree, g):
    """A frozenset of ancestors per variable.

    An ancestor is in context(X) iff the primal graph connects it to X
    or to a descendant of X: one reverse sweep along ``tree.dfs_order``
    that follows ``tree.parent``.  A tree without the backarc property
    also gets earlier neighbours that are not ancestors.  The compilers
    read these sets off the buckets instead (``compute_buckets``).
    """
    return tuple(map(frozenset, _sweep(g, tree.dfs_order, tree.parent)[1]))


def compute_buckets(tree, model):
    """Function ids grouped by the deepest variable of their scope, and contexts.

    Returns ``(buckets, contexts)``, a tuple of function ids and a set
    of ancestors per variable.  context(X), read bottom-up in the same
    pass, is the scopes in X's bucket and its children's contexts, minus
    X: the scope of X's bucket message.  It depends on the tree and the
    model only, and equals ``compute_contexts`` over the model's graph.

    Raises a structural error when the tree is not over the model's
    variables, or some scope does not lie along a single root-to-leaf
    path of the tree.
    """
    if tree.n != model.n:
        raise StructuralError("pseudo tree has %d variables, model has %d" % (tree.n, model.n))
    buckets = [[] for _ in range(tree.n)]
    contexts = [set() for _ in range(tree.n)]
    for fid, f in enumerate(model.functions):
        if not f.scope:
            continue
        deepest = max(f.scope, key=tree.depth_of.__getitem__)
        for v in f.scope:
            if not tree.is_ancestor_or_self(v, deepest):
                raise StructuralError(
                    "scope %r of function %d is not on a root-to-leaf path"
                    % (f.scope, fid)
                )
        buckets[deepest].append(fid)
        contexts[deepest].update(f.scope)
    # children come after their parent in DFS order
    for v in reversed(tree.dfs_order):
        contexts[v].discard(v)
        if tree.parent[v] is not None:
            contexts[tree.parent[v]] |= contexts[v]
    return [tuple(b) for b in buckets], contexts
