"""Reference enumeration, kept for identity tests.

This is the recursive form of ``aomdd.query.enumerate_solutions``: one
nested generator per pseudo-tree level, with each arc's skipped
variables read from subtree bit masks and sorted into DFS position.  It
needs recursion depth proportional to the tree height, so it serves
only small models.  A weighted arc's value is its integer weight over
the node's weight sum.
"""

from fractions import Fraction

from structure_reference import subtree_mask


def _uncovered_mask(diagram, node, children):
    mask = subtree_mask(diagram.tree, node.var) & ~(1 << node.var)
    for c in children:
        mask &= ~subtree_mask(diagram.tree, c.var)
    return mask


def _root_uncovered_mask(diagram):
    mask = (1 << len(diagram.domains)) - 1
    for r in diagram.roots:
        mask &= ~subtree_mask(diagram.tree, r.var)
    return mask


def _mask_vars(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def enumerate_solutions(diagram, limit=None, evidence=None):
    """Yield up to ``limit`` nonzero-value assignments as (assignment, value).

    Deterministic DFS order: value index ascending, pseudo-tree branch
    order, with skipped variables expanded over their full domains in
    DFS position.
    """
    evidence = dict(evidence or {})
    domains = diagram.domains
    tree = diagram.tree
    if diagram.constant == 0:
        return

    def var_factory(v):
        def gen():
            fixed = evidence.get(v)
            for val in range(domains[v]):
                if fixed is not None and val != fixed:
                    continue
                yield 1, ((v, val),)

        return gen

    def node_factory(u):
        def gen():
            fixed = evidence.get(u.var)
            total = sum(w for w, _ in u.arcs) if diagram.weighted else 1
            for val, (w, children) in enumerate(u.arcs):
                if fixed is not None and val != fixed:
                    continue
                if w == 0:
                    continue
                parts = [(tree.dfs_index[c.var], node_factory(c)) for c in children]
                for v in _mask_vars(_uncovered_mask(diagram, u, children)):
                    parts.append((tree.dfs_index[v], var_factory(v)))
                parts.sort(key=lambda p: p[0])
                for w2, pairs in _cross([p[1] for p in parts]):
                    yield Fraction(w, total) * w2, ((u.var, val),) + pairs

        return gen

    def _cross(factories):
        if not factories:
            yield 1, ()
            return
        for w1, p1 in factories[0]():
            for w2, p2 in _cross(factories[1:]):
                yield w1 * w2, p1 + p2

    parts = [(tree.dfs_index[r.var], node_factory(r)) for r in diagram.roots]
    for v in _mask_vars(_root_uncovered_mask(diagram)):
        parts.append((tree.dfs_index[v], var_factory(v)))
    parts.sort(key=lambda p: p[0])

    emitted = 0
    for w, pairs in _cross([p[1] for p in parts]):
        if limit is not None and emitted >= limit:
            return
        assignment = [None] * len(domains)
        for var, val in pairs:
            assignment[var] = val
        yield assignment, diagram.constant * w
        emitted += 1
