"""Reference queries, kept for identity tests.

``enumerate_solutions`` is the recursive form of
``aomdd.query.enumerate_solutions``: one nested generator per
pseudo-tree level, with each arc's skipped variables read from subtree
bit masks and sorted into DFS position.  It needs recursion depth
proportional to the tree height, so it serves only small models.  A
weighted arc's value is its integer weight over the node's weight sum.

``_fold`` is the earlier form of ``aomdd.query._fold``, copied verbatim
with ``_arc_items`` and the four queries that call it: every arc builds
its list of children and skipped variables, and each node's weight sum
comes from ``node_total``.  ``aomdd.query._fold`` lists the skipped
variables only for an arc that skips some, and sums the weights in its
pass over the arcs.  Both must give the same values and witnesses.
"""

from fractions import Fraction
from math import gcd

from aomdd.diagram import node_total, ratio, reachable_nodes
from aomdd.query import _check_evidence
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


def _arc_items(tree, lo, hi, children):
    """Children and skipped variables of DFS positions ``[lo, hi)``, in DFS order.

    Skipped variables come as ints, children as their meta-nodes.  An
    arc of ``u`` spans ``[dfs_index[u] + 1, subtree_end[u])``; the roots
    span the whole tree.
    """
    order, end = tree.dfs_order, tree.subtree_end
    items = []
    for c in children:
        items.extend(order[lo:tree.dfs_index[c.var]])
        items.append(c)
        lo = end[c.var]
    items.extend(order[lo:hi])
    return items


def _fold(diagram, evidence, maximize=False, sizes=True, weights=True):
    """Fold the reachable nodes, children first; return ``(argmax, value)``.

    Arcs combine by max when ``maximize``, else by ``+``; a skipped
    unobserved variable contributes its domain size when ``sizes``, else
    1; an arc counts its weight when ``weights``, else 1.  ``value`` is
    the roots' value without the root constant; ``argmax`` maps each
    node to its first maximizing value when ``maximize``.
    """
    domains = diagram.domains
    tree = diagram.tree
    divide = weights and diagram.weighted
    memo = {}
    argmax = {}

    def product(num, lo, hi, children):
        den = 1
        for item in _arc_items(tree, lo, hi, children) if sizes else children:
            if type(item) is int:
                if item not in evidence:
                    num *= domains[item]
            else:
                p, q = memo[item]
                num *= p
                den *= q
        return num, den

    for u in reachable_nodes(diagram):
        num, den = 0, 1
        fixed = evidence.get(u.var)
        arg = fixed or 0  # a node of value 0 takes its first allowed value
        lo, hi = tree.dfs_index[u.var] + 1, tree.subtree_end[u.var]
        for val, (w, children) in enumerate(u.arcs):
            if w == 0 or fixed is not None and val != fixed:
                continue
            p, q = product(w if weights else 1, lo, hi, children)
            if maximize:
                if p * den > num * q:
                    num, den, arg = p, q, val
            elif q == den:
                num += p
            else:
                num, den = num * q + p * den, den * q
        if divide:
            den *= node_total(u, True)
        g = gcd(num, den)
        memo[u] = (num // g, den // g)
        argmax[u] = arg
    return argmax, ratio(*product(1, 0, tree.n, diagram.roots))


def sum_over(diagram, evidence=None):
    """Sum of the function over all full assignments consistent with evidence."""
    evidence = _check_evidence(diagram, evidence)
    return diagram.constant * _fold(diagram, evidence)[1]


def count_solutions(diagram, evidence=None):
    """Exact count of evidence-consistent assignments with nonzero value."""
    evidence = _check_evidence(diagram, evidence)
    if diagram.constant == 0:
        return 0
    return _fold(diagram, evidence, weights=False)[1]


def normalized_root_sum(diagram):
    """Sum over the solution trees of their arc-value products.

    Skipped variables count 1 and the root constant is left out.  Every
    weighted meta-node's values ``n_i / sum(n)`` sum to 1, so on a
    weighted diagram this is exactly 1; exposed as a numeric sanity
    check.  In constraint mode the arc values are the 0/1 table entries,
    so the result counts the reduced diagram's solution trees instead
    and is not 1 in general.
    """
    return _fold(diagram, {}, sizes=False)[1]


def mpe(diagram, evidence=None):
    """Highest evidence-consistent value and a witness attaining it.

    Don't-care variables contribute factor 1 and take value 0 in the
    witness (evidence values when observed); ``evaluate`` at the witness
    reproduces the value exactly.  Each node on the witness takes its
    first maximizing value.
    """
    evidence = _check_evidence(diagram, evidence)
    argmax, value = _fold(diagram, evidence, maximize=True, sizes=False)
    witness = [None] * len(diagram.domains)
    stack = list(diagram.roots)
    while stack:
        u = stack.pop()
        val = argmax[u]
        witness[u.var] = val
        stack.extend(u.arcs[val][1])
    for var, val in enumerate(witness):
        if val is None:
            witness[var] = evidence.get(var, 0)
    return diagram.constant * value, witness
