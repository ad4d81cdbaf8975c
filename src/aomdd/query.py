"""Queries over a compiled diagram: eval, sum, count, MPE, enumeration.

Redundancy removal deletes don't-care variables from paths, so the
queries must account for the variables an arc skips.  The skipped set
of an arc is

    uncovered(u, i) = subtree(var(u)) - {var(u)} - union of subtree(c)
                      for c in children_i

and, above the roots, every variable outside all root subtrees.  Every
subtree is a DFS interval and an arc's children are unrelated and in
DFS order, so the skipped variables are the ``dfs_order`` slices
between the children's intervals.  An arc skips a variable exactly when
its children's subtree widths (``subtree_end - dfs_index``) sum to less
than the width of its own interval, so the fold lists the slices only
for such an arc.

Eval, sum, count, MPE and the root sum are one bottom-up fold,
``_fold``, over the reachable nodes in the semiring style of algebraic
model counting.  Three inputs fix the query:

- how a node's arcs combine: ``+`` (sum, count, root sum) or max (MPE,
  which also keeps each node's first maximizing value);
- what a skipped unobserved variable contributes: its domain size
  (sum, count) or 1 (MPE, root sum);
- what an arc counts: its weight (sum, MPE, root sum) or 1 (count).

Each node's value is an integer pair ``(num, den)`` in lowest terms:
one gcd per node, and no ``Fraction`` until the result.  A weighted
meta-node stores integer arc weights whose values are ``n_i / sum(n)``;
the fold multiplies the integers, its children's values among them, in
the node's own loop, and divides by a node's sum, added up in its pass
over the arcs, once per node, not once per arc.  Without evidence the
fold reads the diagram's ``nodes``.  Under evidence it folds only the
nodes a walk from the roots reaches along evidence-consistent arcs
(``reached_nodes``): a node below an arc the evidence rules out adds
nothing to any answer.  ``evaluate`` is the sum under its full
assignment as evidence: its walk reads the one solution tree the
assignment picks, down to the first zero arc on each path, and the
fold covers those nodes.  ``enumerate_solutions`` walks the paths and
is not a fold.
"""

from __future__ import annotations

from math import gcd

from .diagram import node_total, ratio, reached_nodes
from .errors import StructuralError


def _check_evidence(diagram, evidence):
    evidence = dict(evidence or {})
    for var, val in evidence.items():
        if not 0 <= var < len(diagram.domains):
            raise StructuralError("evidence variable %d unknown" % var)
        if not 0 <= val < diagram.domains[var]:
            raise StructuralError(
                "evidence value %d out of domain of variable %d" % (val, var)
            )
    return evidence


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


def evaluate(diagram, x):
    """Value of the compiled function at a full assignment.

    The sum over the one assignment that agrees with ``x``: the fold
    with ``x`` as evidence, so the result has the type ``sum_over``
    gives.  Its walk from the roots reads the one solution tree that
    ``x`` picks and stops at a zero arc; a root that is 0 there is
    still folded, and the other roots' denominators fix the type of
    the 0 that results.
    """
    if len(x) != len(diagram.domains):
        raise StructuralError(
            "assignment has %d values, model has %d variables"
            % (len(x), len(diagram.domains))
        )
    for var, k in enumerate(diagram.domains):
        if x[var] is None or not 0 <= x[var] < k:
            raise StructuralError("variable %d unassigned or out of domain" % var)
    return diagram.constant * _fold(diagram, dict(enumerate(x)))[1]


def _fold(diagram, evidence, maximize=False, sizes=True, weights=True):
    """Fold the nodes the evidence leaves reachable, children first; return ``(argmax, value)``.

    Arcs combine by max when ``maximize``, else by ``+``; a skipped
    unobserved variable contributes its domain size when ``sizes``, else
    1; an arc counts its weight when ``weights``, else 1.  ``value`` is
    the roots' value without the root constant; ``argmax`` maps each
    folded node to its first maximizing value (when ``maximize``; else
    to a value the evidence allows).
    """
    domains = diagram.domains
    tree = diagram.tree
    dfs_index, subtree_end = tree.dfs_index, tree.subtree_end
    divide = weights and diagram.weighted
    width = [end - start for start, end in zip(dfs_index, subtree_end)]
    memo = {}
    argmax = {}

    def skipped_sizes(num, lo, hi, children):
        # the domain sizes of the unobserved variables an arc skips
        for item in _arc_items(tree, lo, hi, children):
            if type(item) is int and item not in evidence:
                num *= domains[item]
        return num

    roots = diagram.roots
    for u in reached_nodes(roots, evidence) if evidence else diagram.nodes:
        num, den = 0, 1
        fixed = evidence.get(u.var)
        arg = fixed or 0  # a node of value 0 takes its first allowed value
        lo, hi = dfs_index[u.var] + 1, subtree_end[u.var]
        total = 0  # the node's weight sum, its arc values' denominator
        for val, (w, children) in enumerate(u.arcs):
            total += w
            if w == 0 or fixed is not None and val != fixed:
                continue
            p = w if weights else 1
            q = 1
            skipped = hi - lo  # DFS positions the children do not cover
            for c in children:
                a, b = memo[c]
                p *= a
                q *= b
                skipped -= width[c.var]
            if sizes and skipped:
                p = skipped_sizes(p, lo, hi, children)
            if maximize:
                if p * den > num * q:
                    num, den, arg = p, q, val
            elif q == den:
                num += p
            else:
                num, den = num * q + p * den, den * q
        if divide:
            den *= total
        g = gcd(num, den)
        memo[u] = (num // g, den // g)
        argmax[u] = arg
    # the roots, as one arc over the whole tree
    num = den = 1
    skipped = tree.n
    for c in roots:
        a, b = memo[c]
        num *= a
        den *= b
        skipped -= width[c.var]
    if sizes and skipped:
        num = skipped_sizes(num, 0, tree.n, roots)
    return argmax, ratio(num, den)


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
    witness (evidence values when observed).  ``evaluate`` at the
    witness, the same fold with the witness as evidence, reproduces the
    value and its type.  Each node on the witness takes its first
    maximizing value.
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


def enumerate_solutions(diagram, limit=None, evidence=None):
    """Yield up to ``limit`` nonzero-value assignments as (assignment, value).

    Deterministic DFS order: value index ascending, pseudo-tree branch
    order, with skipped variables expanded over their full domains in
    DFS position.  Runs on an explicit stack of ``(num, den, pairs,
    pending)`` states, so any diagram depth works: ``num / den`` is the
    value of the path so far, and ``pairs`` and ``pending`` are linked
    lists of the values chosen so far and of the items still to expand,
    in DFS order.  Expanding the first pending item puts its children
    and skipped variables in front of the rest.
    """
    evidence = _check_evidence(diagram, evidence)
    domains = diagram.domains
    tree = diagram.tree
    if diagram.constant == 0:
        return

    def push(items, rest):
        for item in reversed(items):
            rest = (item, rest)
        return rest

    stack = [(1, 1, None, push(_arc_items(tree, 0, tree.n, diagram.roots), None))]
    emitted = 0
    while stack:
        num, den, pairs, pending = stack.pop()
        if pending is None:
            if limit is not None and emitted >= limit:
                return
            assignment = [None] * len(domains)
            while pairs is not None:
                var, val, pairs = pairs
                assignment[var] = val
            yield assignment, diagram.constant * ratio(num, den)
            emitted += 1
            continue
        item, rest = pending
        if type(item) is int:
            var, arcs, lo, hi = item, ((1, ()),) * domains[item], 0, 0
        else:
            var, arcs = item.var, item.arcs
            lo, hi = tree.dfs_index[var] + 1, tree.subtree_end[var]
            den *= node_total(item, diagram.weighted)
        fixed = evidence.get(var)
        for val in range(len(arcs) - 1, -1, -1):
            w2, children = arcs[val]
            if w2 != 0 and (fixed is None or val == fixed):
                items = _arc_items(tree, lo, hi, children)
                stack.append((num * w2, den, (var, val, pairs), push(items, rest)))
