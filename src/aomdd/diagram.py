"""The node core: hash-consed meta-nodes and the two reduction rules.

A meta-node fuses one OR variable node with its k weighted AND value
arcs.  Each arc holds a weight and an ordered tuple of child meta-nodes,
at most one per pseudo-tree branch; an empty tuple stands for the
terminal 1 and a zero-weight arc (children forced empty) stands for an
arc into the terminal 0.

``make_node`` applies redundancy check -> normalize -> isomorphism
lookup inline, so any diagram built through it is completely reduced.

Weights are exact.  A weighted meta-node stores its arc weights as the
primitive integer vector of their ray: non-negative ``int``s with gcd
1.  The value of arc ``i`` is ``n_i / sum(n)``, the unique sum-to-1
normal form, so two nodes are equal exactly when their normalized
weights are, and no ``Fraction`` is built per arc.  In constraint mode
the weights are the 0/1 table values themselves.  The compilers feed
``make_node`` integer weights (each weighted table is scaled to
integers once, before compiling) and keep the rational scale in the
root constant.  Spelling, ordering, writing and drawing a diagram's
records live in ``serialize``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from weakref import ref

from .errors import ResourceLimitError, StructuralError


class MetaNode:
    """One OR variable node plus its k weighted AND arcs (hash-consed)."""

    __slots__ = ("var", "arcs", "uid", "__weakref__")

    def __init__(self, var, arcs, uid):
        self.var = var
        self.arcs = arcs
        self.uid = uid

    def __repr__(self):
        return "<MetaNode var=%d uid=%d>" % (self.var, self.uid)


class UniqueTable:
    """Per-compilation arena interning meta-nodes, one dict per variable.

    Compile-time state: the compilers hash-cons through it, and once a
    diagram is built nothing reads it but its counters.  Each variable's
    dict is keyed by the arc tuple; uids come from one counter, so
    creation order is children first across all variables.
    ``close(var)`` drops a variable's dict once no more nodes will be
    made there, which lets reference counting free the dead ones;
    interning at a closed variable raises.  ``weaken(var)`` makes a
    level hold its nodes weakly, so an entry goes as soon as nothing
    else refers to its node, and ``strengthen(var)`` holds the live ones
    plainly again.  A node whose arcs come back after it was freed is
    created again, with a new uid.  ``len`` counts every creation, open
    or closed level, re-creations included.
    """

    def __init__(self, weighted, domains, node_cap=None):
        self.weighted = weighted
        self.node_cap = node_cap
        self.domains = domains
        self._levels = [{} for _ in domains]
        # a weak level's weakref callback; None for a level held plainly
        self._removers = [None] * len(domains)
        self._created = 0
        self.created_per_var = {}

    def __len__(self):
        return self._created

    def intern(self, var, arcs):
        level = self._levels[var]
        if level is None:
            raise RuntimeError("unique table of variable %d is closed" % var)
        fresh = MetaNode(var, arcs, self._created)
        remove = self._removers[var]
        # one dict operation, so the arcs key is hashed once
        if remove is None:
            node = level.setdefault(arcs, fresh)
        else:
            entry = _Entry(fresh, remove)
            entry.key = arcs
            # a freed node's callback has already dropped its entry
            node = level.setdefault(arcs, entry)()
        if node is not fresh:
            return node
        if self.node_cap is not None and fresh.uid >= self.node_cap:
            del level[arcs]
            raise ResourceLimitError(
                "node cap %d exceeded after %d meta-nodes" % (self.node_cap, fresh.uid)
            )
        self._created += 1
        self.created_per_var[var] = self.created_per_var.get(var, 0) + 1
        return fresh

    def weaken(self, var):
        """Hold the nodes interned at the still empty level ``var`` weakly."""
        self._removers[var] = _remover(ref(self), var)

    def strengthen(self, var):
        """Hold the live nodes at the weak level ``var`` plainly again.

        A node can die while the level is copied, when whatever a step
        of the copy runs (a key's hash, another thread) drops its last
        reference; its callback then deletes its entry.  So the copy
        walks a snapshot of the entries and skips the dead ones.
        """
        entries = list(self._levels[var].items())
        self._removers[var] = None
        self._levels[var] = {arcs: node for arcs, entry in entries if (node := entry()) is not None}

    def close(self, var):
        """Intern nothing more at ``var``; forget the nodes interned there."""
        self._levels[var] = None
        self._removers[var] = None


class _Entry(ref):
    """A weak level's reference to a node, with the node's arcs as ``key``."""

    __slots__ = ("key",)


def _remover(table_ref, var):
    """The weakref callback of a weak level: drop the dead node's entry.

    It reaches the level through a weak reference to the table, so no
    level and callback refer to each other in a cycle.
    """

    def remove(entry):
        # an entry that lost to an equal one, or a node past the cap,
        # is not in the level when its node dies
        table = table_ref()
        level = table._levels[var] if table is not None else None
        if level is not None and level.get(entry.key) is entry:
            del level[entry.key]

    return remove


@contextmanager
def collector_paused():
    """Run with the cyclic collector paused; then restore the caller's state.

    The package's structures are acyclic, so reference counting frees
    them; the collector could free nothing and would only re-walk the
    growing diagram.  Usable as a decorator too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def normalize_arcs(arcs):
    """Scale integer weights to their primitive vector; return (arcs, total).

    ``total`` is the sum of the input weights, so arc ``i`` keeps the
    value ``total * n_i / sum(n)``.  Some weight must be nonzero:
    ``make_node`` returns the dead node before it normalizes.  A two-arc
    set is read without a weight list.
    """
    if len(arcs) == 2:
        (w0, c0), (w1, c1) = arcs
        g = gcd(w0, w1)
        if g != 1:
            arcs = ((w0 // g, c0), (w1 // g, c1))
        return arcs, w0 + w1
    weights = [w for w, _ in arcs]
    total = sum(weights)
    g = gcd(*weights)
    if g != 1:
        arcs = tuple([(w // g, children) for w, children in arcs])
    return arcs, total


def node_total(node, weighted):
    """Denominator of a node's arc values: its weight sum, or 1 in constraint mode."""
    if not weighted:
        return 1
    arcs = node.arcs
    if len(arcs) == 2:
        return arcs[0][0] + arcs[1][0]
    return sum([w for w, _ in arcs])


def ratio(num, den):
    """Exact ``num / den`` that stays an ``int`` when ``den`` is 1."""
    return num if den == 1 else Fraction(num, den)


def make_node(var, arcs, table):
    """Reduce-and-intern one candidate meta-node.

    ``arcs`` is a sequence of ``(weight, children)`` pairs, one per
    domain value: a non-negative integer weight and a tuple of
    hash-consed children sorted by pseudo-tree DFS order, with each
    zero-weight arc spelled ``(0, ())``; arcs are interned as given.
    Returns ``(constant, children)``:

    - dead node: ``(0, ())``
    - redundant node: the common weight (unchanged) and children
    - otherwise: ``(s, (node,))`` where ``s`` is the sum of the weights
      (1 in constraint mode).
    """
    arcs = tuple(arcs)
    if len(arcs) != table.domains[var]:
        raise StructuralError(
            "variable %d has %d arcs, domain size is %d"
            % (var, len(arcs), table.domains[var])
        )
    first = arcs[0]
    if arcs.count(first) == len(arcs):  # redundant, or dead when all 0
        return first
    if table.weighted:
        arcs, total = normalize_arcs(arcs)
    else:
        total = 1
    return total, (table.intern(var, arcs),)


class Aomdd:
    """A diagram: root meta-nodes, root constant, owning tree.

    ``roots`` may hold several nodes when the root variable itself
    reduced away; an empty tuple is a terminal diagram (constant
    function).  ``constant`` is 0 exactly for the always-zero function,
    which has no roots, and is an ``int`` whenever its value is one.
    ``nodes`` is every node reachable from the roots, children first,
    and a node's ``uid`` is its index there.  ``loads`` passes its
    records, numbered so; any other maker gets one walk from the roots
    in the unique table's uid order (distinct and non-negative, which
    the walk checks), and the walked nodes are renumbered.  So a node
    belongs to one diagram: another built over it would renumber it.
    ``table`` is the compiler's unique table, kept for its counters,
    and None for a loaded diagram; a search compile leaves it open, and
    a node interned there later takes uid ``len(table)``, at least N.
    ``stats`` is the search compiler's ``CompileStats``, else None.
    The constructor fixes these invariants for every maker, so a
    compiled diagram and its loaded copy are one value.
    """

    __slots__ = ("tree", "domains", "roots", "constant", "table", "weighted", "stats", "nodes")

    def __init__(self, tree, domains, roots, constant, table, weighted, stats=None, nodes=None):
        if constant == 0:
            roots = nodes = ()
        self.tree = tree
        self.domains = domains
        self.roots = roots
        self.constant = ratio(constant.numerator, constant.denominator)
        self.table = table
        self.weighted = weighted
        self.stats = stats
        if nodes is None:
            nodes = tuple(reached_nodes(roots, {}))
            for uid, u in enumerate(nodes):
                u.uid = uid
        self.nodes = nodes


def reached_nodes(roots, evidence):
    """The nodes that arcs agreeing with ``evidence`` reach from ``roots``, children first.

    One stack walk: a node reaches the children of every arc, or only of
    the arc of its evidence value when the evidence fixes its variable.
    A zero-weight arc has no children, so it reaches nothing.  A node's
    ``uid`` is above its children's (``intern`` creates a node only once
    its children exist, and a diagram's uids are its children-first
    indices), so the roots hold the largest uid, and a list indexed by
    ``uid`` up to it marks each node as it is first visited and gives
    the reached nodes in ``uid`` order, children first, with no sort:
    8 bytes per uid up to the largest root's, at most N in a diagram.
    A slot taken by another node, a negative uid, or a uid above every
    root's raises a structural error.
    """
    slots = [None] * (max([u.uid for u in roots], default=-1) + 1)
    stack = list(roots)
    while stack:
        u = stack.pop()
        uid = u.uid
        try:
            seen = slots[uid]
        except IndexError:  # above every root's uid
            seen = False
        if seen is None and uid >= 0:
            slots[uid] = u
            fixed = evidence.get(u.var)
            if fixed is None:
                for _, children in u.arcs:
                    stack.extend(children)
            else:
                stack.extend(u.arcs[fixed][1])
        elif seen is not u:
            raise StructuralError(
                "node uids must be distinct and non-negative, each below its parents'"
            )
    return list(filter(None, slots))


def reachable_nodes(diagram):
    """All meta-nodes reachable from the roots, each after its children."""
    return diagram.nodes


def count_stats(diagram):
    """Node and edge counts of the reachable diagram.

    Every AND arc contributes ``max(1, len(children))`` edges: arcs with
    no live children point at a terminal.  Terminals are not counted as
    meta-nodes.
    """
    per_var = {}
    edges = 0
    for u in reachable_nodes(diagram):
        per_var[u.var] = per_var.get(u.var, 0) + 1
        for _, children in u.arcs:
            edges += max(1, len(children))
    return {
        "meta_nodes_per_var": per_var,
        "total_meta_nodes": sum(per_var.values()),
        "total_edges": edges,
    }


def structural_equal(a, b):
    """Exact equality of two AOMDDs over the same pseudo tree, domains and mode.

    Canonical diagrams are equal exactly when their reachable nodes
    correspond one to one under equal ``(var, arcs)`` keys.  One path for
    every pair, whatever made the two diagrams: ``a``'s reachable nodes
    go into one dict under that key, and each of ``b``'s nodes, children
    first, is looked up there under the image of its key: O(|a| + |b|)
    dict operations.
    """
    if a.tree != b.tree or a.domains != b.domains or a.weighted != b.weighted:
        raise StructuralError("diagrams have different pseudo trees, domains or modes")
    if a.constant != b.constant:
        return False
    nodes_of_a = {(u.var, u.arcs): u for u in reachable_nodes(a)}
    image = {}  # a node with no counterpart in ``a`` maps to None, as do its ancestors
    for v in reachable_nodes(b):
        image[v] = nodes_of_a.get(
            (v.var, tuple((w, tuple(image[c] for c in ch)) for w, ch in v.arcs))
        )
    return tuple(image[r] for r in b.roots) == a.roots

