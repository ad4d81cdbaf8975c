"""Reference sum-to-1 ``Fraction`` normal form, kept for identity tests.

This is the earlier form of ``aomdd.diagram``'s normalization: every
weighted meta-node stores ``Fraction`` weights that sum to 1, and the
compilers multiply the model's rational tables directly.  Patching
``make_node`` and ``tables`` into ``aomdd.search_compiler`` compiles a
model that way; ``dumps`` writes the resulting diagram as the earlier
serializer did.  The integer form must give the same bytes, the same
node creations in the same order, and the same per-variable counts.

``structural_equal`` is the earlier memoized isomorphism walk, kept as
the oracle for identity-based equality on diagrams of one mode.
``check_reduced`` asserts the reduced-diagram invariants of any set of
meta-nodes.
"""

from fractions import Fraction
from math import gcd

from aomdd import compile_search, search_compiler
from aomdd._recursion import run
from aomdd.diagram import reachable_nodes
from aomdd.errors import StructuralError
from aomdd.model import CONSTRAINT, WEIGHTED


def normalize_arcs(arcs):
    """Divide weights by their sum; return (normalized arcs, constant).

    An all-zero arc set signals the terminal 0: returns ``(None, 0)``.
    """
    total = sum(w for w, _ in arcs)
    if total == 0:
        return None, total
    out = tuple(
        (Fraction(w) / total, children) if w != 0 else (w * 0, ())
        for w, children in arcs
    )
    return out, total


def make_node(var, arcs, table):
    """Reduce-and-intern one candidate meta-node.

    ``arcs`` is a sequence of ``(weight, children)`` pairs, one per
    domain value, children hash-consed and sorted by pseudo-tree DFS
    order.  Returns ``(constant, children)``:

    - dead node: ``(0, ())``
    - redundant node: the common children with the promoted weight
    - otherwise: ``(s, (node,))`` where ``s`` is the normalization
      constant (1 in constraint mode).
    """
    arcs = tuple((w, tuple(ch)) if w != 0 else (w, ()) for w, ch in arcs)
    if table.domains is not None and len(arcs) != table.domains[var]:
        raise StructuralError(
            "variable %d has %d arcs, domain size is %d"
            % (var, len(arcs), table.domains[var])
        )
    if table.weighted:
        arcs, total = normalize_arcs(arcs)
        if arcs is None:
            return total, ()
    else:
        total = 1
        if all(w == 0 for w, _ in arcs):
            return 0, ()
    first = arcs[0]
    if all(a == first for a in arcs[1:]):
        return total * first[0], first[1]
    return total, (table.intern(var, arcs),)


def tables(model):
    """The model's own rational tables and the product of its empty-scope values."""
    c = 1
    for f in model.functions:
        if not f.scope:
            c = c * f.values[0]
    return model.functions, c


def compile_reference(monkeypatch, model, tree=None):
    """``compile_search`` with the sum-to-1 ``Fraction`` normal form."""
    with monkeypatch.context() as patched:
        patched.setattr(search_compiler, "make_node", make_node)
        patched.setattr(search_compiler, "integer_tables", tables)
        return compile_search(model, tree)


def canonical_nodes(diagram):
    """Reachable nodes in canonical emission order, plus their dense ids."""
    by_var = {}
    for u in reachable_nodes(diagram):
        by_var.setdefault(u.var, []).append(u)
    ids = {}
    ordered = []
    for var in reversed(diagram.tree.dfs_order):
        nodes = by_var.get(var, [])
        keyed = []
        for u in nodes:
            sig = tuple(
                (str(w), tuple(ids[id(c)] for c in ch)) for w, ch in u.arcs
            )
            keyed.append((sig, u))
        keyed.sort(key=lambda p: p[0])
        for _, u in keyed:
            ids[id(u)] = len(ordered)
            ordered.append(u)
    return ordered, ids


def _weight_str(w):
    return str(Fraction(w))


def dumps(diagram):
    """Render a sum-to-1 diagram to canonical text."""
    tree = diagram.tree
    out = ["aomdd 1"]
    out.append("mode %s" % (WEIGHTED if diagram.weighted else CONSTRAINT))
    out.append("vars %d" % len(diagram.domains))
    out.append("domains " + " ".join(str(k) for k in diagram.domains))
    out.append(
        "parents "
        + " ".join("-1" if p is None else str(p) for p in tree.parent)
    )
    out.append("dfs " + " ".join(str(v) for v in tree.dfs_order))
    ordered, ids = canonical_nodes(diagram)
    out.append("nodes %d" % len(ordered))
    for u in ordered:
        fields = ["n", str(ids[id(u)]), str(u.var)]
        for w, children in u.arcs:
            kids = ",".join(str(ids[id(c)]) for c in children) or "."
            fields.append("%s:%s" % (_weight_str(w), kids))
        out.append(" ".join(fields))
    if diagram.roots:
        out.append("roots " + " ".join(str(ids[id(r)]) for r in diagram.roots))
    else:
        out.append("roots .")
    out.append("constant %s" % _weight_str(diagram.constant))
    return "\n".join(out) + "\n"


def structural_equal(a, b):
    """Exact diagram equality for two AOMDDs over the same pseudo tree.

    With a shared unique table this is root identity plus root-constant
    equality; across tables it is a memoized isomorphism check, run on
    an explicit stack so that any diagram depth works.
    """
    if a.tree != b.tree or a.domains != b.domains:
        raise StructuralError("diagrams have different pseudo trees")
    if a.constant != b.constant:
        return False
    if a.table is b.table:
        return a.roots == b.roots
    if len(a.roots) != len(b.roots):
        return False
    memo = {}

    def iso(u, v):
        key = (id(u), id(v))
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = u.var == v.var and len(u.arcs) == len(v.arcs)
        if ok:
            for (wu, cu), (wv, cv) in zip(u.arcs, v.arcs):
                if wu != wv or len(cu) != len(cv):
                    ok = False
                    break
                for x, y in zip(cu, cv):
                    if not (yield iso(x, y)):
                        ok = False
                        break
                if not ok:
                    break
        memo[key] = ok
        return ok

    return all(run(iso(u, v)) for u, v in zip(a.roots, b.roots))


def check_reduced(nodes):
    """Assert the reduced-diagram invariants: no isomorphic pair, no redundant node.

    ``nodes`` is any iterable of meta-nodes, such as a diagram's
    ``reachable_nodes`` or every node one compile made.  Two nodes are
    isomorphic exactly when they share ``(var, arcs)``, because the arc
    tuple is canonical: every weight is a non-negative ``int`` and each
    node's weights have gcd 1.  Redundancy freedom, the weight form and
    children-first creation (every child's ``uid`` below its parent's,
    which the bottom-up traversals rely on) are checked per node.
    """
    nodes = list(nodes)
    if len({(u.var, u.arcs) for u in nodes}) != len(nodes):
        raise AssertionError("isomorphic meta-nodes survived")
    for node in nodes:
        first = node.arcs[0]
        if all(a == first for a in node.arcs[1:]):
            raise AssertionError("redundant meta-node survived: %r" % node)
        for w, children in node.arcs:
            if type(w) is not int or w < 0:
                raise AssertionError("weight %r of %r is not a non-negative int" % (w, node))
            if w == 0 and children:
                raise AssertionError("zero-weight arc with children on %r" % node)
            for c in children:
                if c.uid >= node.uid:
                    raise AssertionError("child %r not created before %r" % (c, node))
        g = gcd(*[w for w, _ in node.arcs])
        if g != 1:
            raise AssertionError("weights of %r have gcd %d, not 1" % (node, g))
    return True
