"""The diagram writer and reader as they were before their rewrites, kept as oracles.

``aomdd.serialize.weight_strs`` spells a two-arc record as ``n0/T`` and
``n1/T`` without a gcd, and a record with ``T == 1`` with ``str``;
``weight_strs`` here is the earlier form, copied verbatim with
``canonical_records``, ``_records``, ``dumps`` and ``to_dot``: it takes
one gcd per arc.  ``canonical_records`` here keeps a dict from each node
to its dense id and a list of nodes per variable, where
``aomdd.serialize`` keeps the ids in one array indexed by ``uid`` and
buckets the nodes by variable.  Both writers must print the same bytes
for every diagram.

``aomdd.serialize.loads`` skips the lcm when a record's denominators are
equal, binds its lookups once and inlines the children-interval check
into the arc loop.  ``loads`` here is the earlier form, copied verbatim:
it rescales every weighted record by the lcm of its denominators and
checks children through the ``unrelated`` helper.  Both must accept the
same files, build the same nodes, and reject the same files with the
same error class.
"""

from math import gcd, lcm
from operator import itemgetter

from aomdd.diagram import Aomdd, UniqueTable, node_total, ratio, reachable_nodes
from aomdd.errors import ParseError, StructuralError
from aomdd.model import CONSTRAINT, WEIGHTED, _lines
from aomdd.structure import _finish_tree


def weight_strs(node, weighted):
    """Each arc's normalized weight spelled as ``str(Fraction)`` spells it.

    One integer gcd per arc reduces ``n_i / sum(n)`` to lowest terms.
    """
    total = node_total(node, weighted)
    out = []
    for w, _ in node.arcs:
        g = gcd(w, total)
        out.append(str(w // g) if g == total else "%d/%d" % (w // g, total // g))
    return out


def canonical_records(diagram, ids):
    """The number of reachable nodes, and an iterator of their records.

    The iterator yields ``(var, sig)`` per node in canonical order.
    Variables are visited bottom-up (reverse DFS); within a variable,
    nodes sort by their signature, one ``(weight string, child ids)``
    pair per arc, so equal diagrams enumerate identically regardless of
    creation order.  Weight string ``"0"`` is exactly a zero-weight arc.
    As its record is yielded, a node enters ``ids`` under its dense id.
    """
    by_var = {}
    for u in reachable_nodes(diagram):
        by_var.setdefault(u.var, []).append(u)
    return sum(map(len, by_var.values())), _records(diagram, by_var, ids)


def _records(diagram, by_var, ids):
    for var in reversed(diagram.tree.dfs_order):
        block = []
        for u in by_var.pop(var, ()):
            strs = weight_strs(u, diagram.weighted)
            sig = tuple(
                (s, tuple(map(ids.__getitem__, ch))) for s, (_, ch) in zip(strs, u.arcs)
            )
            block.append((sig, u))
        block.sort(key=itemgetter(0))
        for sig, u in block:
            ids[u] = len(ids)
            yield var, sig


def dumps(diagram, file=None):
    """Render a diagram to canonical text, or write the text to ``file``.

    ``file`` is an open text file; each line is written as it is made,
    and nothing is returned.  Without one the text is returned.
    """
    lines = []
    write = lines.append if file is None else file.write
    ids = {}
    count, records = canonical_records(diagram, ids)
    write("aomdd 1\n")
    write("mode %s\n" % (WEIGHTED if diagram.weighted else CONSTRAINT))
    write("vars %d\n" % len(diagram.domains))
    write("domains %s\n" % " ".join(map(str, diagram.domains)))
    write("parents %s\n" % " ".join("-1" if p is None else str(p) for p in diagram.tree.parent))
    write("dfs %s\n" % " ".join(map(str, diagram.tree.dfs_order)))
    write("nodes %d\n" % count)
    for i, (var, sig) in enumerate(records):
        write(
            "n %d %d %s\n"
            % (i, var, " ".join("%s:%s" % (s, ",".join(map(str, kids)) or ".") for s, kids in sig))
        )
    write("roots %s\n" % (" ".join(str(ids[r]) for r in diagram.roots) or "."))
    write("constant %s\n" % diagram.constant)
    if file is None:
        return "".join(lines)


def to_dot(diagram):
    """DOT rendering: record nodes with one port per value, square terminals."""
    lines = ["digraph aomdd {", "  node [shape=record];"]
    arrows = []
    terminals = set() if diagram.roots else {"t0" if diagram.constant == 0 else "t1"}
    _, records = canonical_records(diagram, {})
    for i, (var, sig) in enumerate(records):
        ports = " | ".join("<p%d> %d: %s" % (j, j, s) for j, (s, _) in enumerate(sig))
        lines.append('  n%d [label="{X%d | { %s }}"];' % (i, var, ports))
        for j, (s, kids) in enumerate(sig):
            targets = ["n%d" % c for c in kids]
            if not targets:  # weight "0" is exactly an arc into the terminal 0
                targets = ["t0" if s == "0" else "t1"]
                terminals.update(targets)
            arrows.extend("  n%d:p%d -> %s;" % (i, j, t) for t in targets)
    lines.extend('  %s [shape=square, label="%s"];' % (t, t[1]) for t in sorted(terminals))
    lines.extend(arrows)
    lines.append('  label="root constant %s";' % diagram.constant)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _expect(fields, lineno, tag, count=None):
    if not fields or fields[0] != tag:
        raise ParseError("expected %r record" % tag, lineno)
    if count is not None and len(fields) != count + 1:
        raise ParseError("%r record needs %d fields" % (tag, count), lineno)
    return fields[1:]


def _int(tok, lineno, what, low, high=None):
    """A canonically spelled integer in ``[low, high)``."""
    try:
        value = int(tok)
    except ValueError:
        value = None
    if value is None or str(value) != tok or value < low or (
        high is not None and value >= high
    ):
        raise ParseError("bad %s %r" % (what, tok), lineno)
    return value


def _rational(tok):
    """``(num, den)`` of a token spelled as ``str(Fraction)`` spells a rational >= 0.

    That is ``n`` or ``n/d`` with ``d >= 2`` and ``gcd(n, d) == 1``, both
    canonical decimal integers; returns None for any other token.
    """
    ntok, slash, dtok = tok.partition("/")
    try:
        num = int(ntok)
        den = int(dtok) if slash else 1
    except ValueError:
        return None
    if str(num) != ntok or num < 0:
        return None
    if slash and (str(den) != dtok or den < 2 or gcd(num, den) != 1):
        return None
    return num, den


def loads(text):
    """Rebuild a diagram from canonical text.

    Accepts exactly the files ``dumps`` can write, up to whitespace, and
    raises ``ParseError``/``StructuralError`` on anything else.  The tree
    is rebuilt from ``parents`` along ``dfs``, which must start at the root
    (so the DFS ends) and equal the rebuilt DFS order.  One pass over the
    node records checks the canonical form on the tokens:

    - weights are spelled as ``str(Fraction)`` spells them, are >= 0,
      and are 0/1 in constraint mode;
    - each node has one arc per domain value; its weights sum to 1
      (weighted mode, checked in integers: with ``L`` the lcm of the
      denominators, ``sum(num_i * L / den_i) == L``) or are not all 0
      (constraint mode); zero-weight arcs have no children; its arcs are
      not all equal (not redundant);
    - an arc's children lie strictly inside the node's pseudo-tree
      subtree, are pairwise unrelated and come in DFS order, which is
      one comparison of DFS intervals per child;
    - records come in variable blocks in reverse DFS order and, within
      a block, in strictly increasing ``(weight, child ids)`` signature
      order, so no two records are isomorphic;
    - every record is a child of a later record or a root, and the
      roots are pairwise unrelated and in DFS order.

    The signature order makes every record new, so each node is interned
    into a fresh unique table exactly once and keeps its record id as uid.
    A weighted node stores ``num_i * L / den_i``: reduced fractions that
    sum to 1 scale to integers with gcd 1, the compilers' primitive form.
    """
    it = _lines(text)

    def next_line(tag, count=None):
        try:
            lineno, fields = next(it)
        except StopIteration:
            raise ParseError("unexpected end of file, wanted %r" % tag)
        return lineno, _expect(fields, lineno, tag, count)

    lineno, header = next_line("aomdd", 1)
    if header[0] != "1":
        raise ParseError("unsupported version %r" % header[0], lineno)
    lineno, (mode,) = next_line("mode", 1)
    if mode not in (WEIGHTED, CONSTRAINT):
        raise ParseError("unknown mode %r" % mode, lineno)
    weighted = mode == WEIGHTED
    lineno, (nstr,) = next_line("vars", 1)
    n = _int(nstr, lineno, "variable count", 1)
    lineno, doms = next_line("domains", n)
    domains = tuple(_int(k, lineno, "domain size", 1) for k in doms)
    lineno, parents = next_line("parents", n)
    parent = [None if p == "-1" else _int(p, lineno, "parent", 0, n) for p in parents]
    lineno, dfs = next_line("dfs", n)
    dfs_order = [_int(v, lineno, "dfs entry", 0, n) for v in dfs]
    if len(set(dfs_order)) != n or parent.count(None) != 1 or parent[dfs_order[0]] is not None:
        raise ParseError("malformed tree records", lineno)
    tree = _finish_tree(parent, dfs_order)
    if tree.dfs_order != tuple(dfs_order):
        raise ParseError("dfs record inconsistent with parents", lineno)
    var_of = {str(v): v for v in range(n)}

    lineno, (mstr,) = next_line("nodes", 1)
    # every record takes more than one character, or byte, of the text
    m = _int(mstr, lineno, "node count", 0, len(text))
    weights = {} if weighted else {"0": (0, 1), "1": (1, 1)}  # token -> (num, den)

    def parse_weight(tok, lineno):
        if not weighted:
            raise ParseError("constraint weight %r not 0/1" % tok, lineno)
        w = _rational(tok)
        if w is None:
            raise ParseError("weight %r is not a canonical non-negative rational" % tok, lineno)
        weights[tok] = w
        return w

    table = UniqueTable(weighted, domains)
    index = {}  # record id token -> record id
    nodes = []
    pos_of = []  # record id -> DFS position of its variable
    end_of = []  # record id -> end of that variable's subtree interval
    used = bytearray(m)

    def unrelated(ids, low, stop):
        """Records ``ids`` pairwise unrelated, in DFS order, inside [low, stop)."""
        for c in ids:
            if pos_of[c] < low:
                return False
            low = end_of[c]
            used[c] = 1
        return low <= stop

    prev_pos, prev_sig = n, None
    for i in range(m):
        lineno, fields = next_line("n")
        if len(fields) < 2 or fields[0] != str(i):
            raise ParseError("node ids must be dense and in order", lineno)
        var = var_of.get(fields[1])
        if var is None:
            raise ParseError("bad node variable %r" % fields[1], lineno)
        if len(fields) - 2 != domains[var]:
            raise StructuralError(
                "node %d has %d arcs, domain size is %d"
                % (i, len(fields) - 2, domains[var])
            )
        pos, stop = tree.dfs_index[var], tree.subtree_end[var]
        arcs = []
        dens = []
        sig = []
        for tok in fields[2:]:
            wtok, colon, ktok = tok.partition(":")
            if not colon:
                raise ParseError("bad arc %r" % tok, lineno)
            w = weights.get(wtok)
            if w is None:
                w = parse_weight(wtok, lineno)
            if ktok == ".":
                ids = kids = ()
            elif wtok == "0":
                raise StructuralError("node %d has a zero-weight arc with children" % i)
            else:
                try:
                    ids = tuple(map(index.__getitem__, ktok.split(",")))
                except KeyError:
                    raise ParseError("bad child list %r" % ktok, lineno)
                if not unrelated(ids, pos + 1, stop):
                    raise StructuralError(
                        "node %d: children must be unrelated, in DFS order and"
                        " below variable %d" % (i, var)
                    )
                kids = tuple(nodes[c] for c in ids)
            arcs.append((w[0], kids))
            dens.append(w[1])
            sig.append((wtok, ids))
        if weighted:
            scale = lcm(*dens)
            arcs = [(num * (scale // den), kids) for (num, kids), den in zip(arcs, dens)]
            if sum(w for w, _ in arcs) != scale:
                raise StructuralError("node %d: weights do not sum to 1" % i)
        elif all(w == "0" for w, _ in sig):
            raise StructuralError("node %d is dead (all weights 0)" % i)
        if sig.count(sig[0]) == len(sig):
            raise StructuralError("node %d is redundant" % i)
        sig = tuple(sig)
        if pos > prev_pos or (pos == prev_pos and sig <= prev_sig):
            raise StructuralError("node %d is out of canonical order" % i)
        prev_pos, prev_sig = pos, sig
        index[fields[0]] = i
        nodes.append(table.intern(var, tuple(arcs)))
        pos_of.append(pos)
        end_of.append(stop)

    lineno, rtoks = next_line("roots")
    if rtoks == ["."]:
        rtoks = []
    elif not rtoks:
        raise ParseError("empty root list", lineno)
    try:
        root_ids = [index[r] for r in rtoks]
    except KeyError:
        raise ParseError("bad root list", lineno)
    if not unrelated(root_ids, 0, n):
        raise StructuralError("roots must be unrelated and in DFS order")
    unused = used.find(0)
    if unused >= 0:
        raise StructuralError("node %d is unreachable" % unused)
    lineno, (ctok,) = next_line("constant", 1)
    constant = weights.get(ctok)
    if constant is None:
        constant = parse_weight(ctok, lineno)
    constant = ratio(*constant)
    if root_ids and constant == 0:
        raise StructuralError("zero constant with root nodes")
    if next(it, None) is not None:
        raise ParseError("trailing records after 'constant'")
    return Aomdd(
        tree, domains, tuple(nodes[r] for r in root_ids), constant, table, weighted, None
    )
