"""Canonical text format for compiled diagrams, and its DOT rendering.

Node records are emitted bottom-up in a content-determined order
(variables in reverse DFS order, nodes sorted by their arc signature),
with dense ids and exact rational weights, so two equal diagrams —
however they were compiled — serialize to byte-identical files.  That
makes file equality a valid fast path for the equivalence command.
This module alone spells and orders the records (``canonical_records``),
prints them (``dumps``, ``to_dot``) and checks them (``loads``).  The
writer holds one variable block of signatures at a time, beside the
nodes bucketed once by variable and one array of dense ids, 4 bytes
per node indexed by ``uid``, and can write each line to a file as it
is made; the reader (``model._lines`` and ``model._ints``, shared with
the parsers) holds one 64k chunk of lines.  ``loads`` rebuilds the tree
with ``structure``'s one tree constructor and checks it against ``dfs``.

A weighted node holds the primitive integer vector ``n`` of its arc
weights; the file spells arc ``i`` as the reduced fraction
``n_i/sum(n)`` (``str(Fraction)`` spelling), so every record's weights
sum to 1.  Only records of three or more arcs take a gcd to reduce the
fractions: a two-arc record's ``n0/sum(n)`` and ``n1/sum(n)`` are
already reduced, since ``n`` is primitive.  Most records have two
arcs (every record of a binary variable), so the writer builds a
two-arc record's signature from its two arcs and prints its line with
one format string, with no per-arc list; wider records take the
per-arc path.  Both spell the same text, and ``loads`` checks it
against one pattern per weight (``_WEIGHT``).  ``loads`` turns the
fractions back into integers by scaling with the lcm of the record's
denominators.  A two-arc record ``n0/T n1/T`` needs no scaling, and
``loads`` reads one as ``dumps`` writes it in one step: a compiled
pattern built from the same canonical integer, matched at the
record's offset in the text, takes its five fields, and checking that
the pair is reduced takes one gcd, ``gcd(n0, T)``, which equals
``gcd(n1, T)`` when ``n0 + n1 == T``.

Format (whitespace-separated ASCII, one record per line)::

    aomdd 1
    mode weighted|constraint
    vars <n>
    domains <k0> ... <kn-1>
    parents <p0> ... <pn-1>        # -1 marks the root
    dfs <v0> ... <vn-1>            # pseudo-tree DFS order
    nodes <m>
    n <id> <var> <w>:<children>... # children comma-separated ids or .
    roots <id>... | .
    constant <rational>
"""

from __future__ import annotations

import re
from array import array
from math import gcd, lcm
from operator import itemgetter

from .diagram import Aomdd, MetaNode, node_total, ratio
from .diagram import make_node  # noqa: F401  (bench/tracing.py wraps serialize.make_node)
from .errors import ParseError, StructuralError
from .model import CONSTRAINT, WEIGHTED, _ints, _lines, _text
from .structure import _finish_tree


def weight_strs(node, weighted):
    """Each arc's normalized weight spelled as ``str(Fraction)`` spells it.

    ``node`` holds a primitive weight vector ``n`` with sum ``T``; arc
    ``i`` is ``n_i/T`` in lowest terms.  When ``T`` is 1 (every
    constraint record, and the weighted pairs (0, 1) and (1, 0)) each
    weight is spelled as an integer.  A two-arc record needs no gcd:
    ``gcd(n0, T) == gcd(n0, n1) == 1``, so ``n0/T`` and ``n1/T`` are
    already reduced.  Wider records take one integer gcd per arc.
    """
    arcs = node.arcs
    if len(arcs) == 2:
        (n0, _), (n1, _) = arcs
        total = n0 + n1 if weighted else 1
        if total == 1:
            return [str(n0), str(n1)]
        den = "/%d" % total
        return [str(n0) + den, str(n1) + den]
    total = node_total(node, weighted)
    if total == 1:
        return [str(w) for w, _ in arcs]
    out = []
    for w, _ in arcs:
        g = gcd(w, total)
        out.append(str(w // g) if g == total else "%d/%d" % (w // g, total // g))
    return out


def canonical_records(diagram):
    """The dense ids of the nodes by uid, and an iterator of their records.

    The iterator yields ``(var, sig)`` per node in canonical order.
    Variables are visited bottom-up (reverse DFS); within a variable,
    nodes sort by their signature, one ``(weight string, child ids)``
    pair per arc, so equal diagrams enumerate identically regardless of
    creation order.  Weight string ``"0"`` is exactly a zero-weight arc.
    As its record is yielded, a node's dense id enters the ids under its
    ``uid``, its index in ``diagram.nodes``.  The ids are an ``array`` of
    4 bytes per node, sized once and filled with -1: a child with no id
    yet (its variable is not below its parent's) reads -1, a record
    ``loads`` rejects.
    """
    ids = array("i", [-1]) * len(diagram.nodes)
    return ids, _records(diagram, ids)


def _records(diagram, ids):
    weighted = diagram.weighted
    # one pass buckets the nodes by variable; the blocks are read bottom-up
    by_var = [[] for _ in diagram.domains]
    for u in diagram.nodes:
        by_var[u.var].append(u)
    dense = 0
    for var in reversed(diagram.tree.dfs_order):
        group, by_var[var] = by_var[var], None
        block = []
        for u in group:
            strs = weight_strs(u, weighted)
            arcs = u.arcs
            if len(arcs) == 2:
                k0, k1 = arcs[0][1], arcs[1][1]
                # an arc into one child builds no list
                kids0 = (ids[k0[0].uid],) if len(k0) == 1 else tuple([ids[c.uid] for c in k0])
                kids1 = (ids[k1[0].uid],) if len(k1) == 1 else tuple([ids[c.uid] for c in k1])
                sig = ((strs[0], kids0), (strs[1], kids1))
            else:
                sig = tuple(
                    [(s, tuple([ids[c.uid] for c in ch])) for s, (_, ch) in zip(strs, arcs)]
                )
            block.append((sig, u))
        block.sort(key=itemgetter(0))
        for sig, u in block:
            ids[u.uid] = dense
            dense += 1
            yield var, sig


def dumps(diagram, file=None):
    """Render a diagram to canonical text, or write the text to ``file``.

    ``file`` is an open text file; each line is written as it is made,
    and nothing is returned.  Without one the text is returned.
    """
    lines = []
    write = lines.append if file is None else file.write
    ids, records = canonical_records(diagram)
    write("aomdd 1\n")
    write("mode %s\n" % (WEIGHTED if diagram.weighted else CONSTRAINT))
    write("vars %d\n" % len(diagram.domains))
    write("domains %s\n" % " ".join(map(str, diagram.domains)))
    write("parents %s\n" % " ".join("-1" if p is None else str(p) for p in diagram.tree.parent))
    write("dfs %s\n" % " ".join(map(str, diagram.tree.dfs_order)))
    write("nodes %d\n" % len(diagram.nodes))
    for i, (var, sig) in enumerate(records):
        if len(sig) == 2:
            (s0, kids0), (s1, kids1) = sig
            kids0 = ",".join(map(str, kids0)) or "."
            kids1 = ",".join(map(str, kids1)) or "."
            write("n %d %d %s:%s %s:%s\n" % (i, var, s0, kids0, s1, kids1))
            continue
        arcs = ["%s:%s" % (s, ",".join(map(str, kids)) or ".") for s, kids in sig]
        write("n %d %d %s\n" % (i, var, " ".join(arcs)))
    write("roots %s\n" % (" ".join(str(ids[r.uid]) for r in diagram.roots) or "."))
    write("constant %s\n" % diagram.constant)
    if file is None:
        return "".join(lines)


def to_dot(diagram):
    """DOT rendering: record nodes with one port per value, square terminals."""
    lines = ["digraph aomdd {", "  node [shape=record];"]
    arrows = []
    terminals = set() if diagram.roots else {"t0" if diagram.constant == 0 else "t1"}
    _, records = canonical_records(diagram)
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


# a canonical positive integer: ASCII digits, no sign, no leading zero
_POSITIVE = r"[1-9][0-9]*"
# a weight spelled as ``str(Fraction)`` spells a rational >= 0: ``n`` or
# ``n/d``; the integers check ``d >= 2`` and ``gcd(n, d) == 1``
_WEIGHT = re.compile(rf"(0|{_POSITIVE})(?:/({_POSITIVE}))?")
# a weighted pair record ``n <id> <var> n0/T:<children> n1/T:<children>``
# spelled with single spaces and a "\n" line break
_PAIR = re.compile(
    rf"n ([0-9]+) ([0-9]+) (({_POSITIVE})/({_POSITIVE})):([0-9,.]+)"
    rf" (({_POSITIVE})/\5):([0-9,.]+)\n"
)


def _expect(fields, lineno, tag, count=None):
    if not fields or fields[0] != tag:
        raise ParseError("expected %r record" % tag, lineno)
    if count is not None and len(fields) != count + 1:
        raise ParseError("%r record needs %d fields" % (tag, count), lineno)
    return fields[1:]


def _misplaced_children(i, var):
    return StructuralError(
        "node %d: children must be unrelated, in DFS order and below variable %d" % (i, var)
    )


def loads(text):
    """Rebuild a diagram from canonical text.

    Accepts exactly the files ``dumps`` can write, up to whitespace, and
    raises ``ParseError``/``StructuralError`` on anything else.  The tree
    is rebuilt from ``parents`` along ``dfs``, which must start at the root
    (so the DFS ends) and equal the rebuilt DFS order.  One pass over the
    node records checks the canonical form on the tokens:

    - each weight matches ``_WEIGHT``, its one spelling: ``n`` or
      ``n/d`` in canonical integers with ``d >= 2`` and
      ``gcd(n, d) == 1``, as ``str(Fraction)`` spells a rational >= 0;
      in constraint mode it is 0 or 1;
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

    A weighted two-arc record spelled as ``dumps`` spells it (``_PAIR``:
    single spaces, a ``"\\n"`` line end, and ``_WEIGHT``'s canonical
    positive integers over one denominator ``T``) is checked in one
    step: ``T`` must be spelled as ``str(n0 + n1)`` and one gcd,
    ``gcd(n0, T)``, covers both arcs; then come the children, redundancy
    and order checks.  Records are matched at their offsets in the text
    until one does not match; the rest come from the line reader, which
    tries the pattern on each line.  Every other record, and a pair the
    step refuses, has its weights checked token by token, each token
    parsed once per file.  Both steps check an arc's children with
    ``read_kids``.  A pair the step accepts would pass every per-token
    test, so each file gets the same outcome and the same error either
    way.  ``int`` only reads validated ASCII digits, so its one failure,
    a ``ValueError`` past Python's limit on the digits of an ``int``,
    comes the same from either step and from the root constant.

    The signature order makes every record new, so each record becomes
    one ``MetaNode`` with its record id as uid, and no unique table is
    built: the diagram's ``table`` is None.  Every record is reachable
    and numbered children first, so the records, as a tuple, are the
    diagram's ``nodes``, and it takes no walk.  A weighted node stores
    ``num_i * L / den_i``: reduced fractions that sum to 1 scale to
    integers with gcd 1, the compilers' primitive form.
    """
    size = len(text)
    text = _text(text)
    it = _lines(text, raw=True)
    offset = 0  # the offset just past the last line read

    def next_line(tag, count=None):
        nonlocal offset
        try:
            lineno, line, offset = next(it)
        except StopIteration:
            raise ParseError("unexpected end of file, wanted %r" % tag)
        return lineno, _expect(line.split(), lineno, tag, count)

    lineno, header = next_line("aomdd", 1)
    if header[0] != "1":
        raise ParseError("unsupported version %r" % header[0], lineno)
    lineno, (mode,) = next_line("mode", 1)
    if mode not in (WEIGHTED, CONSTRAINT):
        raise ParseError("unknown mode %r" % mode, lineno)
    weighted = mode == WEIGHTED
    lineno, count = next_line("vars", 1)
    (n,) = _ints(count, "variable count", lineno, 1)
    lineno, doms = next_line("domains", n)
    domains = tuple(_ints(doms, "domain size", lineno, 1))
    lineno, parents = next_line("parents", n)
    parent = [None if p < 0 else p for p in _ints(parents, "parent", lineno, -1, n)]
    lineno, dfs = next_line("dfs", n)
    dfs_order = _ints(dfs, "dfs entry", lineno, 0, n)
    if len(set(dfs_order)) != n or parent.count(None) != 1 or parent[dfs_order[0]] is not None:
        raise ParseError("malformed tree records", lineno)
    tree = _finish_tree(parent, dfs_order)
    if tree.dfs_order != tuple(dfs_order):
        raise ParseError("dfs record inconsistent with parents", lineno)
    var_of = {str(v): v for v in range(n)}

    lineno, count = next_line("nodes", 1)
    # every record takes more than one character, or byte, of the text
    (m,) = _ints(count, "node count", lineno, 0, size)
    weights = {} if weighted else {"0": (0, 1), "1": (1, 1)}  # token -> (num, den)

    def parse_weight(tok, lineno):
        """``(num, den)`` of a ``_WEIGHT`` token with ``d >= 2`` and ``gcd(n, d) == 1``."""
        if not weighted:
            raise ParseError("constraint weight %r not 0/1" % tok, lineno)
        spelled = _WEIGHT.fullmatch(tok)
        if spelled is not None:
            # ASCII digits only, so int fails only past the digit limit
            ntok, dtok = spelled.groups()
            num, den = int(ntok), 1 if dtok is None else int(dtok)
            if dtok is None or den >= 2 and gcd(num, den) == 1:
                weights[tok] = w = num, den
                return w
        raise ParseError("weight %r is not a canonical non-negative rational" % tok, lineno)

    dfs_index, subtree_end = tree.dfs_index, tree.subtree_end
    index = {}  # record id token -> record id
    child_id = index.__getitem__
    nodes = []
    node_of = nodes.__getitem__
    pos_of = []  # record id -> DFS position of its variable
    end_of = []  # record id -> end of that variable's subtree interval
    used = bytearray(m)

    def read_kids(ktok, i, var, pos, stop, lineno):
        """``(ids, nodes)`` of the child list ``ktok`` of an arc of record ``i``.

        The children are checked to be pairwise unrelated, in DFS order
        and inside the DFS interval ``(pos, stop)`` of its variable.
        """
        try:
            ids = tuple(map(child_id, ktok.split(",")))
        except KeyError:
            raise ParseError("bad child list %r" % ktok, lineno)
        low = pos + 1
        for c in ids:
            if pos_of[c] < low:
                raise _misplaced_children(i, var)
            low = end_of[c]
            used[c] = 1
        if low > stop:
            raise _misplaced_children(i, var)
        return ids, tuple(map(node_of, ids))

    # A weighted file's records are matched at their offsets in the text
    # until one does not match; from there on, and in a constraint file,
    # the line reader hands them over one line at a time.
    if weighted:
        it = None
    pair = _PAIR.match
    prev_pos, prev_sig = n, None
    for i in range(m):
        line = None
        if it is None:
            record = pair(text, offset)
            if record is None:
                it = _lines(text, offset, lineno, raw=True)
            else:
                offset = record.end()
                lineno += 1
        if it is not None:
            lineno, line, _ = next(it, (None, None, None))
            if line is None:
                raise ParseError("unexpected end of file, wanted 'n'")
            record = pair(line) if weighted else None
        arcs = None
        if record is not None:
            # a canonical pair ``n0/T:k0 n1/T:k1`` in one step: the
            # pattern spells n0, n1 and T canonically, T is spelled as
            # str(n0 + n1), and gcd(n0, T) == 1 reduces both fractions
            rid, vtok, w0, n0tok, ttok, k0, w1, n1tok, k1 = record.groups()
            var = var_of.get(vtok)
            if rid == str(i) and var is not None and domains[var] == 2:
                n0, n1 = int(n0tok), int(n1tok)
                total = n0 + n1
                if str(total) == ttok and gcd(n0, total) == 1:
                    pos, stop = dfs_index[var], subtree_end[var]
                    ids0 = kids0 = ids1 = kids1 = ()
                    if k0 != ".":
                        ids0, kids0 = read_kids(k0, i, var, pos, stop, lineno)
                    if k1 != ".":
                        ids1, kids1 = read_kids(k1, i, var, pos, stop, lineno)
                    if k0 == k1 and w0 == w1:
                        raise StructuralError("node %d is redundant" % i)
                    arcs = ((n0, kids0), (n1, kids1))
                    sig = ((w0, ids0), (w1, ids1))
        if arcs is None:
            # any other record, and a pair the step refuses, token by token
            fields = (record.group() if line is None else line).split()
            if fields[0] != "n":
                raise ParseError("expected 'n' record", lineno)
            if len(fields) < 3 or fields[1] != str(i):
                raise ParseError("node ids must be dense and in order", lineno)
            rid = fields[1]
            var = var_of.get(fields[2])
            if var is None:
                raise ParseError("bad node variable %r" % fields[2], lineno)
            if len(fields) - 3 != domains[var]:
                raise StructuralError(
                    "node %d has %d arcs, domain size is %d"
                    % (i, len(fields) - 3, domains[var])
                )
            pos, stop = dfs_index[var], subtree_end[var]
            nums, dens, kids_of, sig = [], [], [], []
            for tok in fields[3:]:
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
                    ids, kids = read_kids(ktok, i, var, pos, stop, lineno)
                nums.append(w[0])
                dens.append(w[1])
                kids_of.append(kids)
                sig.append((wtok, ids))
            if not weighted:
                if not any(nums):
                    raise StructuralError("node %d is dead (all weights 0)" % i)
            else:
                # a canonical record spells its arcs over one denominator
                scale = dens[0]
                if dens.count(scale) != len(dens):
                    scale = lcm(*dens)
                    nums = [num * (scale // den) for num, den in zip(nums, dens)]
                if sum(nums) != scale:
                    raise StructuralError("node %d: weights do not sum to 1" % i)
            if sig.count(sig[0]) == len(sig):
                raise StructuralError("node %d is redundant" % i)
            arcs = tuple(zip(nums, kids_of))
            sig = tuple(sig)
        if pos > prev_pos or (pos == prev_pos and sig <= prev_sig):
            raise StructuralError("node %d is out of canonical order" % i)
        prev_pos, prev_sig = pos, sig
        index[rid] = i
        nodes.append(MetaNode(var, arcs, i))
        pos_of.append(pos)
        end_of.append(stop)
    if it is None:
        it = _lines(text, offset, lineno, raw=True)

    lineno, rtoks = next_line("roots")
    if rtoks == ["."]:
        rtoks = []
    elif not rtoks:
        raise ParseError("empty root list", lineno)
    try:
        root_ids = [index[r] for r in rtoks]
    except KeyError:
        raise ParseError("bad root list", lineno)
    # roots pairwise unrelated and in DFS order
    low = 0
    for c in root_ids:
        if pos_of[c] < low:
            raise StructuralError("roots must be unrelated and in DFS order")
        low = end_of[c]
        used[c] = 1
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
        tree, domains, tuple(nodes[r] for r in root_ids), constant, None, weighted, None,
        tuple(nodes),
    )
