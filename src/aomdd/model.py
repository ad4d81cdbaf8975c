"""Discrete graphical models: variable domains and table functions.

A model is a set of variables with finite domains plus a set of
non-negative table functions combined by product.  Constraint networks
are the special case where every table value is 0 or 1.

Table values are stored as exact rationals (``int`` or
``fractions.Fraction``), so products, sums and normalizations are exact.
UAI decimal text parses to exact rationals.

``_lines`` is the package's one text reader and ``_ints`` its one
integer reader: the parsers here, ``serialize.loads`` and the CLI's
order and assignment files all read through them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ParseError, ResourceLimitError

CONSTRAINT = "constraint"
WEIGHTED = "weighted"

#: Default cap on the number of entries of a brute-force table.
BRUTE_FORCE_CAP = 1 << 24

#: Largest decimal exponent magnitude of a UAI table entry: Python's
#: int-to-string digit limit, past which ``dumps`` cannot spell the
#: weight, while building the exact rational would take seconds.
MAX_EXPONENT = 4300

#: Largest table a DIMACS clause may expand to: a clause over w
#: variables becomes a table of 2**w entries.
MAX_CLAUSE_TABLE = 1 << 24

#: Most variables a DIMACS ``p cnf`` header may declare: each one gets a
#: domain entry before any clause is read.
MAX_CNF_VARS = 1 << 20

#: Largest UAI domain size: a compiler builds one arc per value.
MAX_DOMAIN = 1 << 20

_CHUNK = 1 << 16  # characters ``_lines`` splits into lines at a time


class TableFunction:
    """A dense table over an ordered scope, last scope variable fastest.

    ``shape[i]`` is the domain size of ``scope[i]``; ``values`` has
    length ``prod(shape)``.
    """

    __slots__ = ("scope", "shape", "values")

    def __init__(self, scope, shape, values):
        if len(scope) != len(set(scope)):
            raise ValueError("duplicate variable in scope %r" % (scope,))
        if len(scope) != len(shape):
            raise ValueError("scope and shape length mismatch")
        size = math.prod(shape)
        if len(values) != size:
            raise ValueError("table has %d entries, scope needs %d" % (len(values), size))
        for v in values:
            if v < 0:
                raise ValueError("negative table value %s" % (v,))
        self.scope = scope
        self.shape = shape
        self.values = values

    def __eq__(self, other):
        if not isinstance(other, TableFunction):
            return NotImplemented
        return (self.scope, self.shape, self.values) == (other.scope, other.shape, other.values)

    def strides(self):
        """Each scope variable's index step: the product of the domain sizes after it."""
        steps = [1] * len(self.shape)
        for i in range(len(self.shape) - 1, 0, -1):
            steps[i - 1] = steps[i] * self.shape[i]
        return tuple(steps)

    def value_at(self, assignment):
        """Table value at a (possibly partial) assignment covering the scope."""
        idx = 0
        for var, k in zip(self.scope, self.shape):
            val = assignment[var]
            if val is None:
                raise ValueError("variable %d unassigned in scope lookup" % var)
            idx = idx * k + val
        return self.values[idx]


class GraphicalModel:
    """Domain sizes of variables 0..n-1 plus table functions combined by product."""

    __slots__ = ("domains", "functions", "kind")

    def __init__(self, domains, functions, kind):
        if kind not in (CONSTRAINT, WEIGHTED):
            raise ValueError("kind must be %r or %r" % (CONSTRAINT, WEIGHTED))
        for k in domains:
            if k < 1:
                raise ValueError("domain size must be >= 1, got %d" % k)
        for f in functions:
            for var, k in zip(f.scope, f.shape):
                if not 0 <= var < len(domains):
                    raise ValueError("scope variable %d out of range" % var)
                if domains[var] != k:
                    raise ValueError("shape mismatch for variable %d" % var)
            if kind == CONSTRAINT:
                for v in f.values:
                    if v != 0 and v != 1:
                        raise ValueError("constraint table value %s not in {0,1}" % (v,))
        self.domains = domains
        self.functions = functions
        self.kind = kind

    def __eq__(self, other):
        if not isinstance(other, GraphicalModel):
            return NotImplemented
        return (self.domains, self.functions, self.kind) == (
            other.domains, other.functions, other.kind
        )

    @property
    def n(self):
        return len(self.domains)


def make_model(domains, functions, kind=WEIGHTED):
    """Convenience constructor from a domain-size list and scope/value pairs.

    ``functions`` is an iterable of ``(scope, values)`` pairs.
    """
    tabs = []
    for scope, values in functions:
        scope = tuple(scope)
        for v in scope:
            if not 0 <= v < len(domains):
                raise ValueError("scope variable %d out of range" % v)
        shape = tuple(domains[v] for v in scope)
        tabs.append(TableFunction(scope, shape, tuple(values)))
    return GraphicalModel(tuple(domains), tuple(tabs), kind)


def integer_tables(model):
    """The model's tables scaled to integers, and the constant that undoes it.

    Each weighted table ``f`` is multiplied by ``L_f``, the lcm of its
    entries' denominators, so every weight and constant the compilers
    form is an ``int``.  Meta-nodes divide by their own sums, so the
    scaling changes no node, only the root constant.  The returned
    constant is the product of the empty-scope tables' values, times
    ``1 / prod(L_f)``: one exact rational (an ``int`` if every ``L_f``
    is 1), applied once at the root.  Constraint tables stay 0/1.
    """
    weighted = model.kind == WEIGHTED
    tables = []
    constant = scale = 1
    for f in model.functions:
        if weighted:
            lcd = math.lcm(*(v.denominator for v in f.values))
            values = tuple(v.numerator * (lcd // v.denominator) for v in f.values)
            f = TableFunction(f.scope, f.shape, values)
            scale *= lcd
        if not f.scope:
            constant *= f.values[0]
        tables.append(f)
    return tables, constant if scale == 1 else Fraction(constant, scale)


def weight_of_full_assignment(model, x):
    """Product of all function values at a full assignment."""
    for i, v in enumerate(x):
        if v is None:
            raise ValueError("variable %d unassigned" % i)
    acc = 1
    for f in model.functions:
        val = f.value_at(x)
        if val == 0:
            return val * 0
        acc *= val
    return acc


def full_assignments(domains):
    """Iterate all full assignments, last variable fastest."""
    return (list(t) for t in itertools.product(*[range(k) for k in domains]))


def brute_force_table(model, cap=BRUTE_FORCE_CAP):
    """Explicit table of the combination of all functions, over all variables.

    This is the exhaustive oracle used by the test suite; it refuses to
    build tables larger than ``cap`` entries.
    """
    size = math.prod(model.domains)
    if size > cap:
        raise ResourceLimitError(
            "brute-force table needs %d entries, cap is %d" % (size, cap)
        )
    values = tuple(weight_of_full_assignment(model, x) for x in full_assignments(model.domains))
    scope = tuple(range(model.n))
    return TableFunction(scope, model.domains, values)


# ---------------------------------------------------------------------------
# Parsers (UAI, DIMACS CNF, UAI evidence)

def _text(text):
    """``text`` as ``str``: ``str`` as it is, ``bytes`` decoded as UTF-8."""
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("input is not UTF-8 text")
    return text


def _lines(text, start=0, lineno=0, raw=False):
    """``(lineno, fields)`` of each non-blank line of ``str`` or UTF-8 ``bytes``.

    Split about ``_CHUNK`` characters at a time, each chunk ending after
    a ``"\\n"``, with the line breaks and numbers of one whole-text split.
    Reading starts at offset ``start``, the start of line ``lineno + 1``.
    With ``raw``, each line comes unsplit, with its line break, as
    ``(lineno, line, end)``: ``end`` is the offset just past it.
    """
    text = _text(text)
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        if raw:
            for lineno, line in enumerate(text[start:end].splitlines(True), lineno + 1):
                start += len(line)
                if not line.isspace():
                    yield lineno, line, start
            continue
        for lineno, line in enumerate(text[start:end].splitlines(), lineno + 1):
            if fields := line.split():
                yield lineno, fields
        start = end


def _ints(toks, what, line=None, low=None, high=None):
    """The integers a list of tokens spells, each in ``[low, high)``.

    A token must be spelled as ``str`` spells its value
    (``str(int(tok)) == tok``): ASCII digits after an optional ``-``, with
    no leading zero, ``-0``, ``+``, ``_`` or other digits ``int`` takes.
    """
    try:
        vals = [*map(int, toks)]
    except ValueError:
        vals = None
    if vals is None or [*map(str, vals)] != toks:
        for tok in toks[:-1]:  # name the first token that is not canonical
            _ints([tok], what, line)
        raise ParseError("expected integer %s, got %r" % (what, toks[-1]), line)
    if low is not None and min(vals) < low:
        raise ParseError("%s must be >= %d, got %d" % (what, low, min(vals)), line)
    if high is not None and max(vals) >= high:
        raise ParseError("%s must be < %d, got %d" % (what, high, max(vals)), line)
    return vals


class _Reader:
    def __init__(self, text):
        self._it = ((tok, lineno) for lineno, fields in _lines(text) for tok in fields)
        self.line = 0

    def next(self, what):
        for tok, lineno in self._it:
            self.line = lineno
            return tok
        raise ParseError("unexpected end of input while reading %s" % what, self.line)

    def end(self, what):
        for tok, lineno in self._it:
            raise ParseError("unexpected %r after %s" % (tok, what), lineno)

    def next_int(self, what, low=None, cap=None):
        val = _ints([self.next(what)], what, self.line, low)[0]
        if cap is not None and val > cap:
            raise ResourceLimitError("line %d: %s is %d, cap is %d" % (self.line, what, val, cap))
        return val

    def next_value(self, what):
        tok = self.next(what)
        _, e, exp = tok.lower().partition("e")
        try:
            huge = e and abs(int(exp)) > MAX_EXPONENT
        except ValueError:
            huge = False  # not a number: Fraction rejects it below
        if huge:
            raise ParseError(
                "%s exponent exceeds %d: %r" % (what, MAX_EXPONENT, tok), self.line
            )
        try:
            if not tok.isascii() or "_" in tok:  # ``Fraction`` takes both
                raise ValueError(tok)
            val = Fraction(tok)
        except ValueError:
            raise ParseError("expected number %s, got %r" % (what, tok), self.line)
        if val < 0:
            raise ParseError("%s must be non-negative, got %s" % (what, tok), self.line)
        return val


def parse_uai(text):
    """Parse a model in the UAI inference-evaluation format.

    Both BAYES and MARKOV preambles produce a weighted model; CPT
    normalization is not checked.
    """
    r = _Reader(text)
    preamble = r.next("preamble").upper()
    if preamble not in ("BAYES", "MARKOV"):
        raise ParseError("unknown preamble %r (expected BAYES or MARKOV)" % preamble, r.line)
    n = r.next_int("variable count", low=0)
    domains = [r.next_int("domain size of variable %d" % i, 1, MAX_DOMAIN) for i in range(n)]
    nfun = r.next_int("function count", low=0)
    scopes = []
    for i in range(nfun):
        arity = r.next_int("arity of function %d" % i, low=0)
        scope = []
        for j in range(arity):
            var = r.next_int("scope variable")
            if not 0 <= var < n:
                raise ParseError(
                    "scope variable %d of function %d out of range" % (var, i), r.line
                )
            scope.append(var)
        if len(set(scope)) != arity:
            raise ParseError("scope of function %d repeats a variable" % i, r.line)
        scopes.append(tuple(scope))
    functions = []
    for i, scope in enumerate(scopes):
        declared = r.next_int("entry count of table %d" % i, low=0)
        expected = math.prod(domains[v] for v in scope)
        if declared != expected:
            raise ParseError(
                "table %d declares %d entries, scope needs %d" % (i, declared, expected),
                r.line,
            )
        values = tuple(r.next_value("table %d entry" % i) for v in range(declared))
        functions.append((scope, values))
    r.end("the last table")
    return make_model(domains, functions, kind=WEIGHTED)


def parse_dimacs_cnf(text):
    """Parse DIMACS CNF into a constraint model, one 0/1 table per clause scope.

    Each clause forbids exactly the one assignment falsifying all its
    literals, so it writes one 0 into the table of its scope (its
    variables, sorted); clauses over the same variables share that
    table, and the tables follow their scopes' first appearance.  A
    tautological clause is constant 1 and writes nothing; every empty
    clause writes into one constant-0 table.  The text has exactly one
    ``p cnf`` header, before the first clause.
    """
    nvars = None
    clauses = []
    current = []
    for lineno, toks in _lines(text):
        if toks[0] == "c":
            continue
        if toks[0] == "p":
            line = " ".join(toks)
            if nvars is not None:
                raise ParseError("second problem line %r" % line, lineno)
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError("malformed problem line %r" % line, lineno)
            try:
                nvars, nclauses = _ints(toks[2:], "count", lineno)
            except ParseError:
                raise ParseError("malformed problem line %r" % line, lineno)
            if nvars < 0 or nclauses < 0:
                raise ParseError("negative count in problem line %r" % line, lineno)
            if nvars > MAX_CNF_VARS:
                raise ResourceLimitError(
                    "line %d: header declares %d variables, cap is %d"
                    % (lineno, nvars, MAX_CNF_VARS)
                )
            continue
        if nvars is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for lit in _ints(toks, "literal", lineno):
            if lit == 0:
                clauses.append((tuple(current), lineno))
                current = []
            elif -nvars <= lit <= nvars:
                current.append(lit)
            else:
                raise ParseError("literal %d exceeds variable count %d" % (lit, nvars), lineno)
    if current:
        raise ParseError("last clause missing terminating 0")
    if nvars is None:
        raise ParseError("missing 'p cnf' header")

    tables = {}  # scope -> its values, in first-appearance order
    for lits, lineno in clauses:
        signs = {}
        for lit in lits:
            if signs.setdefault(abs(lit) - 1, lit > 0) != (lit > 0):
                break  # a tautology: no table
        else:
            scope = tuple(sorted(signs))
            size = 1 << len(scope)
            if size > MAX_CLAUSE_TABLE:
                raise ResourceLimitError(
                    "line %d: clause over %d variables needs a %d-entry table, cap is %d"
                    % (lineno, len(scope), size, MAX_CLAUSE_TABLE)
                )
            values = tables.get(scope)
            if values is None:
                values = tables[scope] = [1] * size
            idx = 0
            for v in scope:  # the one assignment that falsifies every literal
                idx = idx * 2 + (not signs[v])
            values[idx] = 0  # an empty clause is the constant 0
    return make_model([2] * nvars, tables.items(), kind=CONSTRAINT)


def parse_uai_evidence(text, n=None):
    """Parse UAI evidence text: a count followed by variable/value pairs."""
    r = _Reader(text)
    count = r.next_int("evidence count", low=0)
    evidence = {}
    for i in range(count):
        var = r.next_int("evidence variable")
        val = r.next_int("evidence value", low=0)
        if n is not None and not 0 <= var < n:
            raise ParseError("evidence variable %d out of range" % var, r.line)
        if var in evidence:
            raise ParseError("evidence variable %d given twice" % var, r.line)
        evidence[var] = val
    r.end("the evidence pairs")
    return evidence
