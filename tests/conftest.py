"""Shared fixtures: worked example, 4-queens, random model generators."""

import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest

from aomdd import (
    bcp_hook,
    be_compiler,
    build_primal_graph,
    compile_be,
    compile_search,
    dumps,
    generate_pseudo_tree,
    make_model,
    parse_dimacs_cnf,
    parse_uai,
)

# The 8-variable 9-clause network used throughout: variables A..H are
# ids 0..7 and the clauses are
#   F|H, A|~H, A xor B xor G, F|G, B|F, A|E, C|E, C xor D, B|C.
EXAMPLE_CNF = """\
c A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8
p cnf 8 9
6 8 0
1 -8 0
1 2 7 0
-1 -2 7 0
-1 2 -7 0
1 -2 -7 0
6 7 0
2 6 0
1 5 0
3 5 0
3 4 0
-3 -4 0
2 3 0
"""

EXAMPLE_ORDER = list(range(8))

# each input the UAI parser rejects, with the message it gives
BAD_UAI = [
    ("MARKOV two 2 2 0", "expected integer variable count, got 'two'"),
    ("MARKOV 1 0 0", "domain size of variable 0 must be >= 1, got 0"),
    ("MARKOV 1 2 -1", "function count must be >= 0, got -1"),
    ("MARKOV 1 2 1 1 0 2 0.5 -1", "table 0 entry must be non-negative, got -1"),
    ("MARKOV 1 2 1 1 0 2 1ex 1", "expected number table 0 entry, got '1ex'"),
    # integers are spelled as str spells them; entries are ASCII without '_'
    ("MARKOV 1 2 1 1 0 2 \u0664 1", "expected number table 0 entry, got '\u0664'"),
    ("MARKOV 1 2 1 1 0 2 1_0 1", "expected number table 0 entry, got '1_0'"),
    ("MARKOV 1 \u0662 0", "expected integer domain size of variable 0, got '\u0662'"),
    ("MARKOV 1 2 1 1 1_0 2 1 1", "expected integer scope variable, got '1_0'"),
    ("MARKOV +1 2 0", "expected integer variable count, got '\\+1'"),
    ("MARKOV 1 2 01 1 0 2 1 1", "expected integer function count, got '01'"),
    ("MARKOV 1 2 1 1 -0 2 1 1", "expected integer scope variable, got '-0'"),
    ("MARKOV 1 2 1 1 0 2 1 3\n7 7 7\n", "line 2: unexpected '7' after the last table"),
]

# each input the DIMACS parser rejects, with the message it gives
BAD_CNF = [
    ("p cnf 3\n1 0\n", "malformed problem line 'p cnf 3'"),
    ("p dnf 3 1\n1 0\n", "malformed problem line 'p dnf 3 1'"),
    ("p cnf x 1\n1 0\n", "malformed problem line 'p cnf x 1'"),
    ("p cnf 3 1.5\n1 0\n", "malformed problem line 'p cnf 3 1.5'"),
    ("c comment\n1 2 0\np cnf 2 1\n", "clause before 'p cnf' header"),
    ("p cnf \u0664 1\n1 0\n", "line 1: malformed problem line 'p cnf \u0664 1'"),
    ("p cnf 2 01\n1 0\n", "line 1: malformed problem line 'p cnf 2 01'"),
    ("p cnf 10 1\n1_0 0\n", "line 2: expected integer literal, got '1_0'"),
    ("p cnf 2 1\n+1 0\n", "line 2: expected integer literal, got '\\+1'"),
    ("p cnf 2 1\n1 \u0660\n", "line 2: expected integer literal, got '\u0660'"),
    ("p cnf 2 1\n1 -0\n", "line 2: expected integer literal, got '-0'"),
    # one header only: a second one, declaring fewer or more variables
    ("p cnf 3 1\n3 0\np cnf 1 1\n1 0\n", "line 3: second problem line 'p cnf 1 1'"),
    ("p cnf 1 1\n1 0\np cnf 3 1\n3 0\n", "line 3: second problem line 'p cnf 3 1'"),
]

# each evidence file the example's diagram rejects (8 variables), with the message
BAD_EVIDENCE = [
    ("1 \u0660 1\n", "line 1: expected integer evidence variable, got '\u0660'"),
    ("1\n0 1_0\n", "line 2: expected integer evidence value, got '1_0'"),
    ("+1 0 1\n", "line 1: expected integer evidence count, got '\\+1'"),
    ("1 01 1\n", "line 1: expected integer evidence variable, got '01'"),
    ("1 0 1 9 9 9\n", "line 1: unexpected '9' after the evidence pairs"),
    ("1\n0 1\n9\n", "line 3: unexpected '9' after the evidence pairs"),
]

# each order file the example rejects, with the message
BAD_ORDER = [
    ("x y\n", "line 1: expected integer order entry, got 'x'"),
    ("+1 0 2 3 4 5 6 7\n", "line 1: expected integer order entry, got '\\+1'"),
    ("0 1 2 3\n4 5 6 \u0667\n", "line 2: expected integer order entry, got '\u0667'"),
    ("0 1 2 3 4 5 6 07\n", "line 1: expected integer order entry, got '07'"),
    ("0 1 2 3 4 5 6\n\n1_0\n", "line 3: expected integer order entry, got '1_0'"),
]

# each assignment file the example rejects, with the message
BAD_ASSIGNMENT = [
    ("\u0660 1 1 0 1 1 1 1\n", "line 1: expected integer assignment value, got '\u0660'"),
    ("1 1 1 0\n1 1 1 +1\n", "line 2: expected integer assignment value, got '\\+1'"),
    ("1 1 1 0 1 1 1 01\n", "line 1: expected integer assignment value, got '01'"),
    ("1 1 1 0 1_1 1 1\n", "line 1: expected integer assignment value, got '1_1'"),
]


@pytest.fixture
def example_model():
    return parse_dimacs_cnf(EXAMPLE_CNF)


@pytest.fixture
def example_tree(example_model):
    g = build_primal_graph(example_model)
    return generate_pseudo_tree(g, EXAMPLE_ORDER)


def queens_model(n=4):
    """n-queens, one variable per column, value = row."""
    functions = []
    for i in range(n):
        for j in range(i + 1, n):
            values = []
            for a in range(n):
                for b in range(n):
                    values.append(0 if a == b or abs(a - b) == j - i else 1)
            functions.append(((i, j), values))
    return make_model([n] * n, functions, kind="constraint")


def all_pairs_equality_model(n, k):
    """Every pair of variables constrained to be equal (complete graph)."""
    eq = [1 if a == b else 0 for a in range(k) for b in range(k)]
    functions = [((i, j), eq) for i in range(n) for j in range(i + 1, n)]
    return make_model([k] * n, functions, kind="constraint")


def random_model(rng, weighted, max_product=1000):
    """Small random model with exact rational weights (or 0/1 tables)."""
    n = rng.randint(4, 8)
    domains = []
    product = 1
    for _ in range(n):
        k = rng.choice([2, 2, 3])
        if product * k > max_product:
            k = 2
        domains.append(k)
        product *= k
    functions = []
    for _ in range(rng.randint(1, 15)):
        arity = rng.randint(1, min(3, n))
        scope = rng.sample(range(n), arity)
        size = math.prod(domains[v] for v in scope)
        if weighted:
            values = [
                0 if rng.random() < 0.15 else Fraction(rng.randint(1, 16), 8)
                for _ in range(size)
            ]
        else:
            values = [0 if rng.random() < 0.3 else 1 for _ in range(size)]
        functions.append((scope, values))
    kind = "weighted" if weighted else "constraint"
    return make_model(domains, functions, kind=kind)


def random_cnf_text(rng):
    """Random small 3-CNF as DIMACS text."""
    n = rng.randint(5, 9)
    m = rng.randint(n, 2 * n)
    lines = ["p cnf %d %d" % (n, m)]
    for _ in range(m):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n + 1), width)
        lits = [v if rng.random() < 0.5 else -v for v in vs]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def per_clause_model(text):
    """The constraint model of DIMACS text with one 0/1 table per clause.

    The oracle for ``parse_dimacs_cnf``, which shares one table among
    the clauses over one variable set.  A clause's table is 1 wherever
    one of its literals holds, over its sorted variables; a tautology's
    table would be all 1s and is left out, and an empty clause's table
    is the constant 0.  Assumes well-formed input.
    """
    nvars = 0
    literals = []
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "p":
            nvars = int(toks[2])
        elif toks and toks[0] != "c":
            literals += map(int, toks)
    functions = []
    clause = []
    for lit in literals:
        if lit:
            clause.append(lit)
            continue
        scope = sorted({abs(l) - 1 for l in clause})
        values = [
            int(any(x[scope.index(abs(l) - 1)] == (l > 0) for l in clause))
            for x in itertools.product((0, 1), repeat=len(scope))
        ]
        if not all(values):
            functions.append((scope, values))
        clause = []
    return make_model([2] * nvars, functions, kind="constraint")


def compiles(model, tree=None):
    """Search, BE and bcp along ``tree`` (default: the model's own), by name."""
    return {
        "search": compile_search(model, tree),
        "be": compile_be(model, tree=tree),
        "bcp": compile_search(model, tree, hook=bcp_hook(model)),
    }


def bytes_and_counters(compiled):
    """Each compile's ``dumps``, and its ``CompileStats`` or BE's ``created_per_var``."""
    return {
        name: (dumps(d), d.table.created_per_var if d.stats is None else d.stats)
        for name, d in compiled.items()
    }


def shuffled_chain_cnf_text(n, seed):
    """Equality chain over shuffled variable ids as DIMACS text.

    Two clauses per link, in seeded clause and literal order: the same
    construction as the benchmark's ``chain`` workload.
    """
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    clauses = []
    for a, b in zip(perm, perm[1:]):
        clauses += [[-a, b], [a, -b]]
    for c in clauses:
        rng.shuffle(c)
    rng.shuffle(clauses)
    lines = ["p cnf %d %d" % (n, len(clauses))]
    lines += [" ".join(str(l) for l in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def loaded_tree_models():
    """The loaded-tree corpus: three small bench workloads and 60 random models."""
    workloads = bench_workloads()
    small = [workloads.grid(1, side=4), workloads.chain(1, n=40), workloads.cnf(1, n=16, m=48)]
    models = [
        (parse_uai if w.model_file.endswith(".uai") else parse_dimacs_cnf)(w.model_text)
        for w in small
    ]
    rng = seeded_rng(61)
    return models + [random_model(rng, weighted=i % 2 == 0) for i in range(60)]


def open_nodes(table):
    """The nodes interned at a unique table's open variables, sorted by ``uid``.

    A search compile leaves every variable open, so these are all the
    nodes it made; a BE compile closes every variable, which leaves none.
    The order is creation order, children first, until a diagram
    renumbers the nodes it reaches; it stays children first after.
    """
    nodes = [u for level in table._levels if level for u in level.values()]
    return sorted(nodes, key=attrgetter("uid"))


def seeded_rng(seed):
    return random.Random(seed)


def _bench_module(name, file):
    """``bench/<file>.py`` loaded by path as the module ``name``, once."""
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / (file + ".py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve the module by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def bench_workloads():
    """The benchmark's workload generators (``bench/workloads.py``), loaded by path."""
    return _bench_module("bench_workloads", "workloads")


def bench_tracing():
    """The benchmark's tracer (``bench/tracing.py``), loaded by path.

    It imports ``harness`` by name, so that is loaded first, under it.
    """
    _bench_module("harness", "harness")
    return _bench_module("tracing", "tracing")


def recorded_walks(monkeypatch):
    """Patch the walk from the roots; return a list of ``(visits, reached)`` per walk.

    A visit is one read of the evidence, which the walk makes once for
    each node whose arcs it follows.
    """
    from aomdd import diagram, query

    walks = []
    walk = diagram.reached_nodes

    def recording(roots, evidence):
        visits = 0

        class Counting(dict):
            def get(self, *args):
                nonlocal visits
                visits += 1
                return dict.get(self, *args)

        nodes = walk(roots, Counting(evidence))
        walks.append((visits, len(nodes)))
        return nodes

    monkeypatch.setattr(diagram, "reached_nodes", recording)
    monkeypatch.setattr(query, "reached_nodes", recording)
    return walks


class BenchCompiles(dict):
    """The seed-1 bench workloads and their compiles, each made on first use.

    ``self[name]`` is the workload ``name`` ("grid", "chain" or "cnf")
    and ``self[name, method]`` its model compiled by "search", "be" or
    "bcp" (search with ``bcp_hook``, on the chain's ``bcp_model_text``).
    ``walks[name, method]`` lists the walks from the roots that compile
    made, as ``recorded_walks`` gives them, ``applies[name, method]``
    counts its calls of ``apply_fragments``, ``products[name, method]``
    its node products, the calls of ``be_compiler._apply_node``, and
    ``groupings[name, method]`` its ``be_compiler.group_descendants``
    calls.
    """

    def __init__(self):
        super().__init__()
        self.walks = {}
        self.applies = {}
        self.products = {}
        self.groupings = {}

    def __missing__(self, key):
        if isinstance(key, str):
            value = getattr(bench_workloads(), key)(1)
        else:
            name, method = key
            workload = self[name]
            text = workload.model_text
            if method == "bcp":
                text = workload.bcp_model_text or text
            model = (parse_uai if workload.model_file.endswith(".uai") else parse_dimacs_cnf)(text)
            apply_fragments, apply_node, group = (
                be_compiler.apply_fragments,
                be_compiler._apply_node,
                be_compiler.group_descendants,
            )
            self.applies[key] = self.products[key] = self.groupings[key] = 0

            def counting(*args):
                self.applies[key] += 1
                return apply_fragments(*args)

            def product(*args):
                self.products[key] += 1
                return apply_node(*args)

            def grouping(*args):
                self.groupings[key] += 1
                return group(*args)

            with pytest.MonkeyPatch.context() as patched:
                self.walks[key] = recorded_walks(patched)
                patched.setattr(be_compiler, "apply_fragments", counting)
                patched.setattr(be_compiler, "_apply_node", product)
                patched.setattr(be_compiler, "group_descendants", grouping)
                if method == "be":
                    value = compile_be(model)
                else:
                    value = compile_search(model, hook=bcp_hook(model) if method == "bcp" else None)
        self[key] = value
        return value


@pytest.fixture(scope="session")
def bench_compiles():
    """One ``BenchCompiles`` per session: tests share its diagrams, so none may change one."""
    return BenchCompiles()
