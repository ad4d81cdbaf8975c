"""Seeded workload generators and the benchmark's own reference answers.

Each workload is written as plain model, evidence and assignment files;
the program only ever sees those files.  Reference answers come from
code in this file (grid variable elimination, a DPLL model counter, the
closed form of an equality chain, and a direct product of the tables),
never from the package's compilers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Base formula of the ``cnf`` workload.  The run seed only flips
# polarities and shuffles clause and literal order, which keeps the
# primal graph, the min-fill ordering and every trace count unchanged.
CNF_BASE_SEED = 5
# Base tables of the ``grid`` workload.
GRID_BASE_SEED = 1
# Variable ids of the ``chain`` workload.  The run seed only shuffles
# clause and literal order and draws the assignment: relabelling the ids
# changes min-fill's tie-breaks, and with them the pseudo tree's height
# and the compile times (by up to 30% for ``--prune bcp``).
CHAIN_BASE_SEED = 1


@dataclass
class Workload:
    """Files to write plus the reference answers for them."""

    name: str
    model_file: str
    model_text: str
    evidence_text: str
    assignment: list
    count: int
    sum: Fraction
    mpe: Fraction
    eval: Fraction
    # weight of a full assignment, used to check the MPE witness
    weight_of: object = field(repr=False)
    # model compiled by ``--prune bcp`` when it is not the main model
    bcp_model_text: str = None


def _evidence_text(evidence):
    pairs = "".join(" %d %d" % (v, x) for v, x in sorted(evidence.items()))
    return "%d%s\n" % (len(evidence), pairs)


# ---------------------------------------------------------------- grid


def grid(seed, side=9):
    """Weighted side x side binary grid, row-major ids, entries k/4, k in 1..9.

    The tables come from a fixed base seed.  The run seed relabels the
    two values of some variables, which permutes table entries but keeps
    the diagram's size; it also draws the evidence and the assignment.
    """
    base = random.Random(GRID_BASE_SEED)
    n = side * side
    unary = [(base.randint(1, 9), base.randint(1, 9)) for _ in range(n)]
    left = {}  # cell -> 2x2 table with its left neighbour, scope (i-1, i)
    up = {}  # cell -> 2x2 table with the cell above, scope (i-side, i)
    for i in range(n):
        if i % side:
            left[i] = tuple(base.randint(1, 9) for _ in range(4))
    for i in range(side, n):
        up[i] = tuple(base.randint(1, 9) for _ in range(4))
    rng = random.Random(seed)
    flip = [rng.randint(0, 1) for _ in range(n)]
    unary = [t[::-1] if flip[i] else t for i, t in enumerate(unary)]
    for pairs, other in ((left, lambda i: i - 1), (up, lambda i: i - side)):
        for i, t in pairs.items():
            a, b = flip[other(i)], flip[i]
            pairs[i] = tuple(t[2 * (x ^ a) + (y ^ b)] for x in (0, 1) for y in (0, 1))
    scale = Fraction(1, 4 ** (n + len(left) + len(up)))

    def value_str(k):
        return str(k / 4).rstrip("0").rstrip(".")

    scopes = [(i,) for i in range(n)]
    scopes += [(i - 1, i) for i in sorted(left)]
    scopes += [(i - side, i) for i in sorted(up)]
    tables = [unary[i] for i in range(n)]
    tables += [left[i] for i in sorted(left)]
    tables += [up[i] for i in sorted(up)]
    lines = ["MARKOV", str(n), " ".join(["2"] * n), str(len(scopes))]
    lines += ["%d %s" % (len(s), " ".join(map(str, s))) for s in scopes]
    for t in tables:
        lines.append("%d %s" % (len(t), " ".join(value_str(k) for k in t)))
    model_text = "\n".join(lines) + "\n"

    def weight_of(x):
        w = 1
        for i in range(n):
            w *= unary[i][x[i]]
        for i, t in left.items():
            w *= t[2 * x[i - 1] + x[i]]
        for i, t in up.items():
            w *= t[2 * x[i - side] + x[i]]
        return w * scale

    def eliminate(evidence, combine):
        # Row-major variable elimination: the state holds the last
        # ``side`` cells, cell i-1 in bit 0 and cell i-side in the top bit.
        mask = (1 << side) - 1
        top = side - 1
        table = {0: 1}
        for i in range(n):
            fixed = evidence.get(i)
            out = {}
            for s, w in table.items():
                for x in (0, 1):
                    if fixed is not None and x != fixed:
                        continue
                    v = w * unary[i][x]
                    if i in left:
                        v *= left[i][2 * (s & 1) + x]
                    if i in up:
                        v *= up[i][2 * (s >> top & 1) + x]
                    key = (s << 1 | x) & mask
                    old = out.get(key)
                    out[key] = v if old is None else combine(old, v)
            table = out
        total = None
        for v in table.values():
            total = v if total is None else combine(total, v)
        return total * scale

    evidence = {v: rng.randint(0, 1) for v in rng.sample(range(n), 4)}
    assignment = [rng.randint(0, 1) for _ in range(n)]
    return Workload(
        name="grid",
        model_file="model.uai",
        model_text=model_text,
        evidence_text=_evidence_text(evidence),
        assignment=assignment,
        count=2**n,
        sum=eliminate(evidence, lambda a, b: a + b),
        mpe=eliminate({}, max),
        eval=weight_of(assignment),
        weight_of=weight_of,
    )


# ----------------------------------------------------------------- cnf


def _dimacs(n, clauses):
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return "p cnf %d %d\n%s" % (n, len(clauses), body)


def _cnf_weight(clauses):
    def weight_of(x):
        for c in clauses:
            if not any((x[abs(l) - 1] == 1) == (l > 0) for l in c):
                return 0
        return 1

    return weight_of


def dpll_count(n, clauses, evidence=None):
    """Number of models of a CNF consistent with ``evidence`` {var0: 0/1}."""
    units = [v + 1 if x else -(v + 1) for v, x in (evidence or {}).items()]
    return _count([tuple(c) for c in clauses] + [(u,) for u in units], n)


def _count(clauses, free):
    # unit propagation, then branch on a literal of a shortest clause
    while True:
        if not clauses:
            return 1 << free
        unit = None
        for c in clauses:
            if not c:
                return 0
            if len(c) == 1:
                unit = c[0]
                break
        if unit is None:
            break
        clauses = _assign(clauses, unit)
        free -= 1
    lit = min(clauses, key=len)[0]
    return _count(_assign(clauses, lit), free - 1) + _count(
        _assign(clauses, -lit), free - 1
    )


def _assign(clauses, lit):
    return [tuple(l for l in c if l != -lit) for c in clauses if lit not in c]


def _first_model(n, clauses, rng):
    """A model found by seeded branching, or None when unsatisfiable."""
    x = [None] * n

    def search(clauses):
        if not clauses:
            return True
        if any(not c for c in clauses):
            return False
        shortest = min(clauses, key=len)
        lit = shortest[0]
        if len(shortest) > 1 and rng.random() < 0.5:
            lit = -lit
        for choice in (lit, -lit):
            x[abs(choice) - 1] = 1 if choice > 0 else 0
            if search(_assign(clauses, choice)):
                return True
        x[abs(lit) - 1] = None
        return False

    if not search([tuple(c) for c in clauses]):
        return None
    return [rng.randint(0, 1) if v is None else v for v in x]


def cnf(seed, n=36, m=108):
    """Random 3-CNF (fixed base formula) with seeded polarity and order."""
    base = random.Random(CNF_BASE_SEED)
    clauses = []
    for _ in range(m):
        vs = base.sample(range(1, n + 1), 3)
        clauses.append([v if base.random() < 0.5 else -v for v in vs])
    rng = random.Random(seed)
    flip = [rng.random() < 0.5 for _ in range(n + 1)]
    clauses = [[-l if flip[abs(l)] else l for l in c] for c in clauses]
    for c in clauses:
        rng.shuffle(c)
    rng.shuffle(clauses)
    count = dpll_count(n, clauses)
    evidence = {v: rng.randint(0, 1) for v in rng.sample(range(n), 2)}
    assignment = _first_model(n, clauses, rng)
    if assignment is None:
        assignment = [rng.randint(0, 1) for _ in range(n)]
    weight_of = _cnf_weight(clauses)
    return Workload(
        name="cnf",
        model_file="model.cnf",
        model_text=_dimacs(n, clauses),
        evidence_text=_evidence_text(evidence),
        assignment=assignment,
        count=count,
        sum=Fraction(dpll_count(n, clauses, evidence)),
        mpe=Fraction(1 if count else 0),
        eval=Fraction(weight_of(assignment)),
        weight_of=weight_of,
    )


# --------------------------------------------------------------- chain


def _chain_clauses(n, rng):
    perm = list(range(1, n + 1))
    random.Random(CHAIN_BASE_SEED).shuffle(perm)
    clauses = []
    for a, b in zip(perm, perm[1:]):
        clauses += [[-a, b], [a, -b]]
    for c in clauses:
        rng.shuffle(c)
    rng.shuffle(clauses)
    return clauses


def chain(seed, n=2000, bcp_n=150):
    """Equality chain over fixed variable ids, two clauses per link, in
    seeded clause and literal order.

    ``--prune bcp`` compiles a ``bcp_n``-variable chain instead: its
    time grows about as n^2.9, so the full chain would take half an hour.
    """
    rng = random.Random(seed)
    clauses = _chain_clauses(n, rng)
    value = rng.randint(0, 1)
    assignment = [value] * n
    if rng.random() < 0.5:
        assignment[rng.randrange(n)] = 1 - value
    weight_of = _cnf_weight(clauses)
    return Workload(
        name="chain",
        model_file="model.cnf",
        model_text=_dimacs(n, clauses),
        evidence_text=_evidence_text({}),
        assignment=assignment,
        count=2,
        sum=Fraction(2),
        mpe=Fraction(1),
        eval=Fraction(weight_of(assignment)),
        weight_of=weight_of,
        bcp_model_text=_dimacs(bcp_n, _chain_clauses(bcp_n, rng)),
    )


WORKLOADS = {"grid": grid, "cnf": cnf, "chain": chain}
