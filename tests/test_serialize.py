import io
import itertools
import re
from fractions import Fraction
from math import gcd

import pytest

from aomdd import (
    ParseError,
    StructuralError,
    bcp_hook,
    build_primal_graph,
    chain_pseudo_tree,
    compile_be,
    compile_search,
    count_solutions,
    count_stats,
    dumps,
    evaluate,
    generate_pseudo_tree,
    loads,
    make_model,
    min_fill_ordering,
    parse_dimacs_cnf,
    parse_uai,
    structural_equal,
    sum_over,
)
from aomdd import model, serialize
from aomdd.cli import main
from aomdd.diagram import Aomdd, MetaNode, reachable_nodes
from aomdd.serialize import to_dot, weight_strs
from aomdd.structure import compute_contexts

import serialize_reference
from conftest import bench_workloads, loaded_tree_models, random_model, seeded_rng

# dumps of a one-variable model with unary table [1/2, 3/2]
UNARY = """\
aomdd 1
mode weighted
vars 1
domains 2
parents -1
dfs 0
nodes 1
n 0 0 1/4:. 3/4:.
roots 0
constant 2
"""

# f(x0, x1, x2) = [x1 = 1][x2 = 1] on the tree 0 -> {2, 1}: var 1 sits
# after var 2 in DFS order, so its record comes first
STAR = """\
aomdd 1
mode constraint
vars 3
domains 2 2 2
parents -1 0 0
dfs 0 2 1
nodes 2
n 0 1 0:. 1:.
n 1 2 0:. 1:.
roots 1 0
constant 1
"""


def _split(text):
    """Canonical text as (head lines, records, roots, tail lines).

    A record is ``[var, [(weight, [child records]), ...]]``.  Children
    and roots hold the record lists themselves, so editing the record
    list renumbers every id when ``_join`` writes the text back.
    """
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("nodes "))
    records = []
    for line in lines[start + 1:start + 1 + int(lines[start].split()[1])]:
        _, _, var, *arcs = line.split()
        rec = [var, []]
        for arc in arcs:
            w, kids = arc.split(":")
            rec[1].append(
                (w, [] if kids == "." else [records[int(c)] for c in kids.split(",")])
            )
        records.append(rec)
    end = start + 1 + len(records)
    rtoks = lines[end].split()[1:]
    roots = [] if rtoks == ["."] else [records[int(r)] for r in rtoks]
    return lines[:start], records, roots, lines[end + 1:]


def _join(head, records, roots, tail):
    ids = {id(r): str(i) for i, r in enumerate(records)}
    out = head + ["nodes %d" % len(records)]
    for i, (var, arcs) in enumerate(records):
        fields = ["n", str(i), var]
        for w, kids in arcs:
            fields.append("%s:%s" % (w, ",".join(ids[id(c)] for c in kids) or "."))
        out.append(" ".join(fields))
    out.append("roots " + (" ".join(ids[id(r)] for r in roots) or "."))
    return "\n".join(out + tail) + "\n"


def test_round_trip(example_model, example_tree):
    a = compile_search(example_model, example_tree)
    b = loads(dumps(a))
    assert structural_equal(a, b)
    assert count_stats(a) == count_stats(b)
    assert dumps(b) == dumps(a)


def test_round_trip_randomized():
    rng = seeded_rng(51)
    for _ in range(20):
        m = random_model(rng, weighted=rng.random() < 0.5)
        a = compile_search(m)
        b = loads(dumps(a))
        assert structural_equal(a, b)
        assert dumps(b) == dumps(a)
        # every record is one node whose uid is its record id; no table is built
        assert b.table is None
        nodes = reachable_nodes(b)
        assert len(nodes) == count_stats(a)["total_meta_nodes"]
        assert [u.uid for u in nodes] == list(range(len(nodes)))
        records = [line.split() for line in dumps(b).splitlines() if line.startswith("n ")]
        assert [(str(u.uid), str(u.var)) for u in nodes] == [tuple(r[1:3]) for r in records]


def test_cross_compiler_bytes(example_model, example_tree):
    a = compile_search(example_model, example_tree)
    b = compile_be(example_model, d=list(range(8)), tree=example_tree)
    assert dumps(a) == dumps(b)


TREE_FIELDS = (
    "parent", "children", "root", "dfs_order", "dfs_index", "depth_of", "subtree_end"
)


def test_compiling_along_a_loaded_tree():
    # a tree read back by ``loads`` carries no contexts: the compilers
    # build them from the model and the tree's parents
    for m in loaded_tree_models():
        g = build_primal_graph(m)
        d = min_fill_ordering(g)
        for tree in (generate_pseudo_tree(g, d), chain_pseudo_tree(g, d)):
            text = dumps(compile_search(m, tree))
            loaded = loads(text).tree
            assert loaded.context is None
            for name in TREE_FIELDS:
                assert getattr(loaded, name) == getattr(tree, name), name
            assert compute_contexts(loaded, g) == tree.context
            assert dumps(compile_search(m, loaded)) == text
            assert dumps(compile_be(m, tree=loaded)) == text


def test_structural_equal_on_one_table(example_model, example_tree):
    a = compile_search(example_model, example_tree)
    assert structural_equal(a, a)
    assert not structural_equal(a, Aomdd(a.tree, a.domains, (), a.constant, a.table, a.weighted))


def test_terminal_round_trip():
    unsat = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    a = compile_search(unsat)
    b = loads(dumps(a))
    assert not b.roots
    assert b.constant == 0


def test_loads_rejects_garbage():
    with pytest.raises(ParseError):
        loads("not a diagram\n")
    with pytest.raises(ParseError):
        loads("aomdd 2\n")


def test_loads_bytes(example_model, example_tree):
    text = dumps(compile_search(example_model, example_tree))
    assert dumps(loads(text.encode("utf-8"))) == text
    with pytest.raises(ParseError, match="UTF-8"):
        loads(b"\xff\xfe")


def test_split_join_round_trip(example_model, example_tree):
    text = dumps(compile_search(example_model, example_tree))
    assert _join(*_split(text)) == text
    assert dumps(compile_search(make_model([2], [((0,), [Fraction(1, 2), Fraction(3, 2)])]))) == UNARY
    assert loads(UNARY).constant == 2
    chain = make_model([2, 2, 2], [((0,), [1, 3]), ((0, 1), [1, 2, 3, 4]), ((1, 2), [2, 1, 1, 5])])
    assert dumps(compile_search(chain)) == CHAIN
    assert count_solutions(loads(STAR)) == 2


def test_loads_rejects_non_canonical(example_model, example_tree):
    # a copy of the first record right after it, ids kept dense: a real
    # isomorph, caught by the signature order
    head, records, roots, tail = _split(dumps(compile_search(example_model, example_tree)))
    var, arcs = records[0]
    records.insert(1, [var, list(arcs)])
    with pytest.raises(StructuralError, match="canonical order"):
        loads(_join(head, records, roots, tail))


def test_loads_rejects_swapped_records(example_model, example_tree):
    head, records, roots, tail = _split(dumps(compile_search(example_model, example_tree)))
    assert records[0][0] == records[1][0]
    records[0], records[1] = records[1], records[0]
    with pytest.raises(StructuralError, match="canonical order"):
        loads(_join(head, records, roots, tail))


def test_loads_rejects_unreachable_record():
    head, records, roots, tail = _split(UNARY)
    records.insert(0, ["0", [("1/3", []), ("2/3", [])]])
    text = _join(head, records, roots, tail)
    assert "n 0 0 1/3:. 2/3:.\nn 1 0 1/4:. 3/4:.\nroots 1\n" in text
    with pytest.raises(StructuralError, match="unreachable"):
        loads(text)


@pytest.mark.parametrize(
    "arcs, error",
    [
        ("2/8:. 3/4:.", ParseError),
        ("1/4:. 5/4:.", StructuralError),  # one denominator, but the weights do not sum to 1
        ("0.25:. 3/4:.", ParseError),
        ("1/4:. 0.75:.", ParseError),
        ("-1:. 2:.", ParseError),
        ("1/4:. 3/4:. 0:.", StructuralError),
        ("1e5000:. 3/4:.", ParseError),  # an exponent too large for str(int)
        ("2/8:. 6/8:.", ParseError),  # unreduced, but summing to 1
        ("1/4:. 6/8:.", ParseError),  # two denominators
        ("1/4:. 1/2:.", StructuralError),  # two denominators, not summing to 1
        ("01/4:. 3/4:.", ParseError),
        ("+1/4:. 3/4:.", ParseError),
        ("1/4:. 03/4:.", ParseError),
        ("1/4:. -3/4:.", ParseError),
        ("1/4:. 3/04:.", ParseError),
        ("0/4:. 4/4:.", ParseError),
        ("1/1:. 0/1:.", ParseError),  # a denominator of 1 is spelled without one
        ("1/4:x 3/04:.", ParseError),  # no record 'x', and a padded denominator
    ],
)
def test_loads_rejects_weight_spelling(arcs, error):
    # a weighted pair is checked as one record; it fails as the reference fails
    text = UNARY.replace("1/4:. 3/4:.", arcs)
    with pytest.raises(error):
        loads(text)
    assert _kind(_read_with(serialize_reference.loads, text)) is error


@pytest.mark.parametrize(
    "old,new",
    [
        ("constant 2", "constant 4/2"),
        ("constant 2", "constant 0"),
        ("constant 2", "constant -2"),
        ("roots 0", "roots 0 0"),
        ("roots 0", "roots"),
        ("constant 2\n", "constant 2\nroots 0\n"),
    ],
)
def test_loads_rejects_bad_tail(old, new):
    with pytest.raises((ParseError, StructuralError)):
        loads(UNARY.replace(old, new))


@pytest.mark.parametrize(
    "old,new",
    [
        ("aomdd 1", "aomdd 1 1"),
        ("mode weighted", "mode"),
        ("vars 1", "vars 1 1"),
        ("domains 2", "domains 2 2"),
        ("parents -1", "parents"),
        ("dfs 0", "dfs 0 0"),
        ("nodes 1", "nodes"),
    ],
)
def test_loads_rejects_header_field_count(old, new, tmp_path, capsys):
    text = UNARY.replace(old, new)
    message = "%r record needs" % old.split()[0]
    with pytest.raises(ParseError, match=message):
        loads(text)
    path = tmp_path / "bad.aomdd"
    path.write_text(text)
    assert main(["query", str(path), "--query", "sum"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new",
    [
        # the child of var 2's node is on var 1, outside var 2's subtree
        ("n 1 2 0:. 1:.\nroots 1 0", "n 1 2 0:. 1:0\nroots 1"),
        # the same with dfs 0 1 2: var 2's block may not precede var 1's
        ("dfs 0 2 1", "dfs 0 1 2"),
        # roots out of DFS order
        ("roots 1 0", "roots 0 1"),
        ("roots 1 0", "roots 1 0 0"),
        # a zero-weight arc with children, and a redundant node
        ("n 1 2 0:. 1:.\nroots 1 0", "n 1 2 0:0 1:.\nroots 1"),
        ("n 0 1 0:. 1:.", "n 0 1 1:. 1:."),
        ("n 0 1 0:. 1:.", "n 0 1 0:. 0:."),
        ("n 0 1 0:. 1:.", "n 0 1 0:. 1:. 0:."),
    ],
)
def test_loads_rejects_structure(old, new):
    assert old in STAR
    with pytest.raises((ParseError, StructuralError)):
        loads(STAR.replace(old, new))


@pytest.mark.parametrize(
    "old,new",
    [
        ("vars 3", "vars x"),
        ("vars 3", "vars 03"),
        ("domains 2 2 2", "domains 2 two 2"),
        ("domains 2 2 2", "domains 2 0 2"),
        ("parents -1 0 0", "parents -1 0 zero"),
        ("parents -1 0 0", "parents -1 0 3"),
        ("parents -1 0 0", "parents -1 0 -3"),
        ("parents -1 0 0", "parents -1 0 -1"),
        ("parents -1 0 0", "parents -1 2 1"),
        ("parents -1 0 0", "parents -1 1 0"),  # a vertex is its own parent
        ("dfs 0 2 1", "dfs 0 2 2"),
        ("dfs 0 2 1", "dfs 0 1 3"),
        ("dfs 0 2 1", "dfs 2 0 1"),  # the root is not first
        # the first dfs entry lies on a parent cycle
        ("parents -1 0 0\ndfs 0 2 1", "parents -1 2 1\ndfs 1 2 0"),
        ("nodes 2", "nodes 99999999999"),
        ("n 1 2", "n 01 2"),
        ("n 1 2", "n 1 +2"),
    ],
)
def test_loads_header_errors_are_parse_errors(old, new):
    assert old in STAR
    with pytest.raises(ParseError):
        loads(STAR.replace(old, new))


def _mutate(text, rng):
    """Change a token, drop a line, or swap the child lists of two arcs."""
    lines = text.splitlines()
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(len(lines))
        fields = lines[i].split()
        j = rng.randrange(len(fields))
        tok = rng.choice(["0", "1", "-1", "2", ".", "1/2", "2/4", "0.5", "x", "1:.", "0:0"])
        if ":" in fields[j] and rng.random() < 0.5:
            w, kids = fields[j].split(":")
            tok = w + ":" + (tok if rng.random() < 0.5 else kids.replace("1", "2"))
        fields[j] = tok
        lines[i] = " ".join(fields)
    elif kind == 1:
        del lines[rng.randrange(len(lines))]
    else:
        arcs = [(i, j) for i, l in enumerate(lines) for j, t in enumerate(l.split()) if ":" in t]
        if len(arcs) < 2:
            return None
        (i1, j1), (i2, j2) = rng.sample(arcs, 2)
        f1 = lines[i1].split()
        f2 = f1 if i1 == i2 else lines[i2].split()
        (w1, k1), (w2, k2) = f1[j1].split(":"), f2[j2].split(":")
        f1[j1], f2[j2] = w1 + ":" + k2, w2 + ":" + k1
        lines[i1], lines[i2] = " ".join(f1), " ".join(f2)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "count, message", [("1000000000", "node count must be < "), ("5", "expected 'n'")]
)
def test_loads_rejects_node_count_past_records(count, message):
    # a count past the text's length is refused before anything is allocated
    with pytest.raises(ParseError, match=message):
        loads(UNARY.replace("nodes 1", "nodes " + count))


@pytest.mark.parametrize("chunk", [1, 7, model._CHUNK])
@pytest.mark.parametrize("brk", ["\r\n", "\r", "\f", "\x1e", "\u2028"])
def test_loads_breaks_lines_as_splitlines_does(monkeypatch, brk, chunk):
    # lines break where str.splitlines breaks them, also across the reader's chunks
    monkeypatch.setattr(model, "_CHUNK", chunk)
    assert dumps(loads(STAR.replace("\n", brk))) == STAR
    bad = STAR.replace("n 1 2", "n 1 x").replace("\n", brk)
    with pytest.raises(ParseError, match="line 9: bad node variable"):
        loads(bad)
    # a line break inside a record splits it
    with pytest.raises(StructuralError):
        loads(STAR.replace("n 0 1 0:. ", "n 0 1 0:." + brk))


def test_loads_mutation_fuzz():
    """Every mutant of a valid file is rejected or is itself canonical."""
    rng = seeded_rng(97)
    texts = [dumps(compile_search(random_model(rng, rng.random() < 0.5))) for _ in range(30)]
    accepted = 0
    for _ in range(600):
        mutant = _mutate(rng.choice(texts), rng)
        if mutant is None:
            continue
        try:
            d = loads(mutant)
        except (ParseError, StructuralError):
            continue
        accepted += 1
        assert dumps(d).split() == mutant.split()
        values = [evaluate(d, list(x)) for x in itertools.product(*map(range, d.domains))]
        assert sum_over(d) == sum(values)
        assert count_solutions(d) == sum(1 for v in values if v)
    assert accepted > 0


# The reference words an error in a header integer "bad <what> <token>";
# the package's one integer reader names the integer it expected, or its
# bound.  Both wordings read as one phrase, so every other message must
# match word for word.
_HEADER_INTEGER = re.compile(
    r"(line \d+: )(?:bad (?:variable count|domain size|parent|dfs entry|node count) "
    r"|expected integer |[a-z ]+ must be [<>])"
)


def _read_with(reader, text):
    """``(error class, message)`` of what ``reader`` raises on ``text``, or the parts of its diagram."""
    try:
        d = reader(text)
    except (ParseError, StructuralError) as exc:
        words = _HEADER_INTEGER.match(str(exc))
        return type(exc), words.group(1) + "bad header integer" if words else str(exc)
    # every record is reachable: these are the nodes the reference's table holds
    return (
        [(u.var, [(w, [c.uid for c in kids]) for w, kids in u.arcs], u.uid)
         for u in reachable_nodes(d)],
        [getattr(d.tree, name) for name in TREE_FIELDS + ("context",)],
        [u.uid for u in d.roots],
        (d.constant, type(d.constant)),
        d.domains,
        d.weighted,
    )


def _kind(outcome):
    """The error class of a ``_read_with`` outcome, or "accepted"."""
    return outcome[0] if len(outcome) == 2 else "accepted"


def _corpus_diagrams():
    """Search, BE and bcp compiles of random models and terminal diagrams."""
    models = loaded_tree_models()
    # 3-valued variables whose records spell arcs over unequal denominators
    models.append(make_model([3, 3], [((0,), [1, 2, 5]), ((0, 1), [1, 1, 2, 3, 1, 0, 0, 4, 4])]))
    # terminal diagrams: always 0, and a constant
    models.append(parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n"))
    models.append(make_model([2, 3], [((), [Fraction(2, 3)])]))
    diagrams = []
    for m in models:
        diagrams.append(compile_search(m))
        diagrams.append(compile_be(m))
        diagrams.append(compile_search(m, hook=bcp_hook(m)))
    return diagrams


def _reader_corpus():
    """Valid files: the dumps of ``_corpus_diagrams``."""
    return [dumps(d) for d in _corpus_diagrams()]


def _unequal_denominators(text):
    return any(
        len({tok.split(":")[0].partition("/")[2] for tok in line.split()[3:]}) > 1
        for line in text.splitlines()
        if line.startswith("n ")
    )


def test_loads_matches_the_reference_on_valid_files():
    texts = _reader_corpus()
    for text in texts:
        got = _read_with(loads, text)
        assert got == _read_with(serialize_reference.loads, text)
        assert _kind(got) == "accepted"
    assert sum(map(_unequal_denominators, texts)) > 0
    assert sum("roots .\n" in text for text in texts) >= 2


def _renumber(text, rng):
    """Give one ``n/d`` weight another numerator over the same denominator."""
    lines = text.splitlines()
    arcs = [
        (i, j) for i, l in enumerate(lines) if l.startswith("n ")
        for j, t in enumerate(l.split()) if "/" in t
    ]
    if not arcs:
        return None
    i, j = rng.choice(arcs)
    fields = lines[i].split()
    w, kids = fields[j].split(":")
    den = int(w.partition("/")[2])
    num = 0
    while gcd(num, den) != 1:
        num = rng.randrange(1, 2 * den)
    fields[j] = "%d/%d:%s" % (num, den, kids)
    lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_loads_matches_the_reference_on_mutants():
    rng = seeded_rng(98)
    texts = _reader_corpus()
    outcomes = set()
    for k in range(2000):
        mutant = (_mutate if k % 4 else _renumber)(rng.choice(texts), rng)
        if mutant is None:
            continue
        want = _read_with(serialize_reference.loads, mutant)
        assert _read_with(loads, mutant) == want
        outcomes.add(_kind(want))
    assert outcomes == {ParseError, StructuralError, "accepted"}


# dumps of a weighted chain 0 -> 1 -> 2, with child lists
CHAIN = """\
aomdd 1
mode weighted
vars 3
domains 2 2 2
parents -1 0 1
dfs 0 1 2
nodes 5
n 0 2 1/6:. 5/6:.
n 1 2 2/3:. 1/3:.
n 2 1 1/5:1 4/5:0
n 3 1 3/11:1 8/11:0
n 4 0 5/38:2 33/38:3
roots 4
constant 114
"""


@pytest.mark.parametrize(
    "arcs, kind",
    [
        ("01/4:. 3/4:.", ParseError),
        ("+1/4:. 3/4:.", ParseError),
        ("\u0661/4:. 3/4:.", ParseError),  # an Arabic-Indic digit one
        ("1/4 3/4:.", ParseError),  # an arc with no ':'
        ("1/4: 3/4:.", ParseError),  # an empty child list
        ("2/4:. 2/4:.", ParseError),  # summing to 1, but not reduced
        ("1/2:. 1/2:.", StructuralError),  # canonical weights, but redundant
        ("1/3:. 2/4:.", ParseError),  # two denominators
    ],
)
def test_loads_reads_a_refused_pair_as_the_reference_does(arcs, kind):
    # the one-step pair read refuses each record, and the per-token read
    # gives the reference's error, word for word
    text = UNARY.replace("1/4:. 3/4:.", arcs)
    want = _read_with(serialize_reference.loads, text)
    assert _read_with(loads, text) == want
    assert _kind(want) is kind


@pytest.mark.parametrize(
    "old, new",
    [
        (" ", "\t"),
        (" ", "  "),
        ("\n", "\r\n"),
        ("n 0 2 1/6:. 5/6:.\n", "n 0 2\t1/6:. 5/6:.\n"),  # the first record only
        ("n 2 1 1/5:1 4/5:0\n", "n 2 1  1/5:1 4/5:0\n"),  # a middle record only
    ],
)
@pytest.mark.parametrize(
    "fault", [None, ("n 3 1 3/11:1 8/11:0", "n 3 1 3/11:1 08/11:0"), ("roots 4", "roots x")]
)
def test_loads_reads_respaced_records_as_the_reference_does(old, new, fault):
    # a record with other whitespace than dumps writes is read token by
    # token; the records after it keep their outcome and line numbers
    text = CHAIN if fault is None else CHAIN.replace(*fault)
    if old == " ":
        text = "".join(line.replace(old, new) if line.startswith("n ") else line
                       for line in text.splitlines(True))
    else:
        text = text.replace(old, new)
    want = _read_with(serialize_reference.loads, text)
    assert _read_with(loads, text) == want
    assert _kind(want) == ("accepted" if fault is None else ParseError)


def test_loads_takes_one_gcd_per_weighted_pair(monkeypatch):
    text = dumps(compile_search(parse_uai(bench_workloads().grid(1).model_text)))
    records = [line.split()[3:] for line in text.splitlines() if line.startswith("n ")]
    # every grid record is a weighted pair over one denominator, and so is the constant
    assert all(len(r) == 2 and all(tok.count("/") == 1 for tok in r) for r in records)
    assert "/" in text.rsplit("constant ", 1)[1]
    # a copy whose records are tab-separated is read token by token
    tabbed = "".join(
        line.replace(" ", "\t") if line.startswith("n ") else line
        for line in text.splitlines(True)
    )
    for module, source, want in (
        (serialize, text, len(records) + 1),
        (serialize, tabbed, 18546),
        (serialize_reference, text, 18546),
    ):
        calls = []
        monkeypatch.setattr(module, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        assert dumps(module.loads(source)) == text
        assert len(calls) == want
    # one gcd per record and one for the constant; the reference reader,
    # and the per-token read, take one per distinct weight token
    assert len(records) == 11647


def _pair_faults(num, den):
    """The arcs ``num/den`` and ``(den - num)/den`` spoiled as a pair."""
    other = den - num
    return [
        # unreduced, but summing to 1, like 8/14 6/14
        ("%d/%d" % (2 * num, 2 * den), "%d/%d" % (2 * other, 2 * den)),
        # two denominators, like 4/7 6/14
        ("%d/%d" % (num, den), "%d/%d" % (2 * other, 2 * den)),
        ("%d/%d" % (2 * num, 2 * den), "%d/%d" % (other, den)),
        # one denominator, reduced weights that do not sum to 1
        ("%d/%d" % (num, den), "%d/%d" % (other + den, den)),
        ("%d/%d" % (num + den, den), "%d/%d" % (other, den)),
    ]


def _bad_weight(num, den, rng):
    """A weight token spelled other than ``str(Fraction)`` spells one."""
    return rng.choice(["0%d/%d", "+%d/%d", "%d/0%d", "-%d/%d", "%d/-%d", "%d.0/%d"]) % (num, den)


def _bad_kids(ktok, i, rng):
    """A child list that names no earlier record, or names a child twice."""
    if ktok != "." and rng.random() < 0.6:
        return ktok + "," + ktok.split(",")[0], StructuralError
    return rng.choice([str(i), "", "x", "0,"]), ParseError


def test_loads_matches_the_reference_on_two_fault_records():
    """Faults in both arcs of one weighted pair, in both arc orders."""
    rng = seeded_rng(99)
    seen = set()
    for text in _reader_corpus():
        lines = text.splitlines()
        pairs = [
            i for i, line in enumerate(lines)
            if line.startswith("n ") and len(line.split()) == 5 and line.count("/") == 2
        ]
        for i in rng.sample(pairs, min(4, len(pairs))):
            tag, rid, var, *arcs = lines[i].split()
            (w0, k0), (w1, k1) = (arc.split(":") for arc in arcs)
            num, den = map(int, w0.split("/"))
            mutants = [(("pair",), (p0, k0), (p1, k1)) for p0, p1 in _pair_faults(num, den)]
            kids0, kind0 = _bad_kids(k0, int(rid), rng)
            kids1, kind1 = _bad_kids(k1, int(rid), rng)
            num1, den1 = map(int, w1.split("/"))
            mutants.append(((kind0, ParseError), (w0, kids0), (_bad_weight(num1, den1, rng), k1)))
            mutants.append(((ParseError, kind1), (_bad_weight(num, den, rng), k0), (w1, kids1)))
            for faults, a0, a1 in mutants:
                record = " ".join([tag, rid, var, "%s:%s" % a0, "%s:%s" % a1])
                mutant = "\n".join(lines[:i] + [record] + lines[i + 1:]) + "\n"
                want = _read_with(serialize_reference.loads, mutant)
                assert _read_with(loads, mutant) == want, record
                seen.add((faults, _kind(want)))
    # the first arc's fault decides the error, whichever part of the arc it is in
    assert ((StructuralError, ParseError), StructuralError) in seen
    assert ((ParseError, StructuralError), ParseError) in seen
    assert ((ParseError, ParseError), ParseError) in seen
    assert {want for faults, want in seen if faults == ("pair",)} == {
        ParseError, StructuralError
    }


def test_loads_rejects_bad_weight_in_constraint_mode(example_model, example_tree):
    text = dumps(compile_search(example_model, example_tree))
    with pytest.raises(ParseError):
        loads(text.replace("1:", "2:", 1))


def _writer_corpus():
    """The reader corpus, 300 random models in both modes, grid and chain at seed 1."""
    diagrams = _corpus_diagrams()
    rng = seeded_rng(71)
    diagrams += [compile_search(random_model(rng, weighted=i % 2 == 0)) for i in range(300)]
    workloads = bench_workloads()
    diagrams.append(compile_search(parse_uai(workloads.grid(1).model_text)))
    diagrams.append(compile_search(parse_dimacs_cnf(workloads.chain(1).model_text)))
    return diagrams


def test_dumps_matches_the_reference_writer():
    texts = []
    for d in _writer_corpus():
        want = serialize_reference.dumps(d)
        assert dumps(d) == want
        streamed = io.StringIO()
        assert dumps(d, streamed) is None
        assert streamed.getvalue() == want
        assert to_dot(d) == serialize_reference.to_dot(d)
        texts.append(want)
    # the kept gcd path, and terminal diagrams, are among them
    assert sum(map(_unequal_denominators, texts)) > 0
    assert sum("roots .\n" in text for text in texts) >= 2
    # and every record kind the writer branches on
    assert set().union(*map(_record_kinds, texts)) == {
        "weighted pair, T = 1",
        "weighted pair, T >= 2",
        "constraint pair",
        "three or more arcs",
        "pair with and without children",
    }


def _record_kinds(text):
    kinds = set()
    weighted = "\nmode weighted\n" in text
    for line in text.splitlines():
        if not line.startswith("n "):
            continue
        arcs = [tok.split(":") for tok in line.split()[3:]]
        if len(arcs) > 2:
            kinds.add("three or more arcs")
            continue
        if not weighted:
            kinds.add("constraint pair")
        elif any("/" in w for w, _ in arcs):
            kinds.add("weighted pair, T >= 2")
        else:
            kinds.add("weighted pair, T = 1")
        if len({kids == "." for _, kids in arcs}) == 2:
            kinds.add("pair with and without children")
    return kinds


def _spelled(weights, weighted):
    node = MetaNode(0, tuple((w, ()) for w in weights), 0)
    return weight_strs(node, weighted)


def test_weight_strs_spells_each_arc_as_str_fraction():
    rng = seeded_rng(72)
    vectors = [(0, 1), (1, 0), (1, 1)]
    # two arcs: primitive pairs of 1 to 430 bits, spelled without a gcd
    while len(vectors) < 600:
        bits = rng.randint(1, 430)
        pair = rng.getrandbits(bits), rng.getrandbits(bits)
        if gcd(*pair) == 1:
            vectors.append(pair)
    # three and four arcs, with zeros and unequal denominators
    vectors += [(1, 2, 3), (0, 1, 2), (2, 0, 3, 1), (0, 0, 1), (1, 0, 0, 0), (6, 10, 15)]
    while len(vectors) < 1000:
        vector = tuple(rng.choice([0, 0, 1, 2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(3, 4)))
        if gcd(*vector) == 1:
            vectors.append(vector)
    for weights in vectors:
        total = sum(weights)
        assert _spelled(weights, True) == [str(Fraction(w, total)) for w in weights]
    # constraint mode: 0/1 weights, spelled as themselves
    for k in (2, 3, 4):
        for weights in itertools.product((0, 1), repeat=k):
            if any(weights):
                assert _spelled(weights, False) == [str(Fraction(w, 1)) for w in weights]
