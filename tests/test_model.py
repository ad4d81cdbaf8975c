from fractions import Fraction

import pytest

from aomdd import (
    ParseError,
    ResourceLimitError,
    brute_force_table,
    make_model,
    parse_dimacs_cnf,
    parse_uai,
    parse_uai_evidence,
)
from aomdd import model
from aomdd.model import (
    MAX_CNF_VARS,
    MAX_DOMAIN,
    TableFunction,
    full_assignments,
    weight_of_full_assignment,
)

from conftest import (
    BAD_CNF,
    BAD_EVIDENCE,
    BAD_UAI,
    bytes_and_counters,
    compiles,
    per_clause_model,
)

# a two-variable UAI network and a three-variable CNF, each with a blank line
UAI = "MARKOV\n2\n2 2\n\n2\n1 0\n2 0 1\n2\n0.3 0.7\n4\n0.5 0.25 1 0.75\n"
CNF = "c example\np cnf 3 3\n\n1 2 0\n-1 3 0\n-2 -3 0\n"


def test_parse_uai_minimal():
    m = parse_uai("MARKOV 1 2 1 1 0 2 0.4 0.6")
    assert m.n == 1
    assert m.domains == (2,)
    assert m.functions[0].values == (Fraction(2, 5), Fraction(3, 5))
    assert m.kind == "weighted"


@pytest.mark.parametrize("text, message", BAD_UAI)
def test_parse_uai_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_uai(text)


@pytest.mark.parametrize("text, message", BAD_EVIDENCE)
def test_parse_uai_evidence_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_uai_evidence(text, n=8)


def test_table_strides_follow_the_layout():
    # last scope variable fastest: a variable's stride is the product of the
    # domain sizes after it, so entry idx sits at sum(value * stride)
    f = TableFunction((2, 0, 1), (3, 2, 4), tuple(range(24)))
    assert f.strides() == (8, 4, 1)
    for x in full_assignments([2, 4, 3]):
        idx = sum(x[var] * step for var, step in zip(f.scope, f.strides()))
        assert f.values[idx] == f.value_at(x)
    assert TableFunction((), (), (5,)).strides() == ()


def test_parse_uai_bad_preamble():
    with pytest.raises(ParseError, match="FOO"):
        parse_uai("FOO 1 2 0")


def test_parse_uai_wrong_table_size():
    with pytest.raises(ParseError, match="declares 3"):
        parse_uai("MARKOV 1 2 1 1 0 3 0.4 0.3 0.3")


def test_parse_uai_scope_out_of_range():
    with pytest.raises(ParseError):
        parse_uai("MARKOV 1 2 1 1 5 2 0.4 0.6")


def test_parse_uai_truncated():
    with pytest.raises(ParseError, match="end of input"):
        parse_uai("MARKOV 2 2 2 1 2 0 1 4 0.1 0.2 0.3")


def test_parse_uai_repeated_scope_variable():
    with pytest.raises(ParseError, match="line 5: scope of function 0 repeats a variable"):
        parse_uai("MARKOV\n2\n2 2\n1\n2 0 0\n4\n1 1 1 1\n")


def test_parse_uai_domain_cap():
    assert parse_uai("MARKOV 1 %d 0" % MAX_DOMAIN).domains == (MAX_DOMAIN,)
    # checked before any arc or table over the domain is built
    message = "line 3: domain size of variable 0 is 1000000000, cap is"
    with pytest.raises(ResourceLimitError, match=message):
        parse_uai("MARKOV\n1\n1000000000\n0\n")


@pytest.mark.parametrize(
    "parse", [parse_uai, parse_dimacs_cnf, parse_uai_evidence]
)
def test_parsers_reject_non_utf8_bytes(parse):
    with pytest.raises(ParseError, match="UTF-8"):
        parse(b"\xff\xfe")


@pytest.mark.parametrize("chunk", [1, 7, model._CHUNK])
@pytest.mark.parametrize("brk", ["\r\n", "\r", "\f", "\x1e", "\u2028"])
@pytest.mark.parametrize(
    "parse, text, good, bad, message",
    [
        (parse_uai, UAI, "0.25", "x", "expected number"),
        (parse_dimacs_cnf, CNF, "-1 3 0", "-1 y 0", "expected integer literal"),
    ],
)
def test_parsers_break_lines_as_splitlines_does(
    monkeypatch, brk, chunk, parse, text, good, bad, message
):
    # lines break where str.splitlines breaks them, also across the reader's chunks
    monkeypatch.setattr(model, "_CHUNK", chunk)
    assert parse(text.replace("\n", brk)) == parse(text)
    assert parse(text.replace("\n", brk).encode("utf-8")) == parse(text)
    broken = text.replace(good, bad, 1).replace("\n", brk)
    lineno = 1 + next(i for i, line in enumerate(broken.splitlines()) if bad in line)
    with pytest.raises(ParseError, match="line %d: %s" % (lineno, message)):
        parse(broken)


def test_parse_uai_decimal_entries_exact():
    m = parse_uai("MARKOV 1 2 1 1 0 2 1e-05 2.5E+3")
    assert m.functions[0].values == (Fraction(1, 100000), Fraction(2500))
    m = parse_uai("MARKOV 1 2 1 1 0 2 .5 1e4300")
    assert m.functions[0].values == (Fraction(1, 2), Fraction(10**4300))


@pytest.mark.parametrize("entry", ["1e100000", "1e-4301", "1E+4301"])
def test_parse_uai_huge_exponent(entry):
    with pytest.raises(ParseError, match="exponent"):
        parse_uai("MARKOV 1 2 1 1 0 2 %s 1" % entry)


def test_weight_of_full_assignment_product():
    m = make_model([2, 2], [((0,), [Fraction(1, 2), Fraction(1, 2)]),
                            ((1,), [Fraction(1, 4), Fraction(3, 4)])])
    assert weight_of_full_assignment(m, [0, 1]) == Fraction(3, 8)
    assert weight_of_full_assignment(m, [1, 0]) == Fraction(1, 8)


def test_weight_unassigned_errors():
    m = make_model([2], [((0,), [1, 1])])
    with pytest.raises(ValueError, match="unassigned"):
        weight_of_full_assignment(m, [None])


@pytest.mark.parametrize(
    "domains, functions, kind, message",
    [
        ([2, 2], [((0, 0), [1] * 4)], "weighted", "duplicate variable"),
        ([2], [((0,), [1])], "weighted", "table has 1 entries, scope needs 2"),
        ([2], [((0,), [1, -1])], "weighted", "negative table value -1"),
        ([2, 2], [((-1,), [1, 1])], "weighted", "scope variable -1 out of range"),
        ([2, 2], [((2,), [1, 1])], "weighted", "scope variable 2 out of range"),
        ([2], [], "bogus", "kind must be"),
        ([2, 0], [], "weighted", "domain size must be >= 1, got 0"),
        ([2], [((0,), [1, 2])], "constraint", "constraint table value 2 not in"),
    ],
)
def test_make_model_rejects(domains, functions, kind, message):
    with pytest.raises(ValueError, match=message):
        make_model(domains, functions, kind=kind)


def test_value_at_unassigned_errors():
    f = make_model([2, 2], [((0, 1), [1, 2, 3, 4])]).functions[0]
    assert f.value_at([1, 0]) == 3
    with pytest.raises(ValueError, match="variable 1 unassigned"):
        f.value_at([1, None])


def test_brute_force_matches_pointwise():
    m = make_model(
        [2, 2],
        [((0,), [Fraction(1, 2), Fraction(1, 2)]),
         ((1,), [Fraction(1, 4), Fraction(3, 4)])],
    )
    t = brute_force_table(m)
    assert t.values == (
        Fraction(1, 8), Fraction(3, 8), Fraction(1, 8), Fraction(3, 8)
    )
    for x in full_assignments(m.domains):
        assert t.value_at(x) == weight_of_full_assignment(m, x)


def test_brute_force_cap():
    m = make_model([2] * 30, [((0,), [1, 1])])
    with pytest.raises(ResourceLimitError):
        brute_force_table(m)


def test_dimacs_clause_relation():
    # ~A | B allows every (A, B) pair except A=1, B=0
    m = parse_dimacs_cnf("p cnf 2 1\n-1 2 0\n")
    f = m.functions[0]
    assert f.scope == (0, 1)
    assert f.value_at([1, 0]) == 0
    for x in ([0, 0], [0, 1], [1, 1]):
        assert f.value_at(x) == 1


def test_dimacs_empty_clause_list():
    m = parse_dimacs_cnf("p cnf 2 0\n")
    assert m.n == 2
    assert not m.functions
    assert weight_of_full_assignment(m, [0, 1]) == 1


def test_dimacs_unit_clause():
    m = parse_dimacs_cnf("p cnf 1 1\n1 0\n")
    assert m.functions[0].values == (0, 1)


def test_dimacs_tautology_dropped():
    m = parse_dimacs_cnf("p cnf 2 1\n1 -1 2 0\n")
    assert not m.functions


def _assert_shared_tables(text, tables):
    """``text`` parses to the tables ``tables``, and to the per-clause model's function.

    Against the model with one table per clause: the same brute-force
    table, the same bytes from search, BE and bcp, the same search and
    bcp counters, and no more BE creations.
    """
    m = parse_dimacs_cnf(text)
    assert [(f.scope, f.values) for f in m.functions] == tables
    oracle = per_clause_model(text)
    assert brute_force_table(m) == brute_force_table(oracle)
    got = bytes_and_counters(compiles(m))
    want = bytes_and_counters(compiles(oracle))
    assert got["search"] == want["search"]
    assert got["bcp"] == want["bcp"]
    assert got["be"][0] == want["be"][0]
    assert sum(got["be"][1].values()) <= sum(want["be"][1].values())


def test_dimacs_xor_clauses_share_one_table():
    # x1 xor x2 xor x3 = 1: four clauses, literals shuffled, each forbidding
    # one even-parity assignment, 000, 011, 101 or 110
    text = "p cnf 3 4\n-3 1 -2 0\n2 3 1 0\n-2 -1 3 0\n-3 2 -1 0\n"
    _assert_shared_tables(text, [((0, 1, 2), (0, 1, 1, 0, 1, 0, 0, 1))])


def test_dimacs_duplicate_clause_writes_the_same_zero():
    _assert_shared_tables("p cnf 2 3\n1 -2 0\n-2 1 0\n2 0\n", [((0, 1), (1, 0, 1, 1)), ((1,), (0, 1))])


def test_dimacs_opposite_unit_clauses_give_an_all_zero_table():
    _assert_shared_tables("p cnf 2 3\n1 0\n2 -1 0\n-1 0\n", [((0,), (0, 0)), ((0, 1), (1, 1, 0, 1))])


def test_dimacs_empty_clauses_share_one_constant_zero():
    _assert_shared_tables("p cnf 2 3\n0\n1 2 0\n0\n", [((), (0,)), ((0, 1), (0, 1, 1, 1))])


def test_dimacs_tautology_beside_a_clause_on_its_scope():
    # the tautology writes nothing, so the unit clause's scope comes first
    text = "p cnf 3 3\n2 -2 1 0\n3 0\n1 2 0\n"
    _assert_shared_tables(text, [((2,), (0, 1)), ((0, 1), (0, 1, 1, 1))])


def test_dimacs_wide_clause_is_a_resource_error():
    # a 64-literal clause would need a 2**64-entry table
    text = "p cnf 64 1\n%s 0\n" % " ".join(str(v) for v in range(1, 65))
    with pytest.raises(ResourceLimitError, match="64 variables"):
        parse_dimacs_cnf(text)


@pytest.mark.parametrize("nvars", [2**62, MAX_CNF_VARS + 1])
def test_dimacs_huge_header_is_a_resource_error(nvars):
    # checked before the per-variable domain list is built
    with pytest.raises(ResourceLimitError, match="%d variables" % nvars):
        parse_dimacs_cnf("p cnf %d 0\n" % nvars)


def test_dimacs_errors():
    with pytest.raises(ParseError, match="exceeds"):
        parse_dimacs_cnf("p cnf 2 1\n3 0\n")
    with pytest.raises(ParseError, match="terminating 0"):
        parse_dimacs_cnf("p cnf 2 1\n1 2\n")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs_cnf("c nothing\n")
    for header in ("p cnf 2 -3", "p cnf -1 0"):
        with pytest.raises(ParseError, match="negative count"):
            parse_dimacs_cnf(header + "\n1 2 0\n")


@pytest.mark.parametrize("text, message", BAD_CNF)
def test_parse_dimacs_cnf_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_dimacs_cnf(text)


def test_constraint_weights_binary(example_model):
    for x in full_assignments(example_model.domains):
        assert weight_of_full_assignment(example_model, x) in (0, 1)


def test_constraint_example_violation(example_model):
    # F=0, H=0 falsifies the clause F|H
    x = [1, 1, 1, 0, 1, 0, 0, 0]
    assert weight_of_full_assignment(example_model, x) == 0


def test_parse_evidence():
    assert parse_uai_evidence("2 0 1 3 0", n=4) == {0: 1, 3: 0}
    with pytest.raises(ParseError, match="out of range"):
        parse_uai_evidence("1 9 0", n=4)
    with pytest.raises(ParseError, match="twice"):
        parse_uai_evidence("2 0 1 0 0", n=2)
