import gc
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import aomdd
from aomdd.cli import MAX_PRECISION, _decimal_str, main
from aomdd.model import MAX_CNF_VARS

from conftest import (
    BAD_ASSIGNMENT,
    BAD_CNF,
    BAD_EVIDENCE,
    BAD_ORDER,
    BAD_UAI,
    EXAMPLE_CNF,
    EXAMPLE_ORDER,
    queens_model,
    seeded_rng,
    shuffled_chain_cnf_text,
)

QUEENS_UAI_DOMAINS = None


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def example_cnf(tmp_path):
    return _write(tmp_path / "example.cnf", EXAMPLE_CNF)


@pytest.fixture
def order_file(tmp_path):
    return _write(tmp_path / "order.txt", "0 1 2 3 4 5 6 7\n")


def _compile(example_cnf, order_file, tmp_path, *extra):
    out = tmp_path / "example.aomdd"
    rc = main(
        [
            "compile",
            example_cnf,
            "--order-file",
            order_file,
            "--out",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


def test_compile_stats_block(example_cnf, order_file, tmp_path, capsys):
    _compile(example_cnf, order_file, tmp_path, "--method", "be", "--stats")
    lines = capsys.readouterr().out.splitlines()
    stats = dict(l.rsplit(" ", 1) for l in lines if " " in l)
    assert stats["n"] == "8"
    assert stats["induced_width"] == "3"
    assert stats["meta_nodes_total"] == "18"
    assert stats["edges"] == "47"
    assert stats["seed"] == "0"


def test_compile_chain_stats(example_cnf, order_file, tmp_path, capsys):
    _compile(example_cnf, order_file, tmp_path, "--chain", "--stats")
    out = capsys.readouterr().out
    assert "meta_nodes_total 27" in out
    assert "edges 54" in out


def test_methods_byte_identical(example_cnf, order_file, tmp_path):
    a = _compile(example_cnf, order_file, tmp_path, "--method", "search")
    text_a = a.read_text()
    b = _compile(example_cnf, order_file, tmp_path, "--method", "be")
    assert b.read_text() == text_a


def test_query_count_queens(tmp_path, capsys):
    from aomdd import dumps, compile_search

    compiled = compile_search(queens_model(4))
    path = _write(tmp_path / "queens.aomdd", dumps(compiled))
    assert main(["query", path, "--query", "count"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_query_sum_and_mpe(tmp_path, capsys):
    uai = _write(
        tmp_path / "m.uai", "MARKOV 2 2 2 1 2 0 1 4 0.1 0.2 0.3 0.4"
    )
    out = tmp_path / "m.aomdd"
    assert main(["compile", uai, "--out", str(out)]) == 0
    assert main(["query", str(out), "--query", "sum", "--exact"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    ev = _write(tmp_path / "ev.txt", "1 0 0\n")
    assert main(
        ["query", str(out), "--query", "sum", "--evidence", ev, "--exact"]
    ) == 0
    assert capsys.readouterr().out.strip() == "3/10"
    assert main(["query", str(out), "--query", "mpe", "--exact"]) == 0
    value, witness = capsys.readouterr().out.splitlines()
    assert value == "2/5"
    assert witness == "1 1"


@pytest.mark.parametrize(
    "entry, total, best",
    [("1e200", "8e+600", "1e+600"), ("1e-200", "8e-600", "1e-600")],
)
def test_query_decimal_beyond_float_range(tmp_path, capsys, entry, total, best):
    # three unary tables (x, x): the sum is (2x)^3, the MPE value x^3
    table = "2\n%s %s\n" % (entry, entry)
    uai = _write(
        tmp_path / "m.uai", "MARKOV\n3\n2 2 2\n3\n1 0\n1 1\n1 2\n" + table * 3
    )
    out = tmp_path / "m.aomdd"
    assert main(["compile", uai, "--out", str(out)]) == 0
    assert main(["query", str(out), "--query", "sum"]) == 0
    assert capsys.readouterr().out.strip() == total
    assert main(["query", str(out), "--query", "mpe"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == best


def test_decimal_str_rounds_exactly():
    # the %g rules, on values float cannot hold exactly
    assert _decimal_str(Fraction(1, 3), 12) == "0.333333333333"
    assert _decimal_str(Fraction(2, 300000), 3) == "6.67e-06"
    assert _decimal_str(Fraction(99995, 10**9), 4) == "0.0001"  # half-even tie up
    assert _decimal_str(Fraction(125, 1000), 2) == "0.12"  # half-even tie down
    assert _decimal_str(Fraction(999999), 3) == "1e+06"
    assert _decimal_str(Fraction(10**12 - 1), 12) == "999999999999"
    assert _decimal_str(Fraction(10**12), 12) == "1e+12"
    assert _decimal_str(Fraction(10**13 - 5, 10), 12) == "1e+12"  # carry
    assert _decimal_str(Fraction(3, 20000), 12) == "0.00015"


def test_query_eval(example_cnf, order_file, tmp_path, capsys):
    out = _compile(example_cnf, order_file, tmp_path)
    bad = _write(tmp_path / "x.txt", "0 0 0 0 0 0 0 0\n")
    assert main(["query", str(out), "--query", "eval", "--assignment", bad]) == 0
    assert capsys.readouterr().out.strip() == "0"
    good = _write(tmp_path / "y.txt", "1 1 1 0 1 1 1 1\n")
    assert main(["query", str(out), "--query", "eval", "--assignment", good]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["query", str(out), "--query", "eval"]) == 2
    short = _write(tmp_path / "z.txt", "1 1 1\n")
    assert main(["query", str(out), "--query", "eval", "--assignment", short]) == 2
    assert "assignment has 3 values" in capsys.readouterr().err


def test_equiv_exit_codes(example_cnf, order_file, tmp_path, capsys):
    out = _compile(example_cnf, order_file, tmp_path)
    # identical files -> 0
    assert main(["equiv", str(out), str(out)]) == 0
    # a copy with other whitespace is compared across unique tables -> 0
    spaced = out.read_text().replace(" ", "  \t").replace("\n", " \n\n")
    spaced = _write(tmp_path / "spaced.aomdd", spaced)
    capsys.readouterr()
    assert main(["equiv", str(out), spaced]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    # flip a literal in the last clause (same primal graph) -> 1
    smaller_cnf = _write(
        tmp_path / "smaller.cnf", EXAMPLE_CNF.replace("2 3 0\n", "-2 3 0\n")
    )
    smaller = tmp_path / "smaller.aomdd"
    assert (
        main(
            [
                "compile", smaller_cnf, "--order-file", order_file,
                "--out", str(smaller),
            ]
        )
        == 0
    )
    assert main(["equiv", str(out), str(smaller)]) == 1
    # chain pseudo tree -> structural mismatch -> 2
    chain = tmp_path / "chain.aomdd"
    assert (
        main(
            [
                "compile", example_cnf, "--order-file", order_file,
                "--chain", "--out", str(chain),
            ]
        )
        == 0
    )
    assert main(["equiv", str(out), str(chain)]) == 2
    # a constraint and a weighted diagram with equal arc values -> 2
    half = Fraction(1, 2)
    files = []
    for kind, values in (("constraint", [1, 1, 0]), ("weighted", [half, half, 0])):
        compiled = aomdd.compile_search(aomdd.make_model([3], [((0,), values)], kind))
        files.append(_write(tmp_path / (kind + ".aomdd"), aomdd.dumps(compiled)))
    assert main(["equiv", *files]) == 2
    assert "modes" in capsys.readouterr().err


def test_dot_deterministic(example_cnf, order_file, tmp_path, capsys):
    out = _compile(example_cnf, order_file, tmp_path)
    assert main(["dot", str(out)]) == 0
    first = capsys.readouterr().out
    assert main(["dot", str(out)]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("digraph")


def test_dot_prints_the_loaded_diagram(example_cnf, order_file, tmp_path, capsys):
    printed = []
    for method, prune in (("search", "none"), ("be", "none"), ("search", "bcp")):
        out = tmp_path / ("%s-%s.aomdd" % (method, prune))
        assert main(
            [
                "compile", example_cnf, "--order-file", order_file,
                "--method", method, "--prune", prune, "--out", str(out),
            ]
        ) == 0
        assert main(["dot", str(out)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].startswith("digraph")
    assert printed[1] == printed[0] == printed[2]
    model = aomdd.parse_dimacs_cnf(EXAMPLE_CNF)
    tree = aomdd.generate_pseudo_tree(aomdd.build_primal_graph(model), EXAMPLE_ORDER)
    assert aomdd.to_dot(aomdd.compile_search(model, tree)) == printed[0]


def test_dot_file_options_are_usage_errors(example_cnf, order_file, tmp_path):
    out = _compile(example_cnf, order_file, tmp_path)
    dot = tmp_path / "x.dot"
    for argv in (["compile", example_cnf, "--dot", str(dot)], ["dot", str(out), "--out", str(dot)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not dot.exists()


def test_empty_clause_counts_zero(tmp_path, capsys):
    cnf = _write(tmp_path / "empty_clause.cnf", "p cnf 2 2\n1 2 0\n0\n")
    for method in ("search", "be"):
        out = tmp_path / (method + ".aomdd")
        assert main(["compile", cnf, "--method", method, "--out", str(out)]) == 0
        compiled = aomdd.loads(out.read_text())
        assert not compiled.roots and compiled.constant == 0
        assert main(["query", str(out), "--query", "count"]) == 0
        assert capsys.readouterr().out == "0\n"


def test_mem_cap_exit_code(example_cnf, order_file, capsys):
    assert (
        main(
            [
                "compile", example_cnf, "--order-file", order_file,
                "--mem-cap", "3",
            ]
        )
        == 3
    )
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["search", "be"])
def test_mem_cap_failure_leaves_no_out_file(example_cnf, tmp_path, capsys, method):
    out = tmp_path / "capped.aomdd"
    argv = ["compile", example_cnf, "--method", method, "--mem-cap", "3", "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()
    assert "cap" in capsys.readouterr().err


def test_failed_write_leaves_no_out_file(example_cnf, tmp_path, monkeypatch, capsys):
    # a ``dumps`` that raises partway through leaves neither the file
    # nor its partial copy; an earlier file at ``--out`` is kept
    from aomdd import cli

    def failing(diagram, file):
        file.write("aomdd 1\n")
        raise aomdd.StructuralError("write failed")

    out = tmp_path / "out.aomdd"
    monkeypatch.setattr(cli, "dumps", failing)
    assert main(["compile", example_cnf, "--out", str(out)]) == 2
    assert "write failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["example.cnf"]
    out.write_text("kept\n")
    assert main(["compile", example_cnf, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["example.cnf", "out.aomdd"]


def test_value_past_the_digit_limit_exit_code(tmp_path, capsys):
    # 2^15000 models, and a root constant of 10^8600: Python spells
    # neither as a decimal, which is a resource limit, not a bug
    limit = "more than %d digits" % sys.get_int_max_str_digits()
    free = tmp_path / "free.aomdd"
    assert main(["compile", _write(tmp_path / "free.cnf", "p cnf 15000 0\n"), "--out", str(free)]) == 0
    capsys.readouterr()
    assert main(["query", str(free), "--query", "count"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and limit in captured.err
    model = _write(tmp_path / "huge.uai", "MARKOV 1 2 2 1 0 1 0 2 1e4300 1e4300 2 1e4300 1e4300\n")
    out = tmp_path / "huge.aomdd"
    assert main(["compile", model, "--out", str(out)]) == 3
    assert limit in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["free.aomdd", "free.cnf", "huge.uai"]


# name -> (parser, model text); the last two reduce to a bare constant
OUT_MODELS = {
    "weighted": (
        aomdd.parse_uai, "MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n2\n0.3 0.7\n4\n0.5 0.25 1 0.75\n"
    ),
    "constraint": (aomdd.parse_dimacs_cnf, EXAMPLE_CNF),
    "unsatisfiable": (aomdd.parse_dimacs_cnf, "p cnf 2 3\n1 2 0\n-1 0\n-2 0\n"),
    "constant": (aomdd.parse_uai, "MARKOV\n1\n2\n2\n0\n1 0\n1\n2.5\n2\n0.5 0.5\n"),
}


@pytest.mark.parametrize("name", sorted(OUT_MODELS))
@pytest.mark.parametrize("flags", [["--method", "search"], ["--method", "be"], ["--prune", "bcp"]])
def test_compile_out_is_dumps_of_the_compile(tmp_path, name, flags):
    parse, text = OUT_MODELS[name]
    out = tmp_path / "out.aomdd"
    assert main(["compile", _write(tmp_path / "model.txt", text), "--out", str(out), *flags]) == 0
    model = parse(text)
    g = aomdd.build_primal_graph(model)
    tree = aomdd.generate_pseudo_tree(g, aomdd.min_fill_ordering(g))
    if "be" in flags:
        compiled = aomdd.compile_be(model, tree=tree)
    else:
        hook = aomdd.bcp_hook(model) if "bcp" in flags else None
        compiled = aomdd.compile_search(model, tree, hook=hook)
    assert out.read_text() == aomdd.dumps(compiled)
    assert (compiled.constant == 0) == (name == "unsatisfiable")
    assert bool(compiled.roots) == (name in ("weighted", "constraint"))


def test_wide_clause_exit_code(tmp_path, capsys):
    text = "p cnf 64 1\n%s 0\n" % " ".join(str(v) for v in range(1, 65))
    wide = _write(tmp_path / "wide.cnf", text)
    assert main(["compile", str(wide)]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("nvars", [2**62, MAX_CNF_VARS + 1])
def test_huge_cnf_header_exit_code(tmp_path, capsys, nvars):
    huge = _write(tmp_path / "huge.cnf", "p cnf %d 0\n" % nvars)
    assert main(["compile", huge]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["p cnf 2 -3", "p cnf -1 0"])
def test_negative_cnf_header_exit_code(tmp_path, capsys, header):
    path = _write(tmp_path / "neg.cnf", header + "\n1 2 0\n")
    assert main(["compile", path]) == 2
    assert "negative count" in capsys.readouterr().err


def test_negative_mem_cap_is_a_usage_error(example_cnf, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", example_cnf, "--mem-cap", "-5"])
    assert exc.value.code == 2
    assert "--mem-cap" in capsys.readouterr().err


def test_prune_bcp_with_be_is_a_usage_error(example_cnf, tmp_path, capsys):
    # rejected before the model is read: a missing model file does not matter
    out = tmp_path / "x.aomdd"
    argv = ["compile", "/no/such/model.cnf", "--method", "be", "--prune", "bcp", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--prune" in capsys.readouterr().err
    assert not out.exists()
    assert main(["compile", example_cnf, "--method", "be", "--prune", "none"]) == 0
    assert main(["compile", example_cnf, "--method", "be"]) == 0


@pytest.mark.parametrize(
    "query, option",
    [
        ("eval", "--evidence"),
        ("count", "--assignment"),
        ("sum", "--assignment"),
        ("mpe", "--assignment"),
    ],
)
def test_query_option_that_the_query_ignores_is_a_usage_error(query, option, tmp_path, capsys):
    # eval reads no evidence and count, sum and mpe read no assignment;
    # refused before any file is read: a missing diagram does not matter
    argv = ["query", "/no/such/file.aomdd", "--query", query, option, "/no/such/file.txt"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    model = tmp_path / "u.uai"
    model.write_text("MARKOV\n1\n2\n1\n1 0\n2\n1 3\n")
    path = tmp_path / "u.aomdd"
    assert main(["compile", str(model), "--out", str(path)]) == 0
    files = {"--evidence": "1 0 1\n", "--assignment": "1\n"}
    given = tmp_path / "given.txt"
    given.write_text(files[option])
    with pytest.raises(SystemExit) as exc:
        main(["query", str(path), "--query", query, option, str(given)])
    assert exc.value.code == 2
    capsys.readouterr()
    # the option the query does read
    other = "--assignment" if query == "eval" else "--evidence"
    given.write_text(files[other])
    assert main(["query", str(path), "--query", query, other, str(given)]) == 0
    # the table is [1, 3]: x0 = 1 gives 3, one model of nonzero value
    assert capsys.readouterr().out.split()[0] == ("1" if query == "count" else "3")


def test_precision_cap(capsys):
    # past the cap is a usage error before the diagram file is even read
    for digits in (MAX_PRECISION + 1, 10**7):
        argv = ["query", "/no/such/file.aomdd", "--query", "sum", "--precision", str(digits)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err
    assert _decimal_str(Fraction(1, 3), MAX_PRECISION) == "0." + "3" * MAX_PRECISION
    assert _decimal_str(Fraction(2, 3), 1) == "0.7"
    assert _decimal_str(Fraction(2, 3), MAX_PRECISION) == "0." + "6" * (MAX_PRECISION - 1) + "7"


def test_precision_below_one_is_a_usage_error(tmp_path, capsys):
    # below 1 is refused before the diagram file is read, not clamped to 1
    for digits in (0, -5):
        argv = ["query", "/no/such/file.aomdd", "--query", "sum", "--precision", str(digits)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--precision must be between 1 and %d" % MAX_PRECISION in capsys.readouterr().err
    model = tmp_path / "u.uai"
    model.write_text("MARKOV\n1\n2\n1\n1 0\n2\n1 2.5\n")
    path = tmp_path / "u.aomdd"
    assert main(["compile", str(model), "--out", str(path)]) == 0
    assert main(["query", str(path), "--query", "sum", "--precision", "1"]) == 0
    assert capsys.readouterr().out == "4\n"  # 3.5 rounded half-even


@pytest.mark.parametrize("text, message", BAD_UAI + BAD_CNF)
def test_rejected_model_exit_code(tmp_path, capsys, text, message):
    path = _write(tmp_path / "bad.txt", text)
    assert main(["compile", path]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize(
    "kind, text, message",
    [("order", *row) for row in BAD_ORDER]
    + [("evidence", *row) for row in BAD_EVIDENCE]
    + [("assignment", *row) for row in BAD_ASSIGNMENT],
)
def test_rejected_input_file_exit_code(
    example_cnf, order_file, tmp_path, capsys, kind, text, message
):
    out = str(_compile(example_cnf, order_file, tmp_path))
    path = _write(tmp_path / "input.txt", text)
    argv = {
        "order": ["compile", example_cnf, "--order-file", path],
        "evidence": ["query", out, "--query", "count", "--evidence", path],
        "assignment": ["query", out, "--query", "eval", "--assignment", path],
    }[kind]
    assert main(argv) == 2
    assert re.search(message, capsys.readouterr().err)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path / "bad.uai", "FOO 1 2 0")
    assert main(["compile", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--order", "minfill"], ["--epsilon-digits", "6"], ["--format", "cnf"]]
)
def test_removed_compile_flags_are_usage_errors(example_cnf, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", example_cnf, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_model_format_comes_from_the_text(tmp_path):
    # DIMACS starts with 'c' or 'p', UAI with its preamble, whatever the name
    uai = "MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n2\n0.3 0.7\n4\n0.5 0.25 1 0.75\n"
    for text, usual, other in [(EXAMPLE_CNF, "m.cnf", "m.txt"), (uai, "w.uai", "w.cnf")]:
        outs = []
        for name in (usual, other):
            out = tmp_path / (name + ".aomdd")
            assert main(["compile", _write(tmp_path / name, text), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_huge_domain_exit_code(tmp_path, capsys):
    path = _write(tmp_path / "huge.uai", "MARKOV 1 1000000000 0")
    assert main(["compile", path]) == 3
    assert "domain size of variable 0 is 1000000000" in capsys.readouterr().err


def test_non_utf8_model_exit_code(example_cnf, tmp_path, capsys):
    # a parse error when the file is read, whichever file it is
    path = tmp_path / "bad.uai"
    path.write_bytes(b"\xff\xfe")
    assert main(["compile", str(path)]) == 2
    assert main(["compile", example_cnf, "--order-file", str(path)]) == 2
    assert capsys.readouterr().err.count("bad.uai is not UTF-8 text") == 2


def test_huge_exponent_exit_code(tmp_path):
    # building this exact rational would not finish; the parser refuses it
    path = _write(tmp_path / "huge.uai", "MARKOV 1 2 1 1 0 2 1e1000000000 1\n")
    src = os.path.dirname(os.path.dirname(aomdd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "aomdd.cli", "compile", path],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 2
    assert "exponent" in proc.stderr


def test_missing_file_exit_code(capsys):
    assert main(["compile", "/no/such/file.uai"]) == 2
    capsys.readouterr()


def test_prune_bcp_matches_plain(example_cnf, order_file, tmp_path):
    a = _compile(example_cnf, order_file, tmp_path, "--prune", "bcp")
    text = a.read_text()
    b = _compile(example_cnf, order_file, tmp_path, "--prune", "none")
    assert b.read_text() == text


def _drop_seconds(stats):
    return re.sub(r"seconds \S+\n", "", stats)


def test_prune_bcp_without_zero_entries_skips_the_hook(tmp_path, monkeypatch, capsys):
    # no table entry is 0, so there is no nogood and the hook could reject nothing
    model = _write(tmp_path / "w.uai", OUT_MODELS["weighted"][1])
    assert main(["compile", model, "--out", str(tmp_path / "plain.aomdd"), "--stats"]) == 0
    plain = capsys.readouterr().out

    def no_hook(model):
        raise AssertionError("bcp_hook called")

    monkeypatch.setattr(aomdd.cli, "bcp_hook", no_hook)
    out = tmp_path / "pruned.aomdd"
    assert main(["compile", model, "--prune", "bcp", "--out", str(out), "--stats"]) == 0
    assert out.read_bytes() == (tmp_path / "plain.aomdd").read_bytes()
    assert _drop_seconds(capsys.readouterr().out) == _drop_seconds(plain)


@pytest.mark.parametrize(
    "name, text",
    [
        ("one_zero.uai", "MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n2\n0.3 0.7\n4\n0.5 0 1 0.75\n"),
        ("example.cnf", EXAMPLE_CNF),
    ],
)
def test_prune_bcp_with_a_zero_entry_builds_one_hook(tmp_path, monkeypatch, name, text):
    model = _write(tmp_path / name, text)
    plain = tmp_path / "plain.aomdd"
    assert main(["compile", model, "--out", str(plain)]) == 0
    calls = []
    real_bcp_hook = aomdd.cli.bcp_hook

    def counted(model):
        calls.append(model)
        return real_bcp_hook(model)

    monkeypatch.setattr(aomdd.cli, "bcp_hook", counted)
    out = tmp_path / "pruned.aomdd"
    assert main(["compile", model, "--prune", "bcp", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_bytes() == plain.read_bytes()


def test_prune_bcp_long_chain_matches_plain(tmp_path):
    # On a 2 GHz Xeon this test took about 19 s with the stateless
    # fixpoint form of the hook, which rescanned every nogood once per
    # propagation step, and about 0.45 s with the stateless worklist form;
    # the trail form, which propagates each value once, takes 0.05 s.  A
    # regression shows up as suite time.
    cnf = _write(tmp_path / "chain.cnf", shuffled_chain_cnf_text(400, seed=1))
    outs = []
    for prune in ("none", "bcp"):
        out = tmp_path / ("%s.aomdd" % prune)
        assert main(["compile", cnf, "--prune", prune, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _chain_cnf(n, last_link_xor=False):
    """Equality chain x1 = x2 = ... = xn; optionally x(n-1) != xn instead."""
    lines = ["p cnf %d %d" % (n, 2 * (n - 1))]
    for a in range(1, n):
        b = a + 1
        if last_link_xor and b == n:
            lines += ["%d %d 0" % (a, b), "%d %d 0" % (-a, -b)]
        else:
            lines += ["%d %d 0" % (-a, b), "%d %d 0" % (a, -b)]
    return "\n".join(lines) + "\n"


def test_equiv_deep_chain(tmp_path, capsys):
    n = 3000
    order = _write(tmp_path / "order.txt", " ".join(map(str, range(n))) + "\n")
    files = {}
    for name, text, method in (
        ("search", _chain_cnf(n), "search"),
        ("be", _chain_cnf(n), "be"),
        ("xor", _chain_cnf(n, last_link_xor=True), "search"),
    ):
        model = _write(tmp_path / (name + ".cnf"), text)
        files[name] = str(tmp_path / (name + ".aomdd"))
        assert main(
            [
                "compile", model, "--method", method, "--order-file", order,
                "--out", files[name], "--stats",
            ]
        ) == 0
        assert "height %d" % (n - 1) in capsys.readouterr().out
    assert main(["equiv", files["search"], files["be"]]) == 0
    # the two chains differ only at the bottom of the tree
    assert main(["equiv", files["search"], files["xor"]]) == 1
    assert capsys.readouterr().out.splitlines() == ["equivalent", "not equivalent"]


def test_equiv_identical_text_skips_second_parse(
    example_cnf, order_file, tmp_path, monkeypatch, capsys
):
    from aomdd import cli

    out = _compile(example_cnf, order_file, tmp_path)
    copy = _write(tmp_path / "copy.aomdd", out.read_text())
    parsed = []

    def counting_loads(text):
        parsed.append(text)
        return real_loads(text)

    real_loads = cli.loads
    monkeypatch.setattr(cli, "loads", counting_loads)
    assert main(["equiv", str(out), copy]) == 0
    assert len(parsed) == 1
    assert capsys.readouterr().out.strip() == "equivalent"


def test_equiv_identical_corrupt_files(tmp_path, capsys):
    a = _write(tmp_path / "a.aomdd", "not a diagram\n")
    b = _write(tmp_path / "b.aomdd", "not a diagram\n")
    assert main(["equiv", a, b]) == 2
    assert "error" in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    from aomdd import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "dot", broken)
    assert main(["dot", str(tmp_path / "any.aomdd")]) == 4
    err = capsys.readouterr().err
    assert "error: internal: RuntimeError: boom" in err
    assert "Traceback (most recent call last)" in err and 'raise RuntimeError("boom")' in err


def test_internal_value_error_exit_code(example_cnf, order_file, tmp_path, monkeypatch, capsys):
    # only the package's own errors are input errors; any other ValueError is a bug
    from aomdd import cli

    out = _compile(example_cnf, order_file, tmp_path)

    def broken(diagram, evidence):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "count_solutions", broken)
    assert main(["query", str(out), "--query", "count"]) == 4
    assert "error: internal: ValueError: boom" in capsys.readouterr().err


FUZZ_CNF = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"

# each text input, a valid file of it, and the command that reads it; in
# the UAI file every table entry has a '.', so its integer fields are the
# tokens without one after the preamble
FUZZ_INPUTS = {
    "uai": ("MARKOV\n2\n2 3\n2\n1 0\n2 0 1\n2\n0.3 0.7\n6\n0.5 0.25 1.0 0.75 2.0 0.0\n",
            ["compile", "{}"]),
    "cnf": (FUZZ_CNF, ["compile", "{}"]),
    "order": ("0 1\n2\n", ["compile", "{cnf}", "--order-file", "{}"]),
    "evidence": ("1 0 1\n", ["query", "{diagram}", "--query", "count", "--evidence", "{}"]),
    "assignment": ("1 0 1\n", ["query", "{diagram}", "--query", "eval", "--assignment", "{}"]),
}

FUZZ_TOKENS = ["0", "1", "2", "3", "-1", "-2", "x", "0.5", "1e3", "1000000000", "MARKOV",
               "p", "cnf", "c", "+1", "1_0", "\u0664", "01", "-0", "\uff11"]

# the zero of the Arabic-Indic, fullwidth and Devanagari digits
FUZZ_ZEROS = ["\u0660", "\uff10", "\u0966"]


def _misspell(tok, rng):
    """``tok`` with a '+', a '_' or non-ASCII digits, which ``int`` reads but ``str`` never writes."""
    sign, digits = ("-", tok[1:]) if tok.startswith("-") else ("", tok)
    kind = rng.randrange(3) if "." not in tok else 2  # a table entry gets other digits
    if kind == 0:
        return "+" + tok
    if kind == 1:
        return sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits)
    zero = ord(rng.choice(FUZZ_ZEROS))
    return sign + "".join(chr(zero + int(d)) if d.isdigit() else d for d in digits)


def _fuzz_mutant(text, rng):
    """A mutant of ``text``, and whether it misspells one integer field or table entry."""
    lines = [line.split() for line in text.splitlines()]
    if rng.random() < 0.25:
        fields = [(i, j) for i, toks in enumerate(lines) for j, tok in enumerate(toks)
                  if tok not in ("MARKOV", "p", "cnf")]
        i, j = rng.choice(fields)
        lines[i][j] = _misspell(lines[i][j], rng)
        return "\n".join(map(" ".join, lines)) + "\n", True
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.randrange(5)
        if kind == 0 and lines[i]:  # replace a token
            lines[i][rng.randrange(len(lines[i]))] = rng.choice(FUZZ_TOKENS)
        elif kind == 1 and lines[i]:  # drop a token
            del lines[i][rng.randrange(len(lines[i]))]
        elif kind == 2:  # insert a token
            lines[i].insert(rng.randint(0, len(lines[i])), rng.choice(FUZZ_TOKENS))
        elif kind == 3 and len(lines) > 1:  # drop a line
            del lines[i]
        else:  # repeat a line, or add trailing tokens
            lines.insert(i, list(lines[i]) if rng.random() < 0.5 else rng.sample(FUZZ_TOKENS, 2))
    return "\n".join(map(" ".join, lines)) + "\n", False


def test_text_input_mutation_fuzz(tmp_path, capsys):
    """Every mutant of every text input exits 0, 2 or 3; a misspelled integer exits 2."""
    cnf = _write(tmp_path / "m.cnf", FUZZ_CNF)
    diagram = str(tmp_path / "m.aomdd")
    assert main(["compile", cnf, "--out", diagram]) == 0
    path = str(tmp_path / "input.txt")
    rng = seeded_rng(26)
    seen = {kind: set() for kind in FUZZ_INPUTS}
    for case in range(4000):
        kind = rng.choice(sorted(FUZZ_INPUTS))
        text, argv = FUZZ_INPUTS[kind]
        mutant, misspelled = _fuzz_mutant(text, rng)
        _write(tmp_path / "input.txt", mutant)
        rc = main([a.format(path, cnf=cnf, diagram=diagram) for a in argv])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3), (kind, mutant, err)
        assert rc == 2 or not misspelled, (kind, mutant)
        seen[kind].add(rc)
    # every input was both accepted and rejected; the caps were reached
    assert all({0, 2} <= rcs for rcs in seen.values()), seen
    assert 3 in seen["uai"] | seen["cnf"], seen


def test_cli_import_loads_no_introspection_modules():
    # every command starts a new interpreter; these modules come with
    # dataclasses and traceback, and cost each command its start-up time
    src = os.path.dirname(os.path.dirname(aomdd.__file__))
    code = (
        "import sys; before = set(sys.modules); import aomdd.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    added = set(proc.stdout.split())
    assert "aomdd.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "traceback"}


def test_empty_model_exit_code(tmp_path, capsys):
    empty = _write(tmp_path / "empty.cnf", "p cnf 0 0\n")
    assert main(["compile", empty]) == 2
    assert main(["compile", empty, "--chain"]) == 2
    assert "no variables" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_state(
    enabled, example_cnf, order_file, tmp_path, monkeypatch, capsys
):
    from aomdd import cli

    out = str(_compile(example_cnf, order_file, tmp_path))
    smaller_cnf = _write(
        tmp_path / "smaller.cnf", EXAMPLE_CNF.replace("2 3 0\n", "-2 3 0\n")
    )
    smaller = str(tmp_path / "smaller.aomdd")
    assert main(["compile", smaller_cnf, "--order-file", order_file, "--out", smaller]) == 0
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "dot", broken)
    cases = [
        (["equiv", out, out], 0),
        (["equiv", out, smaller], 1),
        (["query", str(tmp_path / "missing.aomdd"), "--query", "count"], 2),
        (["compile", example_cnf, "--mem-cap", "3"], 3),
        (["dot", out], 4),
        (["--help"], SystemExit),
        (["compile", example_cnf, "--no-such-option"], SystemExit),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, expected in cases:
            try:
                code = main(argv)
            except SystemExit:
                code = SystemExit
            assert (code, gc.isenabled()) == (expected, enabled), argv
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]  # the command itself ran with the collector paused
