"""Command-line interface: compile, query, equiv, dot.

``compile`` writes one file, the diagram (``--out``), plus ``--stats`` on
stdout; ``dot`` prints a diagram file as DOT on stdout.

Exit codes: 0 success / 1 negative answer (equiv: not equivalent) /
2 usage error, unreadable file or ``AomddError`` (parse, structural) /
3 resource cap exceeded / 4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from .be_compiler import compile_be
from .diagram import collector_paused, count_stats, structural_equal
from .errors import AomddError, ParseError, ResourceLimitError, StructuralError
from .model import _ints, _lines, parse_dimacs_cnf, parse_uai, parse_uai_evidence
from .query import count_solutions, evaluate, mpe, sum_over
from .search_compiler import bcp_hook, compile_search
from .serialize import dumps, loads, to_dot
from .structure import (
    build_primal_graph,
    chain_pseudo_tree,
    generate_pseudo_tree,
    induced_width,
    min_fill_ordering,
)

# Python's default limit on the digits of an int converted to a string
MAX_PRECISION = 4300


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aomdd",
        description="Compile graphical models into canonical AND/OR "
        "multi-valued decision diagrams and query them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Without prefix matching, the removed ``--order`` is a usage error
    # instead of an abbreviation of ``--order-file``.
    c = sub.add_parser(
        "compile", help="compile a model file into a diagram", allow_abbrev=False
    )
    c.add_argument("input", help="model file: DIMACS CNF if its first token is c or p, else UAI")
    c.add_argument("--method", choices=["search", "be"], default="search", help="compilation strategy")
    c.add_argument("--order-file", help="file with an explicit variable ordering (whitespace-separated ids)")
    c.add_argument("--chain", action="store_true", help="force a chain pseudo tree (MDD/OBDD mode)")
    c.add_argument(
        "--prune",
        choices=["none", "bcp"],
        default="none",
        help="pruning for the search method; bcp propagates the zero table entries,"
        " so a model with none compiles as with --prune none",
    )
    c.add_argument("--seed", type=int, default=0, help="seed for ordering tie-breaks")
    c.add_argument("--mem-cap", type=int, help="abort after this many meta-nodes")
    c.add_argument("--out", help="write the canonical diagram file here")
    c.add_argument("--stats", action="store_true", help="print a stats block")

    q = sub.add_parser("query", help="answer a query on a compiled diagram")
    q.add_argument("diagram", help="canonical diagram file")
    q.add_argument("--query", choices=["count", "sum", "mpe", "eval"], required=True)
    q.add_argument("--evidence", help="evidence file for count, sum and mpe (count, then variable/value pairs)")
    q.add_argument("--assignment", help="full assignment file for eval (n whitespace-separated values)")
    q.add_argument("--precision", type=int, default=12, help="printed significant digits")
    q.add_argument("--exact", action="store_true", help="print exact rationals instead of decimals")

    e = sub.add_parser("equiv", help="decide equivalence of two diagram files")
    e.add_argument("a")
    e.add_argument("b")

    d = sub.add_parser("dot", help="print a diagram file as DOT on stdout")
    d.add_argument("diagram")
    return parser


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            raise ParseError("%s is not UTF-8 text" % path)


def _read_ints(path, what):
    return [val for lineno, toks in _lines(_read(path)) for val in _ints(toks, what, lineno)]


def _parse_model(path):
    text = _read(path)
    # DIMACS starts with a 'c' comment or the 'p cnf' header, UAI with its preamble
    if text.split(None, 1)[:1] in (["c"], ["p"]):
        return parse_dimacs_cnf(text)
    return parse_uai(text)


def _number_str(value, args):
    if getattr(args, "exact", False):
        return str(value)
    return _decimal_str(Fraction(value), args.precision)


def _decimal_str(value, digits):
    """``'%.*g' % (digits, value)`` for an exact rational ``value >= 0``.

    The value is rounded half-even to ``digits`` significant digits
    without passing through ``float``, which overflows past 1e308 and
    underflows to 0 below 1e-324.
    """
    if value == 0:
        return "0"
    # exp = floor(log10(value)), estimated from bit lengths and corrected
    exp = int((value.numerator.bit_length() - value.denominator.bit_length()) * 0.30103)
    while value >= Fraction(10) ** (exp + 1):
        exp += 1
    while value < Fraction(10) ** exp:
        exp -= 1
    mantissa = round(value / Fraction(10) ** (exp - digits + 1))
    if mantissa == 10**digits:  # rounding carried into a new digit
        mantissa //= 10
        exp += 1
    text = str(mantissa)
    if -4 <= exp < digits:
        if exp < 0:
            text = "0" * -exp + text
        point = max(exp, 0) + 1
        return (text[:point] + "." + text[point:]).rstrip("0").rstrip(".")
    body = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    return "%se%+03d" % (body, exp)


def cmd_compile(args):
    model = _parse_model(args.input)
    g = build_primal_graph(model)
    if args.order_file:
        order = _read_ints(args.order_file, "order entry")
    else:
        order = min_fill_ordering(g, seed=args.seed)
    tree = chain_pseudo_tree(g, order) if args.chain else generate_pseudo_tree(g, order)
    start = time.perf_counter()
    if args.method == "search":
        # without a zero entry there is no nogood, so the hook could
        # reject nothing and would only cost a call per arc
        prune = args.prune == "bcp" and any(0 in f.values for f in model.functions)
        hook = bcp_hook(model) if prune else None
        compiled = compile_search(model, tree, hook=hook, node_cap=args.mem_cap)
    else:
        compiled = compile_be(model, tree=tree, node_cap=args.mem_cap)
    elapsed = time.perf_counter() - start
    if args.out:
        # written beside the target and renamed once complete, so a
        # compile or a write that fails leaves no file behind
        partial = "%s.%d.tmp" % (args.out, os.getpid())
        handle = open(partial, "x", encoding="utf-8")
        try:
            with handle:
                dumps(compiled, handle)
            os.replace(partial, args.out)
        except BaseException:
            os.unlink(partial)
            raise
    if args.stats:
        stats = count_stats(compiled)
        print("n %d" % model.n)
        print("k %d" % max(model.domains))
        print("induced_width %d" % induced_width(g, order))
        print("height %d" % tree.height)
        for v in tree.dfs_order:
            print("meta_nodes_var %d %d" % (v, stats["meta_nodes_per_var"].get(v, 0)))
        print("meta_nodes_total %d" % stats["total_meta_nodes"])
        print("edges %d" % stats["total_edges"])
        print("seconds %.6f" % elapsed)
        print("seed %d" % args.seed)
    return 0


def cmd_query(args):
    compiled = loads(_read(args.diagram))
    evidence = {}
    if args.evidence:
        evidence = parse_uai_evidence(_read(args.evidence), n=len(compiled.domains))
    if args.query == "count":
        print(count_solutions(compiled, evidence))
    elif args.query == "sum":
        print(_number_str(sum_over(compiled, evidence), args))
    elif args.query == "mpe":
        value, witness = mpe(compiled, evidence)
        print(_number_str(value, args))
        print(" ".join(str(v) for v in witness))
    else:
        if not args.assignment:
            raise StructuralError("eval requires --assignment")
        x = _read_ints(args.assignment, "assignment value")
        print(_number_str(evaluate(compiled, x), args))
    return 0


def cmd_equiv(args):
    text_a = _read(args.a)
    a = loads(text_a)
    text_b = _read(args.b)
    # Canonical files of equal diagrams are identical, so equal text
    # settles it once ``a`` is known to be a valid diagram.
    if text_b == text_a or structural_equal(a, loads(text_b)):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def cmd_dot(args):
    sys.stdout.write(to_dot(loads(_read(args.diagram))))
    return 0


@contextmanager
def _digit_limit():
    """Report Python's limit on the digits of an ``int`` spelled as a resource limit.

    An exact answer, or a weight or root constant that ``dumps`` spells,
    is a product of table entries, which no input check bounds; past the
    limit ``str`` raises ``ValueError``.
    """
    try:
        yield
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ResourceLimitError(
            "an exact value has more than %d digits, Python's limit on spelling an"
            " int (sys.set_int_max_str_digits)" % sys.get_int_max_str_digits()
        ) from None


_COMMANDS = {
    "compile": cmd_compile,
    "query": cmd_query,
    "equiv": cmd_equiv,
    "dot": cmd_dot,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "mem_cap", None) or 0) < 0:
        parser.error("--mem-cap must not be negative")
    if getattr(args, "prune", None) == "bcp" and args.method == "be":
        parser.error("--prune bcp applies to --method search only")
    query = getattr(args, "query", None)
    if query == "eval" and args.evidence:
        parser.error("--evidence applies to --query count, sum and mpe only")
    if query not in (None, "eval") and args.assignment:
        parser.error("--assignment applies to --query eval only")
    if not 1 <= getattr(args, "precision", 1) <= MAX_PRECISION:
        parser.error("--precision must be between 1 and %d digits" % MAX_PRECISION)
    try:
        with collector_paused(), _digit_limit():
            return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (AomddError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only here: loading it costs every command's start-up

        traceback.print_exc()
        print("error: internal: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
