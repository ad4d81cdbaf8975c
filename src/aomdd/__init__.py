"""Canonical AND/OR multi-valued decision diagrams for graphical models.

Compile discrete graphical models (UAI weighted networks, DIMACS CNF
constraint networks) into canonical AND/OR multi-valued decision
diagrams, by depth-first AND/OR search with context caching or by a
bucket-elimination APPLY schedule, and answer counting, summation, MPE,
evaluation, enumeration, and equivalence queries on the compiled form.

The package exports what the README and the ``aomdd`` CLI use; the
submodules hold the rest.
"""

from .be_compiler import compile_be
from .diagram import count_stats, structural_equal
from .errors import AomddError, ParseError, ResourceLimitError, StructuralError
from .model import (
    brute_force_table,
    make_model,
    parse_dimacs_cnf,
    parse_uai,
    parse_uai_evidence,
)
from .query import (
    count_solutions,
    enumerate_solutions,
    evaluate,
    mpe,
    normalized_root_sum,
    sum_over,
)
from .search_compiler import bcp_hook, compile_search
from .serialize import dumps, loads, to_dot
from .structure import (
    build_primal_graph,
    chain_pseudo_tree,
    generate_pseudo_tree,
    induced_width,
    min_fill_ordering,
)

__all__ = [
    "AomddError",
    "ParseError",
    "ResourceLimitError",
    "StructuralError",
    "bcp_hook",
    "brute_force_table",
    "build_primal_graph",
    "chain_pseudo_tree",
    "compile_be",
    "compile_search",
    "count_solutions",
    "count_stats",
    "dumps",
    "enumerate_solutions",
    "evaluate",
    "generate_pseudo_tree",
    "induced_width",
    "loads",
    "make_model",
    "min_fill_ordering",
    "mpe",
    "normalized_root_sum",
    "parse_dimacs_cnf",
    "parse_uai",
    "parse_uai_evidence",
    "structural_equal",
    "sum_over",
    "to_dot",
]

__version__ = "0.1.0"
