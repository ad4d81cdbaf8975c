"""The package's exported names: what the README and the CLI use."""

import re
from pathlib import Path

import aomdd
from aomdd import be_compiler, cli, search_compiler, structure

from conftest import bench_tracing

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTED = {
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
}


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index("## " + title + "\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_all_is_the_documented_set():
    assert len(aomdd.__all__) == len(set(aomdd.__all__))
    assert set(aomdd.__all__) == EXPORTED
    for name in aomdd.__all__:
        assert getattr(aomdd, name) is not None
    section = _readme_section("Python API")
    bullets = next(p for p in section.split("\n\n") if p.startswith("- "))
    listed = set(re.findall(r"`(\w+)`", bullets))
    assert listed == EXPORTED


def test_readme_api_block_imports():
    section = _readme_section("Python API")
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = re.search(r"from aomdd import \(([^)]*)\)", block).group(1)
    names = [n.strip() for n in imported.split(",") if n.strip()]
    assert names
    namespace = {}
    exec("from aomdd import " + ", ".join(names), namespace)
    assert set(names) <= EXPORTED


def test_the_benchmark_tracer_finds_every_name_it_patches():
    # the tracer wraps module attributes by name: one the package dropped
    # fails here, not only in the benchmark's own self-test
    tracing = bench_tracing()
    owners = (be_compiler, cli, search_compiler, structure)
    before = [dict(vars(m)) for m in owners]
    with tracing.installed(tracing.Tracer()):
        assert [dict(vars(m)) for m in owners] != before
    assert [dict(vars(m)) for m in owners] == before
