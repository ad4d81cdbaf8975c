"""Self-test of the benchmark: output schema and failure accounting.

Runs on shrunken workloads in a few seconds:

    python3 -m pytest bench/test_bench.py
"""

import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import harness
import run
import tracing
from workloads import WORKLOADS, chain, cnf, dpll_count, grid

SMALL = {
    "grid": functools.partial(grid, side=3),
    "cnf": functools.partial(cnf, n=14, m=42),
    "chain": functools.partial(chain, n=30, bcp_n=10),
}

SPEC = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert _units("end_to_end") == harness.END_TO_END
    assert _units("per_layer") == tracing.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(name, trace):
    result = run.measure(SMALL[name], seed=3, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    json.dumps(result)


def test_times_are_divided_by_the_host_slowdown(monkeypatch):
    real = harness.run_cli
    monkeypatch.setattr(harness, "run_cli", lambda argv, cwd: (*real(argv, cwd)[:3], 1.0, 0))
    monkeypatch.setattr(harness, "yardstick", lambda: 2 * harness.YARDSTICK_SECONDS)
    metrics = harness.end_to_end(SMALL["grid"], 3, 0, harness.Tally())
    harness.remove_work_dir()
    assert metrics["compile_s"] == pytest.approx(0.5)
    assert metrics["equiv_s"] == pytest.approx(0.5)
    assert metrics["query_s"] == pytest.approx(2.0)


def test_references_are_independent_of_the_package():
    w = grid(4, side=2)
    # brute force over the 4 cells of a 2x2 grid
    brute = [w.weight_of([a >> i & 1 for i in range(4)]) for a in range(16)]
    assert w.mpe == max(brute)
    assert w.count == 16
    assert dpll_count(3, [[1, 2], [-1, 3]]) == 4
    assert dpll_count(3, [[1, 2], [-1, 3]], {0: 1}) == 2


def _flip_one_weight(path):
    """Swap the first two distinct arc weights of one node record."""
    lines = path.read_text().split("\n")
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[:1] != ["n"]:
            continue
        arcs = [a.split(":") for a in fields[3:]]
        if len(arcs) == 2 and arcs[0][0] != arcs[1][0] and Fraction(arcs[0][0]) != 0 != Fraction(arcs[1][0]):
            arcs[0][0], arcs[1][0] = arcs[1][0], arcs[0][0]
            lines[i] = " ".join(fields[:3] + [":".join(a) for a in arcs])
            path.write_text("\n".join(lines))
            return
    raise AssertionError("no node with two distinct nonzero weights")


def test_corrupted_diagram_is_a_failed_operation(tmp_path):
    workload, files, _, ok = harness.setup(SMALL["grid"], 5, tmp_path)
    assert ok
    tally = harness.Tally()
    harness.run_round(workload, files, tally)
    assert (tally.attempted, tally.failed) == (len(harness.OPS), 0)

    _flip_one_weight(files.search)
    tally = harness.Tally()
    harness.run_round(workload, files, tally, ops=harness.QUERY_OPS + ("equiv",))
    assert tally.attempted == 5
    assert tally.failed >= 1
    assert tally.wrong >= 1
