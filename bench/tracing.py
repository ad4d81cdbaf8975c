"""Traced in-process run: per-layer times and counts, taken from outside.

The eight CLI commands run in this process through ``aomdd.cli.main``,
once untraced and twice with wrappers installed on the module
attributes the callers look up.  A wrapper records its call's wall
time, the part of it spent in nested wrapped calls (so each layer's
*self* time is known), the call count and any exception.  Calls made
once per command keep a span; hot inner calls (one per meta-node or
per search expansion) are only aggregated.  Spans stay in memory and
are written out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import statistics
import sys
import time
import traceback
from collections import Counter

from harness import OPS, SRC, WORK, check, run_cli, run_round

# Solutions drawn from enumerate_solutions per pass.
ENUMERATE_LIMIT = 1000

# metric name -> unit; "--trace 1" reports exactly these
PER_LAYER = {
    "cli.startup_s": "s",
    "model.parse_s": "s",
    "model.table_entries": "count",
    "structure.primal_s": "s",
    "structure.minfill_s": "s",
    "structure.pseudo_tree_s": "s",
    "structure.contexts_s": "s",
    "structure.buckets_s": "s",
    "structure.width": "count",
    "structure.height": "count",
    "search.compile_s": "s",
    "search.or_expansions": "count",
    "search.and_expansions": "count",
    "search.cache_hits": "count",
    "search.trace_ratio": "ratio",
    "bcp.compile_s": "s",
    "bcp.hook_s": "s",
    "bcp.or_expansions": "count",
    "bcp.hook_calls": "count",
    "bcp.reject_ratio": "ratio",
    "be.compile_s": "s",
    "be.group_s": "s",
    "be.group_calls": "count",
    "be.apply_calls": "count",
    "diagram.make_node_s": "s",
    "diagram.normalize_s": "s",
    "diagram.intern_s": "s",
    "diagram.equal_s": "s",
    "diagram.make_node_calls": "count",
    "diagram.intern_lookups": "count",
    "diagram.intern_hit_ratio": "ratio",
    "diagram.nodes_created": "count",
    "diagram.live_ratio": "ratio",
    "diagram.failed": "count",
    "serialize.loads_s": "s",
    "serialize.dumps_s": "s",
    "query.count_s": "s",
    "query.sum_s": "s",
    "query.mpe_s": "s",
    "query.eval_s": "s",
    "query.enumerate_s": "s",
    "query.failed": "count",
    "failed_frac": "ratio",
    "trace.overhead_ratio": "ratio",
    **{"trace.unattributed_frac." + op: "ratio" for op in OPS},
}

# self-time metric -> the span names whose self times it sums
_TIMES = {
    "model.parse_s": ("model.parse", "model.parse_evidence"),
    "structure.primal_s": ("structure.primal",),
    "structure.minfill_s": ("structure.minfill",),
    "structure.pseudo_tree_s": ("structure.pseudo_tree",),
    "structure.contexts_s": ("structure.contexts",),
    "structure.buckets_s": ("structure.buckets",),
    "search.compile_s": ("search.compile",),
    "bcp.compile_s": ("bcp.compile",),
    "bcp.hook_s": ("bcp.hook",),
    "be.compile_s": ("be.compile", "be.apply"),
    "be.group_s": ("be.group",),
    "diagram.make_node_s": ("diagram.make_node",),
    "diagram.normalize_s": ("diagram.normalize",),
    "diagram.intern_s": ("diagram.intern",),
    "diagram.equal_s": ("diagram.equal",),
    "serialize.loads_s": ("serialize.loads",),
    "serialize.dumps_s": ("serialize.dumps",),
    "query.count_s": ("query.count",),
    "query.sum_s": ("query.sum",),
    "query.mpe_s": ("query.mpe",),
    "query.eval_s": ("query.eval",),
    "query.enumerate_s": ("query.enumerate",),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.op = None
        self.stack = []  # nested-call time of each open wrapped call
        self.open = []  # names of the open wrapped calls, outermost first
        self.self_s = Counter()
        self.calls = Counter()
        self.failed = Counter()
        self.top_s = Counter()  # per op: time in outermost wrapped calls
        self.created = Counter()  # per op: meta-nodes the unique tables created
        self.facts = {}  # (op, key) -> value read from a layer's result
        self.spans = []
        self.loaded = None  # the diagram the ``count`` command loaded

    def wrap(self, name, fn, hot=False, on_result=None):
        stack = self.stack
        open_names = self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            open_names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                took = time.perf_counter() - start
                nested = stack.pop()
                open_names.pop()
                self.self_s[name] += took - nested
                self.calls[name] += 1
                if stack:
                    stack[-1] += took
                else:
                    self.top_s[self.op] += took
                if not hot:
                    parent = open_names[-1] if open_names else None
                    self.spans.append((self.op, name, parent, start, took))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def fact(self, key, value):
        self.facts[self.op, key] = value

    def counts(self):
        """Every count of the pass, for the repeat check."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update(("failed." + k, v) for k, v in self.failed.items())
        out.update(("created." + k, v) for k, v in self.created.items())
        out.update(("%s.%s" % k, v) for k, v in self.facts.items())
        return out


@contextlib.contextmanager
def installed(tracer):
    """Patch the package's module attributes with tracer wrappers."""
    from aomdd import be_compiler, cli, diagram, search_compiler, serialize, structure
    from aomdd.diagram import UniqueTable, reachable_nodes

    patches = []

    def patch(owner, attr, name, hot=False, on_result=None, fn=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, fn or original, hot, on_result))

    def on_model(model):
        tracer.fact("table_entries", sum(len(f.values) for f in model.functions))

    def on_tree(tree):
        tracer.fact("height", tree.height)
        tracer.fact("width", max(len(c) for c in tree.context))

    def on_compiled(diagram):
        tracer.fact("live", len(reachable_nodes(diagram)))
        if diagram.stats is not None:
            for key in ("or_expansions", "and_expansions", "cache_hits"):
                tracer.fact(key, sum(getattr(diagram.stats, key).values()))

    def on_hook_result(allowed):
        if not allowed:
            tracer.calls["bcp.reject"] += 1

    def on_loads(diagram):
        if tracer.op == "count":
            tracer.loaded = diagram

    real_intern = UniqueTable.intern

    def counting_intern(table, var, arcs):
        before = len(table)
        node = real_intern(table, var, arcs)
        if len(table) != before:
            tracer.created[tracer.op] += 1
        return node

    real_bcp_hook = cli.bcp_hook

    def traced_bcp_hook(model):
        return tracer.wrap("bcp.hook", real_bcp_hook(model), hot=True, on_result=on_hook_result)

    search = tracer.wrap("search.compile", cli.compile_search, on_result=on_compiled)
    bcp = tracer.wrap("bcp.compile", cli.compile_search, on_result=on_compiled)

    def compile_search(*args, **kwargs):
        return (search if kwargs.get("hook") is None else bcp)(*args, **kwargs)

    patches.append((cli, "compile_search", cli.compile_search))
    patches.append((cli, "bcp_hook", cli.bcp_hook))
    cli.compile_search = compile_search
    cli.bcp_hook = traced_bcp_hook
    patch(cli, "parse_uai", "model.parse", on_result=on_model)
    patch(cli, "parse_dimacs_cnf", "model.parse", on_result=on_model)
    patch(cli, "parse_uai_evidence", "model.parse_evidence")
    for owner in (cli, be_compiler):
        patch(owner, "build_primal_graph", "structure.primal")
    patch(cli, "min_fill_ordering", "structure.minfill")
    patch(cli, "generate_pseudo_tree", "structure.pseudo_tree", on_result=on_tree)
    patch(structure, "compute_contexts", "structure.contexts")
    for owner in (search_compiler, be_compiler):
        patch(owner, "compute_buckets", "structure.buckets")
    patch(cli, "compile_be", "be.compile", on_result=on_compiled)
    patch(be_compiler, "group_descendants", "be.group", hot=True)
    patch(be_compiler, "apply_fragments", "be.apply", hot=True)
    for owner in (search_compiler, be_compiler, serialize):
        patch(owner, "make_node", "diagram.make_node", hot=True)
    patch(diagram, "normalize_arcs", "diagram.normalize", hot=True)
    patch(UniqueTable, "intern", "diagram.intern", hot=True, fn=counting_intern)
    patch(cli, "structural_equal", "diagram.equal")
    patch(cli, "dumps", "serialize.dumps")
    patch(cli, "loads", "serialize.loads", on_result=on_loads)
    patch(cli, "count_solutions", "query.count")
    patch(cli, "sum_over", "query.sum")
    patch(cli, "mpe", "query.mpe")
    patch(cli, "evaluate", "query.eval")
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _run_main(argv):
    """``aomdd.cli.main`` in-process; returns (code, out) like a child would."""
    from aomdd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error exits 1, as in a child
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def _enumerate(diagram):
    from aomdd import query

    return list(query.enumerate_solutions(diagram, limit=ENUMERATE_LIMIT))


def in_process_pass(workload, files, tally, tracer=None):
    """The eight commands through ``cli.main``, then one enumeration.

    The enumeration walks the diagram the ``count`` command loaded.
    Garbage of the previous command is collected, untimed, before each
    step, as a child process would start with an empty heap.  Returns
    the summed wall time of the steps in seconds.
    """
    files.clear_outputs()
    label = "traced" if tracer else "untraced"
    total = 0.0
    with installed(tracer) if tracer else contextlib.nullcontext():
        for op in OPS:
            if tracer:
                tracer.op = op
            gc.collect()
            start = time.perf_counter()
            code, out = _run_main(files.argv(op))
            total += time.perf_counter() - start
            tally.add(check(op, code, out, workload, files), "%s %s exit %d" % (label, op, code))
        if tracer:
            tracer.op = "enumerate"
            enumerate_ = tracer.wrap("query.enumerate", _enumerate)
            loaded = tracer.loaded
        else:
            from aomdd.serialize import loads

            enumerate_ = _enumerate
            loaded = loads(files.search.read_text())
        gc.collect()
        start = time.perf_counter()
        try:
            status = "ok" if loaded and enumerate_(loaded) else "crash"
        except RecursionError:
            status = "crash"
        total += time.perf_counter() - start
        tally.add(status, label + " enumerate")
    return total


def _layer_metrics(tracer):
    """Per-layer values of one traced pass (all but the run-level ones)."""
    facts = tracer.facts
    calls = tracer.calls
    m = {name: sum(tracer.self_s[s] for s in spans) for name, spans in _TIMES.items()}
    m["model.table_entries"] = facts.get(("compile", "table_entries"), 0)
    m["structure.width"] = facts.get(("compile", "width"), 0)
    m["structure.height"] = facts.get(("compile", "height"), 0)
    for key in ("or_expansions", "and_expansions", "cache_hits"):
        m["search." + key] = facts.get(("compile", key), 0)
    m["search.trace_ratio"] = _ratio(m["search.or_expansions"], facts.get(("compile", "live"), 0))
    m["bcp.or_expansions"] = facts.get(("compile_bcp", "or_expansions"), 0)
    m["bcp.hook_calls"] = calls["bcp.hook"]
    m["bcp.reject_ratio"] = _ratio(calls["bcp.reject"], calls["bcp.hook"])
    m["be.group_calls"] = calls["be.group"]
    m["be.apply_calls"] = calls["be.apply"]
    m["diagram.make_node_calls"] = calls["diagram.make_node"]
    m["diagram.intern_lookups"] = calls["diagram.intern"]
    m["diagram.nodes_created"] = sum(tracer.created.values())
    m["diagram.intern_hit_ratio"] = 1 - _ratio(m["diagram.nodes_created"], calls["diagram.intern"])
    compiles = ("compile", "compile_be", "compile_bcp")
    live = sum(facts.get((op, "live"), 0) for op in compiles)
    m["diagram.live_ratio"] = _ratio(live, sum(tracer.created[op] for op in compiles))
    m["diagram.failed"] = sum(v for k, v in tracer.failed.items() if k.startswith("diagram."))
    m["query.failed"] = sum(v for k, v in tracer.failed.items() if k.startswith("query."))
    return m


def _ratio(a, b):
    return a / b if b else 0.0


def traced_run(workload, files, tally):
    """Startup time, one CLI round, one untraced and two traced passes."""
    startup = statistics.median(run_cli(["--help"], files.dir)[3] for _ in range(5))
    before = tally.attempted, tally.failed
    cli_round = run_round(workload, files, tally)
    failed_frac = _ratio(tally.failed - before[1], tally.attempted - before[0])
    sys.path.insert(0, str(SRC))
    untraced = in_process_pass(workload, files, tally)
    tracers, traced = [], []
    for _ in range(2):
        tracers.append(Tracer())
        traced.append(in_process_pass(workload, files, tally, tracers[-1]))
    first, second = tracers
    if first.counts() != second.counts():
        diff = sorted(k for k in first.counts().keys() | second.counts().keys()
                      if first.counts().get(k) != second.counts().get(k))
        tally.add("wrong", "count repeat check: %s" % ", ".join(diff))
    else:
        tally.add("ok")
    passes = [_layer_metrics(t) for t in tracers]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["cli.startup_s"] = startup
    metrics["failed_frac"] = failed_frac
    metrics["trace.overhead_ratio"] = statistics.median(traced) / untraced
    for op in OPS:
        covered = startup + statistics.median(t.top_s[op] for t in tracers)
        metrics["trace.unattributed_frac." + op] = 1 - covered / cli_round[op][0]
    _write_spans(workload.name, first)
    return metrics


def _write_spans(name, tracer):
    """Write the first traced pass's spans and aggregates to the work area."""
    WORK.mkdir(parents=True, exist_ok=True)
    origin = min((s[3] for s in tracer.spans), default=0.0)
    record = {
        "spans": [
            {"op": op, "name": n, "parent": parent, "start_s": start - origin, "seconds": took}
            for op, n, parent, start, took in tracer.spans
        ],
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "failed": dict(tracer.failed),
    }
    with open(WORK / ("trace-%s.json" % name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
