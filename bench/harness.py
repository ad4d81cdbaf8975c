"""End-to-end measurement: the ``aomdd`` CLI timed as child processes.

One round runs the eight commands of a workload one after another,
each in a fresh interpreter, and checks every output against the
workload's reference answers.  A command that exits unexpectedly,
crashes, or prints a wrong answer counts as one failed operation; the
run goes on.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

# About how long one round of a workload takes on the host the benchmark
# was tuned on; a run makes seconds // ROUND_SECONDS rounds (at least one).
ROUND_SECONDS = 10

# Set-ups made after each round.  setup_s is the median of these and of
# the first set-up; spreading them over the run, rather than making them
# all at its start, lets them see the same drift of host speed as the
# rounds do.
SETUPS_PER_ROUND = 3

# Time of one yardstick() call on the tuning host at its usual speed.
YARDSTICK_SECONDS = 0.037

# The eight commands of one round, in the order they run.
OPS = ("compile", "compile_be", "compile_bcp", "count", "sum", "mpe", "eval", "equiv")
COMPILE_OPS = OPS[:3]
QUERY_OPS = ("count", "sum", "mpe", "eval")

# metric name -> unit; "--trace 0" reports exactly these
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "compile_be_s": "s",
    "compile_bcp_s": "s",
    "query_s": "s",
    "equiv_s": "s",
    "peak_rss_mib": "MiB",
    "file_bytes": "bytes",
    "meta_nodes": "count",
}


class Files:
    """Paths of one workload's inputs and outputs inside a work directory."""

    def __init__(self, directory, workload):
        d = Path(directory)
        self.dir = d
        self.model = d / workload.model_file
        self.bcp_model = d / ("bcp_" + workload.model_file) if workload.bcp_model_text else self.model
        self.evidence = d / "evidence.txt"
        self.assignment = d / "assignment.txt"
        self.search = d / "search.aomdd"
        self.be = d / "be.aomdd"
        self.bcp = d / "bcp.aomdd"
        # search-compiled bcp model, when that is not the main model
        self.bcp_ref = d / "bcp_ref.aomdd" if workload.bcp_model_text else self.search

    def argv(self, op):
        s = str(self.search)
        return {
            "compile": ["compile", str(self.model), "--out", s],
            "compile_be": ["compile", str(self.model), "--method", "be", "--out", str(self.be)],
            "compile_bcp": ["compile", str(self.bcp_model), "--prune", "bcp", "--out", str(self.bcp)],
            "count": ["query", s, "--query", "count"],
            "sum": ["query", s, "--query", "sum", "--evidence", str(self.evidence), "--exact"],
            "mpe": ["query", s, "--query", "mpe", "--exact"],
            "eval": ["query", s, "--query", "eval", "--assignment", str(self.assignment), "--exact"],
            "equiv": ["equiv", s, str(self.be)],
        }[op]

    def clear_outputs(self):
        for p in (self.search, self.be, self.bcp):
            p.unlink(missing_ok=True)


def check_source():
    """Raise SystemExit(2) unless the package source is present."""
    if not (SRC / "aomdd" / "cli.py").is_file():
        print("error: %s/aomdd not found; run from a checkout of the repository" % SRC, file=sys.stderr)
        raise SystemExit(2)


def run_cli(argv, cwd):
    """Run ``aomdd <argv>`` as a child; return (code, out, err, seconds, maxrss_kib).

    The child writes to files rather than pipes, so a large traceback
    can never block it, and its max-RSS comes from its own rusage.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out_path, err_path = Path(cwd) / "child.out", Path(cwd) / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "aomdd.cli", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd, env=env,
        )
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(errors="replace"), err_path.read_text(errors="replace")
    return child.returncode, text[0], text[1], seconds, usage.ru_maxrss


def write_inputs(workload, files):
    files.dir.mkdir(parents=True, exist_ok=True)
    files.model.write_text(workload.model_text)
    if workload.bcp_model_text:
        files.bcp_model.write_text(workload.bcp_model_text)
    files.evidence.write_text(workload.evidence_text)
    files.assignment.write_text(" ".join(map(str, workload.assignment)) + "\n")


def setup(make, seed, directory):
    """Generate one workload, write its files and warm the interpreter up.

    The warm-up is ``aomdd --help``; a workload whose ``--prune bcp``
    model differs from the main one also gets its search-compiled
    reference file here.  Returns (workload, files, seconds, ok).
    """
    start = time.perf_counter()
    workload = make(seed)
    files = Files(directory, workload)
    write_inputs(workload, files)
    warm = run_cli(["--help"], files.dir)
    ok = warm[0] == 0
    if workload.bcp_model_text:
        ref = run_cli(["compile", str(files.bcp_model), "--out", str(files.bcp_ref)], files.dir)
        ok = ok and ref[0] == 0
    return workload, files, time.perf_counter() - start, ok


def _same_bytes(a, b):
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return None


def check(op, code, out, workload, files):
    """Classify one command's result: "ok", "wrong" (bad answer) or "crash"."""
    if op == "equiv" and code == 1 and out.strip() == "not equivalent":
        return "wrong"
    if code != 0:
        return "crash"
    if op in COMPILE_OPS:
        mine, reference = {
            "compile": (files.search, files.search),
            "compile_be": (files.be, files.search),
            "compile_bcp": (files.bcp, files.bcp_ref),
        }[op]
        same = _same_bytes(mine, reference)
        return "crash" if same is None else "ok" if same else "wrong"
    try:
        lines = out.split("\n")
        if op == "count":
            good = int(lines[0]) == workload.count
        elif op == "sum":
            good = Fraction(lines[0]) == workload.sum
        elif op == "mpe":
            witness = [int(t) for t in lines[1].split()]
            good = Fraction(lines[0]) == workload.mpe == workload.weight_of(witness)
        elif op == "eval":
            good = Fraction(lines[0]) == workload.eval
        else:
            good = out.strip() == "equivalent"
    except (ValueError, IndexError, ZeroDivisionError):
        good = False
    return "ok" if good else "wrong"


class Tally:
    """Attempted, failed and wrong operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, status, label=""):
        self.attempted += 1
        if status != "ok":
            self.failed += 1
            self.wrong += status == "wrong"
            print("failed %s: %s" % (label, status))


def run_round(workload, files, tally, ops=OPS, yard=None):
    """Run the commands once; return {op: (seconds, maxrss_kib)}.

    With a list ``yard``, a yardstick() time is appended after each command.
    """
    if ops == OPS:
        files.clear_outputs()
    sample = {}
    for op in ops:
        code, out, _, seconds, rss = run_cli(files.argv(op), files.dir)
        tally.add(check(op, code, out, workload, files), "cli %s exit %d" % (op, code))
        sample[op] = (seconds, rss)
        if yard is not None:
            yard.append(yardstick())
    return sample


def yardstick():
    """Time a fixed piece of pure-Python work that does not use the package.

    It hashes tuples into a dict of 40,000 entries and adds Fractions, as
    the compilers do, so it slows down with the host as they do.
    """
    start = time.perf_counter()
    table, total = {}, Fraction(0)
    for i in range(40000):
        key = (i % 251, i % 241, i & 7)
        table[key] = table.get(key, 0) + i
        if not i & 7:
            total += Fraction(i % 7 + 1, i % 5 + 2)
    return time.perf_counter() - start


def _diagram_size(path):
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("nodes "):
                    return os.path.getsize(path), int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0, 0


def _describe(name, values, unit):
    print("%-14s mean %.4f median %.4f min %.4f max %.4f %s (n=%d): %s"
          % (name, statistics.fmean(values), statistics.median(values), min(values), max(values),
             unit, len(values), " ".join("%.4f" % v for v in values)))


def round_count(seconds):
    """Rounds in a run of about ``seconds``.

    The count does not depend on how fast the host happens to be, so
    ``attempted`` and ``failed`` are the same in every run with the same
    ``seconds``.
    """
    return max(1, int(seconds // ROUND_SECONDS))


def end_to_end(make, seed, seconds, tally):
    """Set up, then run ``round_count(seconds)`` rounds, each followed by
    SETUPS_PER_ROUND more set-ups in fresh directories.

    Every time metric is reported at the tuning host's usual speed: the
    measured time divided by the run's mean yardstick() time over
    YARDSTICK_SECONDS.  On a shared host the speed of the whole machine
    drifts by tens of percent over minutes; the yardstick, timed after
    every command and set-up, drifts with it, while it does not depend
    on the package, so a change to the package still moves the metrics.
    """
    setups, yard = [], []

    def set_up():
        workload, files, took, ok = setup(make, seed, work_dir() / ("setup-%d" % len(setups)))
        tally.add("ok" if ok else "crash", "setup")
        setups.append(took)
        yard.append(yardstick())
        return workload, files

    workload, files = set_up()
    rounds = []
    for _ in range(round_count(seconds)):
        rounds.append(run_round(workload, files, tally, yard=yard))
        for _ in range(SETUPS_PER_ROUND):
            set_up()
    slowdown = statistics.fmean(yard) / YARDSTICK_SECONDS
    print("yardstick mean %.4f s over %d calls; reported times are the measured"
          " times below divided by %.4f" % (statistics.fmean(yard), len(yard), slowdown))
    series = {"setup_s": setups}
    for op in OPS:
        if op not in QUERY_OPS:
            series[op + "_s"] = [r[op][0] for r in rounds]
    series["query_s"] = [sum(r[op][0] for op in QUERY_OPS) for r in rounds]
    series["peak_rss_mib"] = [max(r[op][1] for op in COMPILE_OPS) / 1024 for r in rounds]
    for name, values in series.items():
        _describe(name, values, END_TO_END[name])
    # Command times are means over the rounds: the host's speed drifts in
    # phases of seconds to minutes, and with few rounds the mean, which
    # uses every round, spreads less from run to run than the median does.
    metrics = {
        name: (statistics.median if name in ("setup_s", "peak_rss_mib") else statistics.fmean)(values)
        for name, values in series.items()
    }
    for name, unit in END_TO_END.items():
        if unit == "s":
            metrics[name] /= slowdown
    metrics["file_bytes"], metrics["meta_nodes"] = _diagram_size(files.search)
    return metrics


def work_dir():
    return WORK / ("run-%d" % os.getpid())


def remove_work_dir():
    shutil.rmtree(work_dir(), ignore_errors=True)
