#!/usr/bin/env python3
"""Benchmark of the killingwebs classifier, end to end and per module.

    python3 bench/run.py --workload dense --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --compare BASE.json NEW.json

Run from anywhere; the program is taken from `src/` next to this directory
and nothing is installed.  One process acts as a single closed-loop client:
one record, call or suite run at a time, with at most one child process
alive.  The seed only shapes the inputs (see corpus.py); every output is
checked against references the benchmark computes itself.

With `--trace 0` the run measures the end-to-end metrics: start-up in fresh
interpreters, `classify --batch` throughput per space, warm in-process
`classify_full` latency, the latency of one `classify` CLI call, and the
wall time of `verify`.  Every workload measures all of them; the workloads
differ in their corpus and in how the run's time is shared out.  The
phases take turns through the whole run, and each repeats its items: pass
k classifies variant k of each record (corpus.Record.variant), the same web
from a distinct input, so no result cache can answer a repeat.

Timing.  A shared machine changes speed from one stretch of a second to
the next, by up to 1.7x, so raw wall times of runs minutes apart disagree
by more than any bound worth keeping.  Every timed stretch is therefore
measured against a fixed reference kernel (reference.py) run in the same
process just before and just after it, and counts as its duration over
theirs.  In-process calls are bracketed by the kernel directly.  A child
process runs the kernel itself when it starts, after importing the
package, after each output line (`classify`), each check (`verify`) or
each step of start-up, every TICK seconds in between, and before it
exits; the kernel's own time is left out.  Each stretch of an item (a
record, a batch process's start and exit, a check) keeps the median of its
ratios over the passes, and the figures are built from those medians, in
ms at reference.REF_MS per kernel run.  Interpreter start, imports and
exit slow down less than pure-Python work when the machine slows, so
their share of a call or a start-up still moves by a few percent with the
machine.

With `--trace 1` it wraps the program's public functions (spans.py) and
reports per-module metrics instead.

Operations are counted on the first pass only (variant 0, the corpus
record itself), so `attempted` and `failed` depend on the seed and not on
how many passes fit in the run; failures on later passes are counted as
`repeat_failures` in the full report.  Answers are checked on every pass.
The full report (environment, corpus digest, sample counts, failing
records) is printed as one JSON line and written to `.bench_work/`; the
last line of stdout is the summary
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT = 120
TICK = 0.05     # seconds between the reference runs inside a child
GRACE = 60      # seconds a run may overrun to finish its first pass

WORKLOADS = ("dense", "strata", "verify")
# `verify --trials`: high enough that the checks whose cost scales with it
# dominate the fixed ones.
TRIALS = 100
# Shares of --seconds per phase.  Each share covers at least the phase's
# first pass over the corpus (on dense, about 25 s of a 32 s run), so that
# runs end close to --seconds; the rest goes to the noisiest figures.  The
# verify workload gives most of its time to the suite.
SHARES = {
    "classify": {"setup": 0.04, "batch_euclidean": 0.19,
                 "batch_minkowski": 0.13, "api": 0.22, "call": 0.24,
                 "verify": 0.18},
    "verify": {"setup": 0.03, "batch_euclidean": 0.08,
               "batch_minkowski": 0.09, "api": 0.16, "call": 0.25,
               "verify": 0.39},
}
API_TURN = 16           # records per turn of the in-process phase
WARM_VARIANT = 10_000   # a variant no pass reaches, for untimed warm-up
CALL_SET = 20           # records timed one CLI call each
BATCH_RECORDS = 24      # records per `classify --batch` process
SETUP_RUNS = 5          # start-up runs in a traced run
TRACED_CALLS = 8        # records run through the CLI entry point, traced

END_TO_END = {
    "setup_s": "s",
    "euclidean_records_per_s": "records/s",
    "minkowski_records_per_s": "records/s",
    "api_p50_ms": "ms",
    "api_p90_ms": "ms",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
}
# In the full report only: both are 0 on a correct program, and the summary
# line carries them as `failed` and `correct`.
ACCOUNTING = {"failed_frac": "ratio", "wrong_answers": "count"}

# Every child runs this: `python -c CHILD_SCRIPT BENCH MODE ARGS...`.  It
# times the reference kernel at each mark and prints the marks, as (1 for an
# event or 0 for a tick, perf_counter before the kernel, kernel seconds), on
# its last stderr line.  Events end the stretches the benchmark reports;
# ticks come every TICK seconds in between, so that a long stretch is
# measured against the machine's speed all along it, not only at its ends.
#   setup:  import the package and classify the first record of each space,
#           given as SPACE PARAMS pairs; marks after the import and after
#           each call.
#   lines:  the `killingwebs` entry point with ARGS; marks after the import
#           and after each output line.
#   checks: the same for `verify`; marks after the import and after each
#           check of the suite.
CHILD_SCRIPT = r"""
import signal, sys, time
sys.path.insert(0, sys.argv[1])
import reference
marks, busy = [], False

def mark(event=1):
    global busy
    busy = True
    marks.append((event, time.perf_counter(), reference.seconds()))
    busy = False

def tick(signum, frame):
    if not busy:
        mark(0)

mark()
signal.signal(signal.SIGALRM, tick)
signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
mode, argv, status = sys.argv[2], sys.argv[3:], 0
try:
    if mode == "setup":
        import killingwebs
        from killingwebs.classify import classify_full
        from killingwebs.spaces import DomainError, KTParams, space_by_name
        mark()
        ok = True
        for space, text in zip(argv[::2], argv[1::2]):
            try:
                classify_full(KTParams.parse(space_by_name(space), text))
            except DomainError:
                ok = False
            mark()
        print(ok, killingwebs.__file__)
    else:
        if mode == "lines":
            class Lines:
                def __init__(self, out):
                    self.out = out

                def write(self, text):
                    n = self.out.write(text)
                    if "\n" in text:
                        mark()
                    return n

                def __getattr__(self, name):
                    return getattr(self.out, name)

            sys.stdout = Lines(sys.stdout)
        elif mode == "checks":
            import killingwebs.verify
            suite = sys.modules["killingwebs.verify"]
            result = suite.CheckResult

            def stamped(*args):
                mark()
                return result(*args)

            suite.CheckResult = stamped
        sys.argv[1:] = argv
        from killingwebs.cli import main
        mark()
        try:
            main()
        except SystemExit as exc:
            status = exc.code
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
    mark()
    sys.stdout.flush()
    print("marks", *(f"{e}:{t!r}:{d!r}" for e, t, d in marks),
          file=sys.stderr)
sys.exit(status)
""".replace("TICK", repr(TICK))

COLD_SCRIPT = """
import json, statistics, sys, time
from killingwebs import invariants, isometry
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI
out = {}
for name, fn in (("invariants.invariant_polynomials.cold_ms",
                  invariants.invariant_polynomials),
                 ("invariants.covariant_polynomials.cold_ms",
                  invariants.covariant_polynomials),
                 ("isometry.derived_kt_action.cold_ms",
                  isometry.derived_kt_action)):
    times = []
    for _ in range(int(sys.argv[1])):
        fn.cache_clear()
        t0 = time.perf_counter()
        fn(EUCLIDEAN), fn(MINKOWSKI)
        times.append((time.perf_counter() - t0) * 1e3)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Tally:
    """Operations attempted and failed on the first pass, and answers that
    disagree with the references on any pass.  Failing and wrong records
    are kept by corpus index."""
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    repeat_failures: int = 0
    failing: set = field(default_factory=set)
    wrong_records: dict = field(default_factory=dict)

    def op(self, ok: bool, first: bool, index=None) -> None:
        if not first:
            self.repeat_failures += not ok
            return
        self.attempted += 1
        if not ok:
            self.failed += 1
            if index is not None:
                self.failing.add(index)

    def answer(self, record, out: dict, first: bool) -> None:
        self.op(True, first)
        problems = corpus.check_answer(record, out)
        if problems:
            self.wrong += 1
            self.wrong_records[record.index] = problems


def pct(values, q):
    """The q-th percentile (0 < q < 100), by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def medians(pairs) -> dict:
    """The median value per key of (key, value) pairs."""
    groups = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    return {key: statistics.median(v) for key, v in groups.items()}


def run_child(mode, argv) -> tuple[subprocess.CompletedProcess, list[float]]:
    """Run one child to completion under CHILD_SCRIPT.  Returns the process
    and its stretches in reference units: from the spawn to the first mark,
    between each two events, and from the last mark to the exit.  Each
    piece between two marks counts as its duration over the mean of the
    kernel runs at its ends, with the kernel's own time left out."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(BENCH), mode, *argv],
        env=ENV, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    t1 = time.perf_counter()
    marks = [line.split()[1:] for line in proc.stderr.splitlines()
             if line.startswith("marks ")]
    if not marks:
        raise BenchError(f"child printed no marks: {proc.stderr.strip()}")
    marks = [(int(e), float(t), float(d))
             for e, t, d in (m.split(":") for m in marks[-1])]
    (_, first, d_first), (_, last, d_last) = marks[0], marks[-1]
    out, piece = [(first - t0) / d_first], 0.0
    for (_, ta, da), (event, tb, db) in zip(marks, marks[1:]):
        piece += (tb - ta - da) / ((da + db) / 2)
        if event:
            out.append(piece)
            piece = 0.0
    out.append((t1 - last - d_last) / d_last)
    return proc, out


def first_per_space(records):
    seen = {}
    for r in records:
        seen.setdefault(r.space, r)
    return [seen[s] for s in corpus.SPACES if s in seen]


# -- units of work ------------------------------------------------------------

def setup_once(records, tally, first) -> float:
    """A fresh interpreter imports the package and makes the first
    classify_full call in each space: the stretches from before the import
    to the last call, in reference units."""
    argv = []
    for r in first_per_space(records):
        argv += [r.space, r.params_text()]
    proc, stretches = run_child("setup", argv)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
    ok, location = fields
    if Path(location).resolve() != SRC / "killingwebs" / "__init__.py":
        raise BenchError(f"imported killingwebs from {location}")
    tally.op(ok == "True", first)
    return sum(stretches[1:-1])


def run_batch(space, chunk, tally, first) -> list[tuple]:
    """One batch, restarted after a failing record as a user would.  Its
    stretches come back keyed by what they end at: the output line of a
    record (key: record index), or for a process, its start, its shutdown
    and exit taken together (key: ("process", index of its first record))."""
    path = WORK / f"batch-{os.getpid()}.json"
    stretches, todo = [], list(chunk)
    while todo:
        path.write_text(json.dumps([r.params_text() for r in todo]))
        proc, parts = run_child("lines", [
            "classify", "--space", space, "--batch", str(path),
            "--output", "json"])
        lines = proc.stdout.splitlines()[:len(todo)]
        # parts: start, import, one per output line, the rest, exit.
        stretches.append((("process", todo[0].index),
                          parts[0] + parts[1] + sum(parts[len(lines) + 2:])))
        for record, line, part in zip(todo, lines, parts[2:]):
            stretches.append((record.index, part))
            try:
                tally.answer(record, json.loads(line), first)
            except json.JSONDecodeError:
                tally.op(False, first, record.index)
        done = len(lines)
        if proc.returncode == 0 and done == len(todo):
            break
        if done < len(todo):
            # The record the batch stopped at.
            tally.op(False, first, todo[done].index)
            todo = todo[done + 1:]
        else:
            tally.op(False, first)                  # all answered, bad status
            break
    return stretches


def classify_in_process(records, tally, first, tracer=None) -> list[tuple]:
    """Warm in-process classify_full latency, as (record index, reference
    units) pairs.  A record that raises counts as a failed operation and
    has no latency.  One untimed call on a far variant of the first record
    comes first: the child processes run between turns leave the CPU's
    caches cold."""
    from killingwebs.classify import classify_full
    from killingwebs.spaces import KTParams, space_by_name

    warm = records[0].variant(WARM_VARIANT)
    with contextlib.suppress(Exception):
        classify_full(KTParams(space_by_name(warm.space), warm.values))
    times = []
    before = reference.seconds()
    for r in records:
        p = KTParams(space_by_name(r.space), r.values)
        if tracer:
            tracer.record_id = tracer.records
            tracer.records += 1
        try:
            t0 = time.perf_counter()
            report = classify_full(p)
            elapsed = time.perf_counter() - t0
            out = report.to_json_dict()
        except Exception:   # counted as a failed operation; the run goes on
            tally.op(False, first, r.index)
            before = reference.seconds()
            continue
        finally:
            if tracer:
                tracer.record_id = -1
        after = reference.seconds()
        times.append((r.index, elapsed / ((before + after) / 2)))
        before = after
        tally.answer(r, out, first)
    return times


def warm_up(records) -> None:
    """Fill the program's symbolic caches before timing in-process calls."""
    from killingwebs.classify import classify_full
    from killingwebs.spaces import KTParams, space_by_name

    for r in first_per_space(records):
        with contextlib.suppress(Exception):
            classify_full(KTParams(space_by_name(r.space), r.values))


def call_once(record, tally, first) -> list[tuple]:
    """One `classify --params` CLI call in a fresh process, from spawn to
    exit: (index, reference units)."""
    proc, stretches = run_child("lines", [
        "classify", "--space", record.space,
        f"--params={record.params_text()}", "--output", "json"])
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0 or len(lines) != 1:
            raise ValueError("no single output line")
        out = json.loads(lines[0])
    except ValueError:
        tally.op(False, first, record.index)
        return []
    tally.answer(record, out, first)
    return [(record.index, sum(stretches))]


def verify_once(seed, tally, first) -> list[tuple]:
    """One `verify` run; each check is one operation.  Its stretches come
    back keyed by position: the start, the import, one per check, the rest
    of the process, and its exit."""
    proc, stretches = run_child("checks", [
        "verify", "--trials", str(TRIALS), "--seed", str(seed),
        "--output", "json"])
    try:
        checks = json.loads(proc.stdout)
    except json.JSONDecodeError:
        tally.op(False, first)
        return []
    for c in checks:
        tally.op(c["passed"], first)
    if proc.returncode != 0 and all(c["passed"] for c in checks):
        tally.op(False, first)
    if len(stretches) != len(checks) + 4:
        raise BenchError("verify checks and marks do not match")
    return list(enumerate(stretches))


@dataclass
class Phase:
    """A phase cycles through its items; `measure(item, k)` times one item
    on pass k and returns (key, value) samples."""
    items: list
    measure: Callable
    samples: list = field(default_factory=list)
    spent: float = 0.0
    visits: int = 0

    @property
    def passes(self) -> int:
        return self.visits // len(self.items)

    def step(self) -> None:
        item = self.items[self.visits % len(self.items)]
        t0 = time.perf_counter()
        self.samples += self.measure(item, self.passes)
        self.spent += time.perf_counter() - t0
        self.visits += 1


def interleave(phases: dict[str, Phase], shares, seconds) -> None:
    """Run one item at a time, from the phase furthest behind its share of
    the time spent, so that every phase samples the whole run.  Stops once
    `seconds` have passed and every phase has made a whole pass, or GRACE
    seconds later."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        short = [n for n, p in phases.items() if p.passes < 1]
        if elapsed >= seconds and (not short or elapsed >= seconds + GRACE):
            break
        pool = short if elapsed >= seconds else phases
        phases[min(pool, key=lambda n: phases[n].spent / shares[n])].step()
    for name, phase in phases.items():
        if len(medians(phase.samples)) < min(2, len(phase.items)):
            raise BenchError(f"too few successful samples in phase {name}")


# -- runs ---------------------------------------------------------------------

def chunks(items, size) -> list[list]:
    """Split into ceil(len / size) runs of near-equal length."""
    n = max(1, math.ceil(len(items) / size))
    return [items[i * len(items) // n:(i + 1) * len(items) // n]
            for i in range(n)]


def spread_out(items, count) -> list:
    """`count` items at even steps through the list."""
    return [items[i * len(items) // count] for i in range(min(count,
                                                               len(items)))]


def records_per_s(stretches) -> float:
    """Records answered over the summed median stretches of the batches,
    i.e. over the time of one typical pass, in seconds at REF_MS."""
    typical = medians(stretches)
    answered = sum(isinstance(key, int) for key in typical)
    return answered / (sum(typical.values()) * reference.REF_MS / 1e3)


def end_to_end(workload, seed, seconds, records, tally):
    setup_once(records, tally, True)    # also compiles the bytecode
    warm_up(records)
    # Keep the corpus and the program's filled caches out of the garbage
    # collections that timed calls trigger.
    gc.collect()
    gc.freeze()

    def batch(space):
        return Phase(
            chunks([r for r in records if r.space == space], BATCH_RECORDS),
            lambda chunk, k: run_batch(space, [r.variant(k) for r in chunk],
                                       tally, k == 0))

    phases = {
        "setup": Phase([None], lambda _, k: [
            (None, setup_once(records, tally, False))]),
        "batch_euclidean": batch("euclidean"),
        "batch_minkowski": batch("minkowski"),
        "api": Phase(chunks(records, API_TURN),
                     lambda turn, k: classify_in_process(
                         [r.variant(k) for r in turn], tally, k == 0)),
        "call": Phase(spread_out(records, CALL_SET),
                      lambda r, k: call_once(r.variant(k), tally, k == 0)),
        "verify": Phase([None], lambda _, k: verify_once(seed, tally, k == 0)),
    }
    shares = SHARES["verify" if workload == "verify" else "classify"]
    interleave(phases, shares, seconds)
    ms = reference.REF_MS
    api = [v * ms for v in medians(phases["api"].samples).values()]
    calls = [v * ms for v in medians(phases["call"].samples).values()]
    metrics = {
        "setup_s": statistics.median(
            v for _, v in phases["setup"].samples) * ms / 1e3,
        "euclidean_records_per_s": records_per_s(
            phases["batch_euclidean"].samples),
        "minkowski_records_per_s": records_per_s(
            phases["batch_minkowski"].samples),
        "api_p50_ms": statistics.median(api), "api_p90_ms": pct(api, 90),
        "call_p50_ms": statistics.median(calls), "call_p90_ms": pct(calls, 90),
        "verify_s": sum(medians(phases["verify"].samples).values()) * ms / 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    samples = {name: {"passes": p.passes, "visits": p.visits,
                      "samples": len(p.samples), "seconds": p.spent}
               for name, p in phases.items()}
    return metrics, samples


def per_layer(workload, seed, seconds, records, tally):
    """Traced run: api latency untraced and traced on the same records for
    60% of `seconds`, the CLI entry point in-process on TRACED_CALLS records,
    one suite run, and cold costs in fresh processes."""
    from killingwebs import cli

    warm_up(records)
    tracer = spans.Tracer()
    # Each turn runs untraced, then traced on the next variant of the same
    # records.  The turns cycle through the corpus, pass k on variants 2k
    # and 2k + 1.
    turns = chunks(records, API_TURN)
    plain, traced, visits = [], [], 0
    deadline = time.perf_counter() + seconds * 0.6
    while visits < len(turns) or time.perf_counter() < deadline:
        k, turn = divmod(visits, len(turns))
        visits += 1
        plain += classify_in_process(
            [r.variant(2 * k) for r in turns[turn]], tally, k == 0)
        tracer.install()
        try:
            traced += classify_in_process(
                [r.variant(2 * k + 1) for r in turns[turn]], tally, False,
                tracer)
        finally:
            tracer.uninstall()
    tracer.install()
    try:
        for r in spread_out(records, TRACED_CALLS):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                status = cli.run(["classify", "--space", r.space,
                                  f"--params={r.params_text()}",
                                  "--output", "json"])
            if status != 0:
                tally.op(False, True, r.index)
            else:
                tally.answer(r, json.loads(out.getvalue()), True)
        suite = cli.run_suite(trials=TRIALS, seed=seed)
        for c in suite:
            tally.op(c.passed, True)
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics()
    metrics["trace.api_p50_overhead_ms"] = reference.REF_MS * (
        statistics.median(v for _, v in traced)
        - statistics.median(v for _, v in plain))
    proc = subprocess.run([sys.executable, "-c", COLD_SCRIPT, "3"], env=ENV,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"cold-cost child failed: {proc.stderr.strip()}")
    metrics.update(json.loads(proc.stdout))
    startup = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import killingwebs.cli"],
                              env=ENV, cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT)
        startup.append((time.perf_counter() - t0) * 1e3)
        tally.op(proc.returncode == 0, True)
    metrics["cli.startup_ms"] = statistics.median(startup)
    tracer.write(WORK / f"spans-{workload}-{seed}.tsv.gz")
    return metrics, {"records": tracer.records, "spans": len(tracer.start)}


# -- reporting ----------------------------------------------------------------

def environment(seed) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(), "git_commit": commit or "unknown",
            "seed": seed}


def run(workload, seed, seconds, traced) -> dict:
    if not (SRC / "killingwebs" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'killingwebs'}")
    if reference.kernel() != reference.CHECK:
        raise BenchError("the reference kernel computes a wrong result")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    records = corpus.build(workload, seed)
    tally = Tally()
    measure = per_layer if traced else end_to_end
    try:
        values, samples = measure(workload, seed, seconds, records, tally)
    finally:
        (WORK / f"batch-{os.getpid()}.json").unlink(missing_ok=True)
    units = spans.LAYER_METRICS if traced else END_TO_END
    report = {
        "workload": workload, "seconds": seconds, "trace": int(traced),
        "environment": environment(seed),
        "corpus": {"records": len(records), "digest": corpus.digest(records),
                   "kinds": dict(Counter(f"{r.space}/{r.kind}"
                                         for r in records))},
        "settings": {"verify_trials": TRIALS, "batch_records": BATCH_RECORDS,
                     "call_records": CALL_SET, "ref_ms": reference.REF_MS},
        "samples": samples,
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failing_records": sorted(tally.failing),
        "repeat_failures": tally.repeat_failures,
        "wrong_records": {str(k): v for k, v in
                          sorted(tally.wrong_records.items())},
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if not traced:
        accounting = {"failed_frac": tally.failed / max(1, tally.attempted),
                      "wrong_answers": tally.wrong}
        report["metrics"].update(
            {name: {"value": accounting[name], "unit": unit}
             for name, unit in ACCOUNTING.items()})
    (WORK / f"result-{workload}-{seed}-t{int(traced)}.json").write_text(
        json.dumps(report, indent=1))
    return report


def compare(base_path, new_path) -> None:
    """Print each metric's ratio new/base with both values."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    a, b = base["corpus"]["digest"], new["corpus"]["digest"]
    print(f"corpus digest: {'same' if a == b else 'DIFFERENT'} ({a} vs {b})")
    print(f"{'metric':52} {'unit':14} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, entry in new["metrics"].items():
        if name not in base["metrics"]:
            continue
        b, v = base["metrics"][name]["value"], entry["value"]
        ratio = f"{v / b:9.3f}" if b else "      n/a"
        print(f"{name:52} {entry['unit']:14} {b:14.6g} {v:14.6g} {ratio}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two full reports and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    metrics = spans.LAYER_METRICS if args.trace else END_TO_END
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {k: report["metrics"][k] for k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
