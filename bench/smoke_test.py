"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke_test.py

Checks that every metric appears with its unit, that the summary line keeps
its contract, that the corpus digest is fixed by the seed, that a batch is
restarted after the table-gap record it stops at, that a suite run is
timed check by check, that the operation counts do not depend on the run's
length, that the reference kernel computes what it should, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class SmokeTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.work = Path(tmp.name)
        patches = [
            mock.patch.object(run, "WORK", self.work),
            mock.patch.object(run, "SETUP_RUNS", 1),
            mock.patch.object(run, "BATCH_RECORDS", 3),
            mock.patch.object(run, "API_TURN", 2),
            mock.patch.object(run, "CALL_SET", 2),
            mock.patch.object(run, "TRIALS", 1),
            mock.patch.object(run.corpus, "build", functools.partial(
                corpus.build, scale=0.05)),
        ]
        for p in patches:
            p.start()
            self.addCleanup(p.stop)

    def main(self, *argv) -> tuple[int, list[str]]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = run.main(list(argv))
        return status, out.getvalue().splitlines()

    def check_summary(self, lines, units):
        summary = json.loads(lines[-1])
        self.assertEqual(set(summary),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(summary["correct"])
        self.assertGreaterEqual(summary["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in summary["metrics"].items()}, units)
        for entry in summary["metrics"].values():
            self.assertIsInstance(entry["value"], (int, float))
        return json.loads(lines[-2])

    def test_end_to_end_metrics_have_units(self):
        for workload in run.WORKLOADS:
            status, lines = self.main("--workload", workload, "--seed", "3",
                                      "--seconds", "0.1", "--trace", "0")
            self.assertEqual(status, 0)
            report = self.check_summary(lines, run.END_TO_END)
            self.assertEqual(report["metrics"]["wrong_answers"]["unit"],
                             "count")
            self.assertEqual(report["metrics"]["failed_frac"]["unit"], "ratio")
            for key in ("python", "nproc", "platform", "git_commit", "seed"):
                self.assertIn(key, report["environment"])

    def test_per_layer_metrics_have_units(self):
        status, lines = self.main("--workload", "strata", "--seed", "3",
                                  "--seconds", "0.1", "--trace", "1")
        self.assertEqual(status, 0)
        report = self.check_summary(lines, spans.LAYER_METRICS)
        self.assertGreater(report["samples"]["spans"], 0)
        metrics = report["metrics"]
        self.assertGreater(metrics["poly.mul.calls_per_record"]["value"], 0)
        self.assertGreater(metrics["isometry.act_kt_params.calls"]["value"], 0)

    def test_compare_prints_ratios(self):
        paths = []
        for seed in ("1", "2"):
            status, _ = self.main("--workload", "verify", "--seed", seed,
                                  "--seconds", "0.1")
            self.assertEqual(status, 0)
            paths.append(str(self.work / f"result-verify-{seed}-t0.json"))
        status, lines = self.main("--compare", *paths)
        self.assertEqual(status, 0)
        self.assertTrue(any(line.startswith("verify_s") for line in lines))

    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         spans.LAYER_METRICS)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))

    def test_digest_is_fixed_by_the_seed(self):
        for workload in run.WORKLOADS:
            first = corpus.digest(corpus.build(workload, 7))
            self.assertEqual(first, corpus.digest(corpus.build(workload, 7)))
            self.assertNotEqual(first,
                                corpus.digest(corpus.build(workload, 8)))

    def test_variants_are_distinct_inputs_with_the_same_answer(self):
        record = corpus.build("strata", 7)[0]
        variants = [record.variant(k) for k in range(4)]
        self.assertEqual(len({v.values for v in variants}), 4)
        self.assertEqual({v.expected_class for v in variants},
                         {record.expected_class})
        # Scaled by -1 and shifted by the metric, this one would be zero.
        trivial = corpus.Record(0, "euclidean", (1, 1, 0, 0, 0, 0),
                                "trivial", "trivial")
        self.assertTrue(any(trivial.variant(1).values))

    def test_batch_restarts_after_the_table_gap(self):
        records = [r for r in corpus.build("strata", 7)
                   if r.space == "minkowski"]
        gap = next(i for i, r in enumerate(records) if r.kind == "gap")
        self.assertGreater(gap, 0)
        chunk = records[gap - 1:gap + 2]
        tally = run.Tally()
        stretches = run.run_batch("minkowski", chunk, tally, True)
        self.assertEqual(tally.failing, {chunk[1].index})
        self.assertEqual((tally.attempted, tally.failed, tally.wrong),
                         (3, 1, 0))
        # One stretch per process and one per answered record.
        self.assertEqual([key for key, _ in stretches],
                         [("process", chunk[0].index), chunk[0].index,
                          ("process", chunk[2].index), chunk[2].index])
        self.assertTrue(all(units > 0 for _, units in stretches))

    def test_verify_run_is_timed_per_check(self):
        tally = run.Tally()
        stretches = run.verify_once(1, tally, True)
        self.assertEqual((tally.failed, tally.wrong), (0, 0))
        # The start, the import, one stretch per check, the rest of the
        # run, the exit.
        self.assertEqual([key for key, _ in stretches],
                         list(range(tally.attempted + 4)))
        self.assertTrue(all(units > 0 for _, units in stretches))

    def test_counts_do_not_depend_on_run_length(self):
        counts = []
        for seconds in ("0.1", "3"):
            status, lines = self.main("--workload", "strata", "--seed", "7",
                                      "--seconds", seconds, "--trace", "0")
            self.assertEqual(status, 0)
            summary = json.loads(lines[-1])
            counts.append((summary["attempted"], summary["failed"]))
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0][1], 0)     # the table gap

    def test_reference_kernel_runs_as_written(self):
        self.assertEqual(reference.kernel(), reference.CHECK)
        self.assertGreater(reference.seconds(), 0)

    def test_refuses_to_run_without_the_source(self):
        with mock.patch.object(run, "SRC", self.work / "missing"):
            status, lines = self.main("--workload", "dense", "--seed", "1",
                                      "--seconds", "1", "--trace", "0")
        self.assertNotEqual(status, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
