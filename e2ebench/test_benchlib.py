"""Tests of the end-to-end benchmark's own logic.

    python3 e2ebench/test_benchlib.py            # all, smoke runs included
    python3 e2ebench/test_benchlib.py LogicTest  # pure logic only

The smoke tests build the runner (once) and run every workload in its tiny
--smoke form, untraced and traced.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start_s": start,
            "end_s": end, "run": "r"}


def serve(online=(), bulk=(), **counts):
    s = {"pool_sessions": 10, "online_ms": list(online), "bulk_s": list(bulk),
         "round_s": [1.0], "round_cpu_s": [2.0], "online_mismatches": 0,
         "bulk_mismatches": 0, "errors": 0}
    s.update(counts)
    return s


def op(f1=80.0, fpr=1.0, auc=90.0, wall=10.0, cpu=20.0):
    return {"f1": f1, "fpr": fpr, "auc": auc, "wall_s": wall, "cpu_s": cpu}


class LogicTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))
        for n in (20, 200, 999, 1000, 5000):
            p = benchlib.tail_percentile(n)
            self.assertGreaterEqual(n - benchlib.rank(n, p), 10)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1000, 0, -1))  # order must not matter
        self.assertEqual(benchlib.percentile(values, 50), 500)
        self.assertEqual(benchlib.percentile(values, 99), 990)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_self_time_is_span_minus_children(self):
        spans = [
            span(0, -1, "run", 0.0, 10.0),
            span(1, 0, "core.a", 1.0, 3.0),
            span(2, 0, "core.b", 2.0, 5.0),    # overlaps core.a
            span(3, 0, "core.a", 8.0, 12.0),   # runs past its parent
            span(4, 2, "leaf", 2.5, 3.5),
        ]
        own = benchlib.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(own[2], 3.0 - 1.0)
        self.assertAlmostEqual(own[4], 1.0)
        totals = benchlib.layer_self_times(spans)
        self.assertAlmostEqual(totals["core.a"], 2.0 + 4.0)
        self.assertAlmostEqual(totals["run"], own[0])

    def test_clean_run_has_no_failures(self):
        result = {"setup_s": [0.1, 0.2, 0.3], "setup_mismatches": 0,
                  "ops": [op(), op()], "serve": serve([1.0] * 5, [0.5]),
                  "peak_rss_mb": 100.0}
        f = benchlib.account(result)
        self.assertEqual((f.attempted, f.failed), (3 + 2 + 6, 0))

    def test_each_failed_check_counts_once(self):
        result = {
            "setup_s": [0.1, 0.2], "setup_mismatches": 1,
            "ops": [op(), op(f1=81.0), op(auc=math.nan),
                    {"error": "boom", "wall_s": 1.0, "cpu_s": 1.0}, op()],
            "model_check_failures": 1,
            "serve": serve([1.0] * 4, [0.5, 0.5], online_mismatches=2,
                           bulk_mismatches=1, errors=1),
            "peak_rss_mb": 100.0,
            "traced": {"world_matches": True, "metrics": op(f1=79.0),
                       "mismatches": 0},
        }
        f = benchlib.account(result)
        # 2 set-ups + 5 ops + 4 online + 2 bulk + 1 errored request + traced.
        self.assertEqual(f.attempted, 2 + 5 + 7 + 1)
        # set-up, differing op, NaN op, raising op, differing model scores,
        # 2 online, 1 bulk, 1 raising request, traced metrics differ.
        self.assertEqual(f.failed, 1 + 1 + 1 + 1 + 1 + 2 + 1 + 1 + 1)

    def test_traced_run_must_rebuild_the_same_world_and_model(self):
        base = {"setup_s": [0.1], "setup_mismatches": 0,
                "quality": op(), "serve": serve([1.0], [0.5]),
                "peak_rss_mb": 1.0}
        for traced in ({"world_matches": False, "model_matches": True},
                       {"world_matches": True, "model_matches": False},
                       {"world_matches": True, "model_matches": True,
                        "mismatches": 1},
                       {"error": "boom"}):
            f = benchlib.account(dict(base, traced=traced))
            self.assertEqual(f.failed, 1, traced)

    def test_end_to_end_uses_medians(self):
        result = {"setup_s": [3.0, 1.0, 2.0], "setup_mismatches": 0,
                  "ops": [op(wall=5.0, cpu=9.0), op(wall=1.0, cpu=2.0),
                          op(wall=3.0, cpu=4.0)],
                  "serve": serve(), "peak_rss_mb": 50.0}
        v = benchlib.end_to_end(result)
        self.assertEqual(v, {"setup_s": 2.0, "run_s": 3.0, "run_cpu_s": 4.0,
                             "peak_rss_mb": 50.0, "auc": 90.0})
        self.assertEqual(set(v), {n for n, _, _ in benchlib.END_TO_END})
        scoring = {"setup_s": [1.0], "setup_mismatches": 0,
                   "quality": op(auc=95.0),
                   "serve": dict(serve(), round_s=[0.5, 0.7, 0.6],
                                 round_cpu_s=[0.9, 1.1, 1.0]),
                   "peak_rss_mb": 50.0}
        v = benchlib.end_to_end(scoring)
        self.assertEqual((v["run_s"], v["run_cpu_s"], v["auc"]),
                         (0.6, 1.0, 95.0))

    def test_serving_reports_p50_p99_and_bulk_throughput(self):
        result = {"serve": serve([float(i) for i in range(1, 1001)],
                                 [1.0, 2.0, 4.0])}
        v = benchlib.serving(result)
        self.assertEqual(v, {"score_p50_ms": 500.0, "score_p99_ms": 990.0,
                             "score_sessions_per_s": 5.0})
        short = benchlib.serving({"serve": serve([1.0] * 999, [1.0])})
        self.assertIsNone(short["score_p99_ms"])
        self.assertIn("score_p99_ms", benchlib.missing_metrics(short))

    def test_per_layer_from_spans_phases_and_counters(self):
        spans = [
            span(0, -1, "setup", 0.0, 1.0),
            span(1, 0, "data.generate", 0.0, 0.25),
            span(2, 0, "embedding.word2vec", 0.25, 1.0),
            span(3, -1, "run", 2.0, 12.0),
            span(4, 3, "core.corrector_train", 2.0, 7.0),
            span(5, 3, "core.score", 7.0, 8.0),
            span(6, 3, "core.score", 8.0, 11.5),
        ]
        result = {"serve": serve([1.0] * 1000, [2.0])}
        traced = {"run_s": 10.0, "spans": spans,
                  "metrics": {"f1": 70.0, "fpr": 1.0, "auc": 90.0},
                  "phases": {"core.pretrain_s": 3.0},
                  "layers": {"plan.captures": 4.0}}
        v = benchlib.per_layer(dict(result, traced=traced),
                               untraced_run_s=8.0)
        self.assertEqual(set(v), {n for n, _ in benchlib.PER_LAYER})
        self.assertAlmostEqual(v["data.generate_s"], 0.25)
        self.assertAlmostEqual(v["core.score_s"], 4.5)
        self.assertAlmostEqual(v["core.correct_s"], 0.0)
        self.assertAlmostEqual(v["obs.trace_overhead_pct"], 25.0)
        self.assertAlmostEqual(v["obs.span_coverage_pct"], 95.0)
        self.assertEqual(v["core.pretrain_s"], 3.0)
        self.assertEqual(v["plan.captures"], 4.0)
        self.assertEqual(v["metrics.f1"], 70.0)
        self.assertEqual(v["score_sessions_per_s"], 5.0)
        self.assertIn("core.detector_s", benchlib.missing_metrics(v))

        failed = benchlib.per_layer(
            dict(result, traced={"error": "boom", "spans": []}),
            untraced_run_s=8.0)
        self.assertIn("obs.trace_overhead_pct",
                      benchlib.missing_metrics(failed))

    def test_metric_names(self):
        names = [n for n, _, _ in benchlib.END_TO_END]
        names += [n for n, _ in benchlib.PER_LAYER]
        self.assertEqual(benchlib.bad_metric_names(names), [])
        self.assertEqual(
            benchlib.bad_metric_names(["ok.name-1", "bad name", "_x",
                                       "a" * 65, "ok.name-1", "a/b"]),
            ["bad name", "_x", "a" * 65, "ok.name-1", "a/b"])
        units = [u for _, u, _ in benchlib.END_TO_END]
        units += [u for _, u in benchlib.PER_LAYER]
        for unit in units:
            self.assertRegex(unit, benchlib.UNIT_RE)

    def test_benchmark_json_matches_the_metrics_reported(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         benchlib.WORKLOADS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            benchlib.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         benchlib.PER_LAYER)
        self.assertEqual(spec["paths"], ["e2ebench"])


class SmokeTest(unittest.TestCase):
    """Every workload end to end in its tiny form."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--smoke"],
            cwd=os.path.join(HERE, ".."), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_untraced_and_traced(self):
        e2e = {n for n, _, _ in benchlib.END_TO_END}
        layers = {n for n, _ in benchlib.PER_LAYER}
        for workload in benchlib.WORKLOADS:
            for trace, names in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    line = self.run_bench(workload, trace)
                    self.assertEqual(set(line), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    self.assertEqual(set(line["metrics"]), names)
                    for m in line["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))


if __name__ == "__main__":
    unittest.main()
