"""Metric and failure logic of the end-to-end benchmark.

The runner binary (clfd_e2e) records raw samples; this module turns them
into the benchmark's metrics, counts failed operations and checks metric
names. It has no side effects, so test_benchlib.py covers it directly.
"""

import math
import re
import statistics

WORKLOADS = ("cert_paper", "wiki_compact", "openstack_score")

# (name, unit, better) of every end-to-end metric; every workload reports
# all of them, so each must hold steady on every workload. F1 moves too far
# from seed to seed (42-97 on cert_paper), and request latencies sampled
# between training operations too far from run to run, to carry a bound:
# they are reported with the per-layer metrics.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("run_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("auc", "%", "higher"),
]

# Serving metrics of the untraced loop: printed with every run, reported
# with the per-layer metrics.
SERVING = [
    ("score_p50_ms", "ms"),
    ("score_p99_ms", "ms"),
    ("score_sessions_per_s", "sessions/s"),
]

# (name, unit) of every per-layer metric of the traced run.
PER_LAYER = [
    ("data.generate_s", "s"),
    ("embedding.word2vec_s", "s"),
    ("core.corrector_train_s", "s"),
    ("core.correct_s", "s"),
    ("core.detector_train_s", "s"),
    ("core.score_s", "s"),
    ("core.pretrain_s", "s"),
    ("core.corrector_s", "s"),
    ("core.detector_s", "s"),
    ("core.classifier_s", "s"),
    ("tensor.kernel_s", "s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.lstm_gates_fwd_s", "s"),
    ("tensor.matmul_calls", "count"),
    ("tensor.matmul_gflop", "GFLOP"),
    ("tensor.lstm_gates_calls", "count"),
    ("tensor.heap_allocs", "count"),
    ("tensor.heap_mb", "MB"),
    ("tensor.arena_allocs", "count"),
    ("tensor.arena_mb", "MB"),
    ("autograd.tape_nodes", "count"),
    ("autograd.backward_calls", "count"),
    ("nn.adam_steps", "count"),
    ("plan.captures", "count"),
    ("plan.replays", "count"),
    ("plan.invalidations", "count"),
    ("plan.replay_ratio", "ratio"),
    ("plan.capture_s", "s"),
    ("plan.replay_s", "s"),
    ("parallel.jobs", "count"),
    ("parallel.chunks", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.slowest_shard_s", "s"),
    ("encoders.encode_dataset_s", "s"),
    ("metrics.f1", "%"),
] + SERVING + [
    ("obs.trace_overhead_pct", "%"),
    ("obs.span_coverage_pct", "%"),
]

# Span names recorded by the runner, and the per-layer metric their summed
# self time feeds.
SPAN_METRICS = {
    "data.generate": "data.generate_s",
    "embedding.word2vec": "embedding.word2vec_s",
    "core.corrector_train": "core.corrector_train_s",
    "core.correct": "core.correct_s",
    "core.detector_train": "core.detector_train_s",
    "core.score": "core.score_s",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def bad_metric_names(names):
    """Names that are not [A-Za-z0-9_.-]+ (at most 64, starting with a
    letter or digit) or that repeat."""
    bad, seen = [], set()
    for name in names:
        if not NAME_RE.match(name) or name in seen:
            bad.append(name)
        seen.add(name)
    return bad


def rank(n, p):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples, p):
    ordered = sorted(samples)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(n):
    """The highest percentile with at least TAIL_MIN_BEYOND samples beyond
    it, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if n - rank(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def self_times(spans):
    """Self time of each span by id: its duration minus the part of it that
    its child spans cover (overlapping children count once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered, cursor = 0.0, s["start_s"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_s"]):
            lo = max(c["start_s"], cursor, s["start_s"])
            hi = min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (s["end_s"] - s["start_s"]) - covered
    return result


def layer_self_times(spans):
    """Summed self time per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _quality(record):
    return (record.get("f1"), record.get("fpr"), record.get("auc"))


class Failures:
    """Operations attempted and failed, with one reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons = []

    @property
    def failed(self):
        return len(self.reasons)

    def attempt(self, count=1):
        self.attempted += count

    def fail(self, reason, count=1):
        self.reasons.extend([reason] * int(count))


def account(result):
    """Counts the operations of one run and the ones whose outputs fail a
    check. `result` is the runner's "result" object."""
    f = Failures()
    setups = len(result["setup_s"])
    f.attempt(setups)
    f.fail("set-up is not deterministic", result["setup_mismatches"])

    first = None
    for i, op in enumerate(result.get("ops", [])):
        f.attempt()
        if "error" in op:
            f.fail("operation %d raised: %s" % (i, op["error"]))
        elif not _finite(*_quality(op)):
            f.fail("operation %d has non-finite F1/FPR/AUC" % i)
        elif first is None:
            first = _quality(op)
        elif _quality(op) != first:
            f.fail("operation %d metrics differ from operation 0" % i)
    f.fail("operation model's scores raised or differ from the first's",
           result.get("model_check_failures", 0))

    serve = result["serve"]
    f.attempt(len(serve["online_ms"]) + len(serve["bulk_s"]) +
              serve["errors"])
    f.fail("request raised", serve["errors"])
    f.fail("online score differs from the full-pool score",
           serve["online_mismatches"])
    f.fail("bulk pass differs from the reference scores",
           serve["bulk_mismatches"])
    if "quality" in result and not _finite(*_quality(result["quality"])):
        f.fail("served model has non-finite F1/FPR/AUC")

    traced = result.get("traced")
    if traced is not None:
        f.attempt()
        if "error" in traced:
            f.fail("traced run raised: %s" % traced["error"])
        elif not traced["world_matches"]:
            f.fail("traced set-up built another world")
        elif not traced.get("model_matches", True):
            f.fail("traced model scores differ from the served model's")
        elif "metrics" in traced and _quality(traced["metrics"]) != first:
            f.fail("traced run metrics differ from the untraced run's")
        f.fail("traced request differs from the reference scores",
               traced.get("mismatches", 0))
    return f


def serving(result):
    """Request latency and throughput of one untraced run: {name: value}."""
    serve = result["serve"]
    online = serve["online_ms"]
    p99_defined = (tail_percentile(len(online)) or 0.0) >= 99.0
    return {
        "score_p50_ms": percentile(online, 50.0) if online else None,
        "score_p99_ms": percentile(online, 99.0) if p99_defined else None,
        "score_sessions_per_s": statistics.median(
            serve["pool_sessions"] / s for s in serve["bulk_s"])
        if serve["bulk_s"] else None,
    }


def end_to_end(result):
    """The end-to-end metrics of one untraced run: {name: value}."""
    if "ops" in result:
        ops = [op for op in result["ops"] if "error" not in op]
        run_s = statistics.median(op["wall_s"] for op in ops) if ops else None
        cpu_s = statistics.median(op["cpu_s"] for op in ops) if ops else None
        quality = ops[0] if ops else {}
    else:
        run_s = statistics.median(result["serve"]["round_s"])
        cpu_s = statistics.median(result["serve"]["round_cpu_s"])
        quality = result["quality"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "run_s": run_s,
        "run_cpu_s": cpu_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "auc": quality.get("auc"),
    }


def per_layer(result, untraced_run_s):
    """The per-layer metrics of one traced run: {name: value}. Metrics the
    run could not measure (it raised, say) are None."""
    traced = result["traced"]
    spans = traced["spans"]
    own = self_times(spans)
    selfs = layer_self_times(spans)
    values = {name: None for name, _ in PER_LAYER}
    values.update({metric: selfs.get(name, 0.0)
                   for name, metric in SPAN_METRICS.items()})
    values.update(traced.get("phases", {}))
    values.update(traced.get("layers", {}))
    values["metrics.f1"] = traced.get("metrics", result.get("quality",
                                                           {})).get("f1")
    values.update(serving(result))
    run_s = traced.get("run_s")
    if run_s and untraced_run_s:
        values["obs.trace_overhead_pct"] = 100.0 * (run_s / untraced_run_s -
                                                    1.0)
        # Share of the traced run that the core.* spans under it cover.
        run_ids = {s["id"] for s in spans if s["name"] == "run"}
        core = sum(own[s["id"]] for s in spans if s["parent"] in run_ids and
                   s["name"].startswith("core."))
        values["obs.span_coverage_pct"] = 100.0 * core / run_s
    return values


def missing_metrics(values):
    """Names of metrics that were not measured (None or non-finite)."""
    return [k for k, v in values.items() if not _finite(v)]


def result_line(failures, values, units):
    """The benchmark's final output line."""
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }
