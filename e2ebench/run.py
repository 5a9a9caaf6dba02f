#!/usr/bin/env python3
"""End-to-end benchmark of the CLFD library.

    python3 e2ebench/run.py --workload cert_paper --seed 1 --seconds 30
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. Builds the library and the runner from source
into .bench_build/ (Release, no sanitizer), runs one workload in its own
process at the workload's fixed width with every CLFD_* runtime knob
cleared, checks its outputs, prints every metric by name with its unit and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced
operation and reports the per-layer metrics. The full record of a run
(settings, host noise floor, metrics, failures) is written to
.bench_build/e2ebench/results/. README.md beside this file describes the
workloads and metrics; --smoke runs a tiny version of a workload in seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "clfd_e2e")
RUN_TIMEOUT_S = 170
CACHE_SETTINGS = {
    "CMAKE_BUILD_TYPE": "Release",
    "CLFD_SANITIZE": "",
    "CLFD_CHECK": "OFF",
    "CLFD_OBS_FORCE_OFF": "OFF",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def cache_values():
    values = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.strip().partition("=")
                if sep and not key.startswith(("#", "//")):
                    values[key.split(":")[0]] = value
    except OSError:
        pass
    return values


def build():
    """Configures (when needed) and builds the runner; False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("e2ebench: no CLFD source tree at", ROOT)
        return False
    cache = cache_values()
    if any(cache.get(k) != v for k, v in CACHE_SETTINGS.items()):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        cmd += ["-D%s=%s" % kv for kv in CACHE_SETTINGS.items()]
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "clfd_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def host_state():
    """The host's noise floor: CPUs, load average and clock rate."""
    state = {"nproc": os.cpu_count()}
    try:
        state["loadavg"] = list(os.getloadavg())
    except OSError:
        state["loadavg"] = None
    try:
        with open("/proc/cpuinfo") as f:
            mhz = [float(line.split(":")[1]) for line in f
                   if line.startswith("cpu MHz")]
        state["cpu_mhz"] = statistics.mean(mhz) if mhz else None
    except (OSError, ValueError):
        state["cpu_mhz"] = None
    return state


def pinned_env():
    """The environment without any CLFD_* knob, and the knobs removed."""
    cleared = sorted(k for k in os.environ if k.startswith("CLFD_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    return env, cleared


def run_workload(args):
    """Runs one workload; returns the result line or None on a crash."""
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-smoke" if args.smoke else "")
    raw_path = os.path.join(results, stem + ".raw.json")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    env, cleared = pinned_env()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path] + (["--smoke"] if args.smoke else [])
    before = host_state()
    started = time.monotonic()
    try:
        code = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("e2ebench: %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
        return None
    after = host_state()
    if code != 0 or not os.path.exists(raw_path):
        log("e2ebench: runner exited with code", code)
        return None
    with open(raw_path) as f:
        raw = json.load(f)
    result = raw["result"]

    failures = benchlib.account(result)
    values = benchlib.end_to_end(result)
    units = {name: unit for name, unit, _ in benchlib.END_TO_END}
    if args.trace:
        values = benchlib.per_layer(result, values["run_s"])
        units = dict(benchlib.PER_LAYER)
    values = {name: values.get(name) for name in units}
    for name in benchlib.missing_metrics(values):
        failures.fail("metric %s was not measured" % name)
        values[name] = 0.0
    for name in benchlib.bad_metric_names(values):
        failures.fail("bad metric name %s" % name)
    line = benchlib.result_line(failures, values, units)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "run_id": raw["run_id"],
        "settings": raw["settings"],
        "cleared_env": cleared,
        "host": {"before": before, "after": after,
                 "calibration_s": raw["calibration_s"]},
        "wall_s": time.monotonic() - started,
        "failures": failures.reasons,
        "result": line,
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("workload %s  seed %d  trace %d%s" % (
        args.workload, args.seed, args.trace,
        "  (smoke)" if args.smoke else ""))
    print("settings " + json.dumps(raw["settings"], sort_keys=True))
    print("host " + json.dumps(record["host"], sort_keys=True))
    if cleared:
        print("cleared " + " ".join(cleared))
    for name, value in values.items():
        print("  %-28s %16.6g %s" % (name, value, units[name]))
    if not args.trace:
        for (name, unit), value in zip(benchlib.SERVING,
                                       benchlib.serving(result).values()):
            print("  %-28s %16.6g %s  (per-layer)" % (name, value or 0.0,
                                                      unit))
    print("operations attempted %d, failed %d" % (failures.attempted,
                                                 failures.failed))
    for reason in sorted(set(failures.reasons)):
        print("  failure: %s (x%d)" % (reason, failures.reasons.count(reason)))
    return line


def run_all(args):
    """Every workload, each in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in benchlib.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                               else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(proc.stdout, end="")
        if proc.returncode != 0 or not lines:
            return None
        line = json.loads(lines[-1])
        total["correct"] = total["correct"] and line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            total["metrics"][name + "." + metric] = value
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(benchlib.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds and budgets; finishes in seconds")
    args = parser.parse_args()
    if not build():
        log("e2ebench: build failed")
        return 2
    line = run_all(args) if args.workload == "all" else run_workload(args)
    if line is None:
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
