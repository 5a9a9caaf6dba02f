#!/usr/bin/env bash
# Local CI: builds and tests the full correctness matrix, then runs the
# static checker on the tree. This is the same gate the acceptance
# criteria describe — run it before pushing anything that touches src/.
#
#   tools/ci.sh                 # default+Werror, asan, ubsan, tsan,
#                               # check, crash-resume, clfd_analyze
#   tools/ci.sh default ubsan   # just those presets (+ clfd_analyze)
#   tools/ci.sh crash-resume    # just the fault-tolerance job
#                               # (+ clfd_analyze)
#   CLFD_CI_JOBS=8 tools/ci.sh
#
# `check` builds with runtime invariant checks on and runs the whole ctest
# suite: arenas NaN-poison fresh and recycled memory, so a read of stale
# plan or step memory fails CheckFinite, and the fault-injection + watchdog
# suite (all of recovery_test, plus the `cli.recovery` ctest that drives
# the same paths through clfd_cli) sees injected NaNs surface as
# check::InvariantError at the op boundary.
#
# `crash-resume` is a pseudo-preset, not a CMake preset: it builds the
# recovery test under ASan and runs the kill-and-resume bitwise-equivalence
# suite there (heap misuse across the crash/restore boundary is where ASan
# earns its keep).
#
# When the default preset is in the run, the seven table benches run once
# at a tiny scale (CLFD_SCALE=0.01 CLFD_SEEDS=1 CLFD_EPOCH_SCALE=0.05), so a
# sweep that crashes or exits non-zero fails the gate; each of the five
# examples/ binaries runs once and must exit 0 too; the end-to-end
# benchmark's own tests run too (e2ebench/test_benchlib.py: its metric logic, plus a smoke
# run of every workload, which fails when a single-session score is not
# bitwise the score the full-pool pass gave that session), and the
# substrate micro-benchmarks run in smoke mode (short min-time): kernel
# FLOP/s, matmul invocations and allocations per training step,
# wall-clock per phase (forward, forward+backward, optimizer, corrector
# end-to-end), and the BM_PlanCapture/BM_PlanReplay pair with its
# capture/replay counters. tools/perfdiff/perf_diff gates the smoke
# numbers against the committed BENCH_substrate.json: any benchmark that
# regressed past the threshold (default +50%, override with
# CLFD_PERF_GATE_THRESHOLD) fails the run with a ranked delta table. The
# smoke output stays in a temporary file; the committed baseline is never
# overwritten by a CI pass. Execution plans and the tensor arena are
# exercised under ASan/UBSan/TSan by the ctest suite of those presets
# (every training loop steps through a plan on an arena-backed tape).
#
# Every preset builds with -Werror (CLFD_WERROR defaults to ON) and runs
# the whole ctest suite, which includes `analyze.repo`; the explicit
# clfd_analyze invocation at the end is there so the violation listing is
# the last thing in the log when it fails. It builds its own binary in
# the default preset first, whichever presets were requested, so it never
# runs a stale or missing ./build. clfd_analyze also verifies that the
# committed module DAG (docs/module_dag.dot) still matches the tree's
# include graph.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="${CLFD_CI_JOBS:-$(nproc)}"
presets=("$@")
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(default asan ubsan tsan check crash-resume)
fi

for preset in "${presets[@]}"; do
  if [[ "${preset}" == "crash-resume" ]]; then
    continue  # handled after the correctness matrix below
  fi
  echo "==== [${preset}] configure"
  cmake --preset "${preset}"
  echo "==== [${preset}] build (-j${jobs})"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==== [${preset}] test"
  ctest --preset "${preset}" -j "${jobs}"
done

for preset in "${presets[@]}"; do
  if [[ "${preset}" != "crash-resume" ]]; then
    continue
  fi
  echo "==== [crash-resume] kill-and-resume equivalence under ASan"
  cmake --preset asan
  cmake --build --preset asan -j "${jobs}" --target recovery_test
  ./build-asan/tests/recovery_test --gtest_filter='CrashResumeTest.*'
done

for preset in "${presets[@]}"; do
  if [[ "${preset}" == "default" ]]; then
    echo "==== [default] table benches (tiny scale)"
    for b in bench_table1_uniform_noise bench_table2_class_dependent_noise \
             bench_table3_label_corrector bench_table4_ablation_uniform \
             bench_table5_ablation_class_dependent bench_latency \
             bench_loss_variants; do
      CLFD_SCALE=0.01 CLFD_SEEDS=1 CLFD_EPOCH_SCALE=0.05 \
          CLFD_METRICS_SIDECAR=0 "./build/bench/${b}"
    done
    echo "==== [default] examples"
    for e in quickstart insider_threat_cert wiki_vandal_detection \
             openstack_log_anomaly noise_rate_estimation; do
      "./build/examples/${e}"
    done
    echo "==== [default] e2ebench self-tests (logic + smoke runs)"
    python3 e2ebench/test_benchlib.py
    echo "==== [default] substrate micro-bench (smoke)"
    bench_out="$(mktemp "${TMPDIR:-/tmp}/clfd_bench.XXXXXX.json")"
    ./build/bench/bench_micro_substrate \
        --benchmark_min_time=0.05 \
        --benchmark_out="${bench_out}" \
        --benchmark_out_format=json
    echo "==== [default] perf_diff gate vs committed BENCH_substrate.json"
    ./build/tools/perfdiff/perf_diff --gate \
        BENCH_substrate.json "${bench_out}"
    echo "==== [default] smoke bench output left in ${bench_out}"
  fi
done

echo "==== clfd_analyze"
cmake --preset default
cmake --build --preset default -j "${jobs}" --target clfd_analyze
./build/tools/analyze/clfd_analyze --root "${repo_root}" \
    --check-dot docs/module_dag.dot
echo "==== ci.sh: all green"
