#!/usr/bin/env bash
# One-command CI gate: tier-1 build + full ctest, an ASan+UBSan configuration,
# the figure diffs and the benchmark self-tests, run back to back.
#
#   scripts/check.sh            # everything (tier1, asan, figures, perf)
#   scripts/check.sh tier1      # default build + full test suite + env lint
#   scripts/check.sh asan       # just the sanitizer configuration
#   scripts/check.sh figures    # figure/table and extension benches diffed against bench_results/
#   scripts/check.sh perf       # benchmark self-tests (perfbench/run.py --selftest)
#
# Configuration defaults are constants: every extension a suite covers is
# set explicitly in its tests, so no stage re-runs suites with an
# environment variable flipping a default.  The tier1 lint keeps it so.
#
# Each configuration uses its own build tree (build/, build-asan/,
# .bench_build/; all gitignored).  Temporary files (the tier1 trace, the
# figures output directory) go under $TMPDIR, else /tmp.  Nothing in src/
# starts a thread, so there is no ThreadSanitizer configuration.  Every
# ctest call passes --no-tests=error, so a stage whose test selection
# matches nothing fails instead of passing vacuously.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
stages=("$@")
[ ${#stages[@]} -eq 0 ] && stages=(tier1 asan figures perf)

run() {
  echo
  echo "== $* =="
  "$@"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    tier1)
      # Only the POLYPART_TRACE hook reads the environment; a config default
      # that does would change every process silently.
      env_hits=$(grep -rnE 'getenv|env::' src |
        grep -vE '^src/support/trace\.cpp:' || true)
      if [ -n "$env_hits" ]; then
        echo "environment read outside support/trace.cpp:"
        echo "$env_hits"
        exit 1
      fi
      # The seed's build/ tree uses Unix Makefiles; never pass -G here.
      # Warnings are errors here (CMake's built-in switch), so a new one
      # fails the stage instead of scrolling past in the build log.
      run cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
      run cmake --build build -j "$jobs"
      run ctest --test-dir build -j "$jobs" --no-tests=error --output-on-failure
      # Fastest end-to-end smoke of the whole pipeline, with tracing live:
      # quickstart self-verifies, and the trace the env hook writes must
      # parse as JSON and carry the per-launch counter track `launches`
      # (support/counters.h; trace_test checks the trace in detail).
      trace_out=$(mktemp -t polypart-trace.XXXXXX.json)
      run env POLYPART_TRACE="$trace_out" ./build/examples/quickstart
      [ -s "$trace_out" ] || { echo "POLYPART_TRACE wrote no trace"; exit 1; }
      run python3 -c 'import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
n = sum(e["ph"] == "C" and e["name"] == "launches" for e in events)
sys.exit(0 if n > 0 else "trace has no launches counter samples")' "$trace_out"
      rm -f "$trace_out"
      ;;
    asan)
      run cmake -B build-asan -S . -DPOLYPART_SANITIZE=address,undefined
      run cmake --build build-asan -j "$jobs"
      run ctest --test-dir build-asan -j "$jobs" --no-tests=error --output-on-failure -LE fuzz
      # The randomized differential suites (label `fuzz`, tests/fuzz_util.h)
      # run as their own step so a generator regression is visible at a
      # glance; failures print a POLYPART_FUZZ_SEED replay line.
      run ctest --test-dir build-asan -j "$jobs" --no-tests=error --output-on-failure -L fuzz
      ;;
    figures)
      # Paper-figure reproductions, the modeled-only extension benches
      # (dataflow planning, repartitioning, shared-copy tracking) and the
      # page-migration comparator: each must print exactly what
      # bench_results/ holds (modeled numbers only, so any difference is a
      # behaviour change).  Each bench runs from a scratch directory because
      # it writes BENCH_<name>.json to the working directory.  Reuses the
      # tier-1 build tree.
      figure_benches=(fig6_speedup:fig6 fig7_breakdown:fig7 fig8_overhead:fig8
                      single_gpu_overhead:single_gpu table1_configs:table1
                      dataflow_plan:dataflow_plan repartition:repartition
                      ablation_shared_copies:ablation_shared_copies
                      baseline_uvm:baseline_uvm)
      run cmake -B build -S .
      run cmake --build build -j "$jobs" --target "${figure_benches[@]%%:*}"
      root=$(pwd)
      fig_dir=$(mktemp -d -t polypart-figures.XXXXXX)
      for entry in "${figure_benches[@]}"; do
        bench=${entry%%:*}
        result=${entry##*:}
        echo
        echo "== $bench > $result.txt =="
        (cd "$fig_dir" && "$root/build/bench/$bench" > "$result.txt")
        run diff -u "bench_results/$result.txt" "$fig_dir/$result.txt"
      done
      rm -rf "$fig_dir"
      ;;
    perf)
      # The benchmark's self-tests: self-time aggregation, the paper-figure
      # anchor, the output checks, and seed handling.  Builds the benchmark
      # package (perfbench/CMakeLists.txt, Release) into .bench_build/.
      run python3 perfbench/run.py --selftest
      ;;
    *)
      echo "unknown stage '$stage' (expected: tier1, asan, figures, perf)" >&2
      exit 2
      ;;
  esac
done

echo
echo "check.sh: all stages passed (${stages[*]})"
