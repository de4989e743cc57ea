#!/usr/bin/env bash
# The repo's CI entry point (also runnable locally): tier-1 tests, the
# thread-safety-analysis build, and the clang-tidy profile.
#
#   1. tier-1   — cmake + build + full ctest suite (the acceptance bar every
#                 change must keep green)
#   2. tsa      — a clang build with -Wthread-safety -Werror=thread-safety
#                 verifying the HCA_GUARDED_BY/HCA_REQUIRES annotations;
#                 skipped with a notice when clang is not installed (GCC has
#                 no thread-safety analysis)
#   3. lint     — tools/run_clang_tidy.sh over src/tools/examples; skips
#                 itself when clang-tidy is missing
#   3b. hca-lint — the in-repo contract checker (determinism, layering,
#                 locking, exit contract) against tools/lint_baseline.json;
#                 any diagnostic not in the baseline fails the stage naming
#                 the rule. Skips with a notice when compile_commands.json
#                 is absent (e.g. a build tree configured by a generator
#                 that does not export it)
#   4. perf     — a Release build running the bench_micro suite once (tiny
#                 repetitions, --strict-build so a debug-grade binary is a
#                 hard error). This is a smoke test: it fails on crash,
#                 assertion, or sanitizer abort inside the benchmarked
#                 paths, never on timing.
#   5. robust   — graceful-shutdown smoke: SIGTERM mid-search must exit 4
#                 through the best-so-far path, say so on stderr and still
#                 write an illegal run report
#   6. regress  — two-commit regression smoke: compile one Table 1 kernel
#                 twice with --report-out/--history-out, then
#                 `hcac --compare` must exit 0 (the search is
#                 deterministic), at 1 thread and at 4 threads, and a
#                 perturbed counter must flip it to exit 1 naming the
#                 regressed series
#
# Usage: tools/ci.sh [jobs]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"

echo "=== ci: tier-1 build + tests ==="
cmake -B "${root}/build" -S "${root}"
cmake --build "${root}/build" -j "${jobs}"
(cd "${root}/build" && ctest --output-on-failure -j "${jobs}")

echo "=== ci: thread-safety analysis build ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B "${root}/build-tsa" -S "${root}" \
    -DCMAKE_CXX_COMPILER=clang++ -DHCA_WERROR=ON
  cmake --build "${root}/build-tsa" -j "${jobs}"
  echo "ci: thread-safety build clean"
else
  echo "ci: clang++ not found; skipping the thread-safety analysis build"
fi

echo "=== ci: clang-tidy ==="
"${root}/tools/run_clang_tidy.sh" "${root}/build"

echo "=== ci: hca-lint (determinism / layering / locking / exit contract) ==="
if [[ -s "${root}/build/compile_commands.json" ]]; then
  cmake --build "${root}/build" -j "${jobs}" --target hca_lint
  # Exit 1 here means a NEW diagnostic (stderr names the rule); known debt
  # lives in tools/lint_baseline.json. lint_report.json is the machine-
  # readable artifact CI uploads on failure. Runs from the repo root with
  # `--root .`, the form README documents.
  (cd "${root}" && build/tools/hca_lint \
    --compile-commands build/compile_commands.json \
    --root . \
    --baseline tools/lint_baseline.json \
    --json build/lint_report.json)
  echo "ci: hca-lint clean against baseline"
else
  echo "ci: compile_commands.json not found; skipping hca-lint"
fi

echo "=== ci: perf smoke (Release bench_micro) ==="
cmake -B "${root}/build-perf" -S "${root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${root}/build-perf" -j "${jobs}" --target bench_micro
# One pass over every benchmark with minimal timing effort. Exit status is
# the verdict — crashes/aborts in the CoW beam search, the arena, or any
# other benchmarked component fail CI; wall-clock numbers are informational.
# --strict-build is the default for every bench target CI runs: a
# debug-grade binary silently producing a committed baseline is exactly
# the mistake the flag exists to catch.
(cd "${root}/build-perf/bench" &&
  ./bench_micro --strict-build \
    --benchmark_min_time=0.01 --benchmark_repetitions=1)
echo "ci: perf smoke passed (timings informational; BENCH_micro.json written)"

echo "=== ci: robustness smoke (SIGTERM best-so-far) ==="
hcac="${root}/build/tools/hcac"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# SIGTERM an h264 compile two seconds in, long before its sweep ends. The
# search must unwind through the graceful path: exit 4 (no legal mapping
# yet), the signal named on stderr, and the best-so-far report written
# atomically. --foreground makes timeout signal hcac once: without it,
# timeout also signals its own process group, and hcac treats that second
# SIGTERM as an operator's "stop now" (exit 143, no report).
set +e
timeout --foreground --preserve-status --signal=TERM 2 \
  "${hcac}" --kernel h264deblocking --n 3 --m 3 --k 3 \
  --report-out "${work}/sigterm.json" >"${work}/sigterm.log" \
  2>"${work}/sigterm.err"
sigterm_rc=$?
set -e
if [[ "${sigterm_rc}" -ne 4 ]]; then
  echo "ci: SIGTERM'd run exited ${sigterm_rc}, expected graceful 4"
  cat "${work}/sigterm.log" "${work}/sigterm.err"
  exit 1
fi
grep -q "interrupted by signal 15" "${work}/sigterm.err" || {
  echo "ci: SIGTERM'd run did not report the signal"
  cat "${work}/sigterm.err"; exit 1; }
[[ -s "${work}/sigterm.json" ]] || {
  echo "ci: SIGTERM'd run left no report"; exit 1; }
grep -q '"legal":false' "${work}/sigterm.json" || {
  echo "ci: SIGTERM'd run's report is not the illegal best-so-far"
  cat "${work}/sigterm.json"; exit 1; }
echo "ci: SIGTERM best-so-far smoke passed"

echo "=== ci: regression gate smoke (hcac --compare) ==="
# Two runs of the same deterministic compile must diff clean: every
# deterministic counter identical, exit 0. This is the gate a change's CI
# run uses against a baseline report from the target branch.
"${hcac}" --kernel fir2dim --report-out "${work}/base.json" \
  --history-out "${work}/history.jsonl" --run-id ci-base \
  >"${work}/compare.log" 2>&1
"${hcac}" --kernel fir2dim --report-out "${work}/new.json" \
  --history-out "${work}/history.jsonl" --run-id ci-new \
  >>"${work}/compare.log" 2>&1
"${hcac}" --compare "${work}/base.json" "${work}/new.json" \
  --history "${work}/history.jsonl" --diff-out "${work}/verdict.json" \
  >>"${work}/compare.log" 2>&1 || {
    echo "ci: self-compare of a deterministic compile reported a regression"
    cat "${work}/compare.log" "${work}/verdict.json"; exit 1; }
grep -q '"regression":false' "${work}/verdict.json" || {
  echo "ci: verdict JSON does not record a clean comparison"
  cat "${work}/verdict.json"; exit 1; }
# The same gate at 4 threads: the portfolio's speculative counters may move
# between the two runs (they become notes), the mapping must not.
for run in base4 new4; do
  "${hcac}" --kernel fir2dim --threads 4 --report-out "${work}/${run}.json" \
    >>"${work}/compare.log" 2>&1
done
"${hcac}" --compare "${work}/base4.json" "${work}/new4.json" \
  --diff-out "${work}/verdict4.json" >>"${work}/compare.log" 2>&1 || {
    echo "ci: 4-thread self-compare reported a regression"
    cat "${work}/compare.log" "${work}/verdict4.json"; exit 1; }
# Sanity-check the gate actually gates: a perturbed deterministic counter
# must exit 1 and name the regressed series.
sed 's/"outerAttempts":[0-9]*/"outerAttempts":999999/' \
  "${work}/new.json" >"${work}/perturbed.json"
set +e
"${hcac}" --compare "${work}/base.json" "${work}/perturbed.json" \
  >"${work}/perturbed.log" 2>&1
perturbed_rc=$?
set -e
if [[ "${perturbed_rc}" -ne 1 ]]; then
  echo "ci: perturbed compare exited ${perturbed_rc}, expected 1"
  cat "${work}/perturbed.log"
  exit 1
fi
grep -q "stats.outerAttempts" "${work}/perturbed.log" || {
  echo "ci: perturbed compare did not name the regressed series"
  cat "${work}/perturbed.log"; exit 1; }
echo "ci: regression gate smoke passed"

echo "=== ci: all stages passed ==="
