// Portfolio-search scaling bench: wall-clock for clustering the Table 1
// kernels at numThreads ∈ {1, 2, hardware_concurrency} under the worst-case
// outer-sweep configuration (targetIiSlack = 6, searchProfiles = 5 — up to
// 35 hierarchical solves per kernel before the degraded fallback), plus the
// sub-problem cache hit rates. Results are appended to BENCH_parallel.json
// (machine-readable) so the perf trajectory is tracked across PRs.
//
// Requested counts above hardware_concurrency clamp to the same effective
// worker count; re-measuring them would just duplicate an existing row
// (on a 1-core host every count collapses to 1). Such rows are not re-run:
// they copy the measured row's numbers and carry "clamped": true, so
// downstream tracking can tell a measurement from an alias of one.
//
// Usage: bench_parallel [--quick] [--strict-build]
//   --quick         skip h264deblocking (its fully failing 35-attempt sweep
//                   plus fallback dominates the runtime)
//   --strict-build  exit 1 instead of warning when this is a debug-grade
//                   (non-NDEBUG) build

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sstream>

#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "support/context.hpp"
#include "support/io.hpp"

using namespace hca;

namespace {

struct Row {
  std::string kernel;
  int numThreads = 0;         ///< requested thread count
  int effectiveThreads = 0;   ///< after the hardware-concurrency clamp
  double wallMs = 0.0;
  bool legal = false;
  int achievedTargetIi = 0;
  int outerAttempts = 0;
  int attemptsCancelled = 0;
  std::int64_t cacheHits = 0;
  std::int64_t cacheMisses = 0;
  /// True when this row was not measured: its effectiveThreads duplicates
  /// an already-measured configuration and the numbers are copied from it.
  bool clamped = false;

  [[nodiscard]] double hitRate() const {
    const auto total = cacheHits + cacheMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(cacheHits) /
                            static_cast<double>(total);
  }
};

double wallMsOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool strictBuild = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--strict-build") strictBuild = true;
  }
  if (warnIfDebugBuild("bench_parallel") && strictBuild) return 1;

  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  const machine::DspFabricModel model(config);

  const int hw = ThreadPool::resolveThreads(0);
  std::vector<int> threadCounts = {1, 2, hw};
  std::sort(threadCounts.begin(), threadCounts.end());
  threadCounts.erase(std::unique(threadCounts.begin(), threadCounts.end()),
                     threadCounts.end());

  std::printf("Portfolio scaling — worst-case sweep (slack 6, 5 profiles)\n");
  std::printf(
      "Machine: %s, hardware_concurrency: %d (requested counts above it\n"
      "are clamped; `eff` is the worker count actually used)\n\n",
      config.toString().c_str(), hw);
  std::printf("%-16s %8s %4s %10s %6s %9s %8s %10s %9s\n", "Loop", "threads",
              "eff", "wall_ms", "legal", "achieved", "attempts", "cancelled",
              "cacheHit%");
  std::printf("%s\n", std::string(89, '-').c_str());

  std::vector<Row> rows;
  auto kernels = ddg::table1Kernels();
  for (auto& kernel : kernels) {
    if (quick && kernel.name == "h264deblocking") continue;
    double serialMs = 0.0;
    // effectiveThreads -> index into `rows` of the row that measured it.
    std::map<int, std::size_t> measured;
    for (const int threads : threadCounts) {
      core::HcaOptions options;  // defaults ARE the worst-case sweep: slack 6, 5 profiles
      options.numThreads = threads;

      Row row;
      row.kernel = kernel.name;
      row.numThreads = threads;
      row.effectiveThreads = ThreadPool::effectiveThreads(threads);
      const auto dup = measured.find(row.effectiveThreads);
      if (dup != measured.end()) {
        // Same effective configuration as an earlier row — re-running it
        // would measure the identical thing under a different label.
        const Row& src = rows[dup->second];
        row.wallMs = src.wallMs;
        row.legal = src.legal;
        row.achievedTargetIi = src.achievedTargetIi;
        row.outerAttempts = src.outerAttempts;
        row.attemptsCancelled = src.attemptsCancelled;
        row.cacheHits = src.cacheHits;
        row.cacheMisses = src.cacheMisses;
        row.clamped = true;
        rows.push_back(row);
        std::printf("%-16s %8d %4d %10s %6s %9s %8s %10s %9s  (clamped, = %dt row)\n",
                    row.kernel.c_str(), row.numThreads, row.effectiveThreads,
                    "-", "-", "-", "-", "-", "-", src.numThreads);
        continue;
      }
      core::HcaResult result;
      row.wallMs = wallMsOf([&] {
        const core::HcaDriver driver(model, options);
        result = driver.run(kernel.ddg);
      });
      row.legal = result.legal;
      row.achievedTargetIi = result.stats.achievedTargetIi;
      row.outerAttempts = result.stats.outerAttempts;
      row.attemptsCancelled = result.stats.attemptsCancelled;
      row.cacheHits = result.stats.cacheHits;
      row.cacheMisses = result.stats.cacheMisses;
      measured[row.effectiveThreads] = rows.size();
      rows.push_back(row);
      if (threads == 1) serialMs = row.wallMs;

      std::printf("%-16s %8d %4d %10.1f %6s %9d %8d %10d %8.1f%%",
                  row.kernel.c_str(), row.numThreads, row.effectiveThreads,
                  row.wallMs, row.legal ? "yes" : "no", row.achievedTargetIi,
                  row.outerAttempts, row.attemptsCancelled,
                  100.0 * row.hitRate());
      if (threads != 1 && serialMs > 0.0 && row.wallMs > 0.0) {
        std::printf("  (%.2fx vs 1t)", serialMs / row.wallMs);
      }
      std::printf("\n");
    }
  }

  // Machine-readable trajectory for cross-PR tracking.
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"parallel_portfolio\",\n"
       << "  \"machine\": \"" << config.toString() << "\",\n"
       << "  \"context\": " << RunContext::current().toJson() << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"targetIiSlack\": " << core::HcaOptions().targetIiSlack << ",\n"
       << "  \"searchProfiles\": " << core::HcaOptions().searchProfiles << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"kernel\": \"" << row.kernel << "\""
         << ", \"numThreads\": " << row.numThreads
         << ", \"effectiveThreads\": " << row.effectiveThreads
         << ", \"wall_ms\": " << row.wallMs
         << ", \"legal\": " << (row.legal ? "true" : "false")
         << ", \"achievedTargetIi\": " << row.achievedTargetIi
         << ", \"outerAttempts\": " << row.outerAttempts
         << ", \"attemptsCancelled\": " << row.attemptsCancelled
         << ", \"cacheHits\": " << row.cacheHits
         << ", \"cacheMisses\": " << row.cacheMisses
         << ", \"cacheHitRate\": " << row.hitRate()
         << ", \"clamped\": " << (row.clamped ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  // Atomic write: never leave a truncated BENCH JSON behind.
  atomicWriteFile("BENCH_parallel.json", json.str());
  std::printf("\nWrote BENCH_parallel.json (%zu rows)\n", rows.size());
  return 0;
}
