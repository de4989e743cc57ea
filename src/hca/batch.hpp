#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hca/driver.hpp"
#include "support/thread_pool.hpp"

/// Fault-isolated batch compilation (`hcac --batch manifest.json`).
///
/// A manifest names a list of compile jobs (built-in kernel or DDG file,
/// per-job deadline, checkpoint, budgets). The batch driver runs them in
/// order with hard isolation: one job throwing, timing out or failing to
/// map never takes the rest of the batch down. Each job compiles exactly
/// once, under the kDegrade failure policy, so the escalation ladder
/// (widened beam, degraded bandwidth, flat ICA) runs before the job counts
/// as failed. The search is deterministic, so compiling a failed job again
/// would only repeat the same failure.
///
/// Shutdown: the batch observes an external CancellationToken (the CLI
/// wires SIGINT/SIGTERM to it). A tripped token cancels the in-flight
/// job's search at its next poll — flushing its checkpoint, so a later
/// `--resume` continues where it stopped — and marks the remaining jobs
/// cancelled instead of running them.
///
/// Manifest format (strict JSON):
///   {"jobs": [
///     {"name": "fir",                 // required, unique
///      "kernel": "fir2dim",           // exactly one of kernel | ddg
///      "ddg": "path/to/kernel.ddg",   // ddg/serialize text format
///      "deadline_ms": 2000,           // 0 = unlimited (default)
///      "checkpoint": "fir.ckpt",      // per-job checkpoint/resume file
///      "memory_budget_mb": 0,         // HcaOptions::memoryBudgetBytes
///      "threads": 1,                  // HcaOptions::numThreads
///      "target_ii_slack": 6,          // HcaOptions::targetIiSlack
///      "faults": "cn:3 cn:17"}        // machine::FaultSet::parse syntax
///   ]}
namespace hca::core {

struct BatchJob {
  std::string name;
  std::string kernel;   ///< built-in Table 1 kernel name…
  std::string ddgPath;  ///< …or a ddg text file (exactly one set)
  int deadlineMs = 0;
  std::string checkpointPath;
  std::int64_t memoryBudgetBytes = 0;
  int threads = 1;
  int targetIiSlack = 6;
  std::string faults;
};

enum class BatchJobStatus {
  kOk,         ///< a legal mapping was produced
  kFailed,     ///< the compile produced no legal mapping
  kInvalid,    ///< bad input (DDG, faults, checkpoint)
  kCancelled,  ///< shutdown tripped before/while the job ran
};

[[nodiscard]] const char* to_string(BatchJobStatus status);

struct BatchJobResult {
  std::string name;
  BatchJobStatus status = BatchJobStatus::kCancelled;
  /// Ladder rung that produced a legal result ("" = primary sweep).
  std::string fallbackUsed;
  std::string failureReason;
  int achievedTargetIi = 0;
  std::int64_t wallMs = 0;
};

struct BatchSummary {
  std::vector<BatchJobResult> jobs;
  int ok = 0;
  int failed = 0;
  int invalid = 0;
  int cancelled = 0;
  [[nodiscard]] bool allOk() const {
    return failed == 0 && invalid == 0 && cancelled == 0;
  }
};

struct BatchOptions {
  /// Shutdown token (may be null). See the header comment.
  const CancellationToken* cancel = nullptr;
  /// When non-empty, a heartbeat JSONL progress log (hca/progress.hpp) is
  /// appended to this path: every job state transition, a periodic
  /// heartbeat while a job runs, and batch start/end markers, each line
  /// flushed before the driver proceeds. Append-only across restarts: a
  /// killed-and-resumed batch continues the same file with a strictly
  /// increasing `seq`, so monitors see one honest cumulative log.
  std::string progressPath;
  /// When true, the heartbeat thread also prints a one-line progress
  /// summary (jobs done/ok/failed, current job + phase, ETA) to stdout.
  bool progressTty = false;
  /// Heartbeat period for the progress log / TTY summary.
  int heartbeatMs = 1000;
  /// When non-empty, a best-so-far run report (hca/report.hpp) is written
  /// atomically to `<dir>/<job>.report.json` after every job — including
  /// failed and cancelled ones. Each report carries a cross-run meta block
  /// (workload = the job's kernel/ddg, machine, context), so it feeds
  /// `hcac --compare` directly.
  std::string reportDir;
  /// Run identifier stamped into each per-job report's context block
  /// (`hcac --run-id`); empty = unset.
  std::string runId;
  /// Base HcaOptions every job starts from (per-job manifest fields are
  /// layered on top; the failure policy is always kDegrade).
  HcaOptions base;
  /// Progress observer (may be empty): called with the job and a short
  /// event string: "start" when its compile begins, then its final status
  /// (to_string(BatchJobStatus)).
  std::function<void(const BatchJob&, const std::string&)> observer;
};

/// Parses a manifest document. Throws InvalidArgumentError (with a
/// field-naming message) on syntax errors, duplicate names, unknown
/// members or a job naming neither/both of kernel and ddg.
[[nodiscard]] std::vector<BatchJob> parseManifest(const std::string& text);

/// Runs the jobs in manifest order. Never throws on job failure — every
/// outcome is folded into the summary.
[[nodiscard]] BatchSummary runBatch(const std::vector<BatchJob>& jobs,
                                    const BatchOptions& options);

/// Structured summary JSON (the CLI prints it and writes it atomically
/// next to the manifest when --report-out is given).
[[nodiscard]] std::string batchSummaryJson(const BatchSummary& summary);

}  // namespace hca::core
