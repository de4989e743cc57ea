#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "support/mutex.hpp"

/// Live batch progress heartbeat (`hcac --batch ... --progress-out FILE`).
///
/// The batch driver appends one JSON object per line ("JSONL"): every job
/// state transition (start, done), a periodic heartbeat while a job runs,
/// and batch start/end markers. Each line is self-contained and flushed
/// before the driver proceeds, so an external monitor (or a human with
/// `tail -f`) always sees a complete, parseable prefix of the run — and a
/// kill mid-batch at worst truncates the final line, which the strict
/// reader flags.
///
/// Sequencing: every line carries a `seq` that is strictly increasing
/// *across batch restarts* — the writer opens the file in append mode and
/// recovers the last seq from the existing tail, so a killed-and-resumed
/// batch produces one log whose lines still totally order. `elapsed_ms`
/// is time since *this* batch process started (steady clock — the log is
/// deliberately wall-clock-free, like every cross-run artifact).
///
/// Line schema (all keys always present):
///   {"schema_version": 1, "seq": N, "event": "batch-start" | "job-state"
///      | "heartbeat" | "batch-end",
///    "job": "...",            // "" for batch-level events
///    "state": "...",          // job-state: start | done; done lines
///                             //   also set "outcome"
///    "outcome": "...",        // ok failed invalid cancelled ("" otherwise)
///    "phase": "...",          // human-readable per-job phase
///    "jobs_total": N, "jobs_done": N, "jobs_ok": N, "jobs_failed": N,
///    "elapsed_ms": N,
///    "eta_ms": N | null,      // remaining-work estimate from completed-
///                             //   job durations; null until one finished
///    "resumed": bool}         // batch-start: file had prior lines
namespace hca::core {

struct ProgressEvent {
  std::string event;  ///< batch-start / job-state / heartbeat / batch-end
  std::string job;
  std::string state;
  std::string outcome;
  std::string phase;
  int jobsTotal = 0;
  int jobsDone = 0;
  int jobsOk = 0;
  int jobsFailed = 0;
  std::int64_t elapsedMs = 0;
  std::int64_t etaMs = -1;  ///< -1 = unknown (serialized as null)
  bool resumed = false;
};

/// One parsed heartbeat line (tests, monitors). `seq` added on read.
struct ProgressLine : ProgressEvent {
  std::int64_t seq = 0;
};

/// Serializes one event (without seq) as a single JSON line body; the
/// writer stamps schema_version and seq.
class ProgressLog {
 public:
  /// Opens `path` for append, creating it when absent. When the file has
  /// prior contents, the last complete line is strict-parsed to recover
  /// the sequence counter (so a resumed batch continues it) — a corrupt
  /// tail throws InvalidArgumentError, a trailing half-line (torn final
  /// write of a killed batch) is tolerated and overwritten by appends.
  /// Throws IoError when the file cannot be opened.
  explicit ProgressLog(std::string path);
  ~ProgressLog();

  ProgressLog(const ProgressLog&) = delete;
  ProgressLog& operator=(const ProgressLog&) = delete;

  /// Appends one line and flushes. Thread-safe (the heartbeat thread and
  /// the batch loop share the log). Throws IoError on write failure.
  void write(const ProgressEvent& event);

  /// True when the file already had complete lines at open (a resumed
  /// batch).
  [[nodiscard]] bool resumedLog() const { return resumed_; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable Mutex mu_;
  std::FILE* file_ HCA_GUARDED_BY(mu_) = nullptr;
  std::int64_t seq_ HCA_GUARDED_BY(mu_) = 0;
  bool resumed_ = false;
};

/// Strict-parses one heartbeat line. Throws InvalidArgumentError on
/// malformed JSON, missing/unknown members, or a schema version this
/// build does not read.
[[nodiscard]] ProgressLine parseProgressLine(const std::string& line);

}  // namespace hca::core
