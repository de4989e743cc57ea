#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "support/trace.hpp"

/// Minimal fixed-size thread pool and cooperative cancellation primitive.
///
/// Used by the HCA driver's portfolio search: every (target II, heuristic
/// profile) attempt is an independent task, so a plain FIFO pool — no work
/// stealing, no futures — is all the machinery the outer loop needs. Tasks
/// must not throw (the driver captures exceptions into per-attempt slots).
/// All queue state is guarded by one annotated `Mutex`, so a clang
/// `-Wthread-safety` build proves lock discipline at compile time.
namespace hca {

/// A cooperative soft-cancellation flag.
///
/// Long-running searches poll `cancelled()` at loop boundaries and unwind
/// with an "illegal" result when it flips; the canceller never blocks or
/// interrupts. Cancellation is one-way and sticky.
///
/// Beyond the plain flag, a token can carry a wall-clock deadline (the
/// HCA driver's `deadlineMs` budget) and can be chained to a parent token
/// (the portfolio sweep chains every per-attempt token to the run-wide
/// deadline token). `cancelled()` latches: once it has observed an expired
/// deadline or a cancelled parent it stays cancelled, so no polling site
/// ever sees the flag flip back.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Arms a wall-clock deadline; polling `cancelled()` after this instant
  /// cancels the token. Must be set before the token is shared.
  void setDeadline(MonotonicTime deadline) noexcept {
    deadline_ = deadline;
    hasDeadline_ = true;
  }

  /// Chains this token to `parent`: a cancelled parent (for any reason)
  /// cancels this token at the next poll. Must be set before the token is
  /// shared; `parent` must outlive this token. nullptr = no parent.
  void chainTo(const CancellationToken* parent) noexcept { parent_ = parent; }

  [[nodiscard]] bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if ((hasDeadline_ && monotonicNow() >= deadline_) ||
        (parent_ != nullptr && parent_->cancelled())) {
      cancelled_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  MonotonicTime deadline_{};
  bool hasDeadline_ = false;
  const CancellationToken* parent_ = nullptr;
};

class ThreadPool {
 public:
  /// Execution statistics since construction, for the observability layer:
  /// queue pressure (how far submission ran ahead of the workers) and task
  /// latency split into queue wait vs. run time.
  struct PoolStats {
    std::int64_t tasksExecuted = 0;
    int maxQueueDepth = 0;  ///< deepest queue observed at submit time
    Histogram taskWaitUs;   ///< submit -> dequeue, microseconds
    Histogram taskRunUs;    ///< dequeue -> completion, microseconds
  };

  /// Spawns `numThreads` workers (must be >= 1).
  explicit ThreadPool(int numThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw; wrap bodies in try/catch and
  /// stash the exception if the caller needs it.
  void submit(std::function<void()> task) HCA_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and every worker is idle. The pool is
  /// reusable after wait() returns.
  void wait() HCA_EXCLUDES(mutex_);

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Snapshot of the execution statistics (completed tasks only).
  [[nodiscard]] PoolStats stats() const HCA_EXCLUDES(mutex_);

  /// Maps the user-facing `numThreads` knob to a concrete worker count:
  /// 0 = std::thread::hardware_concurrency (at least 1), otherwise the
  /// requested value clamped to >= 1.
  [[nodiscard]] static int resolveThreads(int requested);

  /// std::thread::hardware_concurrency with the zero-means-unknown case
  /// mapped to 1.
  [[nodiscard]] static int hardwareThreads();

  /// resolveThreads, additionally clamped to hardwareThreads(). Requesting
  /// more workers than cores makes a CPU-bound portfolio strictly slower
  /// (context-switch thrash), so every user-facing knob that feeds a pool
  /// size goes through this clamp. `allowOversubscribe` skips the clamp;
  /// nothing sets it, and it stays only because
  /// perfbench/compile_bench.cpp passes it explicitly (as false).
  [[nodiscard]] static int effectiveThreads(int requested,
                                            bool allowOversubscribe = false);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    MonotonicTime enqueued;
  };

  void workerLoop() HCA_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::deque<QueuedTask> queue_ HCA_GUARDED_BY(mutex_);
  /// CondVar (condition_variable_any): waits on the annotated MutexLock.
  CondVar workCv_;  // queue non-empty or shutting down
  CondVar idleCv_;  // queue empty and no task in flight
  int active_ HCA_GUARDED_BY(mutex_) = 0;
  bool stop_ HCA_GUARDED_BY(mutex_) = false;
  PoolStats stats_ HCA_GUARDED_BY(mutex_);
};

}  // namespace hca
