#include "hca/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/checkpoint.hpp"
#include "hca/progress.hpp"
#include "hca/report.hpp"
#include "machine/fault.hpp"
#include "support/check.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/mutex.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace hca::core {

namespace {

// --- strict manifest accessors ---------------------------------------------

const JsonValue& member(const JsonValue& v, const char* name) {
  const JsonValue* m = v.find(name);
  HCA_REQUIRE(m != nullptr, "batch manifest: missing member '" << name << "'");
  return *m;
}

const std::string& asString(const JsonValue& v, const char* what) {
  HCA_REQUIRE(v.kind == JsonValue::Kind::kString,
              "batch manifest: '" << what << "' must be a string");
  return v.string;
}

int asI32(const JsonValue& v, const char* what) {
  HCA_REQUIRE(v.kind == JsonValue::Kind::kNumber && v.number >= INT32_MIN &&
                  v.number <= INT32_MAX &&
                  v.number == static_cast<double>(
                                  static_cast<std::int64_t>(v.number)),
              "batch manifest: '" << what << "' must be an integer");
  return static_cast<int>(v.number);
}

bool safeName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void notify(const BatchOptions& batch, const BatchJob& job,
            const char* event) {
  if (batch.observer) batch.observer(job, event);
}

/// Live progress for one runBatch invocation: owns the heartbeat JSONL log
/// (when configured), the cumulative counters the heartbeat reports, and
/// the periodic heartbeat/TTY thread. All public methods are no-ops when
/// neither --progress-out nor the TTY summary is enabled, so the plain
/// batch path stays allocation- and thread-free.
class ProgressTracker {
 public:
  ProgressTracker(const BatchOptions& options, int jobsTotal)
      : options_(options),
        jobsTotal_(jobsTotal),
        started_(monotonicNow()) {
    if (!options.progressPath.empty()) {
      log_ = std::make_unique<ProgressLog>(options.progressPath);
    }
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      event = baseLocked();
    }
    event.event = "batch-start";
    event.resumed = log_ != nullptr && log_->resumedLog();
    emit(event, /*tty=*/false);
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
  }

  ~ProgressTracker() { stop(); }

  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  [[nodiscard]] bool enabled() const {
    return log_ != nullptr || options_.progressTty;
  }

  /// Emits the batch-end marker and joins the heartbeat thread.
  void stop() {
    {
      MutexLock lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (heartbeat_.joinable()) heartbeat_.join();
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      event = baseLocked();
    }
    event.event = "batch-end";
    emit(event, options_.progressTty);
  }

  /// A job's compile begins: it becomes the heartbeat's current job.
  void jobStarted(const BatchJob& job) {
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      currentJob_ = job.name;
      phase_ = "compiling";
      event = baseLocked();
    }
    event.event = "job-state";
    event.state = "start";
    emit(event, /*tty=*/false);
  }

  /// Terminal transition: folds the job into the cumulative counters (and
  /// the completed-duration pool the ETA is computed from) and emits the
  /// "done" line.
  void jobDone(const BatchJob& job, BatchJobStatus status,
               std::int64_t wallMs) {
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      ++jobsDone_;
      if (status == BatchJobStatus::kOk) ++jobsOk_;
      if (status == BatchJobStatus::kFailed ||
          status == BatchJobStatus::kInvalid) {
        ++jobsFailed_;
      }
      completedWallMs_ += wallMs;
      currentJob_.clear();
      phase_ = "idle";
      event = baseLocked();
    }
    event.event = "job-state";
    event.job = job.name;
    event.state = "done";
    event.outcome = to_string(status);
    emit(event, /*tty=*/false);
  }

 private:
  /// Common fields of the next line, from the counters. Caller holds mu_.
  ProgressEvent baseLocked() HCA_REQUIRES(mu_) {
    ProgressEvent event;
    event.job = currentJob_;
    event.phase = phase_;
    event.jobsTotal = jobsTotal_;
    event.jobsDone = jobsDone_;
    event.jobsOk = jobsOk_;
    event.jobsFailed = jobsFailed_;
    event.elapsedMs = microsBetween(started_, monotonicNow()) / 1000;
    // ETA: mean completed-job duration times the jobs still to run. Honest
    // about what it is — an extrapolation that only exists once at least
    // one job finished in *this* process.
    if (jobsDone_ > 0 && jobsDone_ < jobsTotal_) {
      event.etaMs = completedWallMs_ / jobsDone_ *
                    (jobsTotal_ - jobsDone_);
    }
    return event;
  }

  void emit(const ProgressEvent& event, bool tty) {
    if (log_ != nullptr) log_->write(event);
    if (!tty) return;
    char eta[32];
    if (event.etaMs >= 0) {
      std::snprintf(eta, sizeof(eta), "%.1fs",
                    static_cast<double>(event.etaMs) / 1000.0);
    } else {
      std::snprintf(eta, sizeof(eta), "?");
    }
    std::printf("batch progress: [%d/%d] ok=%d failed=%d%s%s%s%s "
                "elapsed=%.1fs eta=%s\n",
                event.jobsDone, event.jobsTotal, event.jobsOk,
                event.jobsFailed, event.job.empty() ? "" : " job=",
                event.job.c_str(), event.phase.empty() ? "" : " ",
                event.phase.c_str(),
                static_cast<double>(event.elapsedMs) / 1000.0, eta);
    std::fflush(stdout);
  }

  void heartbeatLoop() {
    MutexLock lock(mu_);
    while (!stopped_) {
      cv_.wait_for(lock,
                   std::chrono::milliseconds(std::max(1, options_.heartbeatMs)));
      if (stopped_) break;
      ProgressEvent event = baseLocked();
      event.event = "heartbeat";
      // ProgressLog has its own lock and never calls back into the
      // tracker, so emitting under mu_ cannot deadlock.
      emit(event, options_.progressTty);
    }
  }

  const BatchOptions& options_;
  const int jobsTotal_;
  const MonotonicTime started_;
  std::unique_ptr<ProgressLog> log_;
  Mutex mu_;
  CondVar cv_;
  bool stopped_ HCA_GUARDED_BY(mu_) = false;
  int jobsDone_ HCA_GUARDED_BY(mu_) = 0;
  int jobsOk_ HCA_GUARDED_BY(mu_) = 0;
  int jobsFailed_ HCA_GUARDED_BY(mu_) = 0;
  std::int64_t completedWallMs_ HCA_GUARDED_BY(mu_) = 0;
  std::string currentJob_ HCA_GUARDED_BY(mu_);
  std::string phase_ HCA_GUARDED_BY(mu_);
  std::thread heartbeat_;
};

/// Folds a driver result that came back without throwing into `jr`.
void classify(const HcaResult& result, const BatchOptions& batch,
              BatchJobResult* jr) {
  if (result.legal) {
    jr->status = BatchJobStatus::kOk;
    jr->fallbackUsed = result.fallbackUsed;
    jr->achievedTargetIi = result.stats.achievedTargetIi;
    return;
  }
  // kDegrade folds invalid input into a structured report instead of a
  // throw; classify it like the thrown InvalidArgumentError.
  if (result.failure != nullptr &&
      result.failure->cause == FailureCause::kInvalidInput) {
    jr->status = BatchJobStatus::kInvalid;
    jr->failureReason = result.failureReason;
    return;
  }
  const bool cancelled = batch.cancel != nullptr && batch.cancel->cancelled();
  jr->status = cancelled ? BatchJobStatus::kCancelled : BatchJobStatus::kFailed;
  jr->failureReason = result.failureReason.empty() ? "no legal mapping"
                                                   : result.failureReason;
}

/// Runs one job: loads its inputs, compiles it once under kDegrade and
/// writes its report. Fills every field of `jr` but `wallMs`.
void runJob(const BatchJob& job, const BatchOptions& options,
            ProgressTracker& progress, BatchJobResult* jr) {
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    jr->status = BatchJobStatus::kCancelled;
    jr->failureReason = "batch shutdown before the job started";
    return;
  }

  // --- Load inputs. Anything wrong here is permanent (kInvalid). ----------
  ddg::Ddg ddg;
  std::unique_ptr<machine::DspFabricModel> model;
  std::unique_ptr<CheckpointManager> checkpoint;
  try {
    if (!job.kernel.empty()) {
      const std::vector<ddg::Kernel> kernels = ddg::table1Kernels();
      const auto it = std::find_if(
          kernels.begin(), kernels.end(),
          [&](const ddg::Kernel& k) { return k.name == job.kernel; });
      HCA_REQUIRE(it != kernels.end(),
                  "unknown built-in kernel '" << job.kernel << "'");
      ddg = it->ddg;
    } else {
      ddg = ddg::fromText(readFile(job.ddgPath));
    }
    machine::DspFabricConfig config;
    machine::FaultSet faults;
    if (!job.faults.empty()) faults = machine::FaultSet::parse(job.faults);
    model = std::make_unique<machine::DspFabricModel>(config, faults);
    if (!job.checkpointPath.empty()) {
      checkpoint = std::make_unique<CheckpointManager>(job.checkpointPath);
      checkpoint->loadForResume();  // fresh start when the file is absent
    }
  } catch (const std::exception& e) {
    jr->status = BatchJobStatus::kInvalid;
    jr->failureReason = e.what();
    return;
  }

  // --- Compile. -------------------------------------------------------------
  HcaOptions hcaOptions = options.base;
  hcaOptions.failurePolicy = FailurePolicy::kDegrade;
  hcaOptions.deadlineMs = job.deadlineMs;
  hcaOptions.numThreads = job.threads;
  hcaOptions.targetIiSlack = job.targetIiSlack;
  hcaOptions.memoryBudgetBytes = job.memoryBudgetBytes;
  hcaOptions.externalCancel = options.cancel;
  hcaOptions.checkpoint = checkpoint.get();
  notify(options, job, "start");
  progress.jobStarted(job);
  HcaResult result;
  try {
    const HcaDriver driver(*model, hcaOptions);
    result = driver.run(ddg);
  } catch (const InvalidArgumentError& e) {
    jr->status = BatchJobStatus::kInvalid;
    jr->failureReason = e.what();
    return;
  } catch (const std::exception& e) {
    // Isolation: an internal error in one job must not take the batch down.
    jr->status = BatchJobStatus::kFailed;
    jr->failureReason = e.what();
    return;
  }
  classify(result, options, jr);
  if (checkpoint != nullptr) {
    if (jr->status == BatchJobStatus::kOk) {
      // A finished job has nothing to resume into.
      removeFileIfExists(checkpoint->path());
    } else if (jr->status == BatchJobStatus::kCancelled) {
      // Durability on shutdown: persist whatever the interrupted run
      // recorded so `--resume` continues from this boundary.
      checkpoint->flush();
    }
  }

  // Best-so-far run report, even for failed/cancelled jobs (an IoError
  // here is an infrastructure failure and propagates to the caller — job
  // isolation covers compile failures, not a broken report disk).
  if (!options.reportDir.empty()) {
    ReportMeta meta;
    meta.workload = job.kernel.empty() ? job.ddgPath : job.kernel;
    meta.machine = model->config().toString();
    meta.threads = ThreadPool::effectiveThreads(job.threads);
    meta.context = RunContext::current(options.runId);
    atomicWriteFile(
        strCat(options.reportDir, "/", job.name, ".report.json"),
        runReportJson(result, model.get(), &meta) + "\n");
  }
}

}  // namespace

const char* to_string(BatchJobStatus status) {
  switch (status) {
    case BatchJobStatus::kOk: return "ok";
    case BatchJobStatus::kFailed: return "failed";
    case BatchJobStatus::kInvalid: return "invalid";
    case BatchJobStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::vector<BatchJob> parseManifest(const std::string& text) {
  JsonValue root;
  std::string error;
  HCA_REQUIRE(parseJson(text, &root, &error),
              "batch manifest: bad JSON: " << error);
  HCA_REQUIRE(root.isObject(), "batch manifest: top level must be an object");
  const JsonValue& jobsValue = member(root, "jobs");
  HCA_REQUIRE(jobsValue.isArray(), "batch manifest: 'jobs' must be an array");
  HCA_REQUIRE(!jobsValue.array.empty(), "batch manifest: 'jobs' is empty");

  std::vector<BatchJob> jobs;
  std::set<std::string> names;
  for (const JsonValue& j : jobsValue.array) {
    HCA_REQUIRE(j.isObject(), "batch manifest: each job must be an object");
    BatchJob job;
    for (const auto& [key, value] : j.object) {
      if (key == "name") {
        job.name = asString(value, "name");
      } else if (key == "kernel") {
        job.kernel = asString(value, "kernel");
      } else if (key == "ddg") {
        job.ddgPath = asString(value, "ddg");
      } else if (key == "deadline_ms") {
        job.deadlineMs = asI32(value, "deadline_ms");
      } else if (key == "checkpoint") {
        job.checkpointPath = asString(value, "checkpoint");
      } else if (key == "memory_budget_mb") {
        job.memoryBudgetBytes =
            static_cast<std::int64_t>(asI32(value, "memory_budget_mb")) *
            1024 * 1024;
      } else if (key == "threads") {
        job.threads = asI32(value, "threads");
      } else if (key == "target_ii_slack") {
        job.targetIiSlack = asI32(value, "target_ii_slack");
      } else if (key == "faults") {
        job.faults = asString(value, "faults");
      } else {
        HCA_REQUIRE(false, "batch manifest: unknown job member '" << key
                                                                  << "'");
      }
    }
    HCA_REQUIRE(safeName(job.name),
                "batch manifest: job name '"
                    << job.name
                    << "' must be non-empty [A-Za-z0-9._-] (it names report "
                       "files)");
    HCA_REQUIRE(names.insert(job.name).second,
                "batch manifest: duplicate job name '" << job.name << "'");
    HCA_REQUIRE(job.kernel.empty() != job.ddgPath.empty(),
                "batch manifest: job '" << job.name
                                        << "' needs exactly one of 'kernel' "
                                           "or 'ddg'");
    HCA_REQUIRE(job.deadlineMs >= 0,
                "batch manifest: job '" << job.name
                                        << "' has a negative budget field");
    jobs.push_back(std::move(job));
  }
  return jobs;
}

BatchSummary runBatch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  BatchSummary summary;
  ProgressTracker progress(options, static_cast<int>(jobs.size()));
  for (const BatchJob& job : jobs) {
    BatchJobResult jr;
    jr.name = job.name;
    const auto started = monotonicNow();
    runJob(job, options, progress, &jr);
    jr.wallMs = microsBetween(started, monotonicNow()) / 1000;
    notify(options, job, to_string(jr.status));
    progress.jobDone(job, jr.status, jr.wallMs);
    switch (jr.status) {
      case BatchJobStatus::kOk: ++summary.ok; break;
      case BatchJobStatus::kFailed: ++summary.failed; break;
      case BatchJobStatus::kInvalid: ++summary.invalid; break;
      case BatchJobStatus::kCancelled: ++summary.cancelled; break;
    }
    summary.jobs.push_back(std::move(jr));
  }
  progress.stop();
  return summary;
}
std::string batchSummaryJson(const BatchSummary& summary) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("ok").value(summary.ok);
  json.key("failed").value(summary.failed);
  json.key("invalid").value(summary.invalid);
  json.key("cancelled").value(summary.cancelled);
  json.key("all_ok").value(summary.allOk());
  json.key("jobs").beginArray();
  for (const BatchJobResult& jr : summary.jobs) {
    json.beginObject();
    json.key("name").value(jr.name);
    json.key("status").value(to_string(jr.status));
    json.key("fallback_used").value(jr.fallbackUsed);
    json.key("failure_reason").value(jr.failureReason);
    json.key("achieved_target_ii").value(jr.achievedTargetIi);
    json.key("wall_ms").value(jr.wallMs);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return os.str();
}

}  // namespace hca::core
