// Crash-safe checkpoint/resume and the fault-isolated batch driver.
//
// The load-bearing property is resume *identity*: a run interrupted at an
// arbitrary attempt boundary and resumed from its checkpoint file must
// produce byte-identical results — placement, reconfiguration stream AND
// the aggregate HcaStats (wall-clock metrics excepted) — to a run that was
// never interrupted. The suite drives real HcaDriver runs on every Table 1
// kernel, kills them at attempt boundaries via the manager's test seam, and
// compares field by field. The corruption half feeds damaged checkpoint
// files to the parser and expects typed rejections, never garbage results.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/batch.hpp"
#include "hca/checkpoint.hpp"
#include "hca/driver.hpp"
#include "hca/subproblem_cache.hpp"
#include "support/check.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace hca {
namespace {

using core::CheckpointAttempt;
using core::CheckpointData;
using core::CheckpointError;
using core::CheckpointManager;
using core::HcaDriver;
using core::HcaOptions;
using core::HcaResult;

std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

machine::DspFabricModel paperFabric() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  return machine::DspFabricModel(config);
}

const ddg::Kernel& kernelNamed(const std::string& name) {
  static const std::vector<ddg::Kernel> kernels = ddg::table1Kernels();
  for (const auto& kernel : kernels) {
    if (kernel.name == name) return kernel;
  }
  throw InvalidArgumentError("no such kernel: " + name);
}

/// Full identity: verdict, placement, reconfiguration stream and every
/// HcaStats counter. This is the checkpoint contract, which is strictly
/// stronger than the portfolio determinism contract (that one exempts the
/// effort counters; resume identity does not).
void expectIdenticalRun(const HcaResult& a, const HcaResult& b) {
  ASSERT_EQ(a.legal, b.legal) << a.failureReason << " vs " << b.failureReason;
  EXPECT_EQ(a.failureReason, b.failureReason);
  EXPECT_EQ(a.fallbackUsed, b.fallbackUsed);
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    ASSERT_EQ(a.assignment[i], b.assignment[i])
        << "assignment diverges at " << i;
  }
  ASSERT_EQ(a.relays.size(), b.relays.size());
  for (std::size_t i = 0; i < a.relays.size(); ++i) {
    EXPECT_EQ(a.relays[i].value, b.relays[i].value);
    EXPECT_EQ(a.relays[i].cn, b.relays[i].cn);
  }
  EXPECT_EQ(a.reconfig.toString(), b.reconfig.toString());
  EXPECT_EQ(a.stats.problemsSolved, b.stats.problemsSolved);
  EXPECT_EQ(a.stats.backtrackAttempts, b.stats.backtrackAttempts);
  EXPECT_EQ(a.stats.outerAttempts, b.stats.outerAttempts);
  EXPECT_EQ(a.stats.achievedTargetIi, b.stats.achievedTargetIi);
  EXPECT_EQ(a.stats.attemptsCancelled, b.stats.attemptsCancelled);
  EXPECT_EQ(a.stats.statesExplored, b.stats.statesExplored);
  EXPECT_EQ(a.stats.candidatesEvaluated, b.stats.candidatesEvaluated);
  EXPECT_EQ(a.stats.routeInvocations, b.stats.routeInvocations);
  EXPECT_EQ(a.stats.cacheHits, b.stats.cacheHits);
  EXPECT_EQ(a.stats.cacheMisses, b.stats.cacheMisses);
  EXPECT_EQ(a.stats.maxWirePressure, b.stats.maxWirePressure);
  EXPECT_EQ(a.stats.seeCopiesAvoided, b.stats.seeCopiesAvoided);
  EXPECT_EQ(a.stats.seeSnapshotsMaterialized, b.stats.seeSnapshotsMaterialized);
  EXPECT_EQ(a.stats.seeArenaBytesPeak, b.stats.seeArenaBytesPeak);
}

/// A per-attempt SEE expansion budget low enough that early attempts fail
/// (so there is something to checkpoint) but — per kernel — chosen so the
/// escalation ladder still ends in a legal mapping where possible.
HcaOptions budgetedOptions(int maxBeamSteps) {
  HcaOptions options;
  options.maxBeamSteps = maxBeamSteps;
  return options;
}

/// One driver run against a checkpoint file. `cancelAfter` > 0 cancels the
/// external token as soon as that many attempts have been recorded — the
/// in-process equivalent of `kill` at a checkpoint boundary.
HcaResult runWithCheckpoint(const ddg::Kernel& kernel, HcaOptions options,
                            const std::string& checkpointPath,
                            int cancelAfter = 0) {
  CheckpointManager manager(checkpointPath);
  manager.loadForResume();
  CancellationToken stop;
  options.checkpoint = &manager;
  options.externalCancel = &stop;
  if (cancelAfter > 0) {
    manager.onAttemptRecorded = [&stop, cancelAfter](int recorded) {
      if (recorded >= cancelAfter) stop.cancel();
    };
  }
  const HcaDriver driver(paperFabric(), options);
  HcaResult result = driver.run(kernel.ddg);
  manager.flush();
  return result;
}

// --- atomic I/O ------------------------------------------------------------

TEST(AtomicIoTest, WriteReadRoundTripAndOverwrite) {
  const std::string path = tmpPath("io_roundtrip.txt");
  atomicWriteFile(path, "first\n");
  EXPECT_EQ(readFile(path), "first\n");
  atomicWriteFile(path, "second, longer payload\n");
  EXPECT_EQ(readFile(path), "second, longer payload\n");
  EXPECT_TRUE(fileExists(path));
  removeFileIfExists(path);
  EXPECT_FALSE(fileExists(path));
  removeFileIfExists(path);  // idempotent
}

TEST(AtomicIoTest, MissingFileIsTypedIoError) {
  EXPECT_THROW(readFile(tmpPath("does_not_exist")), IoError);
}

TEST(AtomicIoTest, UnwritableDirectoryIsTypedIoError) {
  EXPECT_THROW(atomicWriteFile("/nonexistent-dir/sub/file.json", "x"),
               IoError);
}

// --- checkpoint format and corruption --------------------------------------

CheckpointData sampleData() {
  CheckpointData data;
  data.fingerprint = "00c0ffee00c0ffee";
  data.iniMii = 3;
  CheckpointAttempt attempt;
  attempt.phase = "sweep";
  attempt.index = 0;
  attempt.target = 3;
  attempt.profile = 0;
  attempt.failureReason = "sub-problem [] (level 0): beam step budget";
  attempt.stats.problemsSolved = 7;
  attempt.stats.outerAttempts = 1;
  attempt.stats.statesExplored = 123;
  attempt.stats.seeArenaBytesPeak = 4096;
  data.attempts.push_back(attempt);
  data.cacheByScope[""] = {};
  return data;
}

CheckpointError::Kind parseKind(const std::string& bytes) {
  try {
    (void)core::parseCheckpoint(bytes);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "parseCheckpoint accepted corrupt bytes";
  return CheckpointError::Kind::kBadMagic;
}

TEST(CheckpointFormatTest, SerializeParseRoundTrip) {
  const std::string bytes = core::serializeCheckpoint(sampleData());
  const CheckpointData parsed = core::parseCheckpoint(bytes);
  EXPECT_EQ(parsed.fingerprint, "00c0ffee00c0ffee");
  EXPECT_EQ(parsed.iniMii, 3);
  ASSERT_EQ(parsed.attempts.size(), 1u);
  EXPECT_EQ(parsed.attempts[0].phase, "sweep");
  EXPECT_EQ(parsed.attempts[0].failureReason,
            "sub-problem [] (level 0): beam step budget");
  EXPECT_EQ(parsed.attempts[0].stats.problemsSolved, 7);
  EXPECT_EQ(parsed.attempts[0].stats.statesExplored, 123);
  EXPECT_EQ(parsed.attempts[0].stats.seeArenaBytesPeak, 4096);
}

TEST(CheckpointFormatTest, TruncationRejected) {
  const std::string bytes = core::serializeCheckpoint(sampleData());
  // Every strictly-shorter prefix that still has a complete header must be
  // rejected as truncated — a crash mid-write may leave any length behind.
  const std::size_t headerEnd = bytes.find('\n') + 1;
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 17, headerEnd}) {
    EXPECT_EQ(parseKind(bytes.substr(0, keep)),
              CheckpointError::Kind::kTruncated)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(CheckpointFormatTest, FlippedPayloadByteRejected) {
  std::string bytes = core::serializeCheckpoint(sampleData());
  bytes[bytes.size() / 2] ^= 0x20;
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadChecksum);
}

TEST(CheckpointFormatTest, BadVersionRejected) {
  std::string bytes = core::serializeCheckpoint(sampleData());
  ASSERT_EQ(bytes.rfind("HCACHK 3 ", 0), 0u);
  bytes[7] = '9';
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadVersion);
}

TEST(CheckpointFormatTest, VersionOneCheckpointIsBadVersionNotWrongRun) {
  // Files of the earlier formats also carry a fingerprint this build never
  // produces: version 1 predates the removal of the route memo and
  // dominance pruning counters and fingerprint field, version 2 the removal
  // of the fixed search tuning values from the fingerprint. Resuming from
  // either must fail on the version — the real cause — before the
  // fingerprint is compared.
  const std::string path = tmpPath("old_version.ckpt");
  for (const int version : {1, 2}) {
    SCOPED_TRACE(version);
    removeFileIfExists(path);
    (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(40), path,
                            /*cancelAfter=*/1);
    ASSERT_TRUE(fileExists(path));
    const std::string current = readFile(path);
    ASSERT_EQ(current.rfind("HCACHK 3 ", 0), 0u);
    std::string payload = current.substr(current.find('\n') + 1);
    const std::string fingerprintKey = "\"fingerprint\":\"";
    const auto at = payload.find(fingerprintKey);
    ASSERT_NE(at, std::string::npos);
    payload.replace(at + fingerprintKey.size(), 16, "0123456789abcdef");
    std::ostringstream old;
    old << "HCACHK " << version << " " << std::hex << std::setw(16)
        << std::setfill('0') << core::fnv1a64(payload) << std::dec << " "
        << payload.size() << "\n"
        << payload;
    atomicWriteFile(path, old.str());

    try {
      (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(40),
                              path);
      FAIL() << "a version-" << version << " checkpoint was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::kBadVersion) << e.what();
    }
  }
  removeFileIfExists(path);
}

TEST(CheckpointFormatTest, BadMagicRejected) {
  std::string bytes = core::serializeCheckpoint(sampleData());
  bytes[0] = 'X';
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadMagic);
  EXPECT_EQ(parseKind(""), CheckpointError::Kind::kBadMagic);
  EXPECT_EQ(parseKind("not a checkpoint at all"),
            CheckpointError::Kind::kBadMagic);
}

TEST(CheckpointFormatTest, ChecksummedGarbagePayloadRejected) {
  // A correct header over a payload with the wrong shape must fail payload
  // validation, not crash or return defaults.
  const std::string payload = "{\"fingerprint\":12}";
  std::ostringstream os;
  os << "HCACHK 3 " << std::hex << std::setw(16) << std::setfill('0')
     << core::fnv1a64(payload) << std::dec << " " << payload.size() << "\n"
     << payload;
  EXPECT_EQ(parseKind(os.str()), CheckpointError::Kind::kBadPayload);
}

// --- manager ---------------------------------------------------------------

TEST(CheckpointManagerTest, MissingFileMeansFreshStart) {
  CheckpointManager manager(tmpPath("never_written.ckpt"));
  EXPECT_FALSE(manager.loadForResume());
  EXPECT_EQ(manager.attemptsRecorded(), 0);
}

TEST(CheckpointManagerTest, ResumeAgainstDifferentRunRejected) {
  const std::string path = tmpPath("wrong_run.ckpt");
  removeFileIfExists(path);
  // Interrupt a fir2dim run so the file records fir2dim's fingerprint.
  (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(40), path,
                          /*cancelAfter=*/1);
  ASSERT_TRUE(fileExists(path));

  // Resuming it against a different kernel is a typed kWrongRun error.
  try {
    (void)runWithCheckpoint(kernelNamed("idcthor"), budgetedOptions(40),
                            path);
    FAIL() << "resume against a different DDG was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kWrongRun);
  }

  // Same DDG but different result-affecting options: also a different run.
  try {
    (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(41),
                            path);
    FAIL() << "resume with different maxBeamSteps was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kWrongRun);
  }
}

TEST(CheckpointManagerTest, ThrottledWritesStillFlushEverything) {
  const std::string path = tmpPath("throttled.ckpt");
  removeFileIfExists(path);
  CheckpointManager manager(path, /*everyMs=*/3'600'000);
  CancellationToken stop;
  HcaOptions options = budgetedOptions(100);
  options.checkpoint = &manager;
  options.externalCancel = &stop;
  manager.onAttemptRecorded = [&stop](int recorded) {
    if (recorded >= 5) stop.cancel();
  };
  const HcaDriver driver(paperFabric(), options);
  (void)driver.run(kernelNamed("idcthor").ddg);
  ASSERT_EQ(manager.attemptsRecorded(), 5);
  // The first recorded attempt wrote the file; the next four sat behind the
  // one-hour throttle. flush() must persist all of them.
  ASSERT_TRUE(fileExists(path));
  EXPECT_EQ(core::parseCheckpoint(readFile(path)).attempts.size(), 1u);
  manager.flush();
  EXPECT_EQ(core::parseCheckpoint(readFile(path)).attempts.size(), 5u);
}

// --- resume identity (the tentpole) ----------------------------------------

/// Interrupts a run after `cancelAfter` recorded attempts, resumes it from
/// the file, and demands byte-identity with an uninterrupted run.
void checkResumeIdentity(const std::string& kernelName, int maxBeamSteps,
                         int cancelAfter) {
  SCOPED_TRACE(kernelName + " cancelAfter=" + std::to_string(cancelAfter));
  const ddg::Kernel& kernel = kernelNamed(kernelName);
  const std::string path = tmpPath("resume_" + kernelName + "_" +
                                   std::to_string(cancelAfter) + ".ckpt");
  removeFileIfExists(path);

  // A: the reference — never interrupted, no checkpointing at all.
  const HcaDriver plain(paperFabric(), budgetedOptions(maxBeamSteps));
  const HcaResult uninterrupted = plain.run(kernel.ddg);

  // B: interrupted at the attempt boundary. Must not have completed.
  const HcaResult interrupted = runWithCheckpoint(
      kernel, budgetedOptions(maxBeamSteps), path, cancelAfter);
  ASSERT_FALSE(interrupted.legal)
      << "interruption came too late to exercise resume";
  ASSERT_TRUE(fileExists(path));

  // C: resumed to completion. Byte-identical to A, including every stats
  // counter — the restored attempts contribute their recorded stats and the
  // pre-warmed cache reproduces the original hit/miss sequence.
  const HcaResult resumed =
      runWithCheckpoint(kernel, budgetedOptions(maxBeamSteps), path);
  expectIdenticalRun(uninterrupted, resumed);
}

// Budgets per kernel: small enough that the primary sweep fails several
// attempts (populating the checkpoint), large enough that the run ends in a
// legal mapping via the ladder — except idcthor/40, the all-attempts-fail
// case, which checks failure-path identity.
TEST(ResumeIdentityTest, Fir2dim) {
  checkResumeIdentity("fir2dim", /*maxBeamSteps=*/40, /*cancelAfter=*/1);
  checkResumeIdentity("fir2dim", /*maxBeamSteps=*/40, /*cancelAfter=*/7);
}

TEST(ResumeIdentityTest, Fir2dimInterruptedInsideDegradedLadder) {
  // 35 primary attempts fail before the degraded-bandwidth rung starts its
  // own sweep with its own cache scope; interrupting at 38 lands inside the
  // nested ladder and exercises the per-scope cache snapshots.
  checkResumeIdentity("fir2dim", /*maxBeamSteps=*/40, /*cancelAfter=*/38);
}

TEST(ResumeIdentityTest, Idcthor) {
  checkResumeIdentity("idcthor", /*maxBeamSteps=*/100, /*cancelAfter=*/3);
}

TEST(ResumeIdentityTest, IdcthorFullFailureRun) {
  checkResumeIdentity("idcthor", /*maxBeamSteps=*/40, /*cancelAfter=*/9);
}

TEST(ResumeIdentityTest, Mpeg2inter) {
  checkResumeIdentity("mpeg2inter", /*maxBeamSteps=*/60, /*cancelAfter=*/5);
}

TEST(ResumeIdentityTest, H264deblocking) {
  checkResumeIdentity("h264deblocking", /*maxBeamSteps=*/60,
                      /*cancelAfter=*/5);
}

TEST(ResumeIdentityTest, DoubleInterruptionThenResume) {
  // Crash, resume, crash again, resume again: the second checkpoint is a
  // superset of the first, and the final run is still byte-identical.
  const ddg::Kernel& kernel = kernelNamed("idcthor");
  const std::string path = tmpPath("double_interrupt.ckpt");
  removeFileIfExists(path);
  const HcaDriver plain(paperFabric(), budgetedOptions(100));
  const HcaResult uninterrupted = plain.run(kernel.ddg);

  ASSERT_FALSE(
      runWithCheckpoint(kernel, budgetedOptions(100), path, 2).legal);
  ASSERT_FALSE(
      runWithCheckpoint(kernel, budgetedOptions(100), path, 6).legal);
  EXPECT_GE(core::parseCheckpoint(readFile(path)).attempts.size(), 6u);
  const HcaResult resumed =
      runWithCheckpoint(kernel, budgetedOptions(100), path);
  expectIdenticalRun(uninterrupted, resumed);
}

TEST(ResumeIdentityTest, ParallelSweepResumesToSameResult) {
  // Thread count is results-invisible (and excluded from the fingerprint):
  // a serial-interrupted run resumed with a 4-thread portfolio still lands
  // on the identical mapping. Effort counters are scheduling-dependent in
  // parallel sweeps, so only the result fields are compared here.
  const ddg::Kernel& kernel = kernelNamed("idcthor");
  const std::string path = tmpPath("parallel_resume.ckpt");
  removeFileIfExists(path);
  const HcaDriver plain(paperFabric(), budgetedOptions(100));
  const HcaResult uninterrupted = plain.run(kernel.ddg);

  ASSERT_FALSE(
      runWithCheckpoint(kernel, budgetedOptions(100), path, 3).legal);
  HcaOptions parallel = budgetedOptions(100);
  parallel.numThreads = 4;
  const HcaResult resumed = runWithCheckpoint(kernel, parallel, path);
  ASSERT_EQ(uninterrupted.legal, resumed.legal);
  EXPECT_EQ(uninterrupted.stats.achievedTargetIi,
            resumed.stats.achievedTargetIi);
  EXPECT_EQ(uninterrupted.fallbackUsed, resumed.fallbackUsed);
  ASSERT_EQ(uninterrupted.assignment.size(), resumed.assignment.size());
  for (std::size_t i = 0; i < uninterrupted.assignment.size(); ++i) {
    ASSERT_EQ(uninterrupted.assignment[i], resumed.assignment[i]);
  }
  EXPECT_EQ(uninterrupted.reconfig.toString(), resumed.reconfig.toString());
}

// --- memory budgets --------------------------------------------------------

TEST(MemoryBudgetTest, TinyArenaBudgetFailsCleanlyNotOom) {
  HcaOptions options;
  options.memoryBudgetBytes = 2048;  // 1KB arena share: trips immediately
  options.targetIiSlack = 0;
  options.searchProfiles = 1;
  const HcaDriver driver(paperFabric(), options);
  const HcaResult result = driver.run(kernelNamed("fir2dim").ddg);
  ASSERT_FALSE(result.legal);
  EXPECT_NE(result.failureReason.find("memory budget exceeded"),
            std::string::npos)
      << result.failureReason;
}

TEST(MemoryBudgetTest, AmpleBudgetIsResultInvisible) {
  HcaOptions ample;
  ample.memoryBudgetBytes = std::int64_t{1} << 30;
  const HcaDriver budgeted(paperFabric(), ample);
  const HcaDriver unbudgeted(paperFabric(), HcaOptions{});
  const ddg::Kernel& kernel = kernelNamed("fir2dim");
  expectIdenticalRun(unbudgeted.run(kernel.ddg), budgeted.run(kernel.ddg));
}

TEST(MemoryBudgetTest, CacheShedsOldestUnderByteCeiling) {
  see::SeeResult result;
  result.failureReason = std::string(256, 'x');
  const std::int64_t perEntry =
      core::SubproblemCache::approxEntryBytes("key-000", result);
  // Room for about three entries in the single shard.
  core::SubproblemCache cache(/*numShards=*/1,
                              /*maxBytesPerShard=*/3 * perEntry + 16);
  for (int i = 0; i < 8; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key-%03d", i);
    (void)cache.insert(key, result);
  }
  EXPECT_LE(cache.bytesUsed(), 3 * perEntry + 16);
  EXPECT_LT(cache.entries(), 8);
  const auto stats = cache.shardStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].evictions, 0);
  // Oldest-first: the first key is gone, the last one is resident.
  EXPECT_EQ(cache.lookup("key-000"), nullptr);
  EXPECT_NE(cache.lookup("key-007"), nullptr);
}

TEST(MemoryBudgetTest, ForEachVisitsInInsertionOrder) {
  core::SubproblemCache cache(/*numShards=*/1);
  see::SeeResult result;
  for (const char* key : {"b", "a", "c"}) {
    (void)cache.insert(key, result);
  }
  std::vector<std::string> seen;
  cache.forEach([&seen](const std::string& key,
                        const std::shared_ptr<const see::SeeResult>&) {
    seen.push_back(key);
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "a", "c"}));
}

// --- batch driver ----------------------------------------------------------

TEST(BatchManifestTest, ParsesFullSchema) {
  const auto jobs = core::parseManifest(R"({"jobs": [
    {"name": "a", "kernel": "fir2dim", "deadline_ms": 250,
     "checkpoint": "a.ckpt", "memory_budget_mb": 64, "threads": 2,
     "target_ii_slack": 3, "faults": "cn:3"},
    {"name": "b", "ddg": "b.ddg"}
  ]})");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].kernel, "fir2dim");
  EXPECT_EQ(jobs[0].deadlineMs, 250);
  EXPECT_EQ(jobs[0].checkpointPath, "a.ckpt");
  EXPECT_EQ(jobs[0].memoryBudgetBytes, std::int64_t{64} * 1024 * 1024);
  EXPECT_EQ(jobs[0].threads, 2);
  EXPECT_EQ(jobs[0].targetIiSlack, 3);
  EXPECT_EQ(jobs[0].faults, "cn:3");
  EXPECT_EQ(jobs[1].ddgPath, "b.ddg");
  EXPECT_EQ(jobs[1].deadlineMs, 0);  // default
}

TEST(BatchManifestTest, RejectsMalformedManifests) {
  EXPECT_THROW(core::parseManifest("not json"), InvalidArgumentError);
  EXPECT_THROW(core::parseManifest("{}"), InvalidArgumentError);
  EXPECT_THROW(core::parseManifest(R"({"jobs": []})"), InvalidArgumentError);
  // missing name
  EXPECT_THROW(core::parseManifest(R"({"jobs": [{"kernel": "fir2dim"}]})"),
               InvalidArgumentError);
  // name unsafe for a report filename
  EXPECT_THROW(core::parseManifest(
                   R"({"jobs": [{"name": "../x", "kernel": "fir2dim"}]})"),
               InvalidArgumentError);
  // duplicate names
  EXPECT_THROW(
      core::parseManifest(R"({"jobs": [{"name": "a", "kernel": "fir2dim"},
                                       {"name": "a", "kernel": "idcthor"}]})"),
      InvalidArgumentError);
  // both kernel and ddg
  EXPECT_THROW(core::parseManifest(
                   R"({"jobs": [{"name": "a", "kernel": "x", "ddg": "y"}]})"),
               InvalidArgumentError);
  // neither kernel nor ddg
  EXPECT_THROW(core::parseManifest(R"({"jobs": [{"name": "a"}]})"),
               InvalidArgumentError);
  // unknown member (typo-proofing)
  EXPECT_THROW(
      core::parseManifest(
          R"({"jobs": [{"name": "a", "kernel": "x", "deadline": 5}]})"),
      InvalidArgumentError);
  // no retry members: a job compiles exactly once
  EXPECT_THROW(
      core::parseManifest(
          R"({"jobs": [{"name": "a", "kernel": "x", "max_retries": 1}]})"),
      InvalidArgumentError);
  // negative budget
  EXPECT_THROW(
      core::parseManifest(
          R"({"jobs": [{"name": "a", "kernel": "x", "deadline_ms": -1}]})"),
      InvalidArgumentError);
}

TEST(BatchDriverTest, IsolationAndSummary) {
  core::BatchJob ok;
  ok.name = "ok";
  ok.kernel = "fir2dim";
  core::BatchJob doomed;
  doomed.name = "doomed";
  doomed.kernel = "idcthor";
  // All eight input wires of root child 1 dead: a disconnected fabric, so
  // no ladder rung finds a legal mapping.
  for (int i = 0; i < 8; ++i) doomed.faults += "wire:1:in ";
  core::BatchJob invalid;
  invalid.name = "invalid";
  invalid.kernel = "no-such-kernel";

  core::BatchOptions options;
  std::vector<std::string> events;
  options.observer = [&events](const core::BatchJob& job,
                               const std::string& event) {
    events.push_back(job.name + "/" + event);
  };

  const core::BatchSummary summary =
      core::runBatch({ok, doomed, invalid}, options);
  EXPECT_FALSE(summary.allOk());
  EXPECT_EQ(summary.ok, 1);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.invalid, 1);
  EXPECT_EQ(summary.cancelled, 0);
  ASSERT_EQ(summary.jobs.size(), 3u);
  EXPECT_EQ(summary.jobs[0].status, core::BatchJobStatus::kOk);
  EXPECT_EQ(summary.jobs[1].status, core::BatchJobStatus::kFailed);
  // Only kDegrade reports a disconnected fabric; kStrict throws, and the
  // job would be classed invalid.
  EXPECT_NE(summary.jobs[1].failureReason.find("disconnected"),
            std::string::npos)
      << summary.jobs[1].failureReason;
  EXPECT_EQ(summary.jobs[2].status, core::BatchJobStatus::kInvalid);
  // One compile per job; the invalid job fails on load, before it starts.
  EXPECT_EQ(events, (std::vector<std::string>{"ok/start", "ok/ok",
                                              "doomed/start", "doomed/failed",
                                              "invalid/invalid"}));
}

TEST(BatchDriverTest, TrippedTokenCancelsRemainingJobs) {
  core::BatchJob a;
  a.name = "a";
  a.kernel = "fir2dim";
  core::BatchJob b = a;
  b.name = "b";
  CancellationToken stop;
  stop.cancel();
  core::BatchOptions options;
  options.cancel = &stop;
  const core::BatchSummary summary = core::runBatch({a, b}, options);
  EXPECT_EQ(summary.cancelled, 2);
  for (const auto& job : summary.jobs) {
    EXPECT_EQ(job.status, core::BatchJobStatus::kCancelled);
  }
}

TEST(BatchDriverTest, WritesPerJobReportsAndSummaryJson) {
  core::BatchJob job;
  job.name = "reported";
  job.kernel = "fir2dim";
  job.threads = 0;  // hardware_concurrency
  core::BatchOptions options;
  options.reportDir = ::testing::TempDir();
  const core::BatchSummary summary = core::runBatch({job}, options);
  ASSERT_EQ(summary.ok, 1);
  const std::string report =
      readFile(options.reportDir + "/reported.report.json");
  JsonValue parsedReport;
  std::string error;
  ASSERT_TRUE(parseJson(report, &parsedReport, &error)) << error;
  const JsonValue* legal = parsedReport.find("legal");
  ASSERT_NE(legal, nullptr);
  EXPECT_TRUE(legal->boolean);
  // The report records the thread count the sweep actually ran at.
  const JsonValue* threads = parsedReport.find("threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->number, ThreadPool::effectiveThreads(0));

  JsonValue parsedSummary;
  ASSERT_TRUE(parseJson(core::batchSummaryJson(summary), &parsedSummary,
                        &error))
      << error;
  ASSERT_NE(parsedSummary.find("jobs"), nullptr);
  EXPECT_TRUE(parsedSummary.find("all_ok")->boolean);
}

TEST(BatchDriverTest, DdgFileJobAndCheckpointCleanup) {
  // A job can name a DDG file instead of a built-in kernel, and a job that
  // ends legal deletes its checkpoint file (nothing left to resume).
  const std::string ddgPath = tmpPath("batch_job.ddg");
  atomicWriteFile(ddgPath, ddg::toText(kernelNamed("fir2dim").ddg));
  core::BatchJob job;
  job.name = "from-file";
  job.ddgPath = ddgPath;
  job.checkpointPath = tmpPath("batch_job.ckpt");
  removeFileIfExists(job.checkpointPath);
  const core::BatchSummary summary = core::runBatch({job}, {});
  EXPECT_EQ(summary.ok, 1);
  EXPECT_FALSE(fileExists(job.checkpointPath));
}

}  // namespace
}  // namespace hca
