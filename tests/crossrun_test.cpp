// Cross-run observability tests (ctest label `obs`): provenance context,
// baseline history and differential run reports (hca/diff.hpp).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "ddg/kernels.hpp"
#include "hca/diff.hpp"
#include "hca/driver.hpp"
#include "hca/report.hpp"
#include "support/check.hpp"
#include "support/context.hpp"
#include "support/history.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace hca {
namespace {

std::string tmpPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  removeFileIfExists(path);
  return path;
}

// --- provenance context -----------------------------------------------------

TEST(RunContextTest, JsonRoundTrips) {
  const RunContext original = RunContext::current("ci-1234");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(original.toJson(), &doc, &error)) << error;
  const RunContext parsed = RunContext::fromJson(doc);
  EXPECT_EQ(parsed.schemaVersion, original.schemaVersion);
  EXPECT_EQ(parsed.gitSha, original.gitSha);
  EXPECT_EQ(parsed.buildType, original.buildType);
  EXPECT_EQ(parsed.ndebug, original.ndebug);
  EXPECT_EQ(parsed.hostname, original.hostname);
  EXPECT_EQ(parsed.hardwareConcurrency, original.hardwareConcurrency);
  EXPECT_EQ(parsed.runId, "ci-1234");
}

TEST(RunContextTest, CurrentIsDeterministicPerProcess) {
  // No wall-clock leaks in: two snapshots are byte-identical.
  EXPECT_EQ(RunContext::current("x").toJson(), RunContext::current("x").toJson());
}

TEST(RunContextTest, StrictParseRejectsUnknownAndMissingMembers) {
  JsonValue doc;
  std::string error;
  std::string text = RunContext::current().toJson();
  // Unknown member.
  text.insert(text.size() - 1, ",\"surprise\":1");
  ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
  EXPECT_THROW((void)RunContext::fromJson(doc), InvalidArgumentError);
  // Missing member.
  JsonValue partial;
  ASSERT_TRUE(parseJson("{\"schema_version\":1}", &partial, &error)) << error;
  EXPECT_THROW((void)RunContext::fromJson(partial), InvalidArgumentError);
}

// --- baseline history -------------------------------------------------------

HistoryRecord sampleRecord(double wallUs, bool legal = true) {
  HistoryRecord record;
  record.context = RunContext::current("run-7");
  record.workload = "fir2dim";
  record.machine = "TestFabric[1]";
  record.legal = legal;
  record.wallUs = wallUs;
  record.counters = {{"outerAttempts", 2}, {"cacheHits", 409}};
  return record;
}

TEST(HistoryTest, LineRoundTripsThroughParse) {
  const HistoryRecord record = sampleRecord(1234.5);
  const auto parsed = parseHistory(historyLineJson(record) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].workload, "fir2dim");
  EXPECT_EQ(parsed[0].machine, "TestFabric[1]");
  EXPECT_TRUE(parsed[0].legal);
  EXPECT_DOUBLE_EQ(parsed[0].wallUs, 1234.5);
  EXPECT_EQ(parsed[0].counters.at("outerAttempts"), 2);
  EXPECT_EQ(parsed[0].context.runId, "run-7");
}

TEST(HistoryTest, AppendAndLoadAccumulates) {
  const std::string path = tmpPath("history_append.jsonl");
  appendHistoryLine(path, historyLineJson(sampleRecord(100.0)));
  appendHistoryLine(path, historyLineJson(sampleRecord(200.0)));
  const auto records = loadHistory(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].wallUs, 100.0);
  EXPECT_DOUBLE_EQ(records[1].wallUs, 200.0);
  removeFileIfExists(path);
}

TEST(HistoryTest, MissingFileIsEmptyHistory) {
  EXPECT_TRUE(loadHistory(tmpPath("no_such_history.jsonl")).empty());
}

TEST(HistoryTest, StrictParseNamesTheBadLine) {
  const std::string good = historyLineJson(sampleRecord(1.0));
  try {
    (void)parseHistory(good + "\n{\"not\": \"a record\"}\n");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(HistoryTest, BlankLinesAreTolerated) {
  const std::string good = historyLineJson(sampleRecord(1.0));
  EXPECT_EQ(parseHistory("\n" + good + "\n\n").size(), 1u);
}

TEST(HistoryTest, SeriesSelectAndExtract) {
  std::vector<HistoryRecord> records = {sampleRecord(10.0), sampleRecord(20.0),
                                        sampleRecord(999.0, /*legal=*/false)};
  records.push_back(sampleRecord(30.0));
  records.back().workload = "idcthor";

  EXPECT_EQ(selectHistory(records, "fir2dim").size(), 3u);
  EXPECT_EQ(selectHistory(records, "fir2dim", "OtherFabric").size(), 0u);
  // wallSeries keeps only legal runs (failed ones are deadline-bound).
  const auto wall = wallSeries(records, "fir2dim", "TestFabric[1]");
  ASSERT_EQ(wall.size(), 2u);
  EXPECT_DOUBLE_EQ(wall[0], 10.0);
  EXPECT_DOUBLE_EQ(wall[1], 20.0);
  const auto hits = counterSeries(records, "fir2dim", "cacheHits");
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_TRUE(counterSeries(records, "fir2dim", "absent").empty());
}

// --- differential reports ---------------------------------------------------

/// A minimal synthetic run report with the full meta block — every value
/// under test control (real-driver reports are exercised separately below).
std::string syntheticReport(const std::string& workload, double wallUs,
                            std::int64_t outerAttempts,
                            bool includeExtraCounter = false,
                            int threads = 1, std::int64_t cacheHits = 409,
                            const std::string& digest = "00000000c0ffee00") {
  std::ostringstream os;
  os << "{\"workload\":\"" << workload << "\","
     << "\"machine\":\"TestFabric[1]\",\"threads\":" << threads << ","
     << "\"context\":" << RunContext::current().toJson() << ","
     << "\"legal\":true,\"fallbackUsed\":\"\","
     << "\"records\":{\"assignmentDigest\":\"" << digest << "\"},"
     << "\"stats\":{\"outerAttempts\":" << outerAttempts
     << ",\"cacheHits\":" << cacheHits << ",\"attemptsCancelled\":7},"
     << "\"metrics\":{\"counters\":{\"see.expansions.L1\":100,"
     << "\"pool.tasks\":55,\"mapper.wall_shim\":1"
     << (includeExtraCounter ? ",\"ladder.rung.flat\":1" : "") << "},"
     << "\"histograms\":{\"attempt.wall_us\":{\"count\":2,\"sum\":" << wallUs
     << "}}}}";
  return os.str();
}

TEST(DiffTest, IdenticalSyntheticReportsAreClean) {
  const std::string report = syntheticReport("fir2dim", 1000.0, 2);
  const core::ReportDiff diff = core::diffReportTexts(report, report);
  EXPECT_FALSE(diff.regression());
  // stats.outerAttempts, stats.cacheHits, metrics.see.expansions.L1 — the
  // pool counter, the wall-named counter and attemptsCancelled stay out of
  // the exact-compare set.
  EXPECT_EQ(diff.seriesCompared, 3);
  EXPECT_FALSE(diff.hasWallThreshold);
}

TEST(DiffTest, PerturbedCounterNamesTheRegressedSeries) {
  const core::ReportDiff diff =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 1000.0, 9));
  ASSERT_TRUE(diff.regression());
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.mismatches[0].series, "stats.outerAttempts");
  EXPECT_DOUBLE_EQ(diff.mismatches[0].oldValue, 2.0);
  EXPECT_DOUBLE_EQ(diff.mismatches[0].newValue, 9.0);
  // The verdict JSON carries the same series name for CI logs.
  EXPECT_NE(core::reportDiffJson(diff).find("stats.outerAttempts"),
            std::string::npos);
}

TEST(DiffTest, SeriesAbsentFromOneSideIsAMismatch) {
  const core::ReportDiff diff = core::diffReportTexts(
      syntheticReport("fir2dim", 1000.0, 2),
      syntheticReport("fir2dim", 1000.0, 2, /*includeExtraCounter=*/true));
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.mismatches[0].series, "metrics.ladder.rung.flat");
  EXPECT_EQ(diff.mismatches[0].note, "absent from old report");
}

TEST(DiffTest, WorkloadMismatchIsInvalidInputNotARegression) {
  EXPECT_THROW((void)core::diffReportTexts(
                   syntheticReport("fir2dim", 1000.0, 2),
                   syntheticReport("idcthor", 1000.0, 2)),
               InvalidArgumentError);
  // A thread-count change moves the portfolio's speculative counters, so a
  // 1-thread vs 4-thread pair is not comparable either; the error names
  // both counts.
  try {
    (void)core::diffReportTexts(
        syntheticReport("fir2dim", 1000.0, 2, false, /*threads=*/1),
        syntheticReport("fir2dim", 1000.0, 9, false, /*threads=*/4));
    FAIL() << "a 1-thread vs 4-thread compare was accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("old 1, new 4"), std::string::npos)
        << e.what();
  }
}

/// Runs `hcac --compare` on two report texts; returns its exit status.
int hcacCompareExit(const std::string& oldText, const std::string& newText,
                    const std::string& tag) {
  const std::string oldPath = tmpPath(tag + "_old.json");
  const std::string newPath = tmpPath(tag + "_new.json");
  atomicWriteFile(oldPath, oldText);
  atomicWriteFile(newPath, newText);
  const std::string command =
      strCat("'", HCA_HCAC_PATH, "' --compare '", oldPath, "' '", newPath,
             "' >/dev/null 2>&1");
  const int status = std::system(command.c_str());
  removeFileIfExists(oldPath);
  removeFileIfExists(newPath);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DiffTest, ParallelPairDifferingInCacheHitsIsANote) {
  // Two 4-thread runs of one compile: how many speculative attempts start
  // before the winner cancels them depends on scheduling, so the cache
  // (and outer-attempt, SEE, backtrack) series are informational.
  const std::string a =
      syntheticReport("fir2dim", 1000.0, 9, false, /*threads=*/4, 409);
  const std::string b =
      syntheticReport("fir2dim", 1000.0, 9, false, /*threads=*/4, 377);
  const core::ReportDiff diff = core::diffReportTexts(a, b);
  EXPECT_FALSE(diff.regression()) << core::reportDiffJson(diff);
  const bool noted = std::any_of(
      diff.notes.begin(), diff.notes.end(), [](const std::string& note) {
        return note == "parallel-sweep series stats.cacheHits: 409 -> 377";
      });
  EXPECT_TRUE(noted) << core::reportDiffJson(diff);
  EXPECT_EQ(hcacCompareExit(a, b, "parallel_cache"), 0);

  // At one thread the same difference is a regression.
  EXPECT_TRUE(core::diffReportTexts(
                  syntheticReport("fir2dim", 1000.0, 9, false, 1, 409),
                  syntheticReport("fir2dim", 1000.0, 9, false, 1, 377))
                  .regression());
}

TEST(DiffTest, ParallelPairDifferingInAssignmentIsARegression) {
  const std::string a = syntheticReport("fir2dim", 1000.0, 9, false,
                                        /*threads=*/4, 409, "00000000000000aa");
  const std::string b = syntheticReport("fir2dim", 1000.0, 9, false,
                                        /*threads=*/4, 409, "00000000000000bb");
  const core::ReportDiff diff = core::diffReportTexts(a, b);
  ASSERT_TRUE(diff.regression());
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.mismatches[0].series, "records.assignmentDigest");
  EXPECT_EQ(hcacCompareExit(a, b, "parallel_digest"), 1);
}

TEST(DiffTest, RealParallelReportsSelfCompareClean) {
  // Two 4-thread compiles of fir2dim: the mapping is the same, the
  // speculative counters need not be, and the verdict is clean.
  const auto kernels = ddg::table1Kernels();
  const machine::DspFabricModel model{machine::DspFabricConfig{}};
  core::HcaOptions options;
  options.numThreads = 4;
  const core::HcaDriver driver(model, options);
  core::ReportMeta meta;
  meta.workload = "fir2dim";
  meta.machine = model.config().toString();
  meta.threads = ThreadPool::effectiveThreads(options.numThreads);
  meta.context = RunContext::current();
  const core::HcaResult a = driver.run(kernels[0].ddg);
  const core::HcaResult b = driver.run(kernels[0].ddg);
  ASSERT_TRUE(a.legal) << a.failureReason;
  const core::ReportDiff diff =
      core::diffReportTexts(core::runReportJson(a, &model, &meta),
                            core::runReportJson(b, &model, &meta));
  EXPECT_FALSE(diff.regression()) << core::reportDiffJson(diff);
}

TEST(DiffTest, SchemaVersionMismatchStopsAtTheIdentityGate) {
  // Schema 2 dropped the route memo and dominance pruning counters, so a
  // schema-1 report is not comparable: `hcac --compare` must refuse it as
  // invalid input (exit 2) naming both versions, never diff the counters.
  ASSERT_EQ(RunContext::kSchemaVersion, 2);
  const std::string current = syntheticReport("fir2dim", 1000.0, 2);
  const std::string tag = "\"schema_version\":2";
  std::string older = current;
  const auto at = older.find(tag);
  ASSERT_NE(at, std::string::npos);
  older.replace(at, tag.size(), "\"schema_version\":1");
  try {
    (void)core::diffReportTexts(older, current);
    FAIL() << "a schema-1 vs schema-2 compare was accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("old 1, new 2"), std::string::npos)
        << e.what();
  }

  const std::string oldPath = tmpPath("schema1_report.json");
  const std::string newPath = tmpPath("schema2_report.json");
  const std::string errPath = tmpPath("schema_compare.err");
  atomicWriteFile(oldPath, older);
  atomicWriteFile(newPath, current);
  const std::string command = strCat("'", HCA_HCAC_PATH, "' --compare '",
                                     oldPath, "' '", newPath, "' >/dev/null",
                                     " 2>'", errPath, "'");
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(readFile(errPath).find("old 1, new 2"), std::string::npos)
      << readFile(errPath);
  removeFileIfExists(oldPath);
  removeFileIfExists(newPath);
  removeFileIfExists(errPath);
}

// The DOT artifacts take the same atomic write path as the report: an
// unwritable path is an I/O failure (exit 5), not a silent success.
TEST(HcacTest, UnwritableDotPathIsIoFailure) {
  const std::string badPath = ::testing::TempDir() + "no-such-dir/x.dot";
  for (const char* flag : {"--dot-tree", "--dot-assignment"}) {
    const std::string errPath = tmpPath("dot_write.err");
    const std::string command =
        strCat("'", HCA_HCAC_PATH, "' --kernel fir2dim --n 2 --m 2 --k 2 ",
               flag, " '", badPath, "' >/dev/null 2>'", errPath, "'");
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 5) << command;
    EXPECT_NE(readFile(errPath).find("i/o failure"), std::string::npos)
        << readFile(errPath);
    removeFileIfExists(errPath);
  }
}

TEST(DiffTest, MissingMetaBlockIsInvalidInput) {
  EXPECT_THROW(
      (void)core::diffReportTexts("{\"legal\":true}",
                                  syntheticReport("fir2dim", 1000.0, 2)),
      InvalidArgumentError);
}

TEST(DiffTest, WallGateArmsOnlyWithEnoughHistory) {
  core::DiffOptions options;
  options.wallSigma = 3.0;
  // 5 legal baseline runs around 1000us (stddev ~ 15.8).
  for (const double w : {980.0, 990.0, 1000.0, 1010.0, 1020.0}) {
    HistoryRecord record = sampleRecord(w);
    record.machine = "TestFabric[1]";
    options.history.push_back(record);
  }
  // A wall-clock blowup with identical counters: gated.
  core::ReportDiff slow =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 5000.0, 2), options);
  EXPECT_TRUE(slow.hasWallThreshold);
  EXPECT_EQ(slow.historyRuns, 5);
  EXPECT_TRUE(slow.wall.regressed);
  EXPECT_TRUE(slow.regression());

  // Within threshold: clean.
  core::ReportDiff ok =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 1005.0, 2), options);
  EXPECT_FALSE(ok.wall.regressed);
  EXPECT_FALSE(ok.regression());

  // Too little history: the same blowup is informational only.
  options.history.resize(2);
  core::ReportDiff unarmed =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 5000.0, 2), options);
  EXPECT_FALSE(unarmed.hasWallThreshold);
  EXPECT_FALSE(unarmed.regression());
}

TEST(DiffTest, RealDriverReportsSelfCompareClean) {
  // End-to-end: two runs of the same deterministic search produce reports
  // that diff clean, and the history record extracted from them matches the
  // report's own counters.
  const auto kernels = ddg::table1Kernels();
  const ddg::Kernel* fir2dim = nullptr;
  for (const auto& kernel : kernels) {
    if (kernel.name == "fir2dim") fir2dim = &kernel;
  }
  ASSERT_NE(fir2dim, nullptr);
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;  // the paper's best configuration
  const machine::DspFabricModel model(config);
  const core::HcaDriver driver(model);

  core::ReportMeta meta;
  meta.workload = "fir2dim";
  meta.machine = model.config().toString();
  meta.context = RunContext::current();

  const core::HcaResult a = driver.run(fir2dim->ddg);
  const core::HcaResult b = driver.run(fir2dim->ddg);
  const core::ReportDiff diff =
      core::diffReportTexts(core::runReportJson(a, &model, &meta),
                            core::runReportJson(b, &model, &meta));
  EXPECT_FALSE(diff.regression()) << core::reportDiffJson(diff);
  EXPECT_GT(diff.seriesCompared, 10);

  const HistoryRecord record = core::historyRecordFor(a, meta);
  EXPECT_EQ(record.counters.at("outerAttempts"),
            static_cast<std::int64_t>(a.stats.outerAttempts));
  EXPECT_EQ(record.counters.count("attemptsCancelled"), 0u);
  EXPECT_DOUBLE_EQ(record.wallUs, core::runWallUs(a));
}

}  // namespace
}  // namespace hca
