#include "hca/report.hpp"

#include <cstdio>
#include <sstream>
#include <vector>

#include "support/json.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {

std::string lvl(const char* base, int level) {
  return strCat(base, ".L", level);
}

/// Hierarchy levels that actually solved sub-problems in this run: the
/// driver emits one `see.problems.L<n>` counter per visited level, so the
/// report needs no model to know the tree depth (the degraded-bandwidth
/// rung even reuses the same depth).
std::vector<int> levelsPresent(const MetricsRegistry& metrics) {
  std::vector<int> levels;
  for (int level = 0; level < 64; ++level) {
    if (metrics.counterValue(lvl("see.problems", level)) > 0) {
      levels.push_back(level);
    }
  }
  return levels;
}

void writeHistogramSummary(JsonWriter& json, const Histogram* h) {
  if (h == nullptr || h->stats().count() == 0) {
    json.null();
    return;
  }
  json.beginObject();
  json.key("count").value(h->stats().count());
  json.key("mean").value(h->stats().mean());
  json.key("min").value(h->stats().min());
  json.key("max").value(h->stats().max());
  json.key("p50").value(h->quantile(0.5));
  json.key("p90").value(h->quantile(0.9));
  json.endObject();
}

void writeFailure(JsonWriter& json, const HcaFailureReport& failure) {
  json.beginObject();
  json.key("cause").value(to_string(failure.cause));
  json.key("level").value(failure.level);
  json.key("subproblemPath").beginArray();
  for (const int p : failure.subproblemPath) json.value(p);
  json.endArray();
  json.key("message").value(failure.message);
  json.key("escalationsTried").beginArray();
  for (const std::string& e : failure.escalationsTried) json.value(e);
  json.endArray();
  json.endObject();
}

}  // namespace

std::string runReportJson(const HcaResult& result,
                          const machine::DspFabricModel* model,
                          const ReportMeta* meta) {
  std::ostringstream os;
  JsonWriter json(os);
  writeRunReport(json, result, model, meta);
  return os.str();
}

void writeRunReport(JsonWriter& json, const HcaResult& result,
                    const machine::DspFabricModel* model,
                    const ReportMeta* meta) {
  json.beginObject();

  if (meta != nullptr) {
    json.key("workload").value(meta->workload);
    json.key("machine").value(meta->machine);
    json.key("threads").value(meta->threads);
    json.key("context");
    meta->context.writeJson(json);
  }

  json.key("legal").value(result.legal);
  json.key("fallbackUsed").value(result.fallbackUsed);
  json.key("failureReason").value(result.failureReason);
  json.key("failure");
  if (result.failure != nullptr) {
    writeFailure(json, *result.failure);
  } else {
    json.null();
  }

  const HcaStats& s = result.stats;
  json.key("stats").beginObject();
  json.key("problemsSolved").value(s.problemsSolved);
  json.key("backtrackAttempts").value(s.backtrackAttempts);
  json.key("outerAttempts").value(s.outerAttempts);
  json.key("achievedTargetIi").value(s.achievedTargetIi);
  json.key("attemptsCancelled").value(s.attemptsCancelled);
  json.key("statesExplored").value(s.statesExplored);
  json.key("candidatesEvaluated").value(s.candidatesEvaluated);
  json.key("routeInvocations").value(s.routeInvocations);
  json.key("cacheHits").value(s.cacheHits);
  json.key("cacheMisses").value(s.cacheMisses);
  json.key("maxWirePressure").value(s.maxWirePressure);
  json.key("seeCopiesAvoided").value(s.seeCopiesAvoided);
  json.key("seeSnapshotsMaterialized").value(s.seeSnapshotsMaterialized);
  json.key("seeArenaBytesPeak").value(s.seeArenaBytesPeak);
  json.key("seeOracleRejects").value(s.seeOracleRejects);
  json.endObject();

  // Per-level breakdown: the `.L<n>` series of the registry, one row per
  // hierarchy level that solved at least one sub-problem.
  const MetricsRegistry& m = result.metrics;
  json.key("levels").beginArray();
  for (const int level : levelsPresent(m)) {
    json.beginObject();
    json.key("level").value(level);
    json.key("name").value(model != nullptr && level < model->numLevels()
                               ? model->levelName(level)
                               : strCat("L", level));
    json.key("problems").value(m.counterValue(lvl("see.problems", level)));
    json.key("expansions").value(m.counterValue(lvl("see.expansions", level)));
    json.key("pruned").value(m.counterValue(lvl("see.pruned", level)));
    json.key("candidates").value(m.counterValue(lvl("see.candidates", level)));
    json.key("candidateRejections")
        .value(m.counterValue(lvl("see.candidate_rejections", level)));
    json.key("routeInvocations")
        .value(m.counterValue(lvl("see.route_invocations", level)));
    json.key("routeFailures")
        .value(m.counterValue(lvl("see.route_failures", level)));
    json.key("oracleRejects")
        .value(m.counterValue(lvl("see.oracle_rejects", level)));
    json.key("cacheHits").value(m.counterValue(lvl("cache.hits", level)));
    json.key("cacheMisses").value(m.counterValue(lvl("cache.misses", level)));
    json.key("backtracks").value(m.counterValue(lvl("hca.backtracks", level)));
    json.key("mapperFailures")
        .value(m.counterValue(lvl("mapper.failures", level)));
    json.key("wireUtilization");
    writeHistogramSummary(json,
                          m.findHistogram(lvl("mapper.wire_utilization", level)));
    json.key("copiesPerIli");
    writeHistogramSummary(json,
                          m.findHistogram(lvl("mapper.copies_per_ili", level)));
    json.key("maxValuesPerWire");
    writeHistogramSummary(
        json, m.findHistogram(lvl("mapper.max_values_per_wire", level)));
    json.endObject();
  }
  json.endArray();

  json.key("metrics");
  m.writeJson(json);

  json.key("records").beginObject();
  json.key("count").value(static_cast<std::int64_t>(result.records.size()));
  json.key("relays").value(static_cast<std::int64_t>(result.relays.size()));
  json.key("reconfigSettings")
      .value(static_cast<std::int64_t>(result.reconfig.settings.size()));
  json.key("assignmentDigest").value(assignmentDigest(result));
  json.endObject();

  json.endObject();
}

std::string fnv1a64Hex(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string assignmentDigest(const HcaResult& result) {
  std::ostringstream os;
  for (const CnId cn : result.assignment) os << cn.value() << ',';
  os << '|';
  for (const RelayPlacement& relay : result.relays) {
    os << relay.value.value() << ':' << relay.cn.value() << ',';
  }
  os << '|';
  for (const std::uint64_t word : result.reconfig.encode()) os << word << ',';
  return fnv1a64Hex(os.str());
}

std::map<std::string, std::int64_t> deterministicCounters(
    const HcaStats& stats) {
  // attemptsCancelled is deliberately absent: it counts attempts cut short
  // by deadlines or portfolio soft-cancellation, both wall-clock effects.
  return {
      {"problemsSolved", stats.problemsSolved},
      {"backtrackAttempts", stats.backtrackAttempts},
      {"outerAttempts", stats.outerAttempts},
      {"achievedTargetIi", stats.achievedTargetIi},
      {"statesExplored", stats.statesExplored},
      {"candidatesEvaluated", stats.candidatesEvaluated},
      {"routeInvocations", stats.routeInvocations},
      {"cacheHits", stats.cacheHits},
      {"cacheMisses", stats.cacheMisses},
      {"maxWirePressure", stats.maxWirePressure},
      {"seeCopiesAvoided", stats.seeCopiesAvoided},
      {"seeSnapshotsMaterialized", stats.seeSnapshotsMaterialized},
      {"seeArenaBytesPeak", stats.seeArenaBytesPeak},
      {"seeOracleRejects", stats.seeOracleRejects},
  };
}

double runWallUs(const HcaResult& result) {
  const Histogram* wall = result.metrics.findHistogram("attempt.wall_us");
  return wall != nullptr && wall->stats().count() > 0 ? wall->stats().sum()
                                                      : 0.0;
}

HistoryRecord historyRecordFor(const HcaResult& result,
                               const ReportMeta& meta) {
  HistoryRecord record;
  record.context = meta.context;
  record.workload = meta.workload;
  record.machine = meta.machine;
  record.legal = result.legal;
  record.wallUs = runWallUs(result);
  record.counters = deterministicCounters(result.stats);
  return record;
}

void printRunStats(std::ostream& os, const HcaResult& result) {
  os << "=== HCA run stats ===\n";
  if (result.legal) {
    os << "outcome: legal ("
       << (result.fallbackUsed.empty() ? "primary sweep"
                                       : strCat("fallback rung: ",
                                                result.fallbackUsed))
       << ")\n";
  } else {
    os << "outcome: no legal mapping";
    if (result.failure != nullptr) {
      os << " [" << to_string(result.failure->cause) << "]";
    }
    os << "\n";
    if (!result.failureReason.empty()) {
      os << "reason:  " << result.failureReason << "\n";
    }
  }
  const HcaStats& s = result.stats;
  os << "target II achieved: " << s.achievedTargetIi
     << "  outer attempts: " << s.outerAttempts
     << "  cancelled: " << s.attemptsCancelled << "\n";
  os << "problems solved: " << s.problemsSolved
     << "  backtracks: " << s.backtrackAttempts
     << "  max wire pressure: " << s.maxWirePressure << "\n";
  os << "states explored: " << s.statesExplored
     << "  candidates: " << s.candidatesEvaluated
     << "  cache h/m: " << s.cacheHits << "/" << s.cacheMisses << "\n";
  os << "copies avoided: " << s.seeCopiesAvoided
     << "  snapshots: " << s.seeSnapshotsMaterialized
     << "  arena peak: " << s.seeArenaBytesPeak << " B\n";
  os << "oracle rejects: " << s.seeOracleRejects << "\n";
  if (!result.metrics.empty()) {
    os << "--- metrics registry ---\n";
    result.metrics.printTable(os);
  }
}

}  // namespace hca::core
