#pragma once

#include <string>

/// Provenance context for cross-run observability.
///
/// Every artifact that is meant to be *compared across runs* — run reports,
/// bench JSONs, baseline-history lines — embeds one `RunContext` block, so
/// a differ (`hcac --compare`, tools/ci.sh's regression gate) can refuse to
/// compare apples to oranges: a report from a Debug build, another commit,
/// or an incompatible schema version is flagged instead of silently
/// producing a bogus verdict (the committed BENCH_micro.json was once
/// generated from a debug build and nothing noticed).
///
/// The block is deliberately wall-clock-free: a run id is *passed in* by the
/// caller (`hcac --run-id`, a CI job id, ...) instead of derived from the
/// current time, so two runs of the same configuration produce byte-identical
/// context blocks unless the caller chooses otherwise.
namespace hca {

class JsonWriter;
struct JsonValue;

struct RunContext {
  /// Version of the report/history JSON layout. Bumped on incompatible
  /// changes; the differ refuses mismatched versions.
  static constexpr int kSchemaVersion = 2;

  int schemaVersion = kSchemaVersion;
  /// Commit the binaries were configured from ("unknown" outside git).
  std::string gitSha;
  /// CMAKE_BUILD_TYPE at configure time ("" when the cache was empty).
  std::string buildType;
  /// True when the stamping translation unit was compiled with NDEBUG —
  /// the ground truth for "is this a Release-grade measurement", immune to
  /// build-type strings lying.
  bool ndebug = false;
  std::string hostname;
  int hardwareConcurrency = 0;
  /// Caller-supplied run identifier; empty = not set.
  std::string runId;

  /// The context of this process: configure-time provenance plus the
  /// current host. `runId` is threaded through verbatim.
  [[nodiscard]] static RunContext current(std::string runId = "");

  /// True when the stamping build is an optimized (NDEBUG) build.
  [[nodiscard]] bool isOptimizedBuild() const { return ndebug; }

  /// Emits the block as the next JSON value of `json`.
  void writeJson(JsonWriter& json) const;
  /// The block as a standalone JSON object string.
  [[nodiscard]] std::string toJson() const;

  /// Strict parse of a block produced by `writeJson`. Throws
  /// InvalidArgumentError on missing members or type mismatches; unknown
  /// members are rejected too (the schema version exists so additions are
  /// deliberate).
  [[nodiscard]] static RunContext fromJson(const JsonValue& value);
};

/// When this is a debug-grade build, prints a loud warning to stderr naming
/// `tool` and returns true (benches gate their `--strict-build` flag on it:
/// timing numbers from an unoptimized build are misleading at best).
bool warnIfDebugBuild(const char* tool);

}  // namespace hca
