#include "hca/progress.hpp"

#include <cerrno>
#include <cstring>
#include <sstream>

#include "support/check.hpp"
#include "support/context.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {

std::string eventLineJson(const ProgressEvent& event, std::int64_t seq) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("schema_version").value(RunContext::kSchemaVersion);
  json.key("seq").value(seq);
  json.key("event").value(event.event);
  json.key("job").value(event.job);
  json.key("state").value(event.state);
  json.key("outcome").value(event.outcome);
  json.key("phase").value(event.phase);
  json.key("jobs_total").value(event.jobsTotal);
  json.key("jobs_done").value(event.jobsDone);
  json.key("jobs_ok").value(event.jobsOk);
  json.key("jobs_failed").value(event.jobsFailed);
  json.key("elapsed_ms").value(event.elapsedMs);
  json.key("eta_ms");
  if (event.etaMs >= 0) {
    json.value(event.etaMs);
  } else {
    json.null();
  }
  json.key("resumed").value(event.resumed);
  json.endObject();
  return os.str();
}

/// The last *complete* line of `text` (ends in '\n'), or "" when none.
std::string lastCompleteLine(const std::string& text) {
  const std::size_t lastNewline = text.rfind('\n');
  if (lastNewline == std::string::npos) return "";
  const std::size_t prev = text.rfind('\n', lastNewline - 1);
  const std::size_t begin = prev == std::string::npos ? 0 : prev + 1;
  if (lastNewline == 0) return "";
  return text.substr(begin, lastNewline - begin);
}

}  // namespace

ProgressLog::ProgressLog(std::string path) : path_(std::move(path)) {
  std::int64_t lastSeq = -1;
  if (fileExists(path_)) {
    const std::string existing = readFile(path_);
    const std::string tail = lastCompleteLine(existing);
    if (!tail.empty()) {
      // A corrupt *complete* line means the file is not ours — refuse to
      // extend it rather than emit a log that no longer strict-parses.
      lastSeq = parseProgressLine(tail).seq;
      resumed_ = true;
    }
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw IoError(strCat("progress: cannot open '", path_,
                         "' for append: ", std::strerror(errno)));
  }
  MutexLock lock(mu_);
  seq_ = lastSeq + 1;
}

ProgressLog::~ProgressLog() {
  MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

void ProgressLog::write(const ProgressEvent& event) {
  MutexLock lock(mu_);
  const std::string line = eventLineJson(event, seq_++) + "\n";
  const bool ok = file_ != nullptr &&
                  std::fwrite(line.data(), 1, line.size(), file_) ==
                      line.size() &&
                  std::fflush(file_) == 0;
  if (!ok) {
    throw IoError(strCat("progress: short write to '", path_, "'"));
  }
}

ProgressLine parseProgressLine(const std::string& line) {
  JsonValue value;
  std::string error;
  HCA_REQUIRE(parseJson(line, &value, &error),
              "progress line: bad JSON: " << error);
  HCA_REQUIRE(value.isObject(), "progress line: not a JSON object");

  ProgressLine out;
  bool haveSchema = false, haveSeq = false, haveEvent = false;
  for (const auto& [key, member] : value.object) {
    if (key == "schema_version") {
      HCA_REQUIRE(member.kind == JsonValue::Kind::kNumber &&
                      static_cast<int>(member.number) ==
                          RunContext::kSchemaVersion,
                  "progress line: unsupported schema_version");
      haveSchema = true;
    } else if (key == "seq") {
      HCA_REQUIRE(member.kind == JsonValue::Kind::kNumber,
                  "progress line: 'seq' must be a number");
      out.seq = static_cast<std::int64_t>(member.number);
      haveSeq = true;
    } else if (key == "event") {
      HCA_REQUIRE(member.kind == JsonValue::Kind::kString,
                  "progress line: 'event' must be a string");
      out.event = member.string;
      haveEvent = true;
    } else if (key == "job") {
      out.job = member.string;
    } else if (key == "state") {
      out.state = member.string;
    } else if (key == "outcome") {
      out.outcome = member.string;
    } else if (key == "phase") {
      out.phase = member.string;
    } else if (key == "jobs_total") {
      out.jobsTotal = static_cast<int>(member.number);
    } else if (key == "jobs_done") {
      out.jobsDone = static_cast<int>(member.number);
    } else if (key == "jobs_ok") {
      out.jobsOk = static_cast<int>(member.number);
    } else if (key == "jobs_failed") {
      out.jobsFailed = static_cast<int>(member.number);
    } else if (key == "elapsed_ms") {
      out.elapsedMs = static_cast<std::int64_t>(member.number);
    } else if (key == "eta_ms") {
      out.etaMs = member.kind == JsonValue::Kind::kNull
                      ? -1
                      : static_cast<std::int64_t>(member.number);
    } else if (key == "resumed") {
      HCA_REQUIRE(member.kind == JsonValue::Kind::kBool,
                  "progress line: 'resumed' must be a bool");
      out.resumed = member.boolean;
    } else {
      HCA_REQUIRE(false, "progress line: unknown member '" << key << "'");
    }
  }
  HCA_REQUIRE(haveSchema && haveSeq && haveEvent,
              "progress line: incomplete (schema_version/seq/event)");
  const bool knownEvent = out.event == "batch-start" ||
                          out.event == "job-state" ||
                          out.event == "heartbeat" || out.event == "batch-end";
  HCA_REQUIRE(knownEvent, "progress line: unknown event '" << out.event
                                                           << "'");
  return out;
}

}  // namespace hca::core
