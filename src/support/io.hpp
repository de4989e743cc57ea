#pragma once

#include <string>

#include "support/check.hpp"

/// Crash-safe file I/O.
///
/// Every whole-file artifact the tool chain persists (run reports, traces,
/// metrics, diff verdicts, bench JSONs) goes through `atomicWriteFile`: the
/// contents are written to a temporary sibling, flushed to stable storage
/// with fsync, and renamed over the destination. A reader therefore always
/// observes either the complete old file or the complete new file — never a
/// torn or truncated write, even when the process is killed mid-write or
/// the machine loses power after the rename.
namespace hca {

/// A filesystem operation failed (open/write/fsync/rename). Distinct from
/// InvalidArgumentError so callers can map it to its own exit code — the
/// run itself may have succeeded even though persisting an artifact failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Atomically replaces `path` with `contents` (write-temp + fsync + rename
/// + directory fsync). The temporary lives in the destination directory so
/// the rename never crosses a filesystem. Throws IoError on any failure and
/// removes the temporary on the way out.
void atomicWriteFile(const std::string& path, const std::string& contents);

/// Reads the whole file into a string. Throws IoError when the file cannot
/// be opened or read (a *missing* file is also an IoError; use fileExists
/// to probe first when absence is an expected state).
[[nodiscard]] std::string readFile(const std::string& path);

[[nodiscard]] bool fileExists(const std::string& path);

/// Removes `path` if it exists; missing files are not an error. Throws
/// IoError when an existing file cannot be removed.
void removeFileIfExists(const std::string& path);

}  // namespace hca
