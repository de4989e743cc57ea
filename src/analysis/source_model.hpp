#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/lexer.hpp"

/// Source discovery and the include graph for `hca-lint`.
///
/// The model starts from `compile_commands.json` (the translation units the
/// build actually compiles), lexes each TU, resolves its quoted includes
/// against the repo, and recurses until every reachable repo file is loaded.
/// System/angled includes are recorded but never followed — the lint rules
/// only constrain this repo's code.
namespace hca::analysis {

/// One entry of compile_commands.json that points at a repo source file.
struct CompileCommand {
  std::string directory;
  std::string file;  ///< absolute path (resolved against `directory`)
};

/// Parses a compile_commands.json buffer (array of {directory, file, ...}).
/// Relative `file` entries are resolved against their `directory`. Throws
/// hca::Error on malformed JSON or missing fields.
[[nodiscard]] std::vector<CompileCommand> parseCompileCommands(
    const std::string& json);

/// The module a repo-relative path belongs to, and its rank in the layering
/// DAG. Edges may only point from higher rank to lower or equal rank;
/// same-rank edges across different modules are allowed only where the DAG
/// declares them siblings (rank ties below).
struct ModuleInfo {
  std::string name;  ///< e.g. "support", "see", "tools"
  int rank = -1;     ///< -1 = outside the DAG (never checked)
};

/// Classifies a repo-relative path ("src/see/engine.cpp", "tools/ci.sh").
/// Rank order: support=0, graph=1, ddg=2, machine=2, see/mapper/sched/
/// baseline/sim=3, hca=4, verify=5, analysis=6, tools/bench/tests/
/// examples=7. Anything else gets rank -1.
[[nodiscard]] ModuleInfo classifyModule(const std::string& relPath);

/// One loaded source file with its lex result and resolved includes.
struct SourceFile {
  std::string relPath;  ///< repo-relative, '/'-separated
  ModuleInfo module;
  LexedFile lexed;
  /// Repo-relative targets of quoted includes that resolved to repo files,
  /// paired with the directive (for line numbers in diagnostics).
  std::vector<std::pair<std::string, IncludeDirective>> repoIncludes;
};

/// The full set of repo files reachable from the compile database.
class SourceModel {
 public:
  /// Loads every TU in `commands` plus transitively included repo files.
  /// `root` is the repo root, absolute or relative to the working
  /// directory; include resolution tries, in order, the includer's
  /// directory, `<root>/src`, and `<root>` — mirroring the build's `-I`
  /// setup. Files outside `root` are ignored.
  static SourceModel load(const std::string& root,
                          const std::vector<CompileCommand>& commands);

  /// Loads from in-memory buffers keyed by repo-relative path (tests).
  /// Every buffer becomes a file; includes resolve only within the map.
  static SourceModel loadFromMemory(
      const std::map<std::string, std::string>& files);

  [[nodiscard]] const std::vector<SourceFile>& files() const noexcept {
    return files_;
  }
  [[nodiscard]] const SourceFile* find(const std::string& relPath) const;

 private:
  std::vector<SourceFile> files_;  ///< sorted by relPath
};

}  // namespace hca::analysis
