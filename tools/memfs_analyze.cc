// Static analyzer CLI: parses the given files/trees once and reports every
// rule family of tools/analyze/analyzer.h, one `file:line: rule: message`
// per line.
//
//   memfs_analyze [--stats] [--include-suppressed] <file-or-dir>...
//
// Exit status: 0 when no unsuppressed finding, 1 otherwise, 2 on usage
// errors. `ctest -L lint` runs this over the whole repo.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze/analyzer.h"

int main(int argc, char** argv) {
  bool include_suppressed = false;
  bool stats = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--include-suppressed") {
      include_suppressed = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: memfs_analyze [--stats] [--include-suppressed] "
                   "<file-or-dir>...\n");
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "memfs_analyze: no inputs (try --help)\n");
    return 2;
  }

  memfs::analyze::Analyzer analyzer;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      analyzer.AddTree(path);
    } else if (!analyzer.AddFile(path)) {
      std::fprintf(stderr, "memfs_analyze: cannot read %s\n", path.c_str());
      return 2;
    }
  }

  // Run with suppressed findings included so the summary reports both
  // counts; only unsuppressed ones fail the run.
  const auto findings = analyzer.Run(/*include_suppressed=*/true);
  int violations = 0;
  int suppressed = 0;
  for (const auto& finding : findings) {
    if (finding.suppressed) {
      ++suppressed;
      if (!include_suppressed) continue;
    } else {
      ++violations;
    }
    std::printf("%s\n", memfs::analyze::Format(finding).c_str());
  }
  if (stats) {
    std::fputs(memfs::analyze::FormatStats(analyzer.stats()).c_str(), stdout);
  }
  std::fprintf(stderr,
               "memfs_analyze: %d file(s), %d finding(s), %d suppressed\n",
               analyzer.stats().files, violations, suppressed);
  return violations == 0 ? 0 : 1;
}
