// slacker_lint — determinism + layering checker for the Slacker tree.
//
// Usage:
//   slacker_lint [--layers layers.json] [--report findings.json]
//                [--dot modules.dot] [--callers dir]... <file-or-dir>...
//
// Scans *.h / *.cc / *.cpp under the given paths for the determinism
// rules documented in lint.h. Files under a --callers root are read for
// references (a shipped caller outside the scanned tree) but never
// reported on, nor checked for layering. With --layers, additionally checks every
// `#include "..."` edge against the module-layering contract (rules in
// layering.h) and, with --dot, writes the observed module graph as
// Graphviz. Exits 0 when the tree is clean, 1 when any finding
// survives NOLINT suppression, 2 on usage/IO errors.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/slacker_lint/layering.h"
#include "tools/slacker_lint/lint.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: slacker_lint [--layers layers.json] "
               "[--report findings.json] [--dot modules.dot] "
               "[--callers dir]... <file-or-dir>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  std::string layers_path;
  std::string dot_path;
  std::vector<std::string> paths;
  std::vector<std::string> callers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" || arg == "--layers" || arg == "--dot" ||
        arg == "--callers") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "slacker_lint: %s needs a path\n", arg.c_str());
        return 2;
      }
      if (arg == "--callers") {
        callers.push_back(argv[++i]);
        continue;
      }
      (arg == "--report" ? report_path
                         : arg == "--layers" ? layers_path : dot_path) =
          argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return Usage();
  if (!dot_path.empty() && layers_path.empty()) {
    std::fprintf(stderr, "slacker_lint: --dot requires --layers\n");
    return 2;
  }

  slacker::lint::LayerManifest manifest;
  if (!layers_path.empty()) {
    std::ifstream in(layers_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "slacker_lint: cannot read %s\n",
                   layers_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!slacker::lint::ParseLayerManifest(buf.str(), &manifest, &error)) {
      std::fprintf(stderr, "slacker_lint: %s: %s\n", layers_path.c_str(),
                   error.c_str());
      return 2;
    }
  }

  slacker::lint::Linter linter;
  slacker::lint::LayerAnalyzer layers;
  const bool layering = !layers_path.empty();
  int scanned = 0;
  for (const std::string& path : paths) {
    const int added = slacker::lint::AddPath(&linter, path,
                                             layering ? &layers : nullptr);
    if (added < 0) {
      std::fprintf(stderr, "slacker_lint: no such path: %s\n", path.c_str());
      return 2;
    }
    scanned += added;
  }
  for (const std::string& path : callers) {
    if (slacker::lint::AddPath(&linter, path, nullptr,
                               /*callers_only=*/true) < 0) {
      std::fprintf(stderr, "slacker_lint: no such path: %s\n", path.c_str());
      return 2;
    }
  }

  std::vector<slacker::lint::Finding> findings;
  if (layering) {
    // The layering pass runs first so its exercised NOLINT suppressions
    // are known before the unused-NOLINT pass inside Run().
    findings = layers.Run(manifest);
    for (const slacker::lint::Finding& used : layers.used_suppressions()) {
      linter.NoteSuppressionUsed(used.path, used.line);
    }
  }
  const std::vector<slacker::lint::Finding> lint_findings = linter.Run();
  findings.insert(findings.end(), lint_findings.begin(), lint_findings.end());
  std::sort(findings.begin(), findings.end(),
            [](const slacker::lint::Finding& a,
               const slacker::lint::Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  std::fputs(slacker::lint::FindingsToText(findings).c_str(), stdout);

  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "slacker_lint: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    out << slacker::lint::FindingsToJson(findings);
  }
  if (!dot_path.empty()) {
    std::ofstream out(dot_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "slacker_lint: cannot write %s\n",
                   dot_path.c_str());
      return 2;
    }
    out << layers.ModuleGraphDot(manifest);
  }

  std::fprintf(stderr, "slacker_lint: %d file(s), %zu finding(s)\n", scanned,
               findings.size());
  return findings.empty() ? 0 : 1;
}
