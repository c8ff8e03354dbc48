// snnsec_lint CLI: scan the tree for project-invariant violations.
//
// Usage:
//   snnsec_lint [--root DIR] [--cache FILE] [--report] [--suggest]
//               [--verbose] [--list-rules] [dirs...]
//
// With no positional dirs, scans src/, bench/ and tests/ under --root.
// --cache FILE keeps a content-hash result cache so unchanged files are not
// re-linted (hit/miss counts printed with --verbose).
// Exit status: 0 when clean, 1 on findings, 2 on usage/IO errors.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache.hpp"
#include "lint.hpp"
#include "source_view.hpp"

namespace fs = std::filesystem;
using snnsec::lint::Finding;
using snnsec::lint::LintResult;
using snnsec::lint::Options;

namespace {

std::string read_file_or_empty(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void print_usage() {
  std::cout <<
      "snnsec_lint [--root DIR] [--cache FILE] [--report] [--suggest] "
      "[--verbose] [--list-rules] [dirs...]\n"
      "  Scans dirs (default: src bench tests) for snnsec invariant "
      "violations.\n"
      "  Suppress a line with `// NOLINT(snnsec-<rule>): <justification>`.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string cache_path;
  std::vector<std::string> dirs;
  bool report = false, suggest = false, verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--suggest") {
      suggest = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-rules") {
      for (const auto id : snnsec::lint::rule_ids())
        std::cout << "snnsec-" << id << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "snnsec_lint: unknown option " << arg << "\n";
      print_usage();
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "bench", "tests"};

  Options opts;
  opts.registry_source =
      read_file_or_empty(fs::path(root) / "src" / "nn" / "layer_registry.cpp");

  // Findings depend on the registry contents too, so fold its digest into
  // the cache version: a registry edit invalidates the whole cache.
  char reg_hex[17];
  std::snprintf(reg_hex, sizeof reg_hex, "%016llx",
                static_cast<unsigned long long>(
                    snnsec::lint::content_digest(opts.registry_source)));
  snnsec::lint::FileCache cache(
      cache_path, std::string(snnsec::lint::lint_cache_version()) + "+" +
                      reg_hex);

  std::vector<Finding> findings;
  std::size_t files = 0, suppressed = 0;
  std::map<std::string, std::size_t> by_rule;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) {
      std::cerr << "snnsec_lint: no such directory: " << base.string() << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string path = entry.path().generic_string();
      if (!snnsec::lint::lintable_file(path)) continue;
      ++files;
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "snnsec_lint: cannot read " << path << "\n";
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string content = buf.str();
      const std::uint64_t digest = snnsec::lint::content_digest(content);
      LintResult res;
      bool cached = false;
      if (const auto payload = cache.lookup(path, digest)) {
        cached = snnsec::lint::deserialize_result(*payload, path, res);
      }
      if (!cached) {
        res = snnsec::lint::lint_source(path, content, opts);
        cache.store(path, digest, snnsec::lint::serialize_result(res));
      }
      suppressed += res.suppressed.size();
      for (Finding& f : res.findings) {
        ++by_rule[f.rule];
        findings.push_back(std::move(f));
      }
    }
  }
  if (!cache.save())
    std::cerr << "snnsec_lint: warning: could not write cache " << cache_path
              << "\n";

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
    if (suggest && !f.suggestion.empty())
      std::cout << "    fix: " << f.suggestion << "\n";
  }
  if (report) {
    std::cout << "---- snnsec_lint report ----\n";
    for (const auto& [rule, count] : by_rule)
      std::cout << "  " << rule << ": " << count << "\n";
  }
  if (verbose)
    std::cout << "snnsec_lint: cache " << cache.hits() << " hit(s), "
              << cache.misses() << " miss(es)\n";
  std::cout << "snnsec_lint: " << files << " files, " << findings.size()
            << " finding(s), " << suppressed
            << " justified suppression(s)\n";
  return findings.empty() ? 0 : 1;
}
