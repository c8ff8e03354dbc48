// snnsec_analyze CLI: build per-TU semantic models (cached by content
// digest) and run the whole-program analyses over them.
//
// Usage:
//   snnsec_analyze [--root DIR] [--design FILE] [--cache FILE] [--json FILE]
//                  [--require-mutexes CSV] [--suggest] [--verbose]
//                  [--list-rules] [dirs...]
//
// With no positional dirs, scans src/ under --root. --design FILE enables the
// metric-undocumented rule against that file's text. --require-mutexes CSV
// exits 2 unless every named canonical mutex appears in the lock-order model
// (guards against the extractor silently losing coverage). --json FILE writes
// findings and the lock-order model as JSON for CI artifacts.
// Exit status: 0 clean, 1 findings, 2 usage/IO/coverage errors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "cache.hpp"
#include "source_view.hpp"

namespace fs = std::filesystem;
using snnsec::analyze::AnalyzeResult;
using snnsec::analyze::FileModel;
using snnsec::analyze::Finding;
using snnsec::analyze::Options;

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
      "snnsec_analyze [--root DIR] [--design FILE] [--cache FILE] "
      "[--json FILE] [--require-mutexes CSV] [--suggest] [--verbose] "
      "[--list-rules] [dirs...]\n"
      "  Flow-aware analysis of dirs (default: src): hot-path reachability,\n"
      "  lock-order discipline, concurrency heuristics, metric-name "
      "registry.\n"
      "  Suppress a line with `// NOLINT(snnsec-<rule>): <justification>`.\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool write_json(const std::string& path, const AnalyzeResult& res) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\n  \"findings\": [\n";
  for (std::size_t i = 0; i < res.findings.size(); ++i) {
    const Finding& f = res.findings[i];
    out << "    {\"file\": \"" << json_escape(f.file) << "\", \"line\": "
        << f.line << ", \"rule\": \"" << json_escape(f.rule)
        << "\", \"message\": \"" << json_escape(f.message) << "\"}"
        << (i + 1 < res.findings.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"suppressed\": " << res.suppressed.size()
      << ",\n  \"stats\": {\n    \"functions\": " << res.stats.functions
      << ",\n    \"hot_entries\": " << res.stats.hot_entries
      << ",\n    \"call_edges\": " << res.stats.call_edges
      << ",\n    \"mutexes\": [";
  for (std::size_t i = 0; i < res.stats.mutexes.size(); ++i)
    out << (i ? ", " : "") << "\"" << json_escape(res.stats.mutexes[i])
        << "\"";
  out << "],\n    \"lock_edges\": [\n";
  for (std::size_t i = 0; i < res.stats.lock_edges.size(); ++i) {
    const auto& e = res.stats.lock_edges[i];
    out << "      {\"from\": \"" << json_escape(e.from) << "\", \"to\": \""
        << json_escape(e.to) << "\", \"site\": \"" << json_escape(e.site)
        << "\"}" << (i + 1 < res.stats.lock_edges.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"metric_names\": [";
  for (std::size_t i = 0; i < res.stats.metric_names.size(); ++i)
    out << (i ? ", " : "") << "\""
        << json_escape(res.stats.metric_names[i]) << "\"";
  out << "]\n  }\n}\n";
  return static_cast<bool>(out);
}

std::vector<std::string> split_csv_arg(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string cache_path, design_path, json_path, require_mutexes;
  std::vector<std::string> dirs;
  bool suggest = false, verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (arg == "--design" && i + 1 < argc) {
      design_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--require-mutexes" && i + 1 < argc) {
      require_mutexes = argv[++i];
    } else if (arg == "--suggest") {
      suggest = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-rules") {
      for (const auto id : snnsec::analyze::rule_ids())
        std::cout << "snnsec-" << id << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "snnsec_analyze: unknown option " << arg << "\n";
      print_usage();
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src"};

  Options opts;
  if (!design_path.empty()) {
    opts.design_source = read_file_or_empty(fs::path(root) / design_path);
    if (opts.design_source.empty()) {
      std::cerr << "snnsec_analyze: cannot read design file " << design_path
                << "\n";
      return 2;
    }
  }

  snnsec::lint::FileCache cache(
      cache_path, std::string(snnsec::analyze::analyze_cache_version()));

  std::vector<FileModel> models;
  std::size_t files = 0;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) {
      std::cerr << "snnsec_analyze: no such directory: " << base.string()
                << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string path = entry.path().generic_string();
      if (!snnsec::lint::lintable_file(path)) continue;
      ++files;
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "snnsec_analyze: cannot read " << path << "\n";
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string content = buf.str();
      const std::uint64_t digest = snnsec::lint::content_digest(content);
      FileModel model;
      bool cached = false;
      if (const auto payload = cache.lookup(path, digest))
        cached = snnsec::analyze::deserialize_model(*payload, path, model);
      if (!cached) {
        model = snnsec::analyze::extract_model(path, content);
        cache.store(path, digest, snnsec::analyze::serialize_model(model));
      }
      models.push_back(std::move(model));
    }
  }
  if (!cache.save())
    std::cerr << "snnsec_analyze: warning: could not write cache "
              << cache_path << "\n";

  const AnalyzeResult res = snnsec::analyze::analyze(models, opts);

  for (const Finding& f : res.findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
    if (suggest && !f.suggestion.empty())
      std::cout << "    fix: " << f.suggestion << "\n";
  }

  if (!json_path.empty() && !write_json(json_path, res)) {
    std::cerr << "snnsec_analyze: cannot write " << json_path << "\n";
    return 2;
  }

  int status = res.findings.empty() ? 0 : 1;
  if (!require_mutexes.empty()) {
    for (const std::string& want : split_csv_arg(require_mutexes)) {
      if (std::find(res.stats.mutexes.begin(), res.stats.mutexes.end(),
                    want) == res.stats.mutexes.end()) {
        std::cerr << "snnsec_analyze: required mutex \"" << want
                  << "\" missing from the lock-order model — extractor "
                  "coverage regressed\n";
        status = 2;
      }
    }
  }

  if (verbose) {
    std::cout << "snnsec_analyze: cache " << cache.hits() << " hit(s), "
              << cache.misses() << " miss(es)\n";
    std::cout << "snnsec_analyze: model: " << res.stats.functions
              << " functions, " << res.stats.hot_entries << " hot entries, "
              << res.stats.call_edges << " call edges, "
              << res.stats.mutexes.size() << " mutexes, "
              << res.stats.lock_edges.size() << " lock edges, "
              << res.stats.metric_names.size() << " metric names\n";
    for (const auto& e : res.stats.lock_edges)
      std::cout << "  lock-edge " << e.from << " -> " << e.to << " @ "
                << e.site << "\n";
  }
  std::cout << "snnsec_analyze: " << files << " files, "
            << res.findings.size() << " finding(s), " << res.suppressed.size()
            << " justified suppression(s)\n";
  return status;
}
