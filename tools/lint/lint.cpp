#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "source_view.hpp"

namespace snnsec::lint {

namespace {

bool is_header(std::string_view path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

bool path_contains(std::string_view path, std::string_view frag) {
  return path.find(frag) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Rule engine scaffolding.
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(const std::string& path, const std::string& content,
         const Options& opts)
      : path_(path), opts_(opts), view_(strip(content)) {
    // The hot-path marker must live in a comment: "// SNNSEC_HOT".
    for (const std::string& c : view_.comments)
      if (contains_word(c, "SNNSEC_HOT")) {
        hot_file_ = true;
        break;
      }
    joined_.reserve(content.size());
    for (const std::string& line : view_.code) {
      joined_ += line;
      joined_ += '\n';
    }
  }

  LintResult run() {
    rule_hot_alloc();
    rule_rng();
    rule_parallel_capture();
    rule_float_eq();
    rule_header_hygiene();
    rule_layer_contract();
    rule_nolint_justification();
    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(result_);
  }

 private:
  void report(int line, std::string rule, std::string message,
              std::string suggestion = {}) {
    Finding f{path_, line, "snnsec-" + rule, std::move(message),
              std::move(suggestion)};
    if (suppressed(line, f.rule)) {
      result_.suppressed.push_back(std::move(f));
    } else {
      result_.findings.push_back(std::move(f));
    }
  }

  bool suppressed(int line, const std::string& rule) const {
    return suppressed_at(view_, line, rule);
  }

  // R1 — heap traffic in SNNSEC_HOT files.
  void rule_hot_alloc() {
    if (!hot_file_) return;
    static constexpr std::string_view kGrowth[] = {
        ".resize(", ".reserve(", ".push_back(", ".emplace_back(", ".assign("};
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& c = view_.code[i];
      const int line = static_cast<int>(i) + 1;
      if (contains_word(c, "new") || contains_word(c, "malloc") ||
          contains_word(c, "calloc") || contains_word(c, "realloc")) {
        report(line, "hot-alloc",
               "naked heap allocation in a SNNSEC_HOT file",
               "take scratch from util::Workspace::local() inside a "
               "Workspace::Scope");
      }
      for (const std::string_view g : kGrowth) {
        if (c.find(g) != std::string::npos) {
          report(line, "hot-alloc",
                 std::string("container growth (") + std::string(g) +
                     "...) in a SNNSEC_HOT file",
                 "pre-size outside the hot loop or use util::Workspace "
                 "scratch");
          break;
        }
      }
    }
  }

  // R2 — nondeterministic randomness outside src/util/rng*.
  void rule_rng() {
    if (path_contains(path_, "src/util/rng")) return;
    static constexpr std::string_view kEngines[] = {
        "std::random_device", "std::mt19937", "std::minstd_rand",
        "std::default_random_engine"};
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& c = view_.code[i];
      const int line = static_cast<int>(i) + 1;
      for (const std::string_view e : kEngines) {
        if (c.find(e) != std::string::npos) {
          report(line, "rng",
                 std::string(e) + " breaks bit-deterministic sweeps",
                 "derive a stream from util::Rng::fork() so crash-safe "
                 "resume stays byte-identical");
          break;
        }
      }
      if (contains_word(c, "rand") || contains_word(c, "srand")) {
        report(line, "rng", "C rand()/srand() is not reproducible",
               "use util::Rng");
      }
      // time()- or clock-derived seeds.
      const bool time_call = find_word(c, "time") != std::string::npos &&
                             (c.find("time(0") != std::string::npos ||
                              c.find("time(NULL") != std::string::npos ||
                              c.find("time(nullptr") != std::string::npos);
      const bool chrono_seed = c.find("std::chrono") != std::string::npos &&
                               contains_word(c, "seed");
      if (time_call || chrono_seed) {
        report(line, "rng", "wall-clock-derived seed breaks reproducibility",
               "seeds must come from the experiment config master seed");
      }
    }
  }

  // R3 — shared mutable state captured by reference into parallel_for bodies.
  void rule_parallel_capture() {
    static constexpr std::string_view kSensitive[] = {"ws", "workspace",
                                                      "logger", "sink",
                                                      "metrics_sink"};
    std::size_t pos = 0;
    while (true) {
      std::size_t call = find_word(joined_, "parallel_for", pos);
      const std::size_t call_chunked =
          find_word(joined_, "parallel_for_chunked", pos);
      call = std::min(call, call_chunked);
      if (call == std::string::npos) return;
      const std::size_t open = joined_.find('(', call);
      if (open == std::string::npos) return;
      pos = open + 1;
      const std::size_t close = match(open, '(', ')');
      if (close == std::string::npos) return;
      const std::size_t lb = joined_.find('[', open);
      if (lb == std::string::npos || lb > close) continue;  // no lambda arg
      const std::size_t rb = match(lb, '[', ']');
      if (rb == std::string::npos || rb > close) continue;
      const std::string captures = joined_.substr(lb + 1, rb - lb - 1);
      const std::size_t body_open = joined_.find('{', rb);
      if (body_open == std::string::npos || body_open > close) continue;
      const std::size_t body_close = match(body_open, '{', '}');
      if (body_close == std::string::npos) continue;
      const std::string_view body(joined_.data() + body_open + 1,
                                  body_close - body_open - 1);
      const bool capture_all_ref = captures.find('&') != std::string::npos &&
                                   captures.find("&&") == std::string::npos;
      const bool has_guard = body.find("::local(") != std::string_view::npos ||
                             body.find("thread_local") !=
                                 std::string_view::npos;
      for (const std::string_view name : kSensitive) {
        bool explicit_ref = false;
        for (std::size_t q = captures.find('&'); q != std::string::npos;
             q = captures.find('&', q + 1)) {
          const std::size_t b = q + 1;
          if (captures.compare(b, name.size(), name) == 0 &&
              (b + name.size() >= captures.size() ||
               !ident_char(captures[b + name.size()]))) {
            explicit_ref = true;
            break;
          }
        }
        std::size_t use = find_word(body, name);
        bool used = false;
        while (use != std::string_view::npos) {
          const std::size_t after = use + name.size();
          std::size_t k = after;
          while (k < body.size() &&
                 std::isspace(static_cast<unsigned char>(body[k])))
            ++k;
          if (k < body.size() &&
              (body[k] == '.' ||
               (body[k] == '-' && k + 1 < body.size() && body[k + 1] == '>'))) {
            used = true;
            break;
          }
          use = find_word(body, name, use + 1);
        }
        if (used && (explicit_ref || capture_all_ref) && !has_guard) {
          report(line_of(lb), "parallel-capture",
                 "parallel_for body uses `" + std::string(name) +
                     "` captured by reference; workers would share one "
                     "mutable instance",
                 "re-derive a per-thread handle inside the body "
                 "(util::Workspace::local() guard pattern) or pass by value");
          break;
        }
      }
    }
  }

  // R4 — bare float ==/!=.
  void rule_float_eq() {
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::string& c = view_.code[i];
      for (std::size_t p = 0; p + 1 < c.size(); ++p) {
        if (c[p + 1] != '=' || (c[p] != '=' && c[p] != '!')) continue;
        if (p > 0 && (c[p - 1] == '<' || c[p - 1] == '>' || c[p - 1] == '=' ||
                      c[p - 1] == '!'))
          continue;
        if (p + 2 < c.size() && c[p + 2] == '=') continue;
        const std::string prev = token_before(c, p);
        const std::string next = token_after(c, p + 2);
        if (prev == "operator") continue;
        if (float_literal(prev) || float_literal(next)) {
          report(static_cast<int>(i) + 1, "float-eq",
                 "bare floating-point " + std::string(1, c[p]) +
                     "= comparison against `" +
                     (float_literal(prev) ? prev : next) + "`",
                 "compare |a-b| against a tolerance, or justify exactness "
                 "with NOLINT(snnsec-float-eq): <why exact>");
          ++p;
        }
      }
    }
  }

  // R5 — header hygiene.
  void rule_header_hygiene() {
    if (!is_header(path_)) return;
    bool pragma = false;
    for (const std::string& c : view_.code)
      if (c.find("#pragma once") != std::string::npos) pragma = true;
    if (!pragma)
      report(1, "header-hygiene", "header is missing #pragma once",
             "add `#pragma once` after the file comment");
    for (std::size_t i = 0; i < view_.code.size(); ++i) {
      const std::size_t p = view_.code[i].find("using namespace");
      if (p != std::string::npos)
        report(static_cast<int>(i) + 1, "header-hygiene",
               "`using namespace` at header scope leaks into every includer",
               "qualify names or move the using-directive into a function "
               "body in a .cpp");
    }
  }

  // R6 — Layer subclass contract + serialization registry membership.
  void rule_layer_contract() {
    if (!is_header(path_)) return;
    if (!(path_contains(path_, "src/nn") || path_contains(path_, "src/snn")))
      return;
    std::size_t pos = 0;
    while (true) {
      const std::size_t cls = find_word(joined_, "class", pos);
      if (cls == std::string::npos) return;
      pos = cls + 5;
      const std::size_t brace = joined_.find('{', cls);
      const std::size_t semi = joined_.find(';', cls);
      if (brace == std::string::npos) return;
      if (semi != std::string::npos && semi < brace) continue;  // fwd decl
      const std::string head = joined_.substr(cls, brace - cls);
      const std::size_t colon = head.find(':');
      if (colon == std::string::npos) continue;
      const std::string_view bases = std::string_view(head).substr(colon + 1);
      if (!contains_word(bases, "Layer")) continue;
      std::istringstream hs(head.substr(5, colon - 5));
      std::string name_tok, cur;
      bool is_final = false;
      while (hs >> cur) {
        if (cur == "final")
          is_final = true;
        else
          name_tok = cur;
      }
      if (!is_final) continue;  // abstract bases define the contract partially
      const std::size_t end = match(brace, '{', '}');
      if (end == std::string::npos) return;
      const std::string_view body(joined_.data() + brace + 1,
                                  end - brace - 1);
      const int line = line_of(cls);
      const auto overrides = [&](std::string_view fn) {
        std::size_t q = find_word(body, fn);
        while (q != std::string_view::npos) {
          const std::size_t paren = body.find('(', q);
          if (paren != std::string_view::npos &&
              body.find("override", q) != std::string_view::npos)
            return true;
          q = find_word(body, fn, q + 1);
        }
        return false;
      };
      for (const std::string_view fn :
           {std::string_view("forward"), std::string_view("backward"),
            std::string_view("kind")}) {
        if (!overrides(fn))
          report(line, "layer-contract",
                 "Layer subclass `" + name_tok + "` does not override " +
                     std::string(fn) + "()",
                 "every concrete layer implements forward/backward (manual "
                 "backprop contract) and kind() (serialization identity)");
      }
      if (!opts_.registry_source.empty() &&
          opts_.registry_source.find('"' + name_tok + '"') ==
              std::string::npos) {
        report(line, "layer-contract",
               "Layer subclass `" + name_tok +
                   "` is missing from the serialization registry",
               "add {\"" + name_tok +
                   "\", ...} to src/nn/layer_registry.cpp so checkpoints "
                   "fingerprint the architecture");
      }
      pos = end;
    }
  }

  // Meta-rule — snnsec NOLINTs demand a justification.
  void rule_nolint_justification() {
    for (std::size_t i = 0; i < view_.comments.size(); ++i) {
      for (const Suppression& s : parse_suppressions(view_.comments[i])) {
        if (!s.justified) {
          result_.findings.push_back(
              Finding{path_, static_cast<int>(i) + 1,
                      "snnsec-nolint-justification",
                      "NOLINT(" + (s.rules.empty() ? "" : s.rules.front()) +
                          ") without a justification — suppression ignored",
                      "write `NOLINT(snnsec-<rule>): <why this line is "
                      "exempt>`"});
        }
      }
    }
  }

  // --- helpers -----------------------------------------------------------

  /// Index of the character matching the opener at `open` in joined_.
  std::size_t match(std::size_t open, char lhs, char rhs) const {
    int depth = 0;
    for (std::size_t i = open; i < joined_.size(); ++i) {
      if (joined_[i] == lhs) ++depth;
      if (joined_[i] == rhs && --depth == 0) return i;
    }
    return std::string::npos;
  }

  int line_of(std::size_t offset) const {
    return 1 + static_cast<int>(
                   std::count(joined_.begin(),
                              joined_.begin() +
                                  static_cast<std::ptrdiff_t>(offset), '\n'));
  }

  static std::string token_before(const std::string& s, std::size_t p) {
    std::size_t e = p;
    while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    std::size_t b = e;
    while (b > 0 &&
           (ident_char(s[b - 1]) || s[b - 1] == '.' ||
            // a +/- glued to a preceding e/E is an exponent sign (1e-3)
            ((s[b - 1] == '-' || s[b - 1] == '+') && b >= 2 &&
             (s[b - 2] == 'e' || s[b - 2] == 'E'))))
      --b;
    return s.substr(b, e - b);
  }

  static std::string token_after(const std::string& s, std::size_t p) {
    std::size_t b = p;
    while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    if (b < s.size() && (s[b] == '-' || s[b] == '+')) ++b;  // signed literal
    std::size_t e = b;
    while (e < s.size() &&
           (ident_char(s[e]) || s[e] == '.' ||
            ((s[e] == '-' || s[e] == '+') && e > b &&
             (s[e - 1] == 'e' || s[e - 1] == 'E'))))
      ++e;
    return s.substr(b, e - b);
  }

  /// "1.0f", "0.", ".5", "1e-3f", "2.5e4" — digits with a dot or exponent.
  static bool float_literal(const std::string& tok) {
    if (tok.empty()) return false;
    bool digit = false, dot = false, exp = false;
    for (std::size_t i = 0; i < tok.size(); ++i) {
      const char c = tok[i];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digit = true;
      } else if (c == '.') {
        if (dot) return false;
        dot = true;
      } else if ((c == 'e' || c == 'E') && digit && !exp && i + 1 < tok.size()) {
        exp = true;
      } else if ((c == '-' || c == '+') && i > 0 &&
                 (tok[i - 1] == 'e' || tok[i - 1] == 'E')) {
        // exponent sign
      } else if ((c == 'f' || c == 'F') && i == tok.size() - 1) {
        // suffix ok
      } else {
        return false;
      }
    }
    return digit && (dot || exp);
  }

  const std::string path_;
  const Options& opts_;
  SourceView view_;
  std::string joined_;
  bool hot_file_ = false;
  LintResult result_;
};

}  // namespace

const std::vector<std::string_view>& rule_ids() {
  static const std::vector<std::string_view> kIds = {
      "hot-alloc",       "rng",           "parallel-capture",
      "float-eq",        "header-hygiene", "layer-contract",
      "nolint-justification"};
  return kIds;
}

LintResult lint_source(const std::string& path, const std::string& content,
                       const Options& opts) {
  return Linter(path, content, opts).run();
}

LintResult lint_file(const std::string& path, const Options& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snnsec_lint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str(), opts);
}

bool lintable_file(std::string_view path) {
  return path.ends_with(".hpp") || path.ends_with(".h") ||
         path.ends_with(".cpp") || path.ends_with(".cc");
}

// --- shared-cache plumbing -------------------------------------------------
//
// Payload: one record per line; fields separated by 0x1f (unit separator,
// which cannot appear in rule IDs and never appears in the messages the
// rules emit). First field tags the record: F = finding, S = suppressed.

std::string_view lint_cache_version() { return "lint-v2"; }

namespace {

constexpr char kFieldSep = '\x1f';

void append_record(std::string& out, char tag, const Finding& f) {
  out += tag;
  out += kFieldSep;
  out += std::to_string(f.line);
  out += kFieldSep;
  out += f.rule;
  out += kFieldSep;
  out += f.message;
  out += kFieldSep;
  out += f.suggestion;
  out += '\n';
}

}  // namespace

std::string serialize_result(const LintResult& result) {
  std::string out;
  for (const Finding& f : result.findings) append_record(out, 'F', f);
  for (const Finding& f : result.suppressed) append_record(out, 'S', f);
  return out;
}

bool deserialize_result(const std::string& payload, const std::string& path,
                        LintResult& out) {
  out = {};
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      const std::size_t sep = line.find(kFieldSep, pos);
      if (sep == std::string::npos) {
        fields.push_back(line.substr(pos));
        break;
      }
      fields.push_back(line.substr(pos, sep - pos));
      pos = sep + 1;
    }
    if (fields.size() != 5 || fields[0].size() != 1) return false;
    Finding f{path, 0, fields[2], fields[3], fields[4]};
    try {
      f.line = std::stoi(fields[1]);
    } catch (const std::exception&) {
      return false;
    }
    if (fields[0][0] == 'F') {
      out.findings.push_back(std::move(f));
    } else if (fields[0][0] == 'S') {
      out.suppressed.push_back(std::move(f));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace snnsec::lint
