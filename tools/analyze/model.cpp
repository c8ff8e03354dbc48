// Per-TU model extraction for snnsec_analyze.
//
// The extractor is a single forward scan over the stripped code view (string
// literals and comments blanked, so nothing inside them can look like code).
// It is name-resolution-lite by design: no templates are instantiated, no
// overloads resolved. What it recovers — function boundaries, class member
// tables, lock-guard scopes, call chains, writes — is exactly the vocabulary
// the whole-program analyses in analyze.cpp need, and nothing more.
#include "analyze.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "source_view.hpp"

namespace snnsec::analyze {

namespace {

using lint::contains_word;
using lint::find_word;
using lint::ident_char;

constexpr char kFieldSep = '\x1f';

// --- small string helpers --------------------------------------------------

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Collapse runs of whitespace to single spaces (member type normalization).
std::string squeeze(std::string_view s) {
  std::string out;
  bool in_ws = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_ws = true;
      continue;
    }
    if (in_ws && !out.empty()) out.push_back(' ');
    in_ws = false;
    out.push_back(c);
  }
  return out;
}

bool is_keyword(std::string_view w) {
  static const std::array<std::string_view, 22> kw = {
      "if",     "for",      "while",  "switch",   "catch",    "return",
      "do",     "else",     "new",    "delete",   "throw",    "sizeof",
      "case",   "default",  "goto",   "co_await", "co_yield", "co_return",
      "static_assert",      "alignas", "alignof", "decltype"};
  return std::find(kw.begin(), kw.end(), w) != kw.end();
}

/// Last identifier in a string ("Server::finalize" -> "finalize").
std::string last_ident(std::string_view s) {
  std::size_t e = s.size();
  while (e > 0 && !ident_char(s[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return std::string(s.substr(b, e - b));
}

// --- joined code view with line mapping ------------------------------------

/// The scanner works over one flat string; `line_of` maps an offset back to
/// the 1-based source line for findings and effect records.
struct FlatView {
  std::string text;
  std::vector<int> line_at;  ///< line_at[i] = 1-based line of text[i]

  int line_of(std::size_t pos) const {
    if (pos >= line_at.size()) return line_at.empty() ? 1 : line_at.back();
    return line_at[pos];
  }
};

FlatView flatten(const std::vector<std::string>& code) {
  FlatView flat;
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (char c : code[i]) {
      flat.text.push_back(c);
      flat.line_at.push_back(static_cast<int>(i) + 1);
    }
    flat.text.push_back('\n');
    flat.line_at.push_back(static_cast<int>(i) + 1);
  }
  return flat;
}

// --- token scanning over the flat view -------------------------------------

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

std::size_t prev_nonspace(const std::string& s, std::size_t i) {
  while (i > 0) {
    --i;
    if (!std::isspace(static_cast<unsigned char>(s[i]))) return i;
  }
  return std::string::npos;
}

std::string read_ident(const std::string& s, std::size_t i) {
  std::size_t e = i;
  while (e < s.size() && ident_char(s[e])) ++e;
  return s.substr(i, e - i);
}

/// Read a member/call chain forward from an identifier start:
/// ident((::|.|->)ident)*. Returns the chain text and the end offset.
std::pair<std::string, std::size_t> read_chain(const std::string& s,
                                               std::size_t i) {
  std::string chain;
  std::size_t pos = i;
  for (;;) {
    std::string id = read_ident(s, pos);
    if (id.empty()) break;
    chain += id;
    pos += id.size();
    std::size_t j = skip_ws(s, pos);
    if (j + 1 < s.size() && s[j] == ':' && s[j + 1] == ':') {
      chain += "::";
      pos = j + 2;
    } else if (j + 1 < s.size() && s[j] == '.' && ident_char(s[j + 1]) &&
               !std::isdigit(static_cast<unsigned char>(s[j + 1]))) {
      chain += ".";
      pos = j + 1;
    } else if (j + 2 < s.size() && s[j] == '-' && s[j + 1] == '>' &&
               j + 2 < s.size() && ident_char(s[j + 2])) {
      chain += ".";
      pos = j + 2;
    } else {
      pos = j;
      break;
    }
  }
  return {chain, pos};
}

/// Find the matching close bracket for the open bracket at `i` (which must be
/// one of ( [ {). Returns npos if unbalanced.
std::size_t match_bracket(const std::string& s, std::size_t i) {
  const char open = s[i];
  const char close = open == '(' ? ')' : open == '[' ? ']' : '}';
  int depth = 0;
  for (std::size_t j = i; j < s.size(); ++j) {
    if (s[j] == open) ++depth;
    else if (s[j] == close && --depth == 0) return j;
  }
  return std::string::npos;
}

/// Split a bracketed argument list (text between parens, exclusive) at
/// top-level commas.
std::vector<std::string> split_args(std::string_view inner) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < inner.size(); ++i) {
    const char c = inner[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    else if (c == ',' && depth <= 0) {
      out.push_back(trim(inner.substr(start, i - start)));
      start = i + 1;
    }
  }
  std::string tail = trim(inner.substr(start));
  if (!tail.empty() || !out.empty()) out.push_back(std::move(tail));
  return out;
}

// --- function-header parsing -----------------------------------------------

/// Find the first '(' in `header` that sits at top level with respect to
/// template angle brackets. Heuristic angle tracking: '<' after an identifier
/// char opens a template list; '>' closes one unless it follows '-'.
std::size_t first_toplevel_paren(const std::string& header, std::size_t from) {
  int angle = 0;
  for (std::size_t i = from; i < header.size(); ++i) {
    const char c = header[i];
    if (c == '<' && i > 0 && (ident_char(header[i - 1]) || header[i - 1] == ' '))
      ++angle;
    else if (c == '>' && angle > 0 && (i == 0 || header[i - 1] != '-'))
      --angle;
    else if (c == '(' && angle == 0)
      return i;
  }
  return std::string::npos;
}

struct HeaderParse {
  bool ok = false;
  std::string name;  ///< unqualified
  std::string qual;  ///< explicit "A::B" qualifier, "" if none
  std::vector<std::pair<std::string, std::string>> params;  ///< name -> type
};

/// Try to parse `header` (all accumulated text since the last ; { } boundary,
/// code view, single line via squeeze) as a function definition header whose
/// body '{' follows. Handles qualifiers, attribute macros before the name,
/// ctor-initializers, trailing return types.
HeaderParse parse_function_header(const std::string& raw_header) {
  HeaderParse hp;
  const std::string header = squeeze(raw_header);
  if (header.empty()) return hp;

  std::size_t search = 0;
  while (true) {
    const std::size_t paren = first_toplevel_paren(header, search);
    if (paren == std::string::npos) return hp;
    const std::size_t close = match_bracket(header, paren);
    if (close == std::string::npos) return hp;
    search = paren + 1;  // next candidate on failure

    // The token just before '(' must be an identifier (the function name) or
    // an operator spelling.
    std::size_t name_end = paren;
    while (name_end > 0 &&
           std::isspace(static_cast<unsigned char>(header[name_end - 1])))
      --name_end;
    if (name_end == 0) continue;
    std::string name, qual;
    if (ident_char(header[name_end - 1])) {
      std::size_t name_begin = name_end;
      while (name_begin > 0 && ident_char(header[name_begin - 1])) --name_begin;
      name = header.substr(name_begin, name_end - name_begin);
      if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
        continue;
      if (is_keyword(name)) continue;
      if (name_begin > 0 && header[name_begin - 1] == '~') {
        name = "~" + name;
        --name_begin;
      }
      // Explicit qualification: A::B::name
      std::size_t q = name_begin;
      while (q >= 2 && header[q - 1] == ':' && header[q - 2] == ':') {
        std::size_t seg_end = q - 2;
        std::size_t seg_begin = seg_end;
        while (seg_begin > 0 && (ident_char(header[seg_begin - 1]) ||
                                 header[seg_begin - 1] == '~'))
          --seg_begin;
        if (seg_begin == seg_end) break;
        qual = header.substr(seg_begin, seg_end - seg_begin) +
               (qual.empty() ? "" : "::" + qual);
        q = seg_begin;
      }
      // Reject declarations/statements: a top-level '=' before the name means
      // this is an initializer (e.g. `auto f = [...](...)`), handled as a
      // lambda inside the enclosing function, or a global we don't model.
      const std::size_t eq = header.find('=');
      if (eq != std::string::npos && eq < paren &&
          (eq + 1 >= header.size() || header[eq + 1] != '=') &&
          (eq == 0 || (header[eq - 1] != '!' && header[eq - 1] != '<' &&
                       header[eq - 1] != '>' && header[eq - 1] != '=')))
        continue;
      // Reject control-flow keywords that own the parens.
      bool keyworded = false;
      for (std::string_view kw :
           {"if", "for", "while", "switch", "catch", "return"}) {
        if (name == kw) keyworded = true;
      }
      if (keyworded) continue;
    } else {
      // operator overload: scan back for the "operator" keyword.
      const std::size_t op = header.rfind("operator", name_end);
      if (op == std::string::npos) continue;
      const std::string sym = trim(header.substr(op + 8, name_end - op - 8));
      if (sym.size() > 3) continue;
      name = "operator" + sym;
    }

    // Validate everything after ')': qualifiers, trailing return, ctor-init,
    // or nothing. Anything else means this '(' was not the parameter list.
    std::string after = trim(header.substr(close + 1));
    bool valid = true;
    while (valid && !after.empty()) {
      if (after[0] == ':' || after.compare(0, 2, "->") == 0) break;  // accept
      bool matched = false;
      for (std::string_view q2 : {"const", "noexcept", "override", "final",
                                  "mutable", "try", "&&", "&", "-> "}) {
        if (after.compare(0, q2.size(), q2) == 0) {
          after = trim(after.substr(q2.size()));
          if (q2 == "noexcept" && !after.empty() && after[0] == '(') {
            const std::size_t nc = match_bracket(after, 0);
            if (nc == std::string::npos) { valid = false; break; }
            after = trim(after.substr(nc + 1));
          }
          matched = true;
          break;
        }
      }
      if (!matched) valid = false;
    }
    if (!valid) continue;

    hp.ok = true;
    hp.name = name;
    hp.qual = qual;
    for (const std::string& arg :
         split_args(std::string_view(header).substr(paren + 1, close - paren - 1))) {
      if (arg.empty() || arg == "void") continue;
      // Strip default argument.
      std::string a = arg;
      int depth = 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const char c = a[i];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        else if (c == '=' && depth == 0) { a = trim(a.substr(0, i)); break; }
      }
      const std::string pname = last_ident(a);
      if (pname.empty() || is_keyword(pname)) continue;
      const std::size_t name_pos = a.rfind(pname);
      if (name_pos == std::string::npos) continue;
      const std::string ptype = squeeze(a.substr(0, name_pos));
      if (ptype.empty()) continue;  // unnamed or type-only param
      hp.params.emplace_back(pname, ptype);
    }
    return hp;
  }
}

// --- body scanning ---------------------------------------------------------

bool lock_guard_type(std::string_view id) {
  return id == "lock_guard" || id == "unique_lock" || id == "scoped_lock" ||
         id == "shared_lock";
}

struct Guard {
  std::string var;
  std::vector<std::string> mutexes;
  int depth = 0;
  bool active = true;
};

bool is_io_token(std::string_view id) {
  static const std::array<std::string_view, 13> io = {
      "cout",  "cerr",  "clog",  "printf",   "fprintf", "puts",   "fputs",
      "fopen", "fwrite", "fread", "ofstream", "ifstream", "fstream"};
  return std::find(io.begin(), io.end(), id) != io.end();
}

bool alloc_method(std::string_view id) {
  static const std::array<std::string_view, 7> m = {
      "resize", "reserve", "push_back", "emplace_back", "assign", "push",
      "emplace"};
  return std::find(m.begin(), m.end(), id) != m.end();
}

bool write_op_at(const std::string& s, std::size_t i) {
  // =, +=, -=, *=, /=, |=, &=, ^= — but not ==, <=, >=, !=.
  if (i >= s.size()) return false;
  if (s[i] == '=') {
    if (i + 1 < s.size() && s[i + 1] == '=') return false;
    if (i > 0 && (s[i - 1] == '=' || s[i - 1] == '!' || s[i - 1] == '<' ||
                  s[i - 1] == '>'))
      return false;
    return true;
  }
  if (i + 1 < s.size() && s[i + 1] == '=' &&
      (s[i] == '+' || s[i] == '-' || s[i] == '*' || s[i] == '/' ||
       s[i] == '|' || s[i] == '&' || s[i] == '^'))
    return true;
  return false;
}

class Extractor {
 public:
  Extractor(const std::string& path, const lint::SourceView& view)
      : path_(path), view_(view), flat_(flatten(view.code)) {}

  FileModel run() {
    FileModel model;
    model.path = path_;
    collect_file_level(model);
    scan(model);
    return model;
  }

 private:
  const std::string& path_;
  const lint::SourceView& view_;
  FlatView flat_;

  // Scope stack entries: namespaces are transparent (not recorded); classes
  // contribute to the class path.
  std::vector<std::string> class_stack_;
  std::vector<ClassInfo>* classes_ = nullptr;

  void collect_file_level(FileModel& model) {
    // Hot-file marker, includes, metric uses, suppressions: all per-line.
    for (std::size_t i = 0; i < view_.comments.size(); ++i) {
      if (contains_word(view_.comments[i], "SNNSEC_HOT")) model.hot_file = true;
      for (const lint::Suppression& sup :
           lint::parse_suppressions(view_.comments[i])) {
        for (const std::string& rule : sup.rules) {
          SuppressionLine sl;
          sl.line = static_cast<int>(i) + 1;
          sl.rule = rule;
          sl.justified = sup.justified;
          sl.next_line = sup.next_line;
          model.suppressions.push_back(std::move(sl));
        }
      }
    }
    for (std::size_t i = 0; i < view_.raw.size(); ++i) {
      const std::string& raw = view_.raw[i];
      // Includes must come from the raw view: the code view blanks the path.
      std::size_t h = raw.find('#');
      if (h != std::string::npos) {
        std::size_t j = skip_ws(raw, h + 1);
        if (raw.compare(j, 7, "include") == 0) {
          j = skip_ws(raw, j + 7);
          if (j < raw.size() && raw[j] == '"') {
            const std::size_t end = raw.find('"', j + 1);
            if (end != std::string::npos) {
              IncludeDecl inc;
              inc.line = static_cast<int>(i) + 1;
              inc.path = raw.substr(j + 1, end - j - 1);
              model.includes.push_back(std::move(inc));
            }
          }
        }
      }
      // Metric/trace name literals: only on lines whose *code* view carries an
      // emission token, so arbitrary strings elsewhere are never collected.
      const std::string& code = i < view_.code.size() ? view_.code[i] : raw;
      static const std::array<std::string_view, 11> emitters = {
          "SNNSEC_COUNTER_ADD", "SNNSEC_GAUGE_SET", "SNNSEC_GAUGE_ADD",
          "SNNSEC_HISTOGRAM_OBSERVE", "SNNSEC_TRACE_SCOPE", "counter_add",
          "gauge_set", "histogram_observe", "counter", "gauge", "histogram"};
      bool emits = false;
      for (std::string_view tok : emitters)
        if (contains_word(code, tok)) { emits = true; break; }
      if (!emits) continue;
      std::size_t pos = 0;
      while ((pos = raw.find('"', pos)) != std::string::npos) {
        const std::size_t end = raw.find('"', pos + 1);
        if (end == std::string::npos) break;
        const std::string lit = raw.substr(pos + 1, end - pos - 1);
        pos = end + 1;
        if (metric_name(lit)) {
          MetricUse use;
          use.line = static_cast<int>(i) + 1;
          use.name = lit;
          model.metrics.push_back(std::move(use));
        }
      }
    }
  }

  static bool metric_name(std::string_view lit) {
    static const std::array<std::string_view, 5> prefixes = {
        "serve.", "tensor.", "attack.", "pool.", "fleet."};
    bool prefixed = false;
    for (std::string_view p : prefixes)
      if (lit.size() > p.size() && lit.compare(0, p.size(), p) == 0)
        prefixed = true;
    if (!prefixed) return false;
    for (char c : lit) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.'))
        return false;
    }
    return true;
  }

  // --- top-level structural scan -------------------------------------------

  void scan(FileModel& model) {
    classes_ = &model.classes;
    const std::string& s = flat_.text;
    std::string header;       ///< accumulated text since last boundary
    std::size_t header_line = 0;  ///< flat offset where header started
    std::size_t i = 0;
    // Brace kinds on the structural stack.
    enum class Brace { kNamespace, kClass, kBlock };
    std::vector<Brace> braces;

    while (i < s.size()) {
      const char c = s[i];
      if (c == '#' && at_line_start(s, i)) {
        // Preprocessor line (with continuations) — not part of any header.
        while (i < s.size() && s[i] != '\n') {
          if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') ++i;
          ++i;
        }
        continue;
      }
      if (c == ';') {
        if (!braces.empty() && braces.back() == Brace::kClass)
          record_member(header);
        header.clear();
        header_line = i + 1;
        ++i;
        continue;
      }
      if (c == '}') {
        if (!braces.empty()) {
          if (braces.back() == Brace::kClass && !class_stack_.empty())
            class_stack_.pop_back();
          braces.pop_back();
        }
        header.clear();
        header_line = i + 1;
        ++i;
        continue;
      }
      if (c == '{') {
        const std::string sq = squeeze(header);
        if (contains_word(sq, "namespace")) {
          braces.push_back(Brace::kNamespace);
          header.clear();
          header_line = i + 1;
          ++i;
          continue;
        }
        if (contains_word(sq, "enum")) {
          // enum bodies carry no code we model; fast-forward.
          const std::size_t close = match_bracket(s, i);
          i = close == std::string::npos ? s.size() : close + 1;
          header.clear();
          header_line = i;
          continue;
        }
        HeaderParse hp = parse_function_header(header);
        if (hp.ok) {
          FunctionInfo fn;
          fn.name = hp.name;
          fn.cls = !hp.qual.empty() ? hp.qual : join_class_stack();
          fn.line = flat_.line_of(first_code_offset(header_line, i));
          fn.params = std::move(hp.params);
          fn.hot_entry = hot_entry_at(fn.line);
          const std::size_t close = match_bracket(s, i);
          const std::size_t body_end =
              close == std::string::npos ? s.size() : close;
          scan_body(s, i + 1, body_end, fn);
          model.functions.push_back(std::move(fn));
          i = body_end < s.size() ? body_end + 1 : s.size();
          header.clear();
          header_line = i;
          continue;
        }
        if ((contains_word(sq, "class") || contains_word(sq, "struct") ||
             contains_word(sq, "union")) &&
            sq.find('(') == std::string::npos) {
          std::string cname = class_name_from_header(sq);
          if (!cname.empty()) {
            class_stack_.push_back(cname);
            ClassInfo info;
            info.path = join_class_stack();
            classes_->push_back(std::move(info));
            braces.push_back(Brace::kClass);
            header.clear();
            header_line = i + 1;
            ++i;
            continue;
          }
        }
        // Anything else outside a function: an initializer brace, an array,
        // a lambda in a global init. Fast-forward to the matching '}' and
        // keep it inside the header as "{}" so the boundary logic stays
        // consistent (member `std::atomic<int> x{0};` still parses).
        const std::size_t close = match_bracket(s, i);
        header += "{}";
        i = close == std::string::npos ? s.size() : close + 1;
        continue;
      }
      header.push_back(c);
      ++i;
    }
  }

  static bool at_line_start(const std::string& s, std::size_t i) {
    while (i > 0) {
      --i;
      if (s[i] == '\n') return true;
      if (!std::isspace(static_cast<unsigned char>(s[i]))) return false;
    }
    return true;
  }

  std::size_t first_code_offset(std::size_t from, std::size_t to) const {
    const std::string& s = flat_.text;
    for (std::size_t i = from; i < to; ++i)
      if (!std::isspace(static_cast<unsigned char>(s[i]))) return i;
    return to;
  }

  std::string join_class_stack() const {
    std::string out;
    for (const std::string& c : class_stack_) {
      if (!out.empty()) out += "::";
      out += c;
    }
    return out;
  }

  static std::string class_name_from_header(const std::string& sq) {
    // Name = identifier after the last class/struct/union keyword, skipping
    // attribute-ish ALL_CAPS macros, stopping before ':' (bases) or "final".
    std::size_t pos = std::string::npos;
    for (std::string_view kw : {"class", "struct", "union"}) {
      const std::size_t p = find_word(sq, kw);
      if (p != std::string::npos && (pos == std::string::npos || p > pos))
        pos = p + kw.size();
    }
    if (pos == std::string::npos) return "";
    std::string name;
    std::size_t i = pos;
    while (i < sq.size()) {
      i = skip_ws(sq, i);
      std::string id = read_ident(sq, i);
      if (id.empty()) break;
      if (id == "final") break;
      name = id;
      i += id.size();
      if (i < sq.size() && sq[i] == ':') break;
    }
    return name;
  }

  bool hot_entry_at(int line) const {
    // Function-level marker: a SNNSEC_HOT comment on the definition line or
    // within 3 lines above it — but never line 1, which is the file-level
    // marker convention.
    for (int l = line; l >= std::max(2, line - 3); --l) {
      const std::size_t idx = static_cast<std::size_t>(l) - 1;
      if (idx < view_.comments.size() &&
          contains_word(view_.comments[idx], "SNNSEC_HOT"))
        return true;
    }
    return false;
  }

  // --- member declarations (class scope, at ';') ---------------------------

  void record_member(const std::string& header) {
    // Target the ClassInfo for the *current* class path: after a nested class
    // closes, later members belong to the enclosing class again, not to
    // whatever was pushed last.
    const std::string path = join_class_stack();
    ClassInfo* target = nullptr;
    for (auto it = classes_->rbegin(); it != classes_->rend(); ++it) {
      if (it->path == path) {
        target = &*it;
        break;
      }
    }
    if (target == nullptr) return;
    std::string sq = squeeze(header);
    // Strip access labels anywhere in the accumulated header.
    for (std::string_view label : {"public :", "private :", "protected :",
                                   "public:", "private:", "protected:"}) {
      std::size_t p;
      while ((p = sq.find(label)) != std::string::npos)
        sq.erase(p, label.size());
    }
    sq = trim(sq);
    if (sq.empty()) return;
    for (std::string_view skip : {"using", "typedef", "friend", "static_assert",
                                  "template", "enum", "class", "struct"}) {
      if (sq.compare(0, skip.size(), skip) == 0 &&
          (sq.size() == skip.size() || !ident_char(sq[skip.size()])))
        return;
    }
    // A top-level '(' before any '=' means a function declaration, not a
    // data member ("void f() const;").
    const std::size_t paren = first_toplevel_paren(sq, 0);
    std::size_t eq = std::string::npos;
    {
      int depth = 0;
      for (std::size_t i = 0; i < sq.size(); ++i) {
        const char c = sq[i];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        else if (c == '=' && depth == 0 &&
                 (i + 1 >= sq.size() || sq[i + 1] != '=')) {
          eq = i;
          break;
        }
      }
    }
    if (paren != std::string::npos && (eq == std::string::npos || paren < eq))
      return;
    std::string decl = eq == std::string::npos ? sq : trim(sq.substr(0, eq));
    // Brace initializer remnants ("{}") from the structural fast-forward.
    const std::size_t brace = decl.find('{');
    if (brace != std::string::npos) decl = trim(decl.substr(0, brace));
    const std::string name = last_ident(decl);
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])))
      return;
    if (is_keyword(name)) return;
    std::string type = squeeze(decl.substr(0, decl.rfind(name)));
    if (type.empty()) return;
    MemberDecl m;
    m.name = name;
    m.type = std::move(type);
    target->members.push_back(std::move(m));
  }

  // --- function-body scan --------------------------------------------------

  void scan_body(const std::string& s, std::size_t begin, std::size_t end,
                 FunctionInfo& fn) {
    std::vector<Guard> guards;
    int depth = 1;
    std::size_t i = begin;
    auto held = [&guards]() {
      std::vector<std::string> out;
      for (const Guard& g : guards)
        if (g.active)
          for (const std::string& m : g.mutexes) out.push_back(m);
      return out;
    };

    while (i < end) {
      const char c = s[i];
      if (c == '#' && at_line_start(s, i)) {
        while (i < end && s[i] != '\n') {
          if (s[i] == '\\' && i + 1 < end && s[i + 1] == '\n') ++i;
          ++i;
        }
        continue;
      }
      if (c == '{') { ++depth; ++i; continue; }
      if (c == '}') {
        --depth;
        // Guards declared inside the block that just closed die with it;
        // guards declared at the now-current depth stay live.
        while (!guards.empty() && guards.back().depth > depth)
          guards.pop_back();
        ++i;
        if (depth == 0) break;
        continue;
      }
      if (!ident_char(c) || (i > 0 && ident_char(s[i - 1]))) { ++i; continue; }

      const int line = flat_.line_of(i);
      // Declaration filter: a chain whose previous non-space char is an
      // identifier char, '>', '&' or '*' is the declared name, not a use —
      // unless that identifier is a value-context keyword (`else f();`,
      // `return f();`), which introduces an expression, not a declarator.
      const std::size_t prev = prev_nonspace(s, i);
      bool declared =
          prev != std::string::npos &&
          (ident_char(s[prev]) || s[prev] == '>' || s[prev] == '&' ||
           s[prev] == '*');
      if (declared && ident_char(s[prev])) {
        std::size_t w = prev;
        while (w > 0 && ident_char(s[w - 1])) --w;
        const std::string pw = s.substr(w, prev - w + 1);
        if (pw == "else" || pw == "return" || pw == "throw" ||
            pw == "case" || pw == "do" || pw == "co_return" ||
            pw == "co_await" || pw == "co_yield")
          declared = false;
      }

      auto [chain, after] = read_chain(s, i);
      if (chain.empty()) { ++i; continue; }
      const std::string head = chain.substr(0, chain.find_first_of(".:"));
      std::string tail = last_ident(chain);

      // -- allocation / io / new --
      if (chain == "new" || head == "new") {
        fn.allocs.push_back({line, "new"});
        i = after;
        continue;
      }
      if (!declared && (chain == "malloc" || chain == "calloc" ||
                        chain == "realloc" || chain == "std::malloc")) {
        if (after < end && s[skip_ws(s, after)] == '(')
          fn.allocs.push_back({line, last_ident(chain)});
        i = after;
        continue;
      }

      // -- lock guard declarations --
      if (lock_guard_type(tail) &&
          (head == "std" || lock_guard_type(head))) {
        i = handle_guard_decl(s, after, end, depth, guards, fn, line);
        continue;
      }

      // -- local std::mutex --
      if ((chain == "std::mutex" || chain == "mutex") && !declared) {
        const std::size_t j = skip_ws(s, after);
        const std::string var = read_ident(s, j);
        if (!var.empty() && !is_keyword(var)) {
          const std::size_t k = skip_ws(s, j + var.size());
          if (k < end && (s[k] == ';' || s[k] == '{'))
            fn.local_mutexes.push_back(var);
        }
        i = after;
        continue;
      }

      // -- reference/pointer locals: Type& name = ... / Type* name = ... --
      if (!declared && after < end) {
        const std::size_t j = skip_ws(s, after);
        if (j < end && (s[j] == '&' || s[j] == '*')) {
          std::size_t k = skip_ws(s, j + 1);
          const std::string var = read_ident(s, k);
          if (!var.empty() && !is_keyword(var) && chain.find('.') == std::string::npos) {
            const std::size_t m = skip_ws(s, k + var.size());
            // '=' is an initialized local; ';'/'{' covers reference/pointer
            // members of function-local structs (InFlightGuard-style).
            if (m < end && (s[m] == '=' || s[m] == ';' || s[m] == '{'))
              fn.locals.emplace_back(var, chain);
          }
        }
      }

      const std::size_t call_paren = skip_ws(s, after);
      const bool is_call = call_paren < end && s[call_paren] == '(';

      // -- explicit unlock()/lock() on a guard variable --
      if (is_call && (tail == "unlock" || tail == "lock") &&
          chain.find('.') != std::string::npos) {
        const std::string base = chain.substr(0, chain.rfind('.'));
        bool was_guard = false;
        for (Guard& g : guards)
          if (g.var == base) {
            g.active = (tail == "lock");
            was_guard = true;
          }
        if (was_guard) {
          i = after;
          continue;
        }
      }

      // -- waits / blocking sites --
      if (is_call &&
          (tail == "wait" || tail == "wait_for" || tail == "wait_until") &&
          chain.find('.') != std::string::npos) {
        WaitSite w;
        w.line = line;
        w.what = "cv.wait";
        const std::size_t close = match_bracket(s, call_paren);
        if (close != std::string::npos) {
          const auto args =
              split_args(std::string_view(s).substr(call_paren + 1,
                                                    close - call_paren - 1));
          if (!args.empty()) {
            const std::string lock_var = last_ident(
                args[0].substr(0, args[0].find_first_of(".([")));
            for (const Guard& g : guards)
              if (g.var == lock_var && !g.mutexes.empty())
                w.released = g.mutexes.front();
            if (w.released.empty()) {
              const std::string lv = args[0];
              for (const Guard& g : guards)
                if (g.var == lv && !g.mutexes.empty())
                  w.released = g.mutexes.front();
            }
          }
        }
        std::vector<std::string> h = held();
        if (!w.released.empty())
          h.erase(std::remove(h.begin(), h.end(), w.released), h.end());
        w.held = std::move(h);
        fn.waits.push_back(std::move(w));
        i = close_or(after, s, call_paren);
        continue;
      }
      if (is_call && (tail == "submit" || tail == "wait_idle") &&
          chain != "submit" && chain.find('.') != std::string::npos) {
        fn.waits.push_back({line, std::string(tail), "", held()});
        // fall through to also record the call edge below
      }
      if (is_call && (tail == "sleep_for" || tail == "sleep_until" ||
                      chain == "sleep_for_ms" ||
                      chain == "util::sleep_for_ms")) {
        fn.waits.push_back({line, "sleep", "", held()});
      }

      // -- relaxed atomics --
      if (is_call &&
          (tail == "load" || tail == "store" || tail == "exchange" ||
           tail.compare(0, 6, "fetch_") == 0 ||
           tail.compare(0, 17, "compare_exchange_") == 0)) {
        const std::size_t close = match_bracket(s, call_paren);
        if (close != std::string::npos) {
          const std::string_view args =
              std::string_view(s).substr(call_paren, close - call_paren + 1);
          if (args.find("memory_order_relaxed") != std::string_view::npos) {
            std::string obj = chain;
            const std::size_t dot = obj.rfind('.');
            if (dot != std::string::npos) obj = obj.substr(0, dot);
            fn.relaxed.push_back({line, obj});
          }
        }
      }

      // -- I/O --
      if (is_io_token(tail) && (head == "std" || head == tail)) {
        fn.ios.push_back({line, std::string(tail)});
        i = after;
        continue;
      }

      // -- container growth (alloc methods on an object) --
      if (is_call && alloc_method(tail) && chain.find('.') != std::string::npos) {
        fn.allocs.push_back({line, chain});
      }

      // -- call sites --
      if (is_call && !declared && !is_keyword(chain) &&
          !lock_guard_type(tail)) {
        CallSite cs;
        cs.line = line;
        cs.chain = chain;
        if (cs.chain.compare(0, 6, "this->") == 0 ||
            cs.chain.compare(0, 5, "this.") == 0)
          cs.chain = cs.chain.substr(cs.chain.find('.') + 1);
        cs.held = held();
        fn.calls.push_back(std::move(cs));
        i = after;
        continue;
      }

      // -- writes (shallow member-ish chains) --
      if (!declared && !is_call) {
        std::string wchain = chain;
        if (wchain.compare(0, 5, "this.") == 0) wchain = wchain.substr(5);
        const int dots =
            static_cast<int>(std::count(wchain.begin(), wchain.end(), '.'));
        if (dots <= 1 && wchain.find(':') == std::string::npos) {
          std::size_t j = skip_ws(s, after);
          // Skip [index] subscripts before the operator.
          while (j < end && s[j] == '[') {
            const std::size_t cb = match_bracket(s, j);
            if (cb == std::string::npos) break;
            j = skip_ws(s, cb + 1);
          }
          bool wrote = false;
          if (j < end && write_op_at(s, j)) wrote = true;
          if (j + 1 < end && ((s[j] == '+' && s[j + 1] == '+') ||
                              (s[j] == '-' && s[j + 1] == '-')))
            wrote = true;
          // Pre-increment: ++x / --x.
          if (!wrote && prev != std::string::npos && prev >= 1 &&
              ((s[prev] == '+' && s[prev - 1] == '+') ||
               (s[prev] == '-' && s[prev - 1] == '-')))
            wrote = true;
          if (wrote) {
            WriteSite w;
            w.chain = std::move(wchain);
            w.line = line;
            w.locked = !held().empty();
            fn.writes.push_back(std::move(w));
          }
        }
      }
      i = after > i ? after : i + 1;
    }
  }

  static std::size_t close_or(std::size_t fallback, const std::string& s,
                              std::size_t paren) {
    const std::size_t close = match_bracket(s, paren);
    return close == std::string::npos ? fallback : close + 1;
  }

  std::size_t handle_guard_decl(const std::string& s, std::size_t after,
                                std::size_t end, int depth,
                                std::vector<Guard>& guards, FunctionInfo& fn,
                                int line) {
    std::size_t i = skip_ws(s, after);
    // Optional template argument list (std::lock_guard<std::mutex>).
    if (i < end && s[i] == '<') {
      int angle = 0;
      while (i < end) {
        if (s[i] == '<') ++angle;
        else if (s[i] == '>' && --angle == 0) { ++i; break; }
        ++i;
      }
      i = skip_ws(s, i);
    }
    const std::string var = read_ident(s, i);
    if (var.empty()) return i;
    i = skip_ws(s, i + var.size());
    Guard g;
    g.var = var;
    g.depth = depth;
    if (i < end && (s[i] == '(' || s[i] == '{')) {
      const std::size_t close = match_bracket(s, i);
      if (close != std::string::npos) {
        for (std::string arg : split_args(
                 std::string_view(s).substr(i + 1, close - i - 1))) {
          // Tag arguments and non-mutex-ish args are filtered; defer_lock
          // means not held until .lock().
          if (arg.find("defer_lock") != std::string::npos) {
            g.active = false;
            continue;
          }
          if (arg.find("try_to_lock") != std::string::npos ||
              arg.find("adopt_lock") != std::string::npos)
            continue;
          if (arg.empty()) continue;
          std::string clean;
          for (char c : arg)
            if (c != '*' && c != '&' && !std::isspace(static_cast<unsigned char>(c)))
              clean.push_back(c);
          if (clean.compare(0, 6, "this->") == 0) clean = clean.substr(6);
          // Normalize p->m to p.m so resolution sees one spelling.
          std::size_t arrow;
          while ((arrow = clean.find("->")) != std::string::npos)
            clean.replace(arrow, 2, ".");
          if (clean.empty()) continue;
          g.mutexes.push_back(std::move(clean));
        }
        i = close + 1;
      }
    }
    if (!g.mutexes.empty()) {
      // Record the acquisition(s) with the currently-held set.
      std::vector<std::string> h;
      for (const Guard& og : guards)
        if (og.active)
          for (const std::string& m : og.mutexes) h.push_back(m);
      for (const std::string& m : g.mutexes) {
        LockAcq acq;
        acq.line = line;
        acq.mutex_expr = m;
        acq.held = h;
        fn.acquisitions.push_back(std::move(acq));
        if (g.active) h.push_back(m);  // scoped_lock(a, b): a held when b taken
      }
      guards.push_back(std::move(g));
    }
    return i;
  }
};

// --- serialization ---------------------------------------------------------

void put(std::string& out, std::string_view field) {
  out.append(field);
  out.push_back(kFieldSep);
}

void put_csv(std::string& out, const std::vector<std::string>& items) {
  std::string csv;
  for (const std::string& it : items) {
    if (!csv.empty()) csv.push_back(',');
    csv += it;
  }
  put(out, csv);
}

std::vector<std::string> split_csv(std::string_view csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string_view piece =
        csv.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                          : comma - start);
    if (!piece.empty()) out.emplace_back(piece);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> split_fields(std::string_view rec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= rec.size(); ++i) {
    if (i == rec.size() || rec[i] == kFieldSep) {
      out.emplace_back(rec.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool to_int(const std::string& s, int& out) {
  if (s.empty()) return false;
  int v = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

}  // namespace

FileModel extract_model(const std::string& path, const std::string& content) {
  const lint::SourceView view = lint::strip(content);
  return Extractor(path, view).run();
}

std::string_view analyze_cache_version() { return "analyze-v2"; }

std::string serialize_model(const FileModel& model) {
  std::string out;
  auto rec = [&out](char tag) -> std::string& {
    out.push_back(tag);
    out.push_back(kFieldSep);
    return out;
  };
  if (model.hot_file) {
    rec('H');
    out.push_back('\n');
  }
  for (const IncludeDecl& inc : model.includes) {
    rec('I');
    put(out, std::to_string(inc.line));
    put(out, inc.path);
    out.push_back('\n');
  }
  for (const ClassInfo& cls : model.classes) {
    rec('C');
    put(out, cls.path);
    out.push_back('\n');
    for (const MemberDecl& m : cls.members) {
      rec('M');
      put(out, m.name);
      put(out, m.type);
      out.push_back('\n');
    }
  }
  for (const MetricUse& use : model.metrics) {
    rec('U');
    put(out, std::to_string(use.line));
    put(out, use.name);
    out.push_back('\n');
  }
  for (const SuppressionLine& sup : model.suppressions) {
    rec('S');
    put(out, std::to_string(sup.line));
    put(out, sup.rule);
    put(out, sup.justified ? "1" : "0");
    put(out, sup.next_line ? "1" : "0");
    out.push_back('\n');
  }
  for (const FunctionInfo& fn : model.functions) {
    rec('F');
    put(out, fn.name);
    put(out, fn.cls);
    put(out, std::to_string(fn.line));
    put(out, fn.hot_entry ? "1" : "0");
    out.push_back('\n');
    for (const auto& [name, type] : fn.params) {
      rec('p');
      put(out, name);
      put(out, type);
      out.push_back('\n');
    }
    for (const auto& [name, type] : fn.locals) {
      rec('l');
      put(out, name);
      put(out, type);
      out.push_back('\n');
    }
    for (const std::string& m : fn.local_mutexes) {
      rec('x');
      put(out, m);
      out.push_back('\n');
    }
    for (const Effect& e : fn.allocs) {
      rec('a');
      put(out, std::to_string(e.line));
      put(out, e.what);
      out.push_back('\n');
    }
    for (const Effect& e : fn.ios) {
      rec('o');
      put(out, std::to_string(e.line));
      put(out, e.what);
      out.push_back('\n');
    }
    for (const LockAcq& acq : fn.acquisitions) {
      rec('q');
      put(out, std::to_string(acq.line));
      put(out, acq.mutex_expr);
      put_csv(out, acq.held);
      out.push_back('\n');
    }
    for (const WaitSite& w : fn.waits) {
      rec('w');
      put(out, std::to_string(w.line));
      put(out, w.what);
      put(out, w.released);
      put_csv(out, w.held);
      out.push_back('\n');
    }
    for (const CallSite& cs : fn.calls) {
      rec('g');
      put(out, std::to_string(cs.line));
      put(out, cs.chain);
      put_csv(out, cs.held);
      out.push_back('\n');
    }
    for (const WriteSite& w : fn.writes) {
      rec('v');
      put(out, std::to_string(w.line));
      put(out, w.chain);
      put(out, w.locked ? "1" : "0");
      out.push_back('\n');
    }
    for (const Effect& e : fn.relaxed) {
      rec('r');
      put(out, std::to_string(e.line));
      put(out, e.what);
      out.push_back('\n');
    }
  }
  return out;
}

bool deserialize_model(const std::string& payload, const std::string& path,
                       FileModel& out) {
  out = FileModel{};
  out.path = path;
  ClassInfo* cls = nullptr;
  FunctionInfo* fn = nullptr;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    const std::string_view recv(payload.data() + pos, nl - pos);
    pos = nl + 1;
    if (recv.empty()) continue;
    const char tag = recv[0];
    if (recv.size() < 2 || recv[1] != kFieldSep) return false;
    std::vector<std::string> f = split_fields(recv.substr(2));
    // split_fields on "x\x1f" yields {"x",""} — trailing empty is the record
    // terminator each put() appends.
    if (!f.empty() && f.back().empty()) f.pop_back();
    int line = 0;
    switch (tag) {
      case 'H':
        out.hot_file = true;
        break;
      case 'I':
        if (f.size() != 2 || !to_int(f[0], line)) return false;
        out.includes.push_back({line, f[1]});
        break;
      case 'C':
        if (f.size() != 1) return false;
        out.classes.push_back({f[0], {}});
        cls = &out.classes.back();
        break;
      case 'M':
        if (f.size() != 2 || cls == nullptr) return false;
        cls->members.push_back({f[0], f[1]});
        break;
      case 'U':
        if (f.size() != 2 || !to_int(f[0], line)) return false;
        out.metrics.push_back({line, f[1]});
        break;
      case 'S': {
        if (f.size() != 4 || !to_int(f[0], line)) return false;
        SuppressionLine sl;
        sl.line = line;
        sl.rule = f[1];
        sl.justified = f[2] == "1";
        sl.next_line = f[3] == "1";
        out.suppressions.push_back(std::move(sl));
        break;
      }
      case 'F': {
        if (f.size() != 4 || !to_int(f[2], line)) return false;
        FunctionInfo info;
        info.name = f[0];
        info.cls = f[1];
        info.line = line;
        info.hot_entry = f[3] == "1";
        out.functions.push_back(std::move(info));
        fn = &out.functions.back();
        break;
      }
      case 'p':
        if (f.size() != 2 || fn == nullptr) return false;
        fn->params.emplace_back(f[0], f[1]);
        break;
      case 'l':
        if (f.size() != 2 || fn == nullptr) return false;
        fn->locals.emplace_back(f[0], f[1]);
        break;
      case 'x':
        if (f.size() != 1 || fn == nullptr) return false;
        fn->local_mutexes.push_back(f[0]);
        break;
      case 'a':
        if (f.size() != 2 || fn == nullptr || !to_int(f[0], line)) return false;
        fn->allocs.push_back({line, f[1]});
        break;
      case 'o':
        if (f.size() != 2 || fn == nullptr || !to_int(f[0], line)) return false;
        fn->ios.push_back({line, f[1]});
        break;
      case 'q': {
        if (f.size() != 3 || fn == nullptr || !to_int(f[0], line)) return false;
        LockAcq acq;
        acq.line = line;
        acq.mutex_expr = f[1];
        acq.held = split_csv(f[2]);
        fn->acquisitions.push_back(std::move(acq));
        break;
      }
      case 'w': {
        if (f.size() != 4 || fn == nullptr || !to_int(f[0], line)) return false;
        WaitSite w;
        w.line = line;
        w.what = f[1];
        w.released = f[2];
        w.held = split_csv(f[3]);
        fn->waits.push_back(std::move(w));
        break;
      }
      case 'g': {
        if (f.size() != 3 || fn == nullptr || !to_int(f[0], line)) return false;
        CallSite cs;
        cs.line = line;
        cs.chain = f[1];
        cs.held = split_csv(f[2]);
        fn->calls.push_back(std::move(cs));
        break;
      }
      case 'v': {
        if (f.size() != 3 || fn == nullptr || !to_int(f[0], line)) return false;
        WriteSite w;
        w.line = line;
        w.chain = f[1];
        w.locked = f[2] == "1";
        fn->writes.push_back(std::move(w));
        break;
      }
      case 'r':
        if (f.size() != 2 || fn == nullptr || !to_int(f[0], line)) return false;
        fn->relaxed.push_back({line, f[1]});
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace snnsec::analyze
