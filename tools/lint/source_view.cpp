#include "source_view.hpp"

#include <cctype>
#include <cstring>
#include <sstream>

namespace snnsec::lint {

SourceView strip(const std::string& content) {
  SourceView v;
  std::string code_line, comment_line, raw_line;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State st = State::kCode;
  std::string raw_delim;  // for raw string literals: ")<delim>"
  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      v.code.push_back(code_line);
      v.comments.push_back(comment_line);
      v.raw.push_back(raw_line);
      code_line.clear();
      comment_line.clear();
      raw_line.clear();
      if (st == State::kLine) st = State::kCode;
      continue;
    }
    raw_line += c;
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLine;
          code_line += "  ";
          raw_line += next;
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlock;
          code_line += "  ";
          raw_line += next;
          ++i;
        } else if (c == '"') {
          // Raw string literal? Look back for R / uR / u8R / LR prefix.
          bool raw = false;
          if (!code_line.empty() && code_line.back() == 'R') {
            const std::size_t len = code_line.size();
            const bool prefixed =
                len < 2 || !(std::isalnum(static_cast<unsigned char>(
                                 code_line[len - 2])) ||
                             code_line[len - 2] == '_');
            raw = prefixed || (len >= 2 && (code_line[len - 2] == 'u' ||
                                            code_line[len - 2] == 'U' ||
                                            code_line[len - 2] == 'L' ||
                                            code_line[len - 2] == '8'));
          }
          if (raw) {
            raw_delim = ")";
            std::size_t j = i + 1;
            while (j < n && content[j] != '(') raw_delim += content[j++];
            raw_delim += '"';
            st = State::kRaw;
          } else {
            st = State::kString;
          }
          code_line += '"';
        } else if (c == '\'') {
          st = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLine:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          st = State::kCode;
          code_line += "  ";
          raw_line += next;
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          code_line += "  ";
          if (next != '\0' && next != '\n') raw_line += next;
          ++i;
          if (next == '\0') break;
        } else if (c == '"') {
          st = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          if (next != '\0' && next != '\n') raw_line += next;
          ++i;
          if (next == '\0') break;
        } else if (c == '\'') {
          st = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
      case State::kRaw:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          // Blank all but the newlines inside the terminator span.
          raw_line += content.substr(i + 1, raw_delim.size() - 1);
          i += raw_delim.size() - 1;
          st = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  v.code.push_back(code_line);
  v.comments.push_back(comment_line);
  v.raw.push_back(raw_line);
  return v;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::size_t find_word(std::string_view s, std::string_view word,
                      std::size_t from) {
  while (true) {
    const std::size_t p = s.find(word, from);
    if (p == std::string_view::npos) return p;
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const std::size_t after = p + word.size();
    const bool right_ok = after >= s.size() || !ident_char(s[after]);
    if (left_ok && right_ok) return p;
    from = p + 1;
  }
}

bool contains_word(std::string_view s, std::string_view word) {
  return find_word(s, word) != std::string_view::npos;
}

std::vector<Suppression> parse_suppressions(const std::string& comment) {
  std::vector<Suppression> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t at = comment.find("NOLINT", pos);
    if (at == std::string::npos) break;
    std::size_t cur = at + 6;
    Suppression s;
    if (comment.compare(cur, 8, "NEXTLINE") == 0) {
      s.next_line = true;
      cur += 8;
    }
    if (cur >= comment.size() || comment[cur] != '(') {
      pos = cur;  // bare NOLINT (e.g. for clang-tidy) — not ours
      continue;
    }
    const std::size_t close = comment.find(')', cur);
    if (close == std::string::npos) break;
    std::stringstream list(comment.substr(cur + 1, close - cur - 1));
    std::string item;
    bool ours = false;
    while (std::getline(list, item, ',')) {
      const std::size_t b = item.find_first_not_of(" \t");
      const std::size_t e = item.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      item = item.substr(b, e - b + 1);
      if (item.rfind("snnsec-", 0) == 0) {
        s.rules.push_back(item);
        ours = true;
      }
    }
    if (ours) {
      // Justification: "): <non-empty text>".
      std::size_t j = close + 1;
      if (j < comment.size() && comment[j] == ':') {
        ++j;
        while (j < comment.size() &&
               std::isspace(static_cast<unsigned char>(comment[j])))
          ++j;
        s.justified = j < comment.size();
      }
      out.push_back(std::move(s));
    }
    pos = close + 1;
  }
  return out;
}

bool suppressed_at(const SourceView& view, int line, const std::string& rule) {
  const auto applies = [&](const std::string& comment, bool want_next) {
    for (const Suppression& s : parse_suppressions(comment)) {
      if (s.next_line != want_next || !s.justified) continue;
      for (const std::string& r : s.rules)
        if (r == rule) return true;
    }
    return false;
  };
  const std::size_t i = static_cast<std::size_t>(line - 1);
  if (i < view.comments.size() && applies(view.comments[i], false))
    return true;
  return i >= 1 && i - 1 < view.comments.size() &&
         applies(view.comments[i - 1], true);
}

std::uint64_t content_digest(std::string_view s) {
  // FNV-1a over 8-byte words in four interleaved lanes: four independent
  // multiply chains, each taking a word per step, instead of one chain
  // taking a byte. A lane step is a bijection of the lane state and the
  // fold is a bijection in each lane, so any one changed word (or tail
  // byte) provably changes the digest; the length is folded in as well.
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  constexpr std::size_t kLanes = 4;
  std::uint64_t lane[kLanes] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  const std::size_t words = s.size() / 8;
  std::size_t w = 0;
  for (; w + kLanes <= words; w += kLanes)
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::uint64_t v = 0;
      std::memcpy(&v, s.data() + (w + l) * 8, 8);
      lane[l] = (lane[l] ^ v) * kPrime;
    }
  for (; w < words; ++w) {
    std::uint64_t v = 0;
    std::memcpy(&v, s.data() + w * 8, 8);
    lane[w % kLanes] = (lane[w % kLanes] ^ v) * kPrime;
  }
  if (const std::size_t tail = s.size() % 8; tail != 0) {
    std::uint64_t v = 0;
    std::memcpy(&v, s.data() + words * 8, tail);
    lane[words % kLanes] = (lane[words % kLanes] ^ v) * kPrime;
  }
  // splitmix64's finalizer: invertible, and it carries every bit of a lane
  // into every bit of the digest (a multiply alone only carries upward).
  const auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  std::uint64_t h = kBasis ^ s.size();
  for (const std::uint64_t v : lane) h = mix(h ^ v);
  return h;
}

}  // namespace snnsec::lint
