// Shared source model for the snnsec analysis tools (snnsec_lint and
// snnsec_analyze): a comment/string-stripping state machine producing a
// per-line "code view" (literal and comment contents blanked, so fixture
// snippets embedded in test string literals can never trigger rules), the
// comment text per line (markers and NOLINT directives are only honored
// inside real comments), and the raw lines (for tools that must look inside
// string literals deliberately, e.g. metric-name collection).
//
// Also home to the NOLINT suppression contract both tools share:
// `NOLINT(snnsec-<rule>): <justification>` on the offending line, or
// `NOLINTNEXTLINE(...)` on the line before. A snnsec NOLINT without a
// justification is itself a finding and suppresses nothing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace snnsec::lint {

struct SourceView {
  std::vector<std::string> code;      ///< per-line, literals/comments blanked
  std::vector<std::string> comments;  ///< per-line, concatenated comment text
  std::vector<std::string> raw;       ///< per-line, verbatim source text
};

/// Build the three aligned per-line views of a translation unit.
SourceView strip(const std::string& content);

/// True for identifier characters [A-Za-z0-9_].
bool ident_char(char c);

/// Position of whole-word `word` in `s` starting at `from`, or npos.
std::size_t find_word(std::string_view s, std::string_view word,
                      std::size_t from = 0);

bool contains_word(std::string_view s, std::string_view word);

// ---------------------------------------------------------------------------
// NOLINT handling. A suppression for rule R applies to line L when a comment
// on L (or a NOLINTNEXTLINE comment on L-1) names snnsec-R and carries a
// non-empty justification after "):". An unjustified snnsec NOLINT is itself
// reported and suppresses nothing.
// ---------------------------------------------------------------------------

struct Suppression {
  std::vector<std::string> rules;  ///< rule IDs with the snnsec- prefix
  bool justified = false;
  bool next_line = false;
};

std::vector<Suppression> parse_suppressions(const std::string& comment);

/// True when `rule` (with the snnsec- prefix) is suppressed at 1-based `line`
/// by a justified NOLINT on the line or NOLINTNEXTLINE on the line before.
bool suppressed_at(const SourceView& view, int line, const std::string& rule);

/// 64-bit digest of file contents, the cache key: FNV-1a over 8-byte words
/// in parallel lanes, so a warm cache pass costs little beside a cold lint.
/// Any single changed word or byte changes it.
std::uint64_t content_digest(std::string_view s);

}  // namespace snnsec::lint
