// Tests for the content-hash FileCache shared by snnsec_lint and
// snnsec_analyze (tools/lint/cache.hpp): hit/miss accounting, disk
// round-trip, version and digest invalidation, and the performance contract
// the tree gates rely on — a warm rerun must cost a small fraction of a
// cold one because cached files skip parsing entirely.
#include "cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "lint.hpp"
#include "source_view.hpp"

using snnsec::lint::FileCache;
using snnsec::lint::content_digest;

namespace {

std::string temp_cache_path(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / (std::string("snnsec_cache_test_") + tag + ".txt")).string();
}

struct PathGuard {
  std::string path;
  ~PathGuard() { std::remove(path.c_str()); }
};

}  // namespace

TEST(FileCache, LookupMissesThenHitsAndCountsBoth) {
  FileCache cache("", "v1");  // empty path: in-memory only
  const std::uint64_t d = content_digest("contents");
  EXPECT_FALSE(cache.lookup("a.cpp", d).has_value());
  cache.store("a.cpp", d, "payload");
  const auto hit = cache.lookup("a.cpp", d);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FileCache, DigestChangeInvalidatesEntry) {
  FileCache cache("", "v1");
  cache.store("a.cpp", content_digest("old"), "stale");
  EXPECT_FALSE(cache.lookup("a.cpp", content_digest("new")).has_value());
  // Storing under the new digest replaces the stale entry, not adds to it.
  cache.store("a.cpp", content_digest("new"), "fresh");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(*cache.lookup("a.cpp", content_digest("new")), "fresh");
}

TEST(FileCache, RoundTripsThroughDisk) {
  PathGuard guard{temp_cache_path("roundtrip")};
  const std::uint64_t d = content_digest("body");
  {
    FileCache cache(guard.path, "v1");
    // Payloads are opaque blobs: newlines and separators must survive.
    cache.store("dir/a.cpp", d, "line1\nline2\x1f tail");
    cache.store("dir/b.cpp", content_digest("other"), "");
    ASSERT_TRUE(cache.save());
  }
  FileCache reloaded(guard.path, "v1");
  EXPECT_EQ(reloaded.entries(), 2u);
  const auto hit = reloaded.lookup("dir/a.cpp", d);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "line1\nline2\x1f tail");
}

TEST(FileCache, VersionBumpDiscardsWholeCache) {
  PathGuard guard{temp_cache_path("version")};
  {
    FileCache cache(guard.path, "rules-v1");
    cache.store("a.cpp", content_digest("body"), "payload");
    ASSERT_TRUE(cache.save());
  }
  FileCache reloaded(guard.path, "rules-v2");
  EXPECT_EQ(reloaded.entries(), 0u);
  EXPECT_FALSE(reloaded.lookup("a.cpp", content_digest("body")).has_value());
}

// The digest is the cache key, so a one-byte edit anywhere — in a lane's
// word, in the ragged tail, or a trailing NUL that pads to the same words —
// must change it.
TEST(FileCache, ContentDigestSeesEveryByteAndTheLength) {
  std::string body;
  for (int i = 0; i < 77; ++i) body += static_cast<char>('a' + i % 26);
  const std::uint64_t d = content_digest(body);
  for (std::size_t i = 0; i < body.size(); ++i) {
    std::string edited = body;
    edited[i] = static_cast<char>(edited[i] ^ 0x40);
    EXPECT_NE(content_digest(edited), d) << "byte " << i;
  }
  EXPECT_NE(content_digest(body + '\0'), d);
  EXPECT_NE(content_digest(""), content_digest(std::string(1, '\0')));
}

TEST(FileCache, EmptyPathIsANoOpCache) {
  FileCache cache("", "v1");
  cache.store("a.cpp", 1, "p");
  EXPECT_TRUE(cache.save());  // nothing to write, nothing to fail
}

// The tree-gate performance contract: rerunning the linter over an
// unchanged tree must cost well under 10% of the cold run, because a cache
// hit skips lint_source() entirely and only pays for the digest. The
// fixture synthesizes a tree large enough that parsing dominates timing
// noise; the loop below mirrors the snnsec_lint main-loop cache protocol.
TEST(FileCache, WarmRerunIsUnderTenPercentOfCold) {
  // Short lines on purpose: a warm pass still pays the content digest
  // (per 8-byte word) while a cold pass pays the linter (per line), so dense
  // short-line files give the honest worst case for the warm/cold ratio.
  std::vector<std::pair<std::string, std::string>> files;
  std::string body;
  for (int line = 0; line < 800; ++line)
    body += "float g" + std::to_string(line) + "(float x);\n";
  for (int i = 0; i < 60; ++i)
    files.emplace_back("src/fake/file_" + std::to_string(i) + ".cpp",
                       body + "// tail " + std::to_string(i) + "\n");

  // Both passes are timed in this thread's CPU time, not wall time: under
  // `ctest -j` the thread can sit preempted for longer than a whole warm
  // pass, which says nothing about what the cache saves.
  const auto thread_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  FileCache cache("", "timing-v1");
  const auto pass = [&](bool expect_hits) {
    const double t0 = thread_cpu_s();
    std::size_t linted = 0;
    for (const auto& [path, src] : files) {
      const std::uint64_t digest = content_digest(src);
      if (cache.lookup(path, digest).has_value()) continue;
      const auto r = snnsec::lint::lint_source(path, src);
      cache.store(path, digest, std::to_string(r.findings.size()));
      ++linted;
    }
    EXPECT_EQ(linted, expect_hits ? 0u : files.size());
    return thread_cpu_s() - t0;
  };

  const double cold = pass(false);
  // Best of three warm passes, so one scheduler hiccup can't fail the
  // build; the cold pass parses ~50k lines and sits far above noise.
  double warm = pass(true);
  warm = std::min(warm, pass(true));
  warm = std::min(warm, pass(true));
  EXPECT_LT(warm, cold * 0.10)
      << "warm=" << warm << "s cold=" << cold << "s";
}

// The analyzer shares the cache type but stamps its own version string, so
// lint and analyze caches can never read each other's payloads.
TEST(FileCache, AnalyzeVersionStringIsDistinct) {
  EXPECT_NE(std::string(snnsec::analyze::analyze_cache_version()), "");
  EXPECT_NE(std::string(snnsec::analyze::analyze_cache_version()),
            std::string(snnsec::lint::lint_cache_version()));
}
