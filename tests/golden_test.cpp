// Golden checksums freezing the synthetic workloads and the compiled
// artifacts the sensor benchmark builds from them.
//
// A recorded benchmark number is regenerable only if the generators stay
// bit-stable; these tests pin small-instance FNV checksums so any change to
// a generator (RNG, corpus, length model) is caught and forces a conscious
// re-baselining of the recorded results.  The compact-AC automaton, the
// prefilter signatures and the saved database of S1-web and of the
// tls_screened ruleset are pinned the same way: construction may get
// faster, but what it builds may not change.
#include <gtest/gtest.h>

#include "ac/ac_compact.hpp"
#include "core/database.hpp"
#include "helpers.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pattern/serialize.hpp"
#include "traffic/trace.hpp"
#include "util/hash.hpp"

namespace vpm {
namespace {

std::uint32_t checksum(util::ByteView b) { return util::fnv1a(b.data(), b.size()); }

std::uint32_t trace_checksum(traffic::TraceKind kind) {
  const auto t = traffic::generate_trace(kind, 8192, 42);
  return checksum(t);
}

std::uint32_t ruleset_checksum(std::size_t count, std::uint64_t seed) {
  pattern::RulesetConfig cfg;
  cfg.count = count;
  cfg.seed = seed;
  const auto set = pattern::generate_ruleset(cfg);
  return checksum(pattern::serialize_patterns(set));
}

// The expected values below pin the generators the recorded benchmark
// results (bench/trajectory/) were produced with.  If a test here fails, the
// workloads changed: re-record both the checksums and the benchmark
// baselines.

TEST(Golden, TraceGeneratorsAreFrozen) {
  EXPECT_EQ(trace_checksum(traffic::TraceKind::iscx_day2), 0xCA4B8A93u);
  EXPECT_EQ(trace_checksum(traffic::TraceKind::iscx_day6), 0x378D9791u);
  EXPECT_EQ(trace_checksum(traffic::TraceKind::darpa2000), 0x0A0B18A0u);
  EXPECT_EQ(trace_checksum(traffic::TraceKind::random), 0x10B48A80u);
}

TEST(Golden, RulesetGeneratorIsFrozen) {
  EXPECT_EQ(ruleset_checksum(200, 7), 0x85D89BB7u);
}

pattern::PatternSet s1_web() {
  return pattern::generate_ruleset(pattern::s1_config()).web_patterns();
}

pattern::PatternSet s2_full() { return pattern::generate_ruleset(pattern::s2_config()); }

struct CompactShape {
  std::size_t states;
  std::size_t arena_words;
  std::size_t dense_states;
  std::size_t memory_bytes;
};

void expect_compact_shape(const pattern::PatternSet& set, const CompactShape& want) {
  const ac::AcCompactMatcher m(set);
  EXPECT_EQ(m.state_count(), want.states);
  EXPECT_EQ(m.arena_words(), want.arena_words);
  EXPECT_EQ(m.dense_states(), want.dense_states);
  EXPECT_EQ(m.memory_bytes(), want.memory_bytes);
}

std::uint32_t saved_checksum(const pattern::PatternSet& set) {
  return checksum(compile(core::Algorithm::aho_corasick_compact, set)->save_patterns());
}

TEST(Golden, CompactAcAutomatonIsFrozen) {
  expect_compact_shape(s1_web(), {36651, 796144, 1, 3244272});
  expect_compact_shape(testutil::tls_screened_set(), {150552, 3284895, 1, 13275380});
}

TEST(Golden, SavedDatabaseIsFrozen) {
  // The header and pattern records behind the aho-corasick-compact algorithm
  // hint: the first 59,505 and 243,537 bytes of the blobs saved with each
  // group's signature appended, whose checksums were 0x19C58596 and
  // 0xA14DDFE4.
  EXPECT_EQ(saved_checksum(s1_web()), 0x7877F7D9u);
  EXPECT_EQ(saved_checksum(testutil::tls_screened_set()), 0x6B1742E5u);
}

std::uint32_t signature_checksum(const pattern::PatternSet& set) {
  return testutil::signature_checksum(*compile(core::Algorithm::naive, set));
}

TEST(Golden, PrefilterSignaturesAreFrozen) {
  // Every working set of S1-web and S2-full holds a 1-2 B pattern, so no
  // group of theirs has a signature.  Without those patterns, S2-full's
  // groups get q = 3 signatures; the tls_screened ruleset's are q = 4.
  EXPECT_EQ(signature_checksum(s1_web()), 0x1210D00Fu);
  EXPECT_EQ(signature_checksum(s2_full()), 0x1210D00Fu);
  EXPECT_EQ(signature_checksum(testutil::tls_screened_set()), 0x42E74C03u);
  pattern::PatternSet s2_three_plus;
  for (const pattern::Pattern& p : s2_full()) {
    if (p.size() >= 3) s2_three_plus.add(p.bytes, p.nocase, p.group);
  }
  EXPECT_EQ(signature_checksum(s2_three_plus), 0x8F52B8FAu);
}

}  // namespace
}  // namespace vpm
