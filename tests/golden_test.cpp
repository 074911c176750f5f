// Golden checksums freezing the synthetic workloads.
//
// A recorded benchmark number is regenerable only if the generators stay
// bit-stable; these tests pin small-instance FNV checksums so any change to
// a generator (RNG, corpus, length model) is caught and forces a conscious
// re-baselining of the recorded results.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace vpm
