// DFC substrate tests: direct filters, compact tables, scalar DFC and
// Vector-DFC end-to-end behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string_view>
#include <vector>

#include "dfc/compact_table.hpp"
#include "dfc/dfc.hpp"
#include "dfc/direct_filter.hpp"
#include "dfc/vector_dfc.hpp"
#include "core/filter_bank.hpp"
#include "core/naive.hpp"
#include "helpers.hpp"
#include "pattern/prefix.hpp"
#include "simd/cpu_features.hpp"
#include "util/hash.hpp"

namespace vpm::dfc {
namespace {

using testutil::expect_matches_naive;

pattern::Pattern make_pattern(std::string_view text, bool nocase = false) {
  pattern::Pattern p;
  p.bytes = util::to_bytes(text);
  p.nocase = nocase;
  return p;
}

// ---- DirectFilter2B -----------------------------------------------------

TEST(DirectFilter2B, SetsExactPrefixBit) {
  DirectFilter2B f;
  f.add_pattern_prefix(make_pattern("GET"));
  EXPECT_TRUE(f.test(util::load_u16(util::to_bytes("GE").data())));
  EXPECT_FALSE(f.test(util::load_u16(util::to_bytes("ge").data())));
  EXPECT_FALSE(f.test(util::load_u16(util::to_bytes("GX").data())));
}

TEST(DirectFilter2B, NocaseSetsAllCaseVariants) {
  DirectFilter2B f;
  f.add_pattern_prefix(make_pattern("ab", true));
  for (const char* v : {"ab", "Ab", "aB", "AB"}) {
    EXPECT_TRUE(f.test(util::load_u16(util::to_bytes(v).data()))) << v;
  }
  EXPECT_FALSE(f.test(util::load_u16(util::to_bytes("ac").data())));
}

TEST(DirectFilter2B, OneBytePatternWildcardsSecondByte) {
  DirectFilter2B f;
  f.add_pattern_prefix(make_pattern("Q"));
  for (unsigned second = 0; second < 256; ++second) {
    EXPECT_TRUE(f.test('Q' | (second << 8))) << second;
  }
  EXPECT_FALSE(f.test('R' | (0u << 8)));
}

TEST(DirectFilter2B, OccupancyReflectsInsertions) {
  DirectFilter2B f;
  EXPECT_DOUBLE_EQ(f.occupancy(), 0.0);
  f.add_pattern_prefix(make_pattern("xy"));
  EXPECT_NEAR(f.occupancy(), 1.0 / 65536, 1e-9);
}

// ---- HashedFilter ------------------------------------------------------------

// The 4-byte windows of one pattern, as Filter 3 takes them.
std::vector<std::uint32_t> prefix_of(const char* text, bool nocase = false) {
  pattern::PatternSet set;
  set.add(text, nocase);
  return pattern::prefix_windows(set, 4);
}

TEST(HashedFilter, AcceptsItsOwnPrefix) {
  const HashedFilter f(prefix_of("EVIL-PATTERN"), 16);
  EXPECT_TRUE(f.test(util::load_u32(util::to_bytes("EVIL").data())));
}

TEST(HashedFilter, NocaseVariantsAllPass) {
  const HashedFilter f(prefix_of("evil-stuff", true), 16);
  for (const char* v : {"evil", "EVIL", "eViL", "Evil"}) {
    EXPECT_TRUE(f.test(util::load_u32(util::to_bytes(v).data()))) << v;
  }
}

TEST(HashedFilter, MostForeignPrefixesRejected) {
  const HashedFilter f(prefix_of("ABCDEFGH"), 16);
  util::Rng rng(1);
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (f.test(static_cast<std::uint32_t>(rng()))) ++false_positives;
  }
  // One bit set out of 2^16: expected fp rate ~1/65536.
  EXPECT_LT(false_positives, 10);
}

TEST(HashedFilter, SmallerFilterHasMoreCollisions) {
  const auto set = testutil::random_set(300, 12, testutil::case_seed(9), 26);
  const auto windows = pattern::prefix_windows(set, 4);
  const HashedFilter big(windows, 16), small(windows, 8);
  EXPECT_GT(small.occupancy(), big.occupancy()) << testutil::seed_note();
}

// Without a size, the filter takes the smallest one whose fill stays at or
// below the target: half of it would be too full.
TEST(HashedFilter, DerivedSizeIsTheSmallestMeetingTheFillTarget) {
  const auto windows = pattern::prefix_windows(testutil::random_set(300, 12, 11, 26), 4);
  const HashedFilter f(windows);
  EXPECT_GT(f.bits_log2(), kHashedMinBitsLog2);
  EXPECT_LT(f.bits_log2(), kHashedMaxBitsLog2);
  EXPECT_LE(f.occupancy(), kHashedFillTarget) << "2^" << f.bits_log2();
  EXPECT_GT(HashedFilter(windows, f.bits_log2() - 1).occupancy(), kHashedFillTarget)
      << "2^" << f.bits_log2() - 1;
  EXPECT_EQ(HashedFilter({}).bits_log2(), kHashedMinBitsLog2);
}

// ---- compact tables ---------------------------------------------------------

TEST(ShortTable, VerifiesOnlyShortFamily) {
  pattern::PatternSet set;
  set.add("ab");
  set.add("abcdef");  // long family: not in the short table
  const ShortTable table(set);
  EXPECT_EQ(table.pattern_count(), 1u);
  CollectingSink sink;
  const auto data = util::to_bytes("abcdef");
  table.verify_at(data, 0, sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pattern_id, 0u);
}

TEST(ShortTable, ReportsAllLengthsAtSamePosition) {
  pattern::PatternSet set;
  set.add("a");
  set.add("ab");
  set.add("abc");
  const ShortTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("abcd");
  table.verify_at(data, 0, sink);
  EXPECT_EQ(sink.matches().size(), 3u);
}

TEST(ShortTable, RespectsBufferEnd) {
  pattern::PatternSet set;
  set.add("ab");
  set.add("a");
  const ShortTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("za");
  table.verify_at(data, 1, sink);  // only "a" fits
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pattern_id, 1u);
}

TEST(ShortTable, NocaseReportedOncePerPosition) {
  pattern::PatternSet set;
  set.add("ab", true);
  const ShortTable table(set);
  for (const char* text : {"ab", "Ab", "aB", "AB"}) {
    CollectingSink sink;
    const auto data = util::to_bytes(text);
    table.verify_at(data, 0, sink);
    EXPECT_EQ(sink.matches().size(), 1u) << text;
  }
}

// The direct index: 1-byte patterns by their byte, 2- and 3-byte patterns
// by their 2-byte window with the third byte compared inline.
TEST(ShortTable, OneBytePatternAtTheLastPosition) {
  pattern::PatternSet set;
  set.add("z");
  set.add("zz");
  set.add("x", true);
  const ShortTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("abzX");
  table.verify_at(data, 2, sink);  // "z" (a "zz" would need byte 4)
  table.verify_at(data, 3, sink);  // "x" nocase, the last byte
  ASSERT_EQ(sink.matches().size(), 2u);
  EXPECT_EQ(sink.matches()[0], (Match{0, 2}));
  EXPECT_EQ(sink.matches()[1], (Match{2, 3}));
}

TEST(ShortTable, ThreeBytePatternCutByTheBufferEnd) {
  pattern::PatternSet set;
  set.add("xyz");
  set.add("xy");
  set.add("XYZ", true);
  const ShortTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("abxy");  // "xy" ends the buffer
  table.verify_at(data, 2, sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0], (Match{1, 2}));
}

TEST(ShortTable, NocaseThirdByteFoldsAndExactThirdByteDoesNot) {
  pattern::PatternSet set;
  set.add("abC");        // exact third byte
  set.add("abc", true);  // nocase third byte
  set.add("ab[");        // '[' follows 'Z': no case partner
  set.add("ab{", true);  // '{' follows 'z': folds to nothing else
  const ShortTable table(set);
  const auto ids_at = [&](const char* text) {
    CollectingSink sink;
    table.verify_at(util::to_bytes(text), 0, sink);
    std::vector<std::uint32_t> ids;
    for (const Match& m : sink.matches()) ids.push_back(m.pattern_id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(ids_at("abC"), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ids_at("abc"), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(ids_at("ABc"), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(ids_at("ab["), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(ids_at("ab{"), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(ids_at("AB["), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(ids_at("AB{"), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(ids_at("ab{x"), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(ids_at("ab["), ids_at("ab[x"));
}

// verify_at at every position of short mixed-case buffers reports exactly
// the short-family matches the naive engine finds there, and so does
// verify_at at the positions V-PATCH's short pre-pass
// (core::FilterBank::keep_short) keeps when every position is a candidate.
// The alphabet holds the bytes on either side of both letter ranges ('@',
// '[', '`', '{'), where ASCII folding must stop.
TEST(ShortTable, VerifyAtEqualsNaiveAtEveryPosition) {
  constexpr std::string_view kAlphabet = "aAbB@[`{";
  util::Rng rng(testutil::case_seed(120));
  const auto random_bytes = [&](std::size_t len) {
    util::Bytes b(len);
    for (auto& c : b) c = static_cast<std::uint8_t>(kAlphabet[rng.below(kAlphabet.size())]);
    return b;
  };
  for (int round = 0; round < 20; ++round) {
    pattern::PatternSet set;
    for (int i = 0; i < 40; ++i) set.add(random_bytes(1 + rng.below(5)), rng.chance(0.4));
    const ShortTable table(set);
    const core::FilterBank bank(set);
    const core::NaiveMatcher naive(set);
    for (int buffer = 0; buffer < 10; ++buffer) {
      const util::Bytes data = random_bytes(1 + rng.below(40));
      std::vector<Match> expected;
      for (const Match& m : naive.find_matches(data)) {
        if (set[m.pattern_id].size() < pattern::kShortLongBoundary) expected.push_back(m);
      }
      CollectingSink sink;
      for (std::size_t pos = 0; pos < data.size(); ++pos) table.verify_at(data, pos, sink);
      EXPECT_EQ(sink.sorted(), expected)
          << "round " << round << " buffer " << buffer << " (" << testutil::seed_note() << ")";
      std::vector<std::uint32_t> every(data.size());
      std::iota(every.begin(), every.end(), 0u);
      const std::uint32_t kept =
          bank.keep_short(data, every.data(), static_cast<std::uint32_t>(every.size()));
      CollectingSink kept_sink;
      for (std::uint32_t k = 0; k < kept; ++k) table.verify_at(data, every[k], kept_sink);
      EXPECT_EQ(kept_sink.sorted(), expected) << "pre-pass, round " << round << " buffer "
                                              << buffer << " (" << testutil::seed_note() << ")";
    }
  }
}

TEST(LongTable, ExactPrefixRejectsNeighbors) {
  pattern::PatternSet set;
  set.add("attack-vector");
  set.add("attribute=1");
  const LongTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("attack-vector attribute=1");
  table.verify_at(data, 0, sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pattern_id, 0u);
  table.verify_at(data, 14, sink);
  EXPECT_EQ(sink.matches().size(), 2u);
}

TEST(LongTable, NocaseEntriesFindAllCasings) {
  pattern::PatternSet set;
  set.add("select", true);
  const LongTable table(set);
  for (const char* text : {"select", "SELECT", "SeLeCt"}) {
    CollectingSink sink;
    const auto data = util::to_bytes(text);
    table.verify_at(data, 0, sink);
    EXPECT_EQ(sink.matches().size(), 1u) << text;
  }
}

TEST(LongTable, PositionNearEndIsSafe) {
  pattern::PatternSet set;
  set.add("abcd");
  const LongTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("xabc");
  table.verify_at(data, 1, sink);  // only 3 bytes remain
  EXPECT_TRUE(sink.matches().empty());
  table.verify_at(data, 4, sink);  // out of range entirely
  EXPECT_TRUE(sink.matches().empty());
}

TEST(LongTable, DuplicatePrefixesShareBucket) {
  pattern::PatternSet set;
  set.add("prefix-one");
  set.add("prefix-two");
  set.add("prefix-three");
  const LongTable table(set);
  CollectingSink sink;
  const auto data = util::to_bytes("prefix-three");
  table.verify_at(data, 0, sink);
  ASSERT_EQ(sink.matches().size(), 1u);
  EXPECT_EQ(sink.matches()[0].pattern_id, 2u);
}

TEST(LongTable, MeanBucketOccupancyReasonable) {
  const auto set = testutil::random_set(2000, 16, testutil::case_seed(10), 26);
  const LongTable table(set);
  EXPECT_LT(table.mean_bucket_entries(), 4.0) << testutil::seed_note();
}

// ---- DFC end-to-end -----------------------------------------------------------

TEST(Dfc, BoundarySetAgainstOracle) {
  const auto set = testutil::boundary_set();
  const DfcMatcher m(set);
  expect_matches_naive(m, set, util::as_view("xabcdex GET http/1.1"));
  expect_matches_naive(m, set, testutil::random_text(4000, testutil::case_seed(77)));
}

TEST(Dfc, RandomizedDifferential) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto set = testutil::random_set(60, 8, testutil::case_seed(seed));
    const DfcMatcher m(set);
    const auto text = testutil::random_text(3000, testutil::case_seed(seed + 50));
    expect_matches_naive(m, set, text, "seed=" + std::to_string(seed));
  }
}

TEST(Dfc, EmptyInput) {
  const auto set = testutil::boundary_set();
  const DfcMatcher m(set);
  EXPECT_EQ(m.count_matches({}), 0u);
}

TEST(Dfc, SingleByteInput) {
  pattern::PatternSet set;
  set.add("a");
  set.add("ab");
  const DfcMatcher m(set);
  EXPECT_EQ(m.count_matches(util::as_view("a")), 1u);
  EXPECT_EQ(m.count_matches(util::as_view("b")), 0u);
}

TEST(Dfc, MatchAtLastPosition) {
  pattern::PatternSet set;
  set.add("x");
  const DfcMatcher m(set);
  EXPECT_EQ(m.count_matches(util::as_view("aaax")), 1u);
}

TEST(Dfc, FilterMemoryIsCacheSized) {
  const auto set = testutil::random_set(1000, 12, testutil::case_seed(11), 26);
  const DfcMatcher m(set);
  // Three 8 KB direct filters + tables; the filters alone must stay tiny.
  EXPECT_EQ(3 * DirectFilter2B::kBits / 8, 3u * 8192u);
  EXPECT_GT(m.memory_bytes(), 3u * 8192u);
}

// ---- Vector-DFC ------------------------------------------------------------------

class VectorDfc : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::cpu().has_avx2_kernel()) GTEST_SKIP() << "AVX2 not available";
  }
};

TEST_F(VectorDfc, AgreesWithScalarDfcOnRandomText) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto set = testutil::random_set(60, 8, testutil::case_seed(seed));
    const DfcMatcher scalar(set);
    const VectorDfcMatcher vec(set);
    const auto text = testutil::random_text(5000, testutil::case_seed(seed + 10));
    EXPECT_EQ(vec.find_matches(text), scalar.find_matches(text))
        << "seed " << seed << " (" << testutil::seed_note() << ")";
  }
}

TEST_F(VectorDfc, BoundarySetAgainstOracle) {
  const auto set = testutil::boundary_set();
  const VectorDfcMatcher m(set);
  expect_matches_naive(m, set, util::as_view("abcde GET xyz"));
}

TEST_F(VectorDfc, AllInputLengthsNearVectorBoundary) {
  // Sweep lengths 0..48 to cover scalar-tail vs vector-loop transitions.
  pattern::PatternSet set;
  set.add("ab");
  set.add("a");
  set.add("bcde");
  const VectorDfcMatcher m(set);
  for (std::size_t len = 0; len <= 48; ++len) {
    const auto text = testutil::random_text(len, testutil::case_seed(len * 31 + 7), 5);
    expect_matches_naive(m, set, text, "len=" + std::to_string(len));
  }
}

}  // namespace
}  // namespace vpm::dfc
