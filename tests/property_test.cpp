// Property-based sweeps (parameterized gtest): configuration-invariance and
// content-class robustness for the filtering engines.
//
// The properties:
//   P1  match results are invariant under chunk size, ISA and F3 size;
//   P2  every engine is exact on adversarial byte-content classes;
//   P3  injected pattern copies are always found (completeness lower bound);
//   P4  filter-only candidate counts are ISA-invariant;
//   P5  a stream cut into random chunks reports the matches of one scan of
//       the whole stream, on every engine.
#include <gtest/gtest.h>

#include "core/database.hpp"
#include "core/matcher_factory.hpp"
#include "core/vpatch.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pattern/serialize.hpp"
#include "simd/cpu_features.hpp"
#include "traffic/match_injector.hpp"
#include "traffic/random_trace.hpp"

namespace vpm::core {
namespace {

// ---- P1: configuration invariance ------------------------------------------

struct ConfigCase {
  std::size_t chunk_size;
  unsigned f3_bits;
};

class ConfigInvariance : public ::testing::TestWithParam<ConfigCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigInvariance,
    ::testing::Values(ConfigCase{64, 12}, ConfigCase{64, 16}, ConfigCase{1024, 10},
                      ConfigCase{4096, 16}, ConfigCase{32768, 18}, ConfigCase{1 << 20, 20},
                      ConfigCase{333, 13}, ConfigCase{65536, 16}),
    [](const auto& info) {
      return "chunk" + std::to_string(info.param.chunk_size) + "_f3" +
             std::to_string(info.param.f3_bits);
    });

TEST_P(ConfigInvariance, SpatchMatchesOracle) {
  const ConfigCase& cc = GetParam();
  const auto set = testutil::random_set(70, 9, testutil::case_seed(111));
  const auto text = testutil::random_text(20000, testutil::case_seed(112));
  VpatchConfig cfg;
  cfg.isa = Isa::scalar;  // S-PATCH
  cfg.chunk_size = cc.chunk_size;
  cfg.filters.f3_bits_log2 = cc.f3_bits;
  const VpatchMatcher m(set, cfg);
  testutil::expect_matches_naive(m, set, text);
}

TEST_P(ConfigInvariance, VpatchMatchesOracle) {
  const ConfigCase& cc = GetParam();
  const auto set = testutil::random_set(70, 9, testutil::case_seed(113));
  const auto text = testutil::random_text(20000, testutil::case_seed(114));
  VpatchConfig cfg;
  cfg.chunk_size = cc.chunk_size;
  cfg.filters.f3_bits_log2 = cc.f3_bits;
  const VpatchMatcher m(set, cfg);
  testutil::expect_matches_naive(m, set, text);
}

// ---- P2: content classes -------------------------------------------------------

struct ContentCase {
  const char* name;
  util::Bytes (*make)(std::size_t);
};

util::Bytes all_zero(std::size_t n) { return util::Bytes(n, 0x00); }
util::Bytes all_ff(std::size_t n) { return util::Bytes(n, 0xFF); }
util::Bytes alternating(std::size_t n) {
  util::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = (i & 1) ? 0xAB : 0xCD;
  return b;
}
util::Bytes ramp(std::size_t n) {
  util::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i & 0xFF);
  return b;
}
util::Bytes periodic7(std::size_t n) {
  util::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>('a' + (i % 7));
  return b;
}

class ContentClasses
    : public ::testing::TestWithParam<std::tuple<Algorithm, ContentCase>> {};

std::vector<Algorithm> engines() {
  std::vector<Algorithm> out;
  for (Algorithm a : available_algorithms()) {
    if (a != Algorithm::naive) out.push_back(a);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ContentClasses,
    ::testing::Combine(::testing::ValuesIn(engines()),
                       ::testing::Values(ContentCase{"zeros", all_zero},
                                         ContentCase{"ff", all_ff},
                                         ContentCase{"alternating", alternating},
                                         ContentCase{"ramp", ramp},
                                         ContentCase{"periodic7", periodic7})),
    [](const auto& info) {
      std::string n = std::string(algorithm_name(std::get<0>(info.param))) + "_" +
                      std::get<1>(info.param).name;
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST_P(ContentClasses, ExactOnAdversarialContent) {
  const auto [algo, cc] = GetParam();
  // Patterns that deliberately intersect the content classes.
  pattern::PatternSet set;
  set.add(util::Bytes{0x00, 0x00, 0x00});
  set.add(util::Bytes{0xFF, 0xFF});
  set.add(util::Bytes{0xAB, 0xCD, 0xAB});
  set.add(util::Bytes{0xCD, 0xAB});
  set.add("abcdefg");
  set.add("aabbcc");
  set.add(util::Bytes{0x01, 0x02, 0x03, 0x04, 0x05});
  const auto text = cc.make(3000);
  const MatcherPtr m = make_matcher(algo, set);
  testutil::expect_matches_naive(*m, set, text, cc.name);
}

// ---- P3: completeness under injection ----------------------------------------

class InjectionCompleteness : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(Engines, InjectionCompleteness, ::testing::ValuesIn(engines()),
                         [](const auto& info) {
                           std::string n{algorithm_name(info.param)};
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST_P(InjectionCompleteness, FindsAtLeastInjectedCopies) {
  pattern::RulesetConfig rcfg;
  rcfg.count = 150;
  rcfg.seed = testutil::case_seed(120);
  const auto set = pattern::generate_ruleset(rcfg);
  auto trace = traffic::generate_random_trace(1 << 16, testutil::case_seed(121));
  const auto report = traffic::inject_matches(trace, set, 0.05, testutil::case_seed(122));
  ASSERT_GT(report.injected_copies, 0u);
  const MatcherPtr m = make_matcher(GetParam(), set);
  EXPECT_GE(m->count_matches(trace), report.injected_copies) << testutil::seed_note();
}

// ---- P4: ISA-invariant filter candidates ---------------------------------------

TEST(FilterInvariance, CandidateCountsAcrossIsas) {
  const auto set = testutil::random_set(150, 10, testutil::case_seed(130));
  const auto text = testutil::random_text(60000, testutil::case_seed(131));
  VpatchConfig scalar_cfg;
  scalar_cfg.isa = Isa::scalar;  // S-PATCH
  const VpatchMatcher scalar(set, scalar_cfg);
  const auto ref = scalar.filter_only(text, true);
  for (Isa isa : {Isa::avx2, Isa::avx512}) {
    if (!isa_supported(isa)) continue;
    VpatchConfig cfg;
    cfg.isa = isa;
    const VpatchMatcher vec(set, cfg);
    const auto got = vec.filter_only(text, true);
    EXPECT_EQ(got.short_candidates, ref.short_candidates)
        << isa_name(isa) << " (" << testutil::seed_note() << ")";
    EXPECT_EQ(got.long_candidates, ref.long_candidates)
        << isa_name(isa) << " (" << testutil::seed_note() << ")";
  }
}

// ---- P5: chunked streams equal one whole-stream scan -----------------------------
//
// Through IdsEngine's staged batches, with several flows interleaved and
// each chunked its own way.  The patterns are
// cut from the text across the chunk cuts, so matches straddle boundaries,
// and nested prefixes of them give WorkingSet::carry_after live prefixes of
// every length to keep.

// Chunk lengths covering `total` bytes, tiny (1-8 B) and larger (to 300 B)
// chunks mixed.
std::vector<std::size_t> random_chunking(std::size_t total, util::Rng& rng) {
  std::vector<std::size_t> lens;
  for (std::size_t off = 0; off < total; off += lens.back()) {
    const std::size_t len = rng.chance(0.5) ? 1 + rng.below(8) : 1 + rng.below(300);
    lens.push_back(std::min(len, total - off));
  }
  return lens;
}

// The longest suffix of `buf` that equals, case-folded, a proper prefix of a
// pattern in `set`: the least a carry must keep.
std::size_t longest_live_prefix(util::ByteView buf, const pattern::PatternSet& set) {
  std::size_t best = 0;
  for (const pattern::Pattern& p : set) {
    for (std::size_t len = std::min(buf.size(), p.size() - 1); len > best; --len) {
      if (util::bytes_equal(buf.data() + buf.size() - len, p.bytes.data(), len, true)) {
        best = len;
        break;
      }
    }
  }
  return best;
}

class ChunkedStreams : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedStreams, ::testing::Range(0, 8));

TEST_P(ChunkedStreams, MatchOneWholeStreamScanOnEveryEngine) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(testutil::case_seed(700 + seed));
  const util::Bytes text = testutil::random_text(3000, testutil::case_seed(720 + seed), 6);
  const std::vector<std::size_t> chunks = random_chunking(text.size(), rng);

  // A 30% share is nocase, with its letters' case scrambled against the text.
  pattern::PatternSet set;
  const auto add = [&](util::ByteView bytes) {
    util::Bytes p(bytes.begin(), bytes.end());
    const bool nocase = rng.chance(0.3);
    for (std::uint8_t& c : p) {
      if (nocase && rng.chance(0.5)) c ^= 0x20;  // the text is letters only
    }
    set.add(std::move(p), nocase);
  };
  std::size_t cut = 0;
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    cut += chunks[i];
    const std::size_t len = 2 + rng.below(40);
    const std::size_t before = 1 + rng.below(len - 1);  // bytes left of the cut
    if (before > cut || cut - before + len > text.size()) continue;
    // The straddling pattern, then a chain of ever shorter prefixes of it.
    for (std::size_t n = len;; n = 1 + rng.below(n - 1)) {
      add({text.data() + cut - before, n});
      if (n == 1 || rng.chance(0.5)) break;
    }
  }
  ASSERT_FALSE(set.empty());
  const NaiveMatcher oracle(set);
  const std::vector<Match> expected = oracle.find_matches(text);
  const std::string note = "seed=" + std::to_string(seed) + " (" + testutil::seed_note() + ")";

  for (const Algorithm algo : available_algorithms()) {
    // Every pattern is generic, so the set's ids are the Database ids.
    const DatabasePtr db = compile(algo, set);
    const std::string_view name = algorithm_name(algo);

    // Flow 0 is cut as above, flows 1 and 2 their own ways; chunks are
    // staged in random flow order and flushed at random points.
    constexpr std::size_t kFlows = 3;
    std::vector<std::vector<std::size_t>> cuts{chunks};
    while (cuts.size() < kFlows) cuts.push_back(random_chunking(text.size(), rng));
    std::vector<std::size_t> next(kFlows, 0);
    std::vector<std::size_t> offset(kFlows, 0);
    ids::IdsEngine engine(db);
    std::vector<ids::Alert> alerts;
    ids::AlertBuffer sink(alerts);
    for (std::size_t left = text.size() * kFlows; left > 0;) {
      std::size_t flow = rng.below(kFlows);
      while (next[flow] == cuts[flow].size()) flow = (flow + 1) % kFlows;
      const std::size_t len = cuts[flow][next[flow]++];
      engine.stage(flow, pattern::Group::generic, {text.data() + offset[flow], len}, sink);
      offset[flow] += len;
      left -= len;
      if (rng.chance(0.3)) engine.flush_batch(sink);
    }
    engine.flush_batch(sink);
    for (std::size_t flow = 0; flow < kFlows; ++flow) {
      std::vector<Match> got;
      for (const ids::Alert& a : alerts) {
        if (a.flow_id == flow) got.push_back({a.pattern_id, a.stream_offset});
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << name << " stage/flush_batch flow " << flow << " " << note;
    }
  }

  // The carry bounds, on the text up to each cut and on a short window
  // ending there.
  const DatabasePtr db = compile(Algorithm::naive, set);
  const WorkingSet& ws = db->working_set(pattern::Group::generic);
  cut = 0;
  for (const std::size_t len : chunks) {
    cut += len;
    const std::size_t window = std::min(cut, 1 + rng.below(2 * ws.max_len));
    for (const std::size_t start : {std::size_t{0}, cut - window}) {
      const util::ByteView buf(text.data() + start, cut - start);
      const std::size_t carry = ws.carry_after(buf);
      EXPECT_LE(carry, std::min(buf.size(), ws.max_len - 1)) << "cut=" << cut << " " << note;
      EXPECT_GE(carry, longest_live_prefix(buf, set)) << "cut=" << cut << " " << note;
    }
  }
}

// ---- many-seed randomized differential (cheap, wide) ----------------------------

class SeedSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(0, 20));

TEST_P(SeedSweep, VpatchAlwaysMatchesOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto set = testutil::random_set(30 + seed * 7 % 60, 2 + seed % 12,
                                        testutil::case_seed(seed * 13 + 1));
  const auto text = testutil::random_text(500 + seed * 217, testutil::case_seed(seed * 31 + 2),
                                          2 + static_cast<unsigned>(seed % 6));
  const VpatchMatcher m(set);
  testutil::expect_matches_naive(m, set, text, "seed=" + std::to_string(seed));
}

}  // namespace
}  // namespace vpm::core

// ---- pattern-db serialization ------------------------------------------------------

namespace vpm::pattern {
namespace {

TEST(Serialize, RoundTripPreservesEverything) {
  RulesetConfig cfg;
  cfg.count = 400;
  cfg.seed = testutil::case_seed(140);
  const PatternSet original = generate_ruleset(cfg);
  const PatternSet loaded = deserialize_patterns(serialize_patterns(original));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::uint32_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].bytes, original[i].bytes) << i;
    EXPECT_EQ(loaded[i].nocase, original[i].nocase) << i;
    EXPECT_EQ(loaded[i].group, original[i].group) << i;
  }
}

TEST(Serialize, LoadedSetBehavesIdentically) {
  RulesetConfig cfg;
  cfg.count = 200;
  cfg.seed = testutil::case_seed(141);
  const PatternSet original = generate_ruleset(cfg);
  const PatternSet loaded = deserialize_patterns(serialize_patterns(original));
  const auto text = testutil::random_text(30000, testutil::case_seed(142), 26);
  const auto a = core::make_matcher(core::Algorithm::vpatch, original)->find_matches(text);
  const auto b = core::make_matcher(core::Algorithm::vpatch, loaded)->find_matches(text);
  EXPECT_EQ(a, b) << testutil::seed_note();
}

TEST(Serialize, EmptySetRoundTrips) {
  const PatternSet loaded = deserialize_patterns(serialize_patterns(PatternSet{}));
  EXPECT_TRUE(loaded.empty());
}

TEST(Serialize, RejectsBadMagic) {
  util::Bytes junk(64, 0x55);
  EXPECT_THROW(deserialize_patterns(junk), std::invalid_argument);
}

TEST(Serialize, RejectsTruncation) {
  PatternSet set;
  set.add("pattern-one");
  set.add("pattern-two");
  auto bytes = serialize_patterns(set);
  for (std::size_t cut : {bytes.size() - 1, bytes.size() - 5, std::size_t{13}}) {
    util::Bytes t(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(deserialize_patterns(t), std::invalid_argument) << "cut=" << cut;
  }
}

TEST(Serialize, RejectsInvalidGroup) {
  PatternSet set;
  set.add("x");
  auto bytes = serialize_patterns(set);
  bytes[12 + 5] = 0xEE;  // group byte of the first entry
  EXPECT_THROW(deserialize_patterns(bytes), std::invalid_argument);
}

TEST(Serialize, V2RoundTripsHeaderAndPatterns) {
  RulesetConfig cfg;
  cfg.count = 150;
  cfg.seed = testutil::case_seed(143);
  const PatternSet original = generate_ruleset(cfg);
  DbHeader header;
  header.algorithm_hint = 7;
  header.fingerprint = 0xDEADBEEFCAFEF00Dull;
  const auto bytes = serialize_patterns(original, header);

  DbHeader parsed;
  const PatternSet loaded = deserialize_patterns(bytes, &parsed);
  EXPECT_EQ(parsed.version, 2u);
  EXPECT_EQ(parsed.algorithm_hint, 7);
  EXPECT_EQ(parsed.fingerprint, 0xDEADBEEFCAFEF00Dull);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::uint32_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].bytes, original[i].bytes) << i;
    EXPECT_EQ(loaded[i].nocase, original[i].nocase) << i;
    EXPECT_EQ(loaded[i].group, original[i].group) << i;
  }
}

TEST(Serialize, V1InputsReportLegacyHeader) {
  PatternSet set;
  set.add("legacy");
  DbHeader parsed;
  parsed.version = 99;  // must be overwritten
  const PatternSet loaded = deserialize_patterns(serialize_patterns(set), &parsed);
  EXPECT_EQ(parsed.version, 1u);
  EXPECT_EQ(parsed.algorithm_hint, kNoAlgorithmHint);
  EXPECT_EQ(parsed.fingerprint, 0u);
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(Serialize, V2RejectsTruncationAtEveryPrefix) {
  PatternSet set;
  set.add("pattern-one", true, Group::http);
  set.add("p2");
  const auto bytes = serialize_patterns(set, DbHeader{});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(deserialize_patterns(util::ByteView(bytes.data(), cut)),
                 std::invalid_argument)
        << "cut=" << cut;
  }
}

TEST(Serialize, V2RejectsBadMagicAndVersion) {
  PatternSet set;
  set.add("x");
  auto bytes = serialize_patterns(set, DbHeader{});
  auto bad_magic = bytes;
  bad_magic[5] = '3';  // "VPMDB3" — an unknown future magic, not v1/v2
  EXPECT_THROW(deserialize_patterns(bad_magic), std::invalid_argument);
  auto bad_version = bytes;
  bad_version[8] = 3;  // v2 magic but an unsupported version field
  EXPECT_THROW(deserialize_patterns(bad_version), std::invalid_argument);
}

}  // namespace
}  // namespace vpm::pattern
