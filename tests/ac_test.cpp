// Aho-Corasick tests: trie construction, the two automaton variants
// (full-matrix and compressed interleaved), textbook cases, overlap
// semantics, randomized differential checks vs naive, an independent
// brute-force oracle for every transition and output list of the trie's row
// diffs and the compact arena, and the lane-parallel batch kernel vs scalar
// full-table AC.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "ac/ac_compact.hpp"
#include "ac/ac_full.hpp"
#include "ac/trie.hpp"
#include "helpers.hpp"
#include "simd/cpu_features.hpp"

namespace vpm::ac {
namespace {

using testutil::classic_set;
using testutil::expect_matches_naive;

// The DFA transition the full-matrix and compact engines build their rows
// from: state s's row-diff entry at byte b, else the root row's.
std::uint32_t diff_step(const RowDiffs& diffs, const std::array<std::uint32_t, 256>& root,
                        std::uint32_t s, std::uint8_t b) {
  for (std::uint32_t k = diffs.begin[s]; k < diffs.begin[s + 1]; ++k) {
    if (diffs.bytes[k] == b) return diffs.targets[k];
  }
  return root[b];
}

TEST(Trie, StateCountMatchesDistinctPrefixes) {
  // he, she, his, hers -> root + h,e | s,h,e | i,s | r,s = 10 states.
  RowDiffs diffs;
  const Trie trie(classic_set(), diffs);
  EXPECT_EQ(trie.state_count(), 10u);
}

TEST(Trie, RootFallbackOnUnknownByte) {
  RowDiffs diffs;
  const Trie trie(classic_set(), diffs);
  EXPECT_EQ(diff_step(diffs, trie.root_row(), 0, 'z'), 0u);
}

TEST(Trie, GotoFollowsPatternBytes) {
  RowDiffs diffs;
  const Trie trie(classic_set(), diffs);
  const std::array<std::uint32_t, 256> root = trie.root_row();
  std::uint32_t s = 0;
  for (char c : std::string("she")) {
    s = diff_step(diffs, root, s, static_cast<std::uint8_t>(c));
    EXPECT_NE(s, 0u);
  }
  // "she" end state must output both "she" and (via fail) "he".
  std::vector<std::uint32_t> outputs;
  trie.append_matches(s, outputs);
  EXPECT_EQ(outputs.size(), 2u);
}

template <typename M>
class AcVariants : public ::testing::Test {};

using Variants = ::testing::Types<AcFullMatcher, AcCompactMatcher>;
TYPED_TEST_SUITE(AcVariants, Variants);

TYPED_TEST(AcVariants, ClassicUshersExample) {
  pattern::PatternSet set;
  const auto he = set.add("he");
  const auto she = set.add("she");
  set.add("his");
  const auto hers = set.add("hers");
  const TypeParam m(set);
  const auto matches = m.find_matches(util::as_view("ushers"));
  // "ushers" contains she@1, he@2, hers@2; sorted by (id, pos):
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], (Match{he, 2}));
  EXPECT_EQ(matches[1], (Match{she, 1}));
  EXPECT_EQ(matches[2], (Match{hers, 2}));
}

TYPED_TEST(AcVariants, ClassicExampleAgainstOracle) {
  const auto set = classic_set();
  const TypeParam m(set);
  expect_matches_naive(m, set, util::as_view("ushers"));
  expect_matches_naive(m, set, util::as_view("shishers"));
  expect_matches_naive(m, set, util::as_view("hehehehe"));
}

TYPED_TEST(AcVariants, EmptyInputNoMatches) {
  const auto set = classic_set();
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches({}), 0u);
}

TYPED_TEST(AcVariants, InputShorterThanAnyPattern) {
  pattern::PatternSet set;
  set.add("abcdef");
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("abc")), 0u);
}

TYPED_TEST(AcVariants, SingleBytePatterns) {
  pattern::PatternSet set;
  set.add("a");
  set.add("z");
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("banana")), 3u);
  expect_matches_naive(m, set, util::as_view("azazaz"));
}

TYPED_TEST(AcVariants, OverlappingOccurrences) {
  pattern::PatternSet set;
  set.add("aa");
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("aaaa")), 3u);
}

TYPED_TEST(AcVariants, PatternIsSuffixOfAnother) {
  pattern::PatternSet set;
  set.add("dabc");
  set.add("abc");
  set.add("bc");
  set.add("c");
  const TypeParam m(set);
  expect_matches_naive(m, set, util::as_view("xdabcx"));
}

TYPED_TEST(AcVariants, NocaseMatchesAllCases) {
  pattern::PatternSet set;
  set.add("Attack", true);
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("ATTACK attack AtTaCk")), 3u);
}

TYPED_TEST(AcVariants, CaseSensitiveRejectsWrongCase) {
  pattern::PatternSet set;
  set.add("Attack", false);
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("ATTACK attack Attack")), 1u);
}

TYPED_TEST(AcVariants, MixedCaseSensitivitySameBytes) {
  pattern::PatternSet set;
  const auto exact = set.add("get", false);
  const auto folded = set.add("get", true);
  const TypeParam m(set);
  const auto matches = m.find_matches(util::as_view("GET get"));
  // "GET" matches only the nocase pattern; "get" matches both.
  // Sorted by (pattern_id, pos): exact@4, folded@0, folded@4.
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], (Match{exact, 4}));
  EXPECT_EQ(matches[1], (Match{folded, 0}));
  EXPECT_EQ(matches[2], (Match{folded, 4}));
}

TYPED_TEST(AcVariants, BinaryPatternsWithNulAndHighBytes) {
  pattern::PatternSet set;
  set.add(util::Bytes{0x00, 0x90, 0xFF});
  set.add(util::Bytes{0x90, 0x90});
  const TypeParam m(set);
  const util::Bytes data{0x41, 0x00, 0x90, 0xFF, 0x90, 0x90, 0x90};
  expect_matches_naive(m, set, data);
}

TYPED_TEST(AcVariants, MatchAtVeryStartAndEnd) {
  pattern::PatternSet set;
  set.add("begin");
  set.add("end");
  const TypeParam m(set);
  const auto matches = m.find_matches(util::as_view("beginxxxend"));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].pos, 0u);
  EXPECT_EQ(matches[1].pos, 8u);
}

TYPED_TEST(AcVariants, LongPattern) {
  pattern::PatternSet set;
  const std::string longpat(300, 'x');
  set.add(longpat);
  const TypeParam m(set);
  const std::string hay = "yy" + longpat + "yy";
  EXPECT_EQ(m.count_matches(util::as_view(hay)), 1u);
}

TYPED_TEST(AcVariants, RandomizedDifferentialSmall) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto set = testutil::random_set(40, 6, testutil::case_seed(seed));
    const TypeParam m(set);
    const auto text = testutil::random_text(2000, testutil::case_seed(seed + 100));
    expect_matches_naive(m, set, text, "seed=" + std::to_string(seed));
  }
}

TEST(AcFull, MemoryGrowsWithPatternCount) {
  const auto small = testutil::random_set(50, 12, testutil::case_seed(1), 26);
  const auto large = testutil::random_set(500, 12, testutil::case_seed(2), 26);
  const AcFullMatcher a(small);
  const AcFullMatcher b(large);
  EXPECT_GT(b.memory_bytes(), a.memory_bytes()) << testutil::seed_note();
  EXPECT_GT(b.state_count(), a.state_count()) << testutil::seed_note();
}

// ---- compact layout ---------------------------------------------------------------

TEST(AcCompact, CompressesTheFullMatrix) {
  const auto set = testutil::random_set(500, 16, testutil::case_seed(6), 26);
  const AcFullMatcher full(set);
  const AcCompactMatcher compact(set);
  ASSERT_EQ(full.state_count(), compact.state_count());
  // The compression claim: well under a quarter of the full matrix (in
  // practice ~3-5%: most states diff from the root row at only a few bytes).
  EXPECT_LT(compact.memory_bytes() * 4, full.memory_bytes()) << testutil::seed_note();
  EXPECT_LT(compact.dense_states(), compact.state_count() / 10 + 2)
      << testutil::seed_note();
}

TEST(AcCompact, DenseStatesStillMatchExactly) {
  // A state whose row differs from the root row on more than half the
  // folded alphabet (>= 128 bytes) must be laid out dense: give state "a"
  // children on every byte value (~230 distinct folded bytes).
  pattern::PatternSet set;
  set.add("a");
  for (unsigned b = 0; b < 256; ++b) {
    set.add(util::Bytes{static_cast<std::uint8_t>('a'), static_cast<std::uint8_t>(b)});
  }
  const AcCompactMatcher compact(set);
  EXPECT_GE(compact.dense_states(), 2u);  // root + state "a" at least
  util::Bytes text;
  util::Rng rng(testutil::case_seed(7));
  for (int i = 0; i < 4096; ++i) {
    text.push_back(rng.chance(0.4) ? std::uint8_t{'a'} : static_cast<std::uint8_t>(rng.below(256)));
  }
  testutil::expect_matches_naive(compact, set, text, "dense-row mix");
}

TEST(AcCompact, ArenaIsContiguousAndOffsetAddressed) {
  const auto set = testutil::classic_set();
  const AcCompactMatcher compact(set);
  // Root row is dense at offset 0 and every ref's offset stays in-arena.
  ASSERT_GE(compact.arena_words(), 256u);
  for (unsigned b = 0; b < 256; ++b) {
    const std::uint32_t ref = compact.arena()[b];
    EXPECT_LT(ref & kAcOffsetMask, compact.arena_words());
  }
}

// ---- independent automaton oracle -------------------------------------------------
//
// A brute-force reference that shares no code with src/ac: an automaton
// state is named by its string, the longest suffix of the input read so far
// that is a prefix of some folded pattern, and it reports exactly the
// patterns whose folded form is a suffix of that string.  The walks below
// reach every state breadth-first and check every byte's transition and
// every output list against it.

std::uint8_t oracle_fold(std::uint8_t b) {
  return (b >= 'A' && b <= 'Z') ? static_cast<std::uint8_t>(b + ('a' - 'A')) : b;
}

struct Oracle {
  std::vector<std::string> folded;  // by pattern id
  std::set<std::string> prefixes;   // of every folded pattern, "" included

  explicit Oracle(const pattern::PatternSet& set) {
    for (const pattern::Pattern& p : set) {
      std::string f;
      for (const std::uint8_t b : p.bytes) f.push_back(static_cast<char>(oracle_fold(b)));
      for (std::size_t k = 0; k <= f.size(); ++k) prefixes.insert(f.substr(0, k));
      folded.push_back(std::move(f));
    }
  }

  // The longest suffix of `s` that is a prefix of some folded pattern.
  std::string state_of(const std::string& s) const {
    for (std::size_t drop = 0; drop < s.size(); ++drop) {
      if (prefixes.count(s.substr(drop)) != 0) return s.substr(drop);
    }
    return {};
  }

  // Ids of the patterns whose folded form is a suffix of `w`, ascending.
  std::vector<std::uint32_t> matches(const std::string& w) const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t id = 0; id < folded.size(); ++id) {
      const std::string& f = folded[id];
      if (f.size() <= w.size() && w.compare(w.size() - f.size(), f.size(), f) == 0) {
        out.push_back(id);
      }
    }
    return out;
  }
};

// Up to 10 patterns of 1-6 bytes over {a, A, b, B, NUL, 0xFF}, plus a
// nocase and an exact-case copy of one of them and a pattern that one of
// them is a prefix of (or that is a prefix of it).
pattern::PatternSet oracle_set(util::Rng& rng) {
  static constexpr std::uint8_t kAlphabet[] = {'a', 'A', 'b', 'B', 0x00, 0xFF};
  pattern::PatternSet set;
  const std::size_t count = 1 + rng.below(10);
  for (std::size_t i = 0; i < count; ++i) {
    util::Bytes bytes(1 + rng.below(6));
    for (std::uint8_t& b : bytes) b = kAlphabet[rng.below(std::size(kAlphabet))];
    set.add(std::move(bytes), rng.chance(0.5));
  }
  util::Bytes base = set[static_cast<std::uint32_t>(rng.below(set.size()))].bytes;
  set.add(base, true);
  set.add(base, false);
  if (base.size() < 6) {
    base.push_back(kAlphabet[rng.below(std::size(kAlphabet))]);
  } else {
    base.resize(1 + rng.below(base.size() - 1));
  }
  set.add(std::move(base), rng.chance(0.5));
  return set;
}

// One compact-arena transition, decoded from the encoding in ac_compact.hpp.
std::uint32_t arena_step(const AcCompactMatcher& m, std::uint32_t ref, std::uint8_t b) {
  const std::uint32_t* arena = m.arena();
  const std::uint32_t off = ref & kAcOffsetMask;
  if (ref & kAcDenseFlag) return arena[off + b];
  const std::uint32_t chunk = arena[off + b / 24];
  const std::uint32_t bit = b % 24;
  if (((chunk >> bit) & 1u) == 0) return arena[b];
  const auto rank = static_cast<std::uint32_t>(std::popcount(chunk & ((1u << bit) - 1u)));
  return arena[off + kAcSparseChunks + (chunk >> 24) + rank];
}

void expect_compact_matches_oracle(const pattern::PatternSet& set) {
  const Oracle oracle(set);
  const AcCompactMatcher m(set);
  std::map<std::uint32_t, std::string> string_of{{kAcRootRef, ""}};
  std::map<std::string, std::uint32_t> ref_of{{"", kAcRootRef}};
  std::deque<std::uint32_t> queue{kAcRootRef};
  while (!queue.empty()) {
    const std::uint32_t ref = queue.front();
    queue.pop_front();
    const std::string w = string_of.at(ref);
    const std::vector<std::uint32_t> expected = oracle.matches(w);
    ASSERT_EQ((ref & kAcOutputFlag) != 0, !expected.empty()) << "state \"" << w << '"';
    if (ref & kAcOutputFlag) {
      const std::span<const std::uint32_t> span = m.outputs(ref);
      std::vector<std::uint32_t> got(span.begin(), span.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << "outputs of state \"" << w << '"';
    }
    for (unsigned raw = 0; raw < 256; ++raw) {
      const std::uint8_t b = oracle_fold(static_cast<std::uint8_t>(raw));
      const std::uint32_t next = arena_step(m, ref, b);
      ASSERT_LT(next & kAcOffsetMask, m.arena_words());
      const std::string u = oracle.state_of(w + static_cast<char>(b));
      const auto [it, fresh] = string_of.emplace(next, u);
      if (fresh) {
        ASSERT_TRUE(ref_of.emplace(u, next).second) << "two refs for state \"" << u << '"';
        queue.push_back(next);
      } else {
        ASSERT_EQ(it->second, u) << "from \"" << w << "\" on byte " << raw;
      }
    }
  }
  EXPECT_EQ(string_of.size(), oracle.prefixes.size());
  EXPECT_EQ(string_of.size(), m.state_count());
}

void expect_trie_matches_oracle(const pattern::PatternSet& set) {
  const Oracle oracle(set);
  RowDiffs diffs;
  const Trie trie(set, diffs);
  const std::array<std::uint32_t, 256> root = trie.root_row();
  ASSERT_EQ(trie.state_count(), oracle.prefixes.size());
  std::vector<std::string> string_of(trie.state_count());
  std::vector<bool> seen(trie.state_count(), false);
  std::map<std::string, std::uint32_t> state_of{{"", 0}};
  std::deque<std::uint32_t> queue{0};
  seen[0] = true;
  while (!queue.empty()) {
    const std::uint32_t s = queue.front();
    queue.pop_front();
    const std::string& w = string_of[s];
    std::vector<std::uint32_t> got;
    trie.append_matches(s, got);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, oracle.matches(w)) << "outputs of state \"" << w << '"';
    // Children are contiguous and in ascending edge-byte order.
    for (std::uint32_t k = 0; k < trie.child_count(s); ++k) {
      const std::uint32_t c = trie.first_child(s) + k;
      ASSERT_EQ(diff_step(diffs, root, s, trie.edge_byte(c)), c);
      if (k > 0) {
        ASSERT_LT(trie.edge_byte(c - 1), trie.edge_byte(c));
      }
    }
    // The diff is sorted by byte, as the compact arena's fill reads it.
    for (std::uint32_t k = diffs.begin[s] + 1; k < diffs.begin[s + 1]; ++k) {
      ASSERT_LT(diffs.bytes[k - 1], diffs.bytes[k]) << "diff of \"" << w << '"';
    }
    if (s != 0) {
      // Breadth-first discovery reaches shorter strings first, so the
      // fail target (a proper suffix) has its string already.
      ASSERT_TRUE(seen[trie.fail(s)]);
      ASSERT_EQ(string_of[trie.fail(s)], oracle.state_of(w.substr(1)))
          << "fail of \"" << w << '"';
    }
    for (unsigned raw = 0; raw < 256; ++raw) {
      const std::uint8_t b = oracle_fold(static_cast<std::uint8_t>(raw));
      const std::uint32_t next = diff_step(diffs, root, s, b);
      ASSERT_LT(next, trie.state_count());
      const std::string u = oracle.state_of(w + static_cast<char>(b));
      if (!seen[next]) {
        seen[next] = true;
        string_of[next] = u;
        ASSERT_TRUE(state_of.emplace(u, next).second) << "two states for \"" << u << '"';
        queue.push_back(next);
      } else {
        ASSERT_EQ(string_of[next], u) << "from \"" << w << "\" on byte " << raw;
      }
    }
  }
  EXPECT_EQ(state_of.size(), trie.state_count());
}

TEST(AcOracle, CompactArenaMatchesBruteForce) {
  util::Rng rng(testutil::case_seed(20));
  for (int round = 0; round < 100; ++round) {
    const pattern::PatternSet set = oracle_set(rng);
    SCOPED_TRACE("round " + std::to_string(round) + " (" + testutil::seed_note() + ")");
    expect_compact_matches_oracle(set);
    if (HasFatalFailure()) return;
  }
}

TEST(AcOracle, TrieNextStateMatchesBruteForce) {
  util::Rng rng(testutil::case_seed(21));
  for (int round = 0; round < 100; ++round) {
    const pattern::PatternSet set = oracle_set(rng);
    SCOPED_TRACE("round " + std::to_string(round) + " (" + testutil::seed_note() + ")");
    expect_trie_matches_oracle(set);
    if (HasFatalFailure()) return;
  }
}

// ---- lane-parallel batch kernel ---------------------------------------------------

using PacketMatch = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

struct CollectingBatchSink final : BatchSink {
  std::vector<PacketMatch> out;
  void on_match(std::uint32_t packet, const Match& m) override {
    out.emplace_back(packet, m.pattern_id, m.pos);
  }
};

std::vector<util::ByteView> views_of(const std::vector<util::Bytes>& payloads) {
  std::vector<util::ByteView> v;
  for (const util::Bytes& p : payloads) v.emplace_back(p.data(), p.size());
  return v;
}

// The satellite contract: AC-lanes (compact scan_batch) must report the
// multiset scalar full-table AC reports per payload — across batch sizes,
// ragged payload mixes (lane refill), and random seed universes.
void expect_lanes_match_scalar_ac(const pattern::PatternSet& set,
                                  const std::vector<util::Bytes>& payloads,
                                  const std::string& context) {
  const AcFullMatcher reference(set);
  std::vector<PacketMatch> expected;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (const Match& m : reference.find_matches(payloads[i])) {
      expected.emplace_back(static_cast<std::uint32_t>(i), m.pattern_id, m.pos);
    }
  }
  std::sort(expected.begin(), expected.end());

  const AcCompactMatcher compact(set);
  const auto views = views_of(payloads);
  ScanScratch scratch;
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    CollectingBatchSink sink;
    for (std::size_t begin = 0; begin < views.size(); begin += batch) {
      const std::size_t count = std::min(batch, views.size() - begin);
      struct Shift final : BatchSink {
        CollectingBatchSink* inner;
        std::uint32_t base;
        void on_match(std::uint32_t packet, const Match& m) override {
          inner->on_match(base + packet, m);
        }
      } shifted;
      shifted.inner = &sink;
      shifted.base = static_cast<std::uint32_t>(begin);
      compact.scan_batch({views.data() + begin, count}, shifted, scratch);
    }
    std::sort(sink.out.begin(), sink.out.end());
    EXPECT_EQ(sink.out, expected)
        << context << " batch=" << batch << " (" << testutil::seed_note() << ")";
  }
}

TEST(AcLanes, MatchesScalarAcOnAdversarialPayloadMix) {
  const auto set = testutil::boundary_set();
  std::vector<util::Bytes> payloads;
  payloads.push_back({});                        // empty (skipped at staging)
  payloads.push_back(util::to_bytes("a"));       // 1-byte match
  payloads.push_back(util::to_bytes("xxab"));    // prefix ends at the edge...
  payloads.push_back(util::to_bytes("cdexx"));   // ...suffix opens the next payload
  payloads.push_back(util::to_bytes("abcde"));   // exact fit against both edges
  payloads.push_back({});
  payloads.push_back(util::to_bytes("GEt hTtP/1.1"));            // nocase
  payloads.push_back({0x00, 0x01, 0xFF, 0xFE, 0xFD, 0xFC, 0xFB});  // binary + NUL
  payloads.push_back(util::to_bytes("z"));
  payloads.push_back(testutil::random_text(3, testutil::case_seed(8)));
  payloads.push_back(testutil::random_text(129, testutil::case_seed(9)));  // odd tail
  expect_lanes_match_scalar_ac(set, payloads, "adversarial");
}

TEST(AcLanes, MatchesScalarAcAcrossRaggedRandomPayloads) {
  const auto set = testutil::random_set(300, 6, testutil::case_seed(10));
  util::Rng rng(testutil::case_seed(11));
  std::vector<util::Bytes> payloads;
  for (int i = 0; i < 64; ++i) {
    // Ragged lengths exercise the dynamic lane-refill path: lanes finish at
    // wildly different times and must pick up fresh payloads mid-batch.
    const std::size_t len = rng.below(400);
    payloads.push_back(testutil::random_text(len, testutil::case_seed(12) + i));
  }
  expect_lanes_match_scalar_ac(set, payloads, "ragged");
}

TEST(AcLanes, MatchesScalarAcOnDenseHeavyAutomaton) {
  // Force dense records into the lane kernel's gather path.
  pattern::PatternSet set;
  set.add("a");
  for (unsigned b = 0; b < 256; ++b) {
    set.add(util::Bytes{static_cast<std::uint8_t>('a'), static_cast<std::uint8_t>(b)}, (b % 3) == 0);
  }
  util::Rng rng(testutil::case_seed(13));
  std::vector<util::Bytes> payloads;
  for (int i = 0; i < 24; ++i) {
    util::Bytes text;
    const std::size_t len = 1 + rng.below(200);
    for (std::size_t k = 0; k < len; ++k) {
      text.push_back(rng.chance(0.5) ? std::uint8_t{'a'} : static_cast<std::uint8_t>(rng.below(256)));
    }
    payloads.push_back(std::move(text));
  }
  expect_lanes_match_scalar_ac(set, payloads, "dense-heavy");
}

TEST(AcLanes, MatchesScalarAcOnFullSparseChunk) {
  // State `x` diffs on bytes [96, 120), which fill one whole 24-bit sparse
  // chunk, so the lanes' rank popcount sees every prefix count 0-23.
  pattern::PatternSet set;
  for (unsigned b = 96; b < 120; ++b) {
    set.add(util::Bytes{static_cast<std::uint8_t>('x'), static_cast<std::uint8_t>(b)});
  }
  util::Rng rng(testutil::case_seed(14));
  std::vector<util::Bytes> payloads;
  for (int i = 0; i < 24; ++i) {
    util::Bytes text;
    const std::size_t len = 1 + rng.below(200);
    for (std::size_t k = 0; k < len; ++k) {
      text.push_back(rng.chance(0.5) ? std::uint8_t{'x'}
                                     : static_cast<std::uint8_t>(96 + rng.below(24)));
    }
    payloads.push_back(std::move(text));
  }
  expect_lanes_match_scalar_ac(set, payloads, "full sparse chunk");
}

}  // namespace
}  // namespace vpm::ac
