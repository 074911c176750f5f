// Differential suite for the batch-scan fast path: for every algorithm the
// (packet, pattern, position) multiset reported by Matcher::scan_batch must
// equal the per-payload scan() multiset — across batch sizes, adversarial
// payload mixes (empty, 1-byte, cross-boundary near-misses), and churny
// scratch reuse (the same ScanScratch handed between matchers).  Runs under
// ASan in CI, pinning the shared-candidate-pool aliasing and slack-store
// contracts; guard pages pin the vector kernels' read bound, and
// exact-extent heap buffers every engine's end-of-buffer reads and the AC
// lanes' staging contract; the scalar-forced rerun pins the fallback
// kernels.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ac/ac_compact.hpp"
#include "core/matcher_factory.hpp"
#include "core/naive.hpp"
#include "core/vpatch.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "stream_oracle.hpp"

namespace vpm {
namespace {

using testutil::case_seed;
using testutil::seed_note;

// (packet index, pattern id, position) in canonical order.
using PacketMatch = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

std::vector<util::ByteView> views_of(const std::vector<util::Bytes>& payloads) {
  std::vector<util::ByteView> v;
  v.reserve(payloads.size());
  for (const util::Bytes& p : payloads) v.emplace_back(p.data(), p.size());
  return v;
}

std::vector<PacketMatch> per_payload_reference(const Matcher& m,
                                               const std::vector<util::Bytes>& payloads) {
  std::vector<PacketMatch> out;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (const Match& match : m.find_matches(payloads[i])) {
      out.emplace_back(static_cast<std::uint32_t>(i), match.pattern_id, match.pos);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct CollectingBatchSink final : BatchSink {
  std::vector<PacketMatch>* out = nullptr;
  std::uint32_t packet_base = 0;
  void on_match(std::uint32_t packet, const Match& m) override {
    out->emplace_back(packet_base + packet, m.pattern_id, m.pos);
  }
};

// Scans `payloads` through scan_batch in slices of `batch_size`, reusing the
// caller's scratch across slices (exactly how the pipeline worker drives it).
std::vector<PacketMatch> batched(const Matcher& m, const std::vector<util::Bytes>& payloads,
                                 std::size_t batch_size, ScanScratch& scratch) {
  const auto views = views_of(payloads);
  std::vector<PacketMatch> out;
  CollectingBatchSink sink;
  sink.out = &out;
  for (std::size_t begin = 0; begin < views.size(); begin += batch_size) {
    const std::size_t count = std::min(batch_size, views.size() - begin);
    sink.packet_base = static_cast<std::uint32_t>(begin);
    m.scan_batch({views.data() + begin, count}, sink, scratch);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Empty payloads, 1-byte payloads, and cross-boundary near-misses: pattern
// prefixes ending one payload with the suffix opening the next (a batch scan
// must never match across payloads), plus exact matches flush against both
// payload edges.
std::vector<util::Bytes> adversarial_payloads(std::uint64_t seed) {
  std::vector<util::Bytes> p;
  p.push_back({});                                   // empty
  p.push_back(util::to_bytes("a"));                  // 1-byte, matches 'a'
  p.push_back({});                                   // empty between content
  p.push_back(util::to_bytes("xxabc"));              // "abcd" prefix at the edge...
  p.push_back(util::to_bytes("dexx"));               // ...suffix opens the next payload
  p.push_back(util::to_bytes("abcd"));               // exact fit, both edges
  p.push_back(util::to_bytes("xHTTP/1."));           // nocase long near-miss
  p.push_back(util::to_bytes("1xGET"));              // nocase short at the tail
  p.push_back(util::to_bytes("z"));                  // 1-byte, no match
  p.push_back({0xFF, 0xFE, 0xFD, 0xFC});             // binary prefix of a 5-byte pattern
  p.push_back({0xFB});
  p.push_back(testutil::random_text(3, seed));
  p.push_back(testutil::random_text(64, seed + 1));
  return p;
}

std::vector<util::Bytes> sized_payloads(std::size_t count, std::size_t size,
                                        std::uint64_t seed) {
  std::vector<util::Bytes> p;
  p.reserve(count);
  for (std::size_t i = 0; i < count; ++i) p.push_back(testutil::random_text(size, seed + i));
  return p;
}

class BatchScanTest : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(BatchScanTest, MatchesPerPayloadScanOnAdversarialMix) {
  const auto set = testutil::boundary_set();
  const auto matcher = core::make_matcher(GetParam(), set);
  const auto payloads = adversarial_payloads(case_seed(101));
  const auto expected = per_payload_reference(*matcher, payloads);
  ScanScratch scratch;
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    EXPECT_EQ(batched(*matcher, payloads, batch, scratch), expected)
        << matcher->name() << " batch=" << batch << " (" << seed_note() << ")";
  }
}

TEST_P(BatchScanTest, MatchesPerPayloadScanOnRandomPayloads) {
  const auto set = testutil::random_set(200, 6, case_seed(102));
  const auto matcher = core::make_matcher(GetParam(), set);
  ScanScratch scratch;
  for (std::size_t size : {std::size_t{1}, std::size_t{64}, std::size_t{256}}) {
    const auto payloads = sized_payloads(40, size, case_seed(103) + size);
    const auto expected = per_payload_reference(*matcher, payloads);
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
      EXPECT_EQ(batched(*matcher, payloads, batch, scratch), expected)
          << matcher->name() << " payload=" << size << " batch=" << batch << " ("
          << seed_note() << ")";
    }
  }
}

TEST_P(BatchScanTest, EmptyBatchIsANoOp) {
  const auto set = testutil::classic_set();
  const auto matcher = core::make_matcher(GetParam(), set);
  ScanScratch scratch;
  std::vector<PacketMatch> out;
  CollectingBatchSink sink;
  sink.out = &out;
  matcher->scan_batch({}, sink, scratch);
  EXPECT_TRUE(out.empty());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BatchScanTest,
                         ::testing::ValuesIn(core::available_algorithms()),
                         [](const auto& info) {
                           std::string n(core::algorithm_name(info.param));
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// One scratch handed between DIFFERENT matchers (the engine reuses per-group
// scratch; a scratch must re-initialize when its owner changes) and across
// churny batch-size variation.
TEST(BatchScanScratchTest, ScratchSurvivesOwnerAndBatchSizeChurn) {
  const auto set = testutil::boundary_set();
  const auto payloads = sized_payloads(32, 128, case_seed(104));
  ScanScratch scratch;
  for (int round = 0; round < 3; ++round) {
    for (core::Algorithm a : core::available_algorithms()) {
      const auto matcher = core::make_matcher(a, set);
      const auto expected = per_payload_reference(*matcher, payloads);
      const std::size_t batch = (round == 0) ? 32 : (round == 1 ? 5 : 1);
      EXPECT_EQ(batched(*matcher, payloads, batch, scratch), expected)
          << matcher->name() << " round=" << round << " (" << seed_note() << ")";
    }
  }
}

// Payloads larger than the V-PATCH chunk size take the per-payload fallback
// inside scan_batch; mixing them with small payloads must stay exact.
TEST(BatchScanScratchTest, OversizedPayloadFallback) {
  const auto set = testutil::random_set(100, 5, case_seed(105));
  core::VpatchConfig cfg;
  cfg.chunk_size = 512;  // force the fallback without a 32 KB payload
  const core::VpatchMatcher matcher(set, cfg);
  std::vector<util::Bytes> payloads;
  payloads.push_back(testutil::random_text(64, case_seed(106)));
  payloads.push_back(testutil::random_text(2048, case_seed(107)));  // oversized
  payloads.push_back(testutil::random_text(256, case_seed(108)));
  const auto expected = per_payload_reference(matcher, payloads);
  ScanScratch scratch;
  EXPECT_EQ(batched(matcher, payloads, 3, scratch), expected) << seed_note();
}

// The read contract of V-PATCH's vector kernels, which cover every position
// themselves: each payload of 1..96 bytes is placed with its last byte right
// before a PROT_NONE page, and again with its first byte right after one, so
// a read outside [data, data + len) faults the test.  scan_batch() and
// scan() must report the naive engine's matches at both placements, also
// when scan() cuts the payload into 13-byte chunks (blocks cut short inside
// the view).
TEST(BatchScanReadBound, VectorKernelsNeverReadPastAPayload) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // leading guard | one readable page | trailing guard
  void* mem = mmap(nullptr, 3 * page, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  struct Unmap {
    void* mem;
    std::size_t size;
    ~Unmap() { munmap(mem, size); }
  } unmap{mem, 3 * page};
  auto* const base = static_cast<std::uint8_t*>(mem);
  ASSERT_EQ(mprotect(base, page, PROT_NONE), 0);
  ASSERT_EQ(mprotect(base + 2 * page, page, PROT_NONE), 0);
  std::uint8_t* const first = base + page;    // right after the leading guard
  std::uint8_t* const end = base + 2 * page;  // the trailing guard

  const auto set = testutil::random_set(120, 6, case_seed(111));
  const core::NaiveMatcher naive(set);
  std::vector<std::unique_ptr<core::VpatchMatcher>> matchers;
  for (core::Isa isa : {core::Isa::avx512, core::Isa::avx2}) {
    if (!core::isa_supported(isa)) continue;
    for (std::size_t chunk_size : {std::size_t{32 * 1024}, std::size_t{13}}) {
      core::VpatchConfig cfg;
      cfg.isa = isa;
      cfg.chunk_size = chunk_size;
      matchers.push_back(std::make_unique<core::VpatchMatcher>(set, cfg));
    }
  }
  if (matchers.empty()) GTEST_SKIP() << "no V-PATCH vector kernel on this CPU";

  ScanScratch scratch;
  for (std::size_t len = 1; len <= 96; ++len) {
    const util::Bytes text = testutil::random_text(len, case_seed(112) + len);
    for (std::uint8_t* at : {first, end - len}) {
      std::copy(text.begin(), text.end(), at);
      const util::ByteView view(at, len);
      const auto expected = naive.find_matches(view);
      std::vector<PacketMatch> expected_batch;
      for (const Match& m : expected) expected_batch.emplace_back(0, m.pattern_id, m.pos);
      for (const auto& matcher : matchers) {
        const std::string where = std::string(matcher->name()) + " chunk " +
                                  std::to_string(matcher->config().chunk_size) + " size " +
                                  std::to_string(len) + (at == first ? " leading" : " trailing") +
                                  " (" + seed_note() + ")";
        EXPECT_EQ(matcher->find_matches(view), expected) << "scan() " << where;
        std::vector<PacketMatch> got;
        CollectingBatchSink sink;
        sink.out = &got;
        matcher->scan_batch({&view, 1}, sink, scratch);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected_batch) << "scan_batch() " << where;
      }
    }
  }
}

// Exactly `n` addressable bytes on the heap ending in "abcde" (or the prefix
// of it that fits) over a deterministic fill whose byte i differs from byte
// i+1, so under ASan any read past the buffer faults.
util::Bytes exact_buffer_ending_in_match(std::size_t n) {
  util::Bytes buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<std::uint8_t>(0x11 * (i + 1) ^ (i >> 3));
  }
  const char* needle = "abcde";
  const std::size_t k = std::min<std::size_t>(5, n);
  std::copy(needle, needle + k, buf.end() - static_cast<std::ptrdiff_t>(k));
  return buf;
}

// A pattern ending on the very last byte of an exactly-sized heap buffer
// must be reported by every available engine, and (under ASan) scanning
// must not read past the buffer.
TEST(BatchScanReadBound, EveryEngineMatchesAtExactBufferEnd) {
  const auto set = testutil::boundary_set();
  for (const std::size_t n : std::vector<std::size_t>{5, 16, 17, 31, 32, 33, 64, 1000}) {
    const util::Bytes buf = exact_buffer_ending_in_match(n);
    for (const auto algo : core::available_algorithms()) {
      const auto m = core::make_matcher(algo, set);
      testutil::expect_matches_naive(*m, set, buf, "tail n=" + std::to_string(n));
    }
  }
}

// The AC lane kernel's read contract (ac_lanes.hpp): input bytes are
// fetched 4 at a time, but only from the STAGED copy — never from the
// caller's payload buffers.  Exact-extent heap payloads driven through
// scan_batch (under ASan in CI) trip any kernel change that starts reading
// user memory wide; the value check pins batch/scan equality at the same
// time.
TEST(BatchScanReadBound, AcLaneKernelNeverReadsPastCallerPayloads) {
  const auto set = testutil::boundary_set();
  const ac::AcCompactMatcher compact(set);
  std::vector<util::Bytes> payloads;
  for (const std::size_t n : {1, 2, 3, 5, 13, 64, 129}) {
    payloads.push_back(exact_buffer_ending_in_match(n));
  }
  ScanScratch scratch;
  EXPECT_EQ(batched(compact, payloads, payloads.size(), scratch),
            per_payload_reference(compact, payloads));
}

// Exact and nocase patterns of 1, 2 and 3 bytes, letters and binary, with
// long patterns sharing their prefixes.
pattern::PatternSet short_family_set() {
  pattern::PatternSet set;
  set.add("x");
  set.add("Q", true);
  set.add(util::Bytes{0x00});
  set.add("ab");
  set.add("Cd", true);
  set.add(util::Bytes{0xFF, 0x00});
  set.add("abc");
  set.add("aBz", true);
  set.add("Cd9", true);
  set.add(util::Bytes{0x00, 0x01, 0xFF});
  set.add("abcd");
  set.add("CdEF", true);
  return set;
}

// Every short pattern's 2-byte prefix (a 1-byte pattern's byte), as written,
// lowercased and uppercased, followed in one payload by each of the 256
// third bytes in turn, so its last copy starts 3 bytes before the end; the
// same prefix alone ends a payload at the last two positions, and its first
// byte alone at the last one.  Then each short pattern, in the same three
// cases, is a payload of its own, matching at its end.
std::vector<util::Bytes> third_byte_payloads(const pattern::PatternSet& set) {
  const auto cases = [](const util::Bytes& b) {
    util::Bytes upper(b);
    for (std::uint8_t& c : upper) c = util::ascii_upper(c);
    return std::set<util::Bytes>{b, util::lowered(b), upper};
  };
  std::set<util::Bytes> prefixes;
  std::set<util::Bytes> whole;
  for (const pattern::Pattern& p : set) {
    if (p.size() >= pattern::kShortLongBoundary) continue;
    const util::Bytes prefix(p.bytes.begin(), p.bytes.begin() + std::min<std::size_t>(2, p.size()));
    prefixes.merge(cases(prefix));
    whole.merge(cases(p.bytes));
  }
  std::vector<util::Bytes> payloads;
  for (const util::Bytes& prefix : prefixes) {
    util::Bytes all;
    for (unsigned third = 0; third < 256; ++third) {
      all.insert(all.end(), prefix.begin(), prefix.end());
      all.push_back(static_cast<std::uint8_t>(third));
    }
    payloads.push_back(std::move(all));
    payloads.push_back(prefix);
    payloads.push_back({prefix[0]});
  }
  payloads.insert(payloads.end(), whole.begin(), whole.end());
  return payloads;
}

// V-PATCH's round two drops short candidates in a pre-pass: a 2-byte window
// set for 1- and 2-byte patterns and a hashed bitmap of 3-byte windows.
// scan() and scan_batch() must still report every match NaiveMatcher does
// on the windows that test both, at every width, including the zero-padded
// windows of the last positions.
TEST(ShortPrePass, EveryShortPatternPrefixWithAllThirdBytes) {
  const std::vector<std::pair<std::string, pattern::PatternSet>> sets = {
      {"hand-built", short_family_set()},
      {"S1-web", pattern::generate_ruleset(pattern::s1_config()).web_patterns()},
      {"S2-full", pattern::generate_ruleset(pattern::s2_config())},
  };
  for (const auto& [label, set] : sets) {
    const auto payloads = third_byte_payloads(set);
    const core::NaiveMatcher naive(set);
    std::vector<std::vector<Match>> expected;
    std::vector<PacketMatch> expected_batch;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      expected.push_back(naive.find_matches(payloads[i]));
      for (const Match& m : expected.back()) {
        expected_batch.emplace_back(static_cast<std::uint32_t>(i), m.pattern_id, m.pos);
      }
    }
    std::sort(expected_batch.begin(), expected_batch.end());
    ASSERT_FALSE(expected_batch.empty()) << label;

    ScanScratch scratch;
    for (core::Isa isa : {core::Isa::scalar, core::Isa::avx2, core::Isa::avx512}) {
      if (!core::isa_supported(isa)) continue;
      core::VpatchConfig cfg;
      cfg.isa = isa;
      const core::VpatchMatcher matcher(set, cfg);
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        ASSERT_EQ(matcher.find_matches(payloads[i]), expected[i])
            << label << " " << matcher.name() << " scan() of payload " << i << " ("
            << util::escape_bytes(payloads[i]).substr(0, 24) << ")";
      }
      EXPECT_EQ(batched(matcher, payloads, 32, scratch), expected_batch)
          << label << " " << matcher.name() << " scan_batch()";
    }
  }
}

// The engine-level batch entry point: stage()+flush_batch() must produce the
// alert multiset of a naive scan of each flow's whole stream, including
// carry dedup across chunks of the same flow and flows interleaved within
// one batch.
TEST(EngineBatchTest, StageFlushMatchesWholeStreams) {
  pattern::PatternSet rules;
  rules.add("attack", false, pattern::Group::http);
  rules.add("/etc/passwd", false, pattern::Group::http);
  rules.add("ab", false, pattern::Group::generic);
  rules.add("xyz", true, pattern::Group::dns);

  // Chunked streams: patterns split across chunk boundaries of one flow.
  struct Feed {
    std::uint64_t flow;
    pattern::Group group;
    std::string chunk;
  };
  const std::vector<Feed> feeds = {
      {1, pattern::Group::http, "GET /atta"},
      {2, pattern::Group::dns, "qqXY"},
      {1, pattern::Group::http, "ck HTTP"},
      {3, pattern::Group::generic, "aabb"},
      {2, pattern::Group::dns, "Zqq"},
      {1, pattern::Group::http, " /etc/pas"},
      {3, pattern::Group::generic, ""},
      {1, pattern::Group::http, "swd"},
      {3, pattern::Group::generic, "ab"},
      // A whole match ends the chunk: the carry the next chunk rescans
      // holds all of it (http's longest pattern is longer), found once.
      {4, pattern::Group::http, "xab"},
      {4, pattern::Group::http, "-"},
  };

  for (core::Algorithm algo : {core::Algorithm::vpatch, core::Algorithm::dfc,
                               core::Algorithm::aho_corasick}) {
    // One database for both sides: alerts compare their generation too.
    const DatabasePtr db = compile(algo, rules);
    testutil::StreamOracle oracle(db);
    for (const Feed& f : feeds) oracle.append(f.flow, f.group, util::as_view(f.chunk));
    std::vector<ids::Alert> expected = oracle.finish().alerts;

    // Batched: stage everything (duplicate flows force intermediate
    // flushes), flush at batch end — the worker's exact driving pattern.
    ids::IdsEngine engine(db);
    std::vector<ids::Alert> actual;
    ids::AlertBuffer sink(actual);
    for (std::size_t round = 0; round < 2; ++round) {  // round 2 reuses scratch
      for (const Feed& f : feeds) {
        engine.stage(f.flow + round * 100, f.group, util::to_bytes(f.chunk), sink);
      }
      engine.flush_batch(sink);
    }
    ASSERT_EQ(engine.staged_chunks(), 0u);

    auto sorted = [](std::vector<ids::Alert> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    std::vector<ids::Alert> expected2 = expected;  // round 2: flows shifted
    for (ids::Alert& a : expected2) a.flow_id += 100;
    expected.insert(expected.end(), expected2.begin(), expected2.end());
    EXPECT_EQ(sorted(actual), sorted(expected))
        << core::algorithm_name(algo) << " (" << seed_note() << ")";
    EXPECT_EQ(engine.counters().alerts, expected.size());
  }
}

// close_flow() called from an AlertSink DURING flush_batch (teardown-on-
// alert) must defer: the in-flight batch's flow pointers and indices stay
// valid, every staged chunk still gets scanned, and the flow is gone after.
TEST(EngineBatchTest, CloseFlowFromSinkDefersUntilFlushCompletes) {
  pattern::PatternSet rules;
  rules.add("needle", false, pattern::Group::generic);
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));

  struct ClosingSink final : ids::AlertSink {
    ids::IdsEngine* engine = nullptr;
    std::vector<ids::Alert> alerts;
    void on_alert(const ids::Alert& a) override {
      alerts.push_back(a);
      engine->close_flow(a.flow_id);  // re-enters the engine mid-flush
    }
  } sink;
  sink.engine = &engine;

  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    engine.stage(flow, pattern::Group::generic, util::to_bytes("a needle here"), sink);
  }
  engine.flush_batch(sink);

  ASSERT_EQ(sink.alerts.size(), 4u);  // every staged chunk was still scanned
  std::vector<std::uint64_t> flows;
  for (const ids::Alert& a : sink.alerts) flows.push_back(a.flow_id);
  std::sort(flows.begin(), flows.end());
  EXPECT_EQ(flows, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(engine.active_flows(), 0u);  // the deferred closes happened
}

// The nested-flush variant: a second stage() on an already-staged flow
// triggers flush_batch internally; if the sink closes that very flow
// (deferred to flush end), the engine must re-acquire the flow state — the
// old reference points at an erased node (was a heap-use-after-free).
TEST(EngineBatchTest, StageAfterSinkClosedSameFlowSurvives) {
  pattern::PatternSet rules;
  rules.add("needle", false, pattern::Group::generic);
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));

  struct ClosingSink final : ids::AlertSink {
    ids::IdsEngine* engine = nullptr;
    std::uint64_t alerts = 0;
    void on_alert(const ids::Alert& a) override {
      ++alerts;
      engine->close_flow(a.flow_id);
    }
  } sink;
  sink.engine = &engine;

  engine.stage(1, pattern::Group::generic, util::to_bytes("a needle"), sink);
  // Second chunk for flow 1: flushes (alert fires, sink closes flow 1,
  // deferred erase runs at flush end), then must re-acquire flow 1.
  engine.stage(1, pattern::Group::generic, util::to_bytes("needle!"), sink);
  engine.flush_batch(sink);
  EXPECT_EQ(sink.alerts, 2u);
}

// close_flow() on a staged flow must drop the pending chunk without leaving
// a dangling reference behind (the eviction path's contract).
TEST(EngineBatchTest, CloseFlowDropsStagedChunk) {
  pattern::PatternSet rules;
  rules.add("needle", false, pattern::Group::generic);
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  std::vector<ids::Alert> alerts;
  ids::AlertBuffer sink(alerts);

  engine.stage(1, pattern::Group::generic, util::to_bytes("needle"), sink);
  engine.stage(2, pattern::Group::generic, util::to_bytes("needle"), sink);
  engine.close_flow(1);
  engine.flush_batch(sink);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 2u);
}

}  // namespace
}  // namespace vpm
