// Differential suite for the batch-scan fast path: for every algorithm the
// (packet, pattern, position) multiset reported by Matcher::scan_batch must
// equal the per-payload scan() multiset — across batch sizes, adversarial
// payload mixes (empty, 1-byte, cross-boundary near-misses), and churny
// scratch reuse (the same ScanScratch handed between matchers).  Runs under
// ASan in CI, pinning the shared-candidate-pool aliasing and slack-store
// contracts; the scalar-forced rerun pins the fallback kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/matcher_factory.hpp"
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
