// Zero-drop ruleset hot-swap determinism: swapping the compiled database at
// a known packet index (quiesce-then-swap) must partition the alert stream
// exactly by ruleset generation — for every worker count, the per-generation
// alert multisets equal the whole-stream oracle (tests/stream_oracle.hpp)
// cutting every stream at the identical swap, no alert is dropped, and no
// alert is attributed to a generation that did not produce it.  The concurrent-swap stress runs under TSan in CI (the
// `swap` label) to pin the RCU publication path.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.hpp"
#include "helpers.hpp"
#include "net/flowgen.hpp"
#include "pipeline/runtime.hpp"
#include "stream_oracle.hpp"

namespace vpm::pipeline {
namespace {

pattern::PatternSet ruleset_a() {
  pattern::PatternSet rules;
  rules.add("GET /", false, pattern::Group::http);
  rules.add("HTTP/1.1", true, pattern::Group::http);
  rules.add("/etc/passwd", false, pattern::Group::http);
  rules.add("ion", false, pattern::Group::generic);
  rules.add("dns-marker", false, pattern::Group::dns);
  return rules;
}

// Overlaps A on two patterns, drops the rest, adds new ones — so a scan
// under the wrong generation produces a detectably different alert set.
pattern::PatternSet ruleset_b() {
  pattern::PatternSet rules;
  rules.add("GET /", false, pattern::Group::http);
  rules.add("Host:", true, pattern::Group::http);
  rules.add("admin", true, pattern::Group::generic);
  rules.add("er", false, pattern::Group::generic);
  rules.add("query", false, pattern::Group::dns);
  return rules;
}

// HTTP flows (reordered segments) to port 80 + recurring UDP datagrams to
// port 53, deterministically interleaved.
std::vector<net::Packet> mixed_traffic(std::uint64_t seed) {
  net::FlowGenConfig cfg;
  cfg.flow_count = 8;
  cfg.bytes_per_flow = 40000;
  cfg.reorder_fraction = 0.3;
  cfg.seed = seed;
  cfg.dst_port = 80;
  auto flows = net::generate_flows(cfg);

  std::vector<net::Packet> packets;
  packets.reserve(flows.packets.size() + 128);
  util::Rng rng(seed + 1);
  std::uint32_t udp_counter = 0;
  for (net::Packet& p : flows.packets) {
    packets.push_back(std::move(p));
    if (rng.chance(0.08)) {
      net::Packet u;
      u.timestamp_us = packets.back().timestamp_us;
      u.tuple.src_ip = 0x0A020000u + (udp_counter % 4);
      u.tuple.dst_ip = 0xC0A80005u;
      u.tuple.src_port = 5353;
      u.tuple.dst_port = 53;
      u.tuple.proto = net::IpProto::udp;
      u.payload = util::to_bytes(udp_counter % 2 == 0 ? "query dns-marker admin"
                                                      : "an ionized version");
      ++udp_counter;
      packets.push_back(std::move(u));
    }
  }
  return packets;
}

std::vector<ids::Alert> alerts_of_generation(const std::vector<ids::Alert>& alerts,
                                             std::uint64_t generation) {
  std::vector<ids::Alert> out;
  for (const ids::Alert& a : alerts) {
    if (a.generation == generation) out.push_back(a);
  }
  return out;
}

class PipelineSwap : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(PipelineSwap, PerGenerationAlertsEqualSingleThreadedReference) {
  const core::Algorithm algorithm = GetParam();
  if (!core::algorithm_available(algorithm)) GTEST_SKIP() << "algorithm unavailable";

  const auto packets = mixed_traffic(testutil::case_seed(120));
  const std::size_t swap_index = packets.size() / 2;
  const DatabasePtr db_a = compile(algorithm, ruleset_a());
  const DatabasePtr db_b = compile(algorithm, ruleset_b());

  const auto expected =
      testutil::whole_stream_oracle(packets, db_a, {}, {{swap_index, db_b}}).alerts;
  const auto expected_a = alerts_of_generation(expected, db_a->generation());
  const auto expected_b = alerts_of_generation(expected, db_b->generation());
  ASSERT_GT(expected_a.size(), 0u) << "generation A must alert (" << testutil::seed_note()
                                   << ")";
  ASSERT_GT(expected_b.size(), 0u) << "generation B must alert (" << testutil::seed_note()
                                   << ")";
  // The oracle itself must never misattribute.
  ASSERT_EQ(expected_a.size() + expected_b.size(), expected.size());

  // The pinned axis pins the workers to CPUs 0 and 1 (pin failures are
  // non-fatal, so it runs on any host).
  for (const bool pinned : {false, true}) {
    for (unsigned workers : {1u, 2u, 4u}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
        PipelineConfig cfg;
        cfg.workers = workers;
        cfg.batch_packets = batch;
        if (pinned) cfg.worker_cpus = {0, 1};
        const std::string where = std::to_string(workers) + " workers, batch " +
                                  std::to_string(batch) + (pinned ? ", pinned" : "") +
                                  " (" + std::string(core::algorithm_name(algorithm)) +
                                  ", " + testutil::seed_note() + ")";
        PipelineRuntime rt(db_a, cfg);
        EXPECT_EQ(rt.generation(), db_a->generation());
        rt.start();
        for (std::size_t i = 0; i < swap_index; ++i) rt.submit(packets[i]);
        // Quiesce-then-swap: every packet before the boundary is scanned
        // under A, everything after under B — the exact-partition recipe.
        rt.quiesce();
        rt.swap_database(db_b);
        EXPECT_EQ(rt.generation(), db_b->generation());
        for (std::size_t i = swap_index; i < packets.size(); ++i) rt.submit(packets[i]);
        rt.stop();

        const auto& stats = rt.stats();
        EXPECT_EQ(stats.dropped_backpressure, 0u);
        EXPECT_EQ(stats.routed, packets.size());
        EXPECT_EQ(stats.totals().rules_generation, db_b->generation());

        std::vector<ids::Alert> actual = rt.alerts();
        std::sort(actual.begin(), actual.end());
        const auto actual_a = alerts_of_generation(actual, db_a->generation());
        const auto actual_b = alerts_of_generation(actual, db_b->generation());
        ASSERT_EQ(actual_a.size() + actual_b.size(), actual.size())
            << "alert attributed to a generation that never ran (" << where << ")";
        EXPECT_EQ(actual_a, expected_a) << "generation-A alerts diverge with " << where;
        EXPECT_EQ(actual_b, expected_b) << "generation-B alerts diverge with " << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PipelineSwap,
                         ::testing::Values(core::Algorithm::aho_corasick,
                                           core::Algorithm::vpatch),
                         [](const auto& info) {
                           std::string name(core::algorithm_name(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Chained swaps: A -> B -> A' (a recompile of A, distinct generation).  The
// old generation's compiled tables must retire without disturbing later
// generations, and each segment must match the oracle's.
TEST(PipelineSwapExtra, BackToBackSwapsPartitionExactly) {
  const auto packets = mixed_traffic(testutil::case_seed(121));
  const std::size_t third = packets.size() / 3;
  const DatabasePtr db1 = compile(core::Algorithm::vpatch, ruleset_a());
  const DatabasePtr db2 = compile(core::Algorithm::vpatch, ruleset_b());
  const DatabasePtr db3 = compile(core::Algorithm::vpatch, ruleset_a());
  EXPECT_EQ(db1->fingerprint(), db3->fingerprint());
  EXPECT_NE(db1->generation(), db3->generation());

  const auto expected =
      testutil::whole_stream_oracle(packets, db1, {}, {{third, db2}, {2 * third, db3}}).alerts;

  PipelineConfig cfg;
  cfg.workers = 4;
  cfg.batch_packets = 7;
  PipelineRuntime rt(db1, cfg);
  rt.start();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i == third) {
      rt.quiesce();
      rt.swap_database(db2);
    }
    if (i == 2 * third) {
      rt.quiesce();
      rt.swap_database(db3);
    }
    rt.submit(packets[i]);
  }
  rt.stop();

  std::vector<ids::Alert> actual = rt.alerts();
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected) << testutil::seed_note();
  EXPECT_EQ(rt.stats().totals().rules_swaps, 2u);
}

// Concurrent publication stress (the TSan target): a control thread swaps
// databases while the producer keeps submitting.  No determinism claim —
// the assertions are zero drops, every alert attributed to a published
// generation, and final adoption of the last generation everywhere.
TEST(PipelineSwapExtra, ConcurrentSwapsWhileStreaming) {
  const auto packets = mixed_traffic(testutil::case_seed(122));
  const DatabasePtr db_a = compile(core::Algorithm::vpatch, ruleset_a());
  const DatabasePtr db_b = compile(core::Algorithm::vpatch, ruleset_b());
  const DatabasePtr db_final = compile(core::Algorithm::vpatch, ruleset_a());

  PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 4;
  PipelineRuntime rt(db_a, cfg);
  rt.start();

  std::thread control([&] {
    for (int i = 0; i < 25; ++i) {
      rt.swap_database(i % 2 == 0 ? db_b : db_a);
      std::this_thread::yield();
    }
    rt.swap_database(db_final);
  });
  for (const net::Packet& p : packets) rt.submit(p);
  control.join();
  // The final publication may have landed after the last packet; quiesce so
  // idle workers adopt it, then drain.
  rt.quiesce();
  for (;;) {
    const auto s = rt.stats();
    bool all = true;
    for (const auto& w : s.workers) {
      all = all && w.rules_generation == db_final->generation();
    }
    if (all) break;
    std::this_thread::yield();
  }
  rt.stop();

  EXPECT_EQ(rt.stats().dropped_backpressure, 0u);
  EXPECT_EQ(rt.stats().routed, packets.size());
  for (const ids::Alert& a : rt.alerts()) {
    const bool known = a.generation == db_a->generation() ||
                       a.generation == db_b->generation() ||
                       a.generation == db_final->generation();
    EXPECT_TRUE(known) << "alert carries unpublished generation " << a.generation;
  }
  EXPECT_EQ(rt.stats().totals().rules_generation, db_final->generation());
}

// Every entry point that adopts a database rejects a null one, the swaps
// included: a worker must never be handed rules it cannot scan with.
TEST(PipelineSwapExtra, NullDatabasesAreRejected) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, ruleset_a());
  ids::IdsEngine engine(db);
  std::vector<ids::Alert> alerts;
  ids::AlertBuffer sink(alerts);
  EXPECT_THROW(ids::IdsEngine{nullptr}, std::invalid_argument);
  EXPECT_THROW(engine.swap_rules(nullptr, sink), std::invalid_argument);
  EXPECT_EQ(engine.database_ptr(), db);

  PipelineConfig cfg;
  cfg.workers = 1;
  EXPECT_THROW(PipelineRuntime(nullptr, cfg), std::invalid_argument);
  PipelineRuntime rt(db, cfg);
  EXPECT_THROW(rt.swap_database(nullptr), std::invalid_argument);
  EXPECT_EQ(rt.generation(), db->generation());
}

}  // namespace
}  // namespace vpm::pipeline
