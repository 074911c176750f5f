// The pipeline determinism contract: the sharded multi-worker runtime must
// produce exactly the alert multiset of a single-threaded IdsEngine fed by
// one TcpReassembler over the same packets — across worker counts,
// algorithms, reordered segments, mixed protocols, and batch sizes.  Flow
// ids are pipeline::flow_key(tuple) on both sides, so the comparison is
// bitwise, not just count-wise.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/flowgen.hpp"
#include "pipeline/runtime.hpp"

namespace vpm::pipeline {
namespace {

pattern::PatternSet mixed_rules() {
  pattern::PatternSet rules;
  // HTTP-group patterns that actually occur in the generated HTTP traces.
  rules.add("GET /", false, pattern::Group::http);
  rules.add("HTTP/1.1", true, pattern::Group::http);
  rules.add("Host:", true, pattern::Group::http);
  rules.add("/etc/passwd", false, pattern::Group::http);
  // Generic patterns are folded into every group's matcher.
  rules.add("ion", false, pattern::Group::generic);
  rules.add("admin", true, pattern::Group::generic);
  // A DNS-group pattern for the UDP datagrams.
  rules.add("dns-marker", false, pattern::Group::dns);
  return rules;
}

// The traffic mix: TCP flows to port 80 (http group) and port 21 (ftp
// group, exercising a second matcher), with segment reordering, plus UDP
// datagrams to port 53 — interleaved deterministically.
std::vector<net::Packet> mixed_traffic(std::uint64_t seed) {
  net::FlowGenConfig http_cfg;
  http_cfg.flow_count = 6;
  http_cfg.bytes_per_flow = 60000;
  http_cfg.reorder_fraction = 0.3;
  http_cfg.seed = seed;
  http_cfg.dst_port = 80;
  auto http = net::generate_flows(http_cfg);

  net::FlowGenConfig ftp_cfg;
  ftp_cfg.flow_count = 3;
  ftp_cfg.bytes_per_flow = 30000;
  ftp_cfg.reorder_fraction = 0.2;
  ftp_cfg.seed = seed + 1;
  ftp_cfg.dst_port = 21;
  auto ftp = net::generate_flows(ftp_cfg);

  std::vector<net::Packet> packets;
  packets.reserve(http.packets.size() + ftp.packets.size() + 64);
  std::size_t hi = 0, fi = 0;
  std::uint32_t udp_counter = 0;
  util::Rng rng(seed + 2);
  while (hi < http.packets.size() || fi < ftp.packets.size()) {
    // 2:1 interleave with occasional UDP datagrams sprinkled in.
    for (int k = 0; k < 2 && hi < http.packets.size(); ++k) {
      packets.push_back(std::move(http.packets[hi++]));
    }
    if (fi < ftp.packets.size()) packets.push_back(std::move(ftp.packets[fi++]));
    if (rng.chance(0.05)) {
      net::Packet p;
      p.timestamp_us = packets.back().timestamp_us;
      p.tuple.src_ip = 0x0A010000u + (udp_counter % 5);  // 5 recurring UDP flows
      p.tuple.dst_ip = 0xC0A80002u;
      p.tuple.src_port = 5353;
      p.tuple.dst_port = 53;
      p.tuple.proto = net::IpProto::udp;
      p.payload = util::to_bytes(udp_counter % 3 == 0 ? "query dns-marker admin"
                                                      : "query benign name");
      ++udp_counter;
      packets.push_back(std::move(p));
    }
  }
  return packets;
}

// The single-threaded reference: one reassembler feeding one engine, flow
// ids, protocol classification, and connection-lifecycle teardown identical
// to the pipeline workers'.  Built from the pipeline's own database, so the
// alerts' generation matches too.
std::vector<ids::Alert> single_threaded_reference(const std::vector<net::Packet>& packets,
                                                  const DatabasePtr& db,
                                                  ids::EngineCounters* counters_out,
                                                  net::ReassemblyConfig reassembly = {}) {
  ids::IdsEngine engine(db);
  std::vector<ids::Alert> alerts;
  net::TcpReassembler reassembler(
      [&](const net::StreamChunk& chunk) {
        engine.inspect(flow_key(chunk.tuple), ids::classify_port(chunk.server_port),
                       chunk.data, alerts);
      },
      reassembly);
  reassembler.on_connection_end([&](const net::FiveTuple& client, net::EndReason) {
    engine.close_flow(flow_key(client));
    engine.close_flow(flow_key(client.reversed()));
  });
  for (const net::Packet& p : packets) {
    if (p.tuple.proto == net::IpProto::tcp) {
      reassembler.ingest(p);
    } else {
      engine.inspect(flow_key(p.tuple), ids::classify_port(p.tuple.dst_port), p.payload,
                     alerts);
    }
  }
  if (counters_out != nullptr) *counters_out = engine.counters();
  std::sort(alerts.begin(), alerts.end());
  return alerts;
}

class PipelineDifferential : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(PipelineDifferential, ShardedAlertsEqualSingleThreaded) {
  const core::Algorithm algorithm = GetParam();
  if (!core::algorithm_available(algorithm)) GTEST_SKIP() << "algorithm unavailable";

  const DatabasePtr db = compile(algorithm, mixed_rules());
  const auto packets = mixed_traffic(testutil::case_seed(80));

  ids::EngineCounters ref_counters;
  const auto expected = single_threaded_reference(packets, db, &ref_counters);
  ASSERT_GT(expected.size(), 0u) << "workload must produce alerts to compare ("
                                 << testutil::seed_note() << ")";

  for (unsigned workers : {1u, 2u, 4u}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      PipelineConfig cfg;
      cfg.workers = workers;
      cfg.batch_packets = batch;
      PipelineRuntime rt(db, cfg);
      rt.start();
      rt.submit(std::span<const net::Packet>(packets));
      rt.stop();

      std::vector<ids::Alert> actual = rt.alerts();
      std::sort(actual.begin(), actual.end());
      ASSERT_EQ(actual.size(), expected.size())
          << workers << " workers, batch " << batch << " ("
          << core::algorithm_name(algorithm) << ", " << testutil::seed_note() << ")";
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i])
            << "first divergence at alert " << i << " with " << workers
            << " workers, batch " << batch << " (" << core::algorithm_name(algorithm)
            << ", " << testutil::seed_note() << ")";
      }
      const auto totals = rt.stats().totals();
      EXPECT_EQ(totals.bytes_inspected, ref_counters.bytes_inspected);
      EXPECT_EQ(totals.alerts, ref_counters.alerts);
      EXPECT_EQ(totals.flows_seen, ref_counters.flows);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PipelineDifferential,
                         ::testing::Values(core::Algorithm::aho_corasick,
                                           core::Algorithm::vpatch,
                                           core::Algorithm::dfc),
                         [](const auto& info) {
                           std::string name(core::algorithm_name(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(PipelineDifferentialExtra, HeavyReorderingAcrossManyFlows) {
  // A second universe: more flows than workers, heavier reordering, property
  // seeded — the reassembled streams must still yield identical alerts.
  const DatabasePtr db = compile(core::Algorithm::vpatch, mixed_rules());
  net::FlowGenConfig cfg;
  cfg.flow_count = 16;
  cfg.bytes_per_flow = 20000;
  cfg.reorder_fraction = 0.5;
  cfg.seed = testutil::case_seed(81);
  auto flows = net::generate_flows(cfg);

  const auto expected = single_threaded_reference(flows.packets, db, nullptr);

  PipelineConfig pcfg;
  pcfg.workers = 4;
  pcfg.batch_packets = 7;  // deliberately not a divisor of anything
  PipelineRuntime rt(db, pcfg);
  rt.start();
  for (net::Packet& p : flows.packets) rt.submit(std::move(p));
  rt.stop();

  std::vector<ids::Alert> actual = rt.alerts();
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected) << testutil::seed_note();
}

// The evasion corpus through the full pipeline, once per overlap policy:
// SYN/FIN/RST lifecycle, bidirectional streams, conflicting retransmits,
// keep-alive probes, and wrap-adjacent ISNs — sharded must still equal the
// single-threaded reference bit for bit, and connection teardown (which
// flushes and closes BOTH directional flow ids) must happen at the same
// packet on both sides of the comparison.
class PipelineEvasionDifferential
    : public ::testing::TestWithParam<net::OverlapPolicy> {};

TEST_P(PipelineEvasionDifferential, ShardedEqualsReferenceOnEvasionCorpus) {
  const net::OverlapPolicy policy = GetParam();
  const DatabasePtr db = compile(core::Algorithm::vpatch, mixed_rules());
  net::FlowGenConfig cfg;
  cfg.flow_count = 8;
  cfg.bytes_per_flow = 20000;
  cfg.reorder_fraction = 0.25;
  cfg.seed = testutil::case_seed(82);
  cfg.evasion = true;
  const auto flows = net::generate_flows(cfg);

  net::ReassemblyConfig rcfg;
  rcfg.overlap = policy;
  const auto expected = single_threaded_reference(flows.packets, db, nullptr, rcfg);
  ASSERT_GT(expected.size(), 0u)
      << "evasion workload must produce alerts (" << testutil::seed_note() << ")";

  for (unsigned workers : {1u, 3u}) {
    PipelineConfig pcfg;
    pcfg.workers = workers;
    pcfg.batch_packets = 5;
    pcfg.reassembly = rcfg;
    PipelineRuntime rt(db, pcfg);
    rt.start();
    rt.submit(std::span<const net::Packet>(flows.packets));
    rt.stop();

    std::vector<ids::Alert> actual = rt.alerts();
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected)
        << workers << " workers, policy " << net::overlap_policy_name(policy) << " ("
        << testutil::seed_note() << ")";
    const auto totals = rt.stats().totals();
    EXPECT_GT(totals.connections_started, 0u);
    EXPECT_EQ(totals.connections_started, totals.connections_ended)
        << "every evasion-corpus connection is torn down by FIN or RST";
    EXPECT_GT(totals.s2c_delivered_bytes, 0u)
        << "the server→client streams must have been reassembled and scanned";
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PipelineEvasionDifferential,
                         ::testing::Values(net::OverlapPolicy::first,
                                           net::OverlapPolicy::last,
                                           net::OverlapPolicy::target_bsd,
                                           net::OverlapPolicy::target_linux),
                         [](const auto& info) {
                           return std::string(net::overlap_policy_name(info.param));
                         });

// The `first` policy is the pre-rework semantics: with lifecycle-free
// traffic (no handshakes, no FIN/RST — exactly what the old reassembler
// understood) it must reproduce the same alerts byte for byte.
TEST(PipelineDifferentialExtra, FirstPolicyMatchesLegacySemantics) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, mixed_rules());
  const auto packets = mixed_traffic(testutil::case_seed(83));

  const auto with_default = single_threaded_reference(packets, db, nullptr);
  net::ReassemblyConfig explicit_first;
  explicit_first.overlap = net::OverlapPolicy::first;
  const auto with_first = single_threaded_reference(packets, db, nullptr, explicit_first);
  EXPECT_EQ(with_default, with_first);
  ASSERT_GT(with_first.size(), 0u) << testutil::seed_note();
}

}  // namespace
}  // namespace vpm::pipeline
