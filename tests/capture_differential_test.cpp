// Capture-path determinism contract: feeding the sharded pipeline through a
// CaptureSource must produce exactly the alerts of the whole-stream oracle
// (tests/stream_oracle.hpp) over the same packets — PcapFileSource over an
// evasion corpus (1/2/4 workers) and over flows whose streams are known in
// full, and TraceSource streams bit-identical and alert-identical across
// drains under VPM_TEST_SEED, including the epoch remapping that
// manufactures fresh flows for soak churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "capture/pcap_source.hpp"
#include "capture/source.hpp"
#include "capture/trace_source.hpp"
#include "helpers.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "pipeline/runtime.hpp"
#include "stream_oracle.hpp"

namespace vpm::capture {
namespace {

DatabasePtr web_db() {
  pattern::PatternSet rules;
  // Patterns that occur in the generated HTTP content plus planted attack
  // strings; generic folds into every group.
  rules.add("GET /", false, pattern::Group::http);
  rules.add("HTTP/1.1", true, pattern::Group::http);
  rules.add("/etc/passwd", false, pattern::Group::http);
  rules.add("Host:", true, pattern::Group::http);
  rules.add("ion", false, pattern::Group::generic);
  rules.add("admin", true, pattern::Group::generic);
  return compile(core::Algorithm::aho_corasick, std::move(rules));
}

// The adversarial corpus: evasion-mode flows (handshakes, 1-byte splits,
// keep-alives, conflicting retransmits, server responses, FIN/RST teardown)
// with segment reordering on top.
std::vector<net::Packet> evasion_corpus(std::uint64_t seed) {
  net::FlowGenConfig cfg;
  cfg.flow_count = 6;
  cfg.bytes_per_flow = 24000;
  cfg.reorder_fraction = 0.3;
  cfg.seed = seed;
  cfg.dst_port = 80;
  cfg.evasion = true;
  return net::generate_flows(cfg).packets;
}

// Drives the runtime exactly like the sensor: poll batches out of the
// source, submit each batch, until the source exhausts.  Returns the alerts
// sorted; `totals` receives the summed worker stats.
std::vector<ids::Alert> run_pipeline_from_source(CaptureSource& source,
                                                 const DatabasePtr& db, unsigned workers,
                                                 std::size_t poll_batch,
                                                 pipeline::WorkerStats* totals = nullptr) {
  pipeline::PipelineConfig cfg;
  cfg.workers = workers;
  cfg.batch_packets = 32;
  pipeline::PipelineRuntime rt(db, cfg);
  rt.start();
  std::vector<net::Packet> batch;
  while (!source.exhausted()) {
    batch.clear();
    if (source.poll(batch, poll_batch) == 0) continue;
    rt.submit(std::span<const net::Packet>(batch));
  }
  rt.stop();
  if (totals != nullptr) *totals = rt.stats().totals();
  std::vector<ids::Alert> alerts = rt.alerts();
  std::sort(alerts.begin(), alerts.end());
  return alerts;
}

TEST(CaptureDifferential, PcapSourcePipelineMatchesWholeStreamOracle) {
  const DatabasePtr db = web_db();
  const auto packets = evasion_corpus(testutil::case_seed(110));
  const util::Bytes pcap_bytes = net::write_pcap(packets);

  const std::vector<ids::Alert> expected =
      testutil::whole_stream_oracle(net::read_pcap(pcap_bytes).packets, db).alerts;
  ASSERT_GT(expected.size(), 0u)
      << "evasion corpus must alert (" << testutil::seed_note() << ")";

  for (unsigned workers : {1u, 2u, 4u}) {
    PcapFileSource source(pcap_bytes);
    ASSERT_EQ(source.total_packets(), packets.size());
    const std::vector<ids::Alert> actual = run_pipeline_from_source(source, db, workers, 256);
    ASSERT_EQ(actual.size(), expected.size())
        << workers << " workers (" << testutil::seed_note() << ")";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "first divergence at alert " << i << " with " << workers
          << " workers (" << testutil::seed_note() << ")";
    }
    EXPECT_EQ(source.stats().packets, packets.size());
    EXPECT_TRUE(source.exhausted());
  }
}

TEST(CaptureDifferential, TraceSourceStreamsAreDeterministic) {
  TraceConfig cfg;
  cfg.profile = "evasion";
  cfg.flows = 4;
  cfg.bytes_per_flow = 16384;
  cfg.seed = testutil::case_seed(111);
  cfg.epochs = 3;

  // Two independent sources drained with different batch sizes must emit
  // bit-identical packet streams.
  TraceSource a(cfg);
  TraceSource b(cfg);
  std::vector<net::Packet> pa, pb;
  while (a.poll(pa, 64) > 0) {
  }
  while (b.poll(pb, 1021) > 0) {
  }
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_EQ(pa.size(), cfg.epochs * a.packets_per_epoch());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].tuple, pb[i].tuple) << "packet " << i;
    ASSERT_EQ(pa[i].timestamp_us, pb[i].timestamp_us) << "packet " << i;
    ASSERT_EQ(pa[i].tcp_seq, pb[i].tcp_seq) << "packet " << i;
    ASSERT_EQ(pa[i].payload, pb[i].payload) << "packet " << i;
  }
  EXPECT_TRUE(a.exhausted());
}

TEST(CaptureDifferential, TraceEpochsRemapToFreshFlows) {
  TraceConfig cfg;
  cfg.profile = "mixed";
  cfg.flows = 3;
  cfg.bytes_per_flow = 8192;
  cfg.seed = testutil::case_seed(112);
  cfg.epochs = 2;
  TraceSource source(cfg);
  std::vector<net::Packet> packets;
  while (source.poll(packets, 512) > 0) {
  }
  const std::size_t ppe = source.packets_per_epoch();
  ASSERT_EQ(packets.size(), 2 * ppe);

  for (std::size_t i = 0; i < ppe; ++i) {
    const net::Packet& base = packets[i];
    const net::Packet& next = packets[ppe + i];
    // Same content and classification, but a brand-new flow...
    ASSERT_EQ(next.payload, base.payload) << "packet " << i;
    ASSERT_EQ(next.tuple.dst_port, base.tuple.dst_port) << "packet " << i;
    ASSERT_NE(next.tuple.dst_ip, base.tuple.dst_ip) << "packet " << i;
    ASSERT_NE(next.tuple.hash(), base.tuple.hash()) << "packet " << i;
    // ...in strictly later capture time (idle eviction sees real gaps).
    ASSERT_GT(next.timestamp_us, base.timestamp_us) << "packet " << i;
    // Both endpoint addresses shift by the SAME epoch constant, so a
    // connection's reverse direction remaps onto the remapped tuple's
    // reversed() — direction pairing survives the epoch boundary.
    const std::uint32_t mix = next.tuple.dst_ip ^ base.tuple.dst_ip;
    ASSERT_EQ(next.tuple.src_ip, base.tuple.src_ip ^ mix) << "packet " << i;
  }
}

TEST(CaptureDifferential, TracePipelineAlertsStableAcrossRunsAndWorkers) {
  const DatabasePtr db = web_db();
  const std::string spec =
      "trace:evasion,flows=4,bytes_per_flow=12288,epochs=2,seed=" +
      std::to_string(testutil::case_seed(113));

  // The oracle over one source drained in full.
  auto ref_source = open_source(spec);
  std::vector<net::Packet> drained;
  while (ref_source->poll(drained, 333) > 0) {
  }
  ASSERT_GT(drained.size(), 0u);
  const std::vector<ids::Alert> expected = testutil::whole_stream_oracle(drained, db).alerts;
  ASSERT_GT(expected.size(), 0u) << testutil::seed_note();

  for (unsigned workers : {1u, 2u, 4u}) {
    auto source = open_source(spec);
    EXPECT_EQ(run_pipeline_from_source(*source, db, workers, 128), expected)
        << workers << " workers (" << testutil::seed_note() << ")";
  }
}

// Flows re-cut into in-order 1000-byte segments, with a marker planted in
// flow 1, written to a pcap: the single-worker sensor's alerts must be
// exactly a naive scan of each whole stream.
TEST(PcapPipeline, ReassembledFlowsMatchDirectScan) {
  net::FlowGenConfig fcfg;
  fcfg.flow_count = 3;
  fcfg.bytes_per_flow = 60000;
  fcfg.reorder_fraction = 0.3;
  fcfg.seed = 11;
  net::GeneratedFlows flows = net::generate_flows(fcfg);

  pattern::PatternSet rules;
  rules.add("PLANTED-IN-FLOW", false, pattern::Group::http);
  rules.add("GET /", false, pattern::Group::http);
  std::copy_n("PLANTED-IN-FLOW", 15, flows.streams[1].begin() + 1234);
  std::vector<net::Packet> packets;
  for (std::size_t f = 0; f < flows.streams.size(); ++f) {
    const auto& s = flows.streams[f];
    for (std::size_t off = 0; off < s.size(); off += 1000) {
      net::Packet p;
      p.tuple = flows.tuples[f];
      p.tcp_seq = static_cast<std::uint32_t>(off);
      const std::size_t len = std::min<std::size_t>(1000, s.size() - off);
      p.payload.assign(s.begin() + static_cast<long>(off),
                       s.begin() + static_cast<long>(off + len));
      packets.push_back(std::move(p));
    }
  }
  const DatabasePtr db = compile(core::Algorithm::vpatch, rules);

  // Ground truth: each whole stream scanned by the naive matcher.
  testutil::StreamOracle oracle(db);
  for (std::size_t f = 0; f < flows.streams.size(); ++f) {
    oracle.append(pipeline::flow_key(flows.tuples[f]), pattern::Group::http,
                  flows.streams[f]);
  }
  const std::vector<ids::Alert> expected = oracle.finish().alerts;

  PcapFileSource source(net::write_pcap(packets));
  pipeline::WorkerStats totals;
  const std::vector<ids::Alert> alerts = run_pipeline_from_source(source, db, 1, 256, &totals);
  EXPECT_EQ(source.stats().skipped, 0u);
  EXPECT_EQ(totals.reassembly_drops, 0u);
  EXPECT_EQ(alerts, expected);
  EXPECT_TRUE(std::any_of(alerts.begin(), alerts.end(),
                          [](const ids::Alert& a) { return a.pattern_id == 0; }))
      << "the planted marker must be among the alerts";
}

TEST(PcapPipeline, UdpPayloadsScannedPerDatagram) {
  pattern::PatternSet rules;
  rules.add("dns-marker", false, pattern::Group::dns);
  net::Packet p;
  p.tuple.src_ip = 1;
  p.tuple.dst_ip = 2;
  p.tuple.src_port = 5353;
  p.tuple.dst_port = 53;
  p.tuple.proto = net::IpProto::udp;
  p.payload = util::to_bytes("xx dns-marker yy");
  PcapFileSource source(net::write_pcap({p}));
  const std::vector<ids::Alert> alerts =
      run_pipeline_from_source(source, compile(core::Algorithm::spatch, rules), 1, 256);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].group, pattern::Group::dns);
}

}  // namespace
}  // namespace vpm::capture
