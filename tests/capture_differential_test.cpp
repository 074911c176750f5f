// Capture-path determinism contract: feeding the sharded pipeline through a
// CaptureSource must produce the same alerts as the single-threaded
// references — PcapFileSource vs the inspect_pcap end-to-end pipeline over
// an evasion corpus (1/2/4 workers), and TraceSource streams bit-identical
// and alert-identical across drains under VPM_TEST_SEED, including the
// epoch remapping that manufactures fresh flows for soak churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "capture/pcap_source.hpp"
#include "capture/source.hpp"
#include "capture/trace_source.hpp"
#include "helpers.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "pipeline/runtime.hpp"

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

// inspect_pcap assigns dense per-file flow ids while the pipeline uses
// flow_key(tuple), so the two sides compare as multisets of the
// flow-independent alert fields.
using AlertKey = std::tuple<pattern::Group, std::uint32_t, std::uint64_t>;

std::vector<AlertKey> project(const std::vector<ids::Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const ids::Alert& a : alerts) {
    keys.emplace_back(a.group, a.pattern_id, a.stream_offset);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Drives the runtime exactly like the sensor: poll batches out of the
// source, submit each batch, until the source exhausts.
std::vector<ids::Alert> run_pipeline_from_source(CaptureSource& source,
                                                 const DatabasePtr& db, unsigned workers,
                                                 std::size_t poll_batch) {
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
  return rt.alerts();
}

TEST(CaptureDifferential, PcapSourcePipelineMatchesInspectPcap) {
  const DatabasePtr db = web_db();
  const auto packets = evasion_corpus(testutil::case_seed(110));
  const util::Bytes pcap_bytes = net::write_pcap(packets);

  const ids::PcapPipelineResult reference = ids::inspect_pcap(pcap_bytes, db);
  const std::vector<AlertKey> expected = project(reference.alerts);
  ASSERT_GT(expected.size(), 0u)
      << "evasion corpus must alert (" << testutil::seed_note() << ")";

  for (unsigned workers : {1u, 2u, 4u}) {
    PcapFileSource source(pcap_bytes);
    ASSERT_EQ(source.total_packets(), packets.size());
    const std::vector<ids::Alert> alerts =
        run_pipeline_from_source(source, db, workers, 256);
    const std::vector<AlertKey> actual = project(alerts);
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

  // The reference: drain one source and run the single-threaded end-to-end
  // pipeline over the identical bytes via a pcap round-trip.
  auto ref_source = open_source(spec);
  std::vector<net::Packet> drained;
  while (ref_source->poll(drained, 333) > 0) {
  }
  ASSERT_GT(drained.size(), 0u);
  const ids::PcapPipelineResult reference =
      ids::inspect_pcap(net::write_pcap(drained), db);
  const std::vector<AlertKey> expected = project(reference.alerts);
  ASSERT_GT(expected.size(), 0u) << testutil::seed_note();

  for (unsigned workers : {1u, 2u, 4u}) {
    auto source = open_source(spec);
    const std::vector<ids::Alert> alerts =
        run_pipeline_from_source(*source, db, workers, 128);
    EXPECT_EQ(project(alerts), expected)
        << workers << " workers (" << testutil::seed_note() << ")";
  }
}

}  // namespace
}  // namespace vpm::capture
