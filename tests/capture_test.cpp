// Capture-subsystem unit tests: the TPACKET_V3 ring protocol exercised
// against the in-process MockRing (frame walk, mid-block resume, drop/freeze
// accounting, snaplen truncation), the open-addressing FlowTable (collision
// chains, bounded incremental sweeps, tombstone rebuilds, million-entry
// churn), --cpu-list parsing, --source spec parsing, and the capture
// telemetry bridge.  Everything runs deterministically without root or a
// NIC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "capture/afpacket_source.hpp"
#include "capture/capture_telemetry.hpp"
#include "capture/mock_ring.hpp"
#include "capture/pcap_source.hpp"
#include "capture/ring_walker.hpp"
#include "capture/source.hpp"
#include "capture/topology.hpp"
#include "capture/trace_source.hpp"
#include "helpers.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "telemetry/metrics.hpp"
#include "util/flow_table.hpp"

namespace vpm::capture {
namespace {

net::Packet make_tcp_packet(std::uint32_t i, std::size_t payload_size) {
  net::Packet p;
  p.timestamp_us = 1'700'000'000'000'000ull + i * 37;
  p.tuple.src_ip = 0x0A000001u + i;
  p.tuple.dst_ip = 0xC0A80001u;
  p.tuple.src_port = static_cast<std::uint16_t>(40000 + (i % 1000));
  p.tuple.dst_port = 80;
  p.tuple.proto = net::IpProto::tcp;
  p.tcp_seq = 1000 + i;
  p.payload.resize(payload_size);
  for (std::size_t j = 0; j < payload_size; ++j) {
    p.payload[j] = static_cast<std::uint8_t>((i * 31 + j) & 0xff);
  }
  return p;
}

void expect_same_packet(const net::Packet& got, const net::Packet& want,
                        std::size_t index) {
  EXPECT_EQ(got.tuple, want.tuple) << "packet " << index;
  EXPECT_EQ(got.timestamp_us, want.timestamp_us) << "packet " << index;
  EXPECT_EQ(got.tcp_seq, want.tcp_seq) << "packet " << index;
  EXPECT_EQ(got.payload, want.payload) << "packet " << index;
}

// --- MockRing + RingWalker: the TPACKET_V3 protocol without a kernel ------

TEST(MockRingWalk, DeliversAllFramesAcrossBlocks) {
  MockRing ring(4096, 4);
  RingWalker walker(ring.data(), ring.block_size(), ring.block_count());

  std::vector<net::Packet> sent;
  for (std::uint32_t i = 0; i < 30; ++i) sent.push_back(make_tcp_packet(i, 200));

  // 30 frames at ~300 aligned bytes each span three 4 KiB blocks.
  std::span<const net::Packet> rest(sent);
  while (!rest.empty()) {
    const std::size_t n = ring.produce_block(rest);
    ASSERT_GT(n, 0u) << "ring jammed while blocks remain free";
    rest = rest.subspan(n);
  }
  EXPECT_GT(walker.occupancy(), 0.0);

  std::vector<net::Packet> got;
  EXPECT_EQ(walker.poll(got, 1000), sent.size());
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_same_packet(got[i], sent[i], i);
  }

  const RingWalkStats& s = walker.stats();
  EXPECT_EQ(s.frames, sent.size());
  EXPECT_EQ(s.bytes, sent.size() * 200);
  EXPECT_EQ(s.truncated, 0u);
  EXPECT_EQ(s.skipped, 0u);
  EXPECT_GE(s.blocks, 3u);
  // Every walked block was handed back to the kernel.
  for (std::size_t i = 0; i < ring.block_count(); ++i) {
    EXPECT_TRUE(ring.kernel_owns(i)) << "block " << i;
  }
  EXPECT_EQ(walker.occupancy(), 0.0);
  EXPECT_EQ(walker.poll(got, 16), 0u) << "empty ring must poll as 0";
}

TEST(MockRingWalk, MidBlockResumeReleasesOnlyAfterLastFrame) {
  MockRing ring(4096, 2);
  RingWalker walker(ring.data(), ring.block_size(), ring.block_count());

  std::vector<net::Packet> sent;
  for (std::uint32_t i = 0; i < 8; ++i) sent.push_back(make_tcp_packet(i, 100));
  ASSERT_EQ(ring.produce_block(sent), sent.size());

  // A max_packets-bounded poll stops mid-block; the block stays user-owned
  // until its final frame is consumed.
  std::vector<net::Packet> got;
  EXPECT_EQ(walker.poll(got, 3), 3u);
  EXPECT_FALSE(ring.kernel_owns(0));
  EXPECT_DOUBLE_EQ(walker.occupancy(), 0.5);
  EXPECT_EQ(walker.poll(got, 3), 3u);
  EXPECT_FALSE(ring.kernel_owns(0));
  EXPECT_EQ(walker.poll(got, 16), 2u);
  EXPECT_TRUE(ring.kernel_owns(0));
  EXPECT_EQ(walker.occupancy(), 0.0);

  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_same_packet(got[i], sent[i], i);  // resume preserved order
  }
}

TEST(MockRingWalk, SlowWalkerCausesDropsAndOneFreezePerEpisode) {
  MockRing ring(4096, 2);
  RingWalker walker(ring.data(), ring.block_size(), ring.block_count());

  std::vector<net::Packet> batch;
  for (std::uint32_t i = 0; i < 10; ++i) batch.push_back(make_tcp_packet(i, 100));

  // Fill both blocks while the walker sleeps...
  ASSERT_EQ(ring.produce_block(batch), batch.size());
  ASSERT_EQ(ring.produce_block(batch), batch.size());
  // ...now the ring is full: offered frames are dropped, one freeze episode.
  EXPECT_EQ(ring.produce_block(batch), 0u);
  EXPECT_EQ(ring.drops(), batch.size());
  EXPECT_EQ(ring.freezes(), 1u);
  EXPECT_EQ(ring.produce_block(batch), 0u);
  EXPECT_EQ(ring.drops(), 2 * batch.size());
  EXPECT_EQ(ring.freezes(), 1u) << "one congestion episode, one freeze";
  EXPECT_DOUBLE_EQ(walker.occupancy(), 1.0);

  // The walker catches up; production resumes and a NEW jam is a new episode.
  std::vector<net::Packet> got;
  EXPECT_EQ(walker.poll(got, 1000), 2 * batch.size());
  ASSERT_EQ(ring.produce_block(batch), batch.size());
  ASSERT_EQ(ring.produce_block(batch), batch.size());
  EXPECT_EQ(ring.produce_block(batch), 0u);
  EXPECT_EQ(ring.freezes(), 2u);
}

TEST(MockRingWalk, SnaplenTruncationClampsPayloadPrefix) {
  MockRing ring(8192, 2);
  RingWalker walker(ring.data(), ring.block_size(), ring.block_count());

  std::vector<net::Packet> sent;
  sent.push_back(make_tcp_packet(7, 400));
  // Ethernet(14) + IPv4(20) + TCP(20) = 54 header bytes; snaplen 154 leaves
  // a 100-byte payload prefix on the wire.
  ASSERT_EQ(ring.produce_block(sent, /*snaplen=*/154), 1u);

  std::vector<net::Packet> got;
  ASSERT_EQ(walker.poll(got, 16), 1u);
  EXPECT_EQ(walker.stats().truncated, 1u);
  ASSERT_EQ(got[0].payload.size(), 100u);
  EXPECT_TRUE(std::equal(got[0].payload.begin(), got[0].payload.end(),
                         sent[0].payload.begin()));
  EXPECT_EQ(got[0].tuple, sent[0].tuple) << "headers survive the clamp";
}

// --- FlowTable: open addressing under collision pressure -------------------

// Degenerate hash: every key lands in one of four home slots, forcing long
// linear-probe chains.
struct CollidingHash {
  std::size_t operator()(std::uint64_t k) const { return k & 3; }
};

TEST(FlowTable, CollisionChainsFindEraseReinsert) {
  util::FlowTable<std::uint64_t, std::uint64_t, CollidingHash> table;
  for (std::uint64_t k = 0; k < 200; ++k) {
    auto [value, inserted] = table.find_or_emplace(k, [&] { return k * 10; });
    ASSERT_TRUE(inserted);
    ASSERT_EQ(*value, k * 10);
  }
  EXPECT_EQ(table.size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    auto [value, inserted] = table.find_or_emplace(k, [&] { return k; });
    EXPECT_FALSE(inserted) << k;
    EXPECT_EQ(*value, k * 10) << k;
  }

  for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_TRUE(table.erase(k));
  EXPECT_FALSE(table.erase(0));
  EXPECT_EQ(table.size(), 100u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(table.find(k), nullptr) << k;
    } else {
      ASSERT_NE(table.find(k), nullptr) << "erasing neighbors must not break "
                                           "probe chains through tombstones";
      EXPECT_EQ(*table.find(k), k * 10) << k;
    }
  }
  // Reinsert into tombstoned territory.
  for (std::uint64_t k = 0; k < 200; k += 2) {
    auto [value, inserted] = table.find_or_emplace(k, [&] { return k + 1; });
    ASSERT_TRUE(inserted);
    EXPECT_EQ(*value, k + 1);
  }
  EXPECT_EQ(table.size(), 200u);
}

TEST(FlowTable, ValuePointersStableAcrossGrowth) {
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> table;
  std::vector<std::uint64_t*> pointers;
  for (std::uint64_t k = 0; k < 8; ++k) {
    pointers.push_back(table.find_or_emplace(k, [&] { return k * 7; }).first);
  }
  for (std::uint64_t k = 8; k < 5000; ++k) {
    table.find_or_emplace(k, [&] { return k; });
  }
  // Several rehashes later the early Value pointers must still be live and
  // correct (IdsEngine::Staged::flow caches exactly these pointers).
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(table.find(k), pointers[k]);
    EXPECT_EQ(*pointers[k], k * 7);
  }
}

TEST(FlowTable, SweepStepMatchesFullSweep) {
  const std::uint64_t seed = testutil::case_seed(901);
  auto fill = [&](auto& table) {
    for (std::uint64_t k = 0; k < 500; ++k) {
      table.find_or_emplace(k * 2654435761u + seed, [&] { return k; });
    }
  };
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> full, stepped;
  fill(full);
  fill(stepped);
  ASSERT_EQ(full.capacity(), stepped.capacity());

  const auto evict = [](std::uint64_t, std::uint64_t& v) { return v % 3 == 0; };
  const std::size_t erased_full = full.sweep_step(full.capacity(), evict);

  // Bounded steps whose slot counts sum past capacity() must converge to the
  // identical eviction set — the evict_idle_step contract.
  std::size_t erased_stepped = 0;
  const std::size_t calls = stepped.capacity() / 17 + 1;
  for (std::size_t i = 0; i < calls; ++i) {
    erased_stepped += stepped.sweep_step(17, evict);
  }
  EXPECT_EQ(erased_stepped, erased_full);
  EXPECT_EQ(stepped.size(), full.size());

  std::vector<std::uint64_t> left_full, left_stepped;
  full.for_each([&](std::uint64_t k, std::uint64_t) { left_full.push_back(k); });
  stepped.for_each(
      [&](std::uint64_t k, std::uint64_t) { left_stepped.push_back(k); });
  std::sort(left_full.begin(), left_full.end());
  std::sort(left_stepped.begin(), left_stepped.end());
  EXPECT_EQ(left_stepped, left_full) << testutil::seed_note();
}

TEST(FlowTable, TombstonePileupTriggersRebuild) {
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> table;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    table.find_or_emplace(k, [&] { return k; });
  }
  const std::size_t grown_capacity = table.capacity();
  for (std::uint64_t k = 0; k < 900; ++k) EXPECT_TRUE(table.erase(k));
  EXPECT_EQ(table.size(), 100u);
  // Mass deletion rebuilds the table for its live size instead of probing
  // through a graveyard forever.
  EXPECT_LT(table.capacity(), grown_capacity);
  for (std::uint64_t k = 900; k < 1000; ++k) {
    ASSERT_NE(table.find(k), nullptr) << k;
    EXPECT_EQ(*table.find(k), k);
  }
}

TEST(FlowTable, MillionEntryChurnWithBoundedSweeps) {
  constexpr std::size_t kFlows = 1'000'000;
  constexpr std::size_t kStep = 1u << 16;
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> table(kFlows);
  const std::size_t capacity = table.capacity();
  for (std::uint64_t k = 0; k < kFlows; ++k) {
    table.find_or_emplace(k, [&] { return k; });
  }
  EXPECT_EQ(table.size(), kFlows);
  EXPECT_EQ(table.capacity(), capacity) << "pre-sizing must avoid mid-churn rehash";

  // Evict everything via bounded steps: each call touches at most kStep
  // slots, and ceil(capacity/kStep) calls retire the full table — the
  // amortization the pipeline's eviction_max_steps relies on at 1M flows.
  std::size_t calls = 0;
  std::size_t erased = 0;
  const std::size_t max_calls = capacity / kStep + 2;
  while (table.size() > 0 && calls < max_calls) {
    const std::size_t n =
        table.sweep_step(kStep, [](std::uint64_t, std::uint64_t&) { return true; });
    EXPECT_LE(n, kStep);
    erased += n;
    ++calls;
  }
  EXPECT_EQ(erased, kFlows);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LE(calls, capacity / kStep + 1);
}

// --- Topology: CPU lists ----------------------------------------------------

TEST(Topology, ParseCpuList) {
  const auto cpus = parse_cpu_list("0-3,8,10-11");
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));

  const auto empty = parse_cpu_list("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  EXPECT_EQ(parse_cpu_list("a-b"), std::nullopt);
  EXPECT_EQ(parse_cpu_list("3-1"), std::nullopt);
  EXPECT_EQ(parse_cpu_list("1,,2"), std::nullopt);
  EXPECT_EQ(parse_cpu_list("-5"), std::nullopt);
}

// --- Source specs ----------------------------------------------------------

TEST(SourceSpec, TraceSpecDrainsConfiguredEpochs) {
  auto source =
      open_source("trace:mixed,flows=2,bytes_per_flow=8192,seed=5,epochs=2");
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->kind(), "trace");
  auto* trace = dynamic_cast<TraceSource*>(source.get());
  ASSERT_NE(trace, nullptr);

  std::vector<net::Packet> drained;
  while (!source->exhausted()) {
    if (source->poll(drained, 257) == 0) break;
  }
  EXPECT_TRUE(source->exhausted());
  EXPECT_EQ(drained.size(), 2 * trace->packets_per_epoch());
  EXPECT_EQ(source->stats().packets, drained.size());
  std::vector<net::Packet> more;
  EXPECT_EQ(source->poll(more, 16), 0u) << "exhausted source must stay silent";
}

TEST(SourceSpec, PcapFileRoundTrip) {
  net::FlowGenConfig cfg;
  cfg.flow_count = 3;
  cfg.bytes_per_flow = 4096;
  cfg.seed = testutil::case_seed(902);
  const auto flows = net::generate_flows(cfg);
  const util::Bytes bytes = net::write_pcap(flows.packets);

  namespace fs = std::filesystem;
  const fs::path path = fs::path(::testing::TempDir()) / "vpm_capture_rt.pcap";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  for (const std::string& spec : {path.string(), "pcap:" + path.string()}) {
    auto source = open_source(spec);
    ASSERT_NE(source, nullptr) << spec;
    EXPECT_EQ(source->kind(), "pcap");
    std::vector<net::Packet> drained;
    while (source->poll(drained, 64) > 0) {
    }
    EXPECT_TRUE(source->exhausted());
    ASSERT_EQ(drained.size(), flows.packets.size()) << spec;
    for (std::size_t i = 0; i < drained.size(); ++i) {
      expect_same_packet(drained[i], flows.packets[i], i);
    }
  }
}

TEST(SourceSpec, MalformedSpecsThrow) {
  EXPECT_THROW(open_source(""), std::invalid_argument);
  EXPECT_THROW(open_source("trace:nope"), std::invalid_argument);
  EXPECT_THROW(open_source("trace:mixed,flows=abc"), std::invalid_argument);
  EXPECT_THROW(open_source("trace:mixed,bogus=1"), std::invalid_argument);
  EXPECT_THROW(open_source("trace:mixed,flows"), std::invalid_argument);
  EXPECT_THROW(open_source("warp:eth0"), std::invalid_argument);
  EXPECT_THROW(open_source("afpacket:"), std::invalid_argument);
  EXPECT_THROW(open_source("pcap:/nonexistent/vpm.pcap"), std::runtime_error);
  EXPECT_THROW(open_source("/nonexistent/vpm.pcap"), std::runtime_error);
}

TEST(SourceSpec, AfPacketUnsupportedBuildThrows) {
  if (AfPacketSource::supported()) {
    GTEST_SKIP() << "built with VPM_WITH_AFPACKET; stub error path not present";
  }
  EXPECT_THROW(open_source("afpacket:lo"), std::runtime_error);
  EXPECT_THROW(open_source("afpacket:lo,blocks=8,block_kb=64,fanout=7"),
               std::runtime_error);
}

// --- Telemetry bridge ------------------------------------------------------

TEST(CaptureTelemetryTest, PublishesCountersWithSourceLabel) {
  auto source = open_source("trace:mixed,flows=2,bytes_per_flow=4096,epochs=1");
  std::vector<net::Packet> drained;
  while (source->poll(drained, 128) > 0) {
  }
  ASSERT_GT(drained.size(), 0u);

  telemetry::MetricsRegistry registry;
  CaptureTelemetry bridge(registry, source->kind());
  bridge.publish(*source);

  const std::string text = registry.render_prometheus();
  const std::string needle = "vpm_capture_packets_total{source=\"trace\"} " +
                             std::to_string(drained.size());
  EXPECT_NE(text.find(needle), std::string::npos) << text;
  EXPECT_NE(text.find("vpm_capture_bytes_total{source=\"trace\"}"),
            std::string::npos);
  EXPECT_NE(text.find("vpm_capture_kernel_drops_total{source=\"trace\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("vpm_capture_ring_occupancy_permille"), std::string::npos);
}

}  // namespace
}  // namespace vpm::capture
