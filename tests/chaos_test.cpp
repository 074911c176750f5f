// Chaos suite: seeded fault injection against every robustness mechanism.
//
// Covers the failpoint framework itself (spec grammar, determinism, counter
// contracts), then each armed site end to end: ring push/pop, reassembly
// buffering, alert-sink delivery (GuardedSink quarantine + NDJSON write
// failures), hot-swap publish, exporter socket short writes, and whole-batch
// worker failure.  The load-bearing invariants:
//   * faults off  -> alert output identical to a never-armed run;
//   * faults on   -> no deadlock, no crash, and the accounting identity
//                    routed == Σ packets, packets == processed + shed
//     holds per worker — every packet is processed or accounted shed, never
//     silently lost, and every shed byte lands in WorkerStats::shed_bytes;
//   * overload eviction sweeps at its short timeout from a full ring after
//     a drop, and never from a full ring alone.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.hpp"
#include "helpers.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"
#include "pattern/serialize.hpp"
#include "pattern/snort_rules.hpp"
#include "pipeline/runtime.hpp"
#include "pipeline/watchdog.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ndjson_sink.hpp"
#include "util/failpoint.hpp"

namespace vpm {
namespace {

namespace fp = util::failpoint;

// Every test leaves the global failpoint state clean, so suite order and
// filtering cannot leak arming between tests.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm(); }
  void TearDown() override { fp::disarm(); }
};

net::Packet tcp_packet(std::uint32_t src_ip, std::uint16_t src_port, std::uint32_t seq,
                       std::string_view payload, std::uint64_t ts = 0,
                       std::uint16_t dst_port = 80) {
  net::Packet p;
  p.timestamp_us = ts;
  p.tuple.src_ip = src_ip;
  p.tuple.dst_ip = 0xC0A80001;
  p.tuple.src_port = src_port;
  p.tuple.dst_port = dst_port;
  p.tuple.proto = net::IpProto::tcp;
  p.tcp_seq = seq;
  p.payload = util::to_bytes(payload);
  return p;
}

// A fresh compile per call: each database is its own ruleset generation.
DatabasePtr demo_db() {
  pattern::PatternSet rules;
  rules.add("NEEDLE", false, pattern::Group::http);
  rules.add("zz-generic-zz", false, pattern::Group::generic);
  return compile(core::Algorithm::vpatch, std::move(rules));
}

// Asserts the drain identity on a stopped pipeline: nothing in, through, or
// out of the rings is ever silently lost, fault injection or not.
void expect_accounting_identity(const pipeline::PipelineStats& stats) {
  std::uint64_t ring_packets = 0;
  for (const auto& w : stats.workers) {
    EXPECT_EQ(w.packets, w.processed_packets + w.shed_packets)
        << "per-worker identity: consumed == processed + shed";
    ring_packets += w.packets;
  }
  EXPECT_EQ(stats.routed, ring_packets) << "every routed packet was consumed";
  EXPECT_EQ(stats.submitted, stats.routed + stats.dropped_backpressure)
      << "every submitted packet was routed or counted dropped";
}

// ---- failpoint framework --------------------------------------------------

using FpTest = ChaosTest;

TEST_F(FpTest, SpecParseErrorsAreReportedAndLeavePriorArmingIntact) {
  EXPECT_EQ(fp::arm("ring_push=always"), "");
  EXPECT_TRUE(fp::any_armed());

  EXPECT_NE(fp::arm("no_such_site=always"), "");
  EXPECT_NE(fp::arm("ring_push=bogus_mode"), "");
  EXPECT_NE(fp::arm("ring_push=every:0"), "");
  EXPECT_NE(fp::arm("ring_push=prob:nan?"), "");
  EXPECT_NE(fp::arm("ring_push"), "");

  // Every failed arm above left the original arming live.
  EXPECT_TRUE(fp::any_armed());
  EXPECT_TRUE(fp::should_fail(fp::Site::ring_push));
}

TEST_F(FpTest, ModesFireOnTheDocumentedHitIndices) {
  const auto fire_pattern = [](const char* spec) {
    EXPECT_EQ(fp::arm(spec), "") << spec;
    std::vector<bool> fired;
    for (int i = 0; i < 10; ++i) fired.push_back(fp::should_fail(fp::Site::exporter_socket));
    return fired;
  };

  EXPECT_EQ(fire_pattern("exporter_socket=every:3"),
            (std::vector<bool>{0, 0, 1, 0, 0, 1, 0, 0, 1, 0}));
  EXPECT_EQ(fp::hits(fp::Site::exporter_socket), 10u);
  EXPECT_EQ(fp::fires(fp::Site::exporter_socket), 3u);

  EXPECT_EQ(fire_pattern("exporter_socket=after:7"),
            (std::vector<bool>{0, 0, 0, 0, 0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(fire_pattern("exporter_socket=once:4"),
            (std::vector<bool>{0, 0, 0, 1, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(fire_pattern("exporter_socket=always"), std::vector<bool>(10, true));

  EXPECT_EQ(fp::arm("exporter_socket=off"), "");
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fp::should_fail(fp::Site::exporter_socket));
}

TEST_F(FpTest, ProbabilisticFiresAreAPureFunctionOfSeedAndHitIndex) {
  const auto draw = [](std::uint64_t seed) {
    EXPECT_EQ(fp::arm("hot_swap_publish=prob:0.5", seed), "");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fp::should_fail(fp::Site::hot_swap_publish));
    return fired;
  };

  const auto a1 = draw(42);
  const auto a2 = draw(42);
  EXPECT_EQ(a1, a2) << "re-arming with the same seed must replay the same fires";
  EXPECT_NE(a1, draw(43)) << "a different seed must select a different fire set";
  // prob:0.5 over 64 draws: both outcomes occur (P[miss] ~ 2^-64).
  EXPECT_NE(std::count(a1.begin(), a1.end(), true), 0);
  EXPECT_NE(std::count(a1.begin(), a1.end(), false), 0);
}

TEST_F(FpTest, DescribeListsArmedSitesWithCounters) {
  EXPECT_EQ(fp::arm("ring_push=every:2,alert_sink_write=always"), "");
  (void)fp::should_fail(fp::Site::ring_push);
  const std::string desc = fp::describe();
  EXPECT_NE(desc.find("ring_push"), std::string::npos);
  EXPECT_NE(desc.find("alert_sink_write"), std::string::npos);
  EXPECT_NE(desc.find("hits="), std::string::npos);
  fp::disarm();
  EXPECT_TRUE(fp::describe().empty());
}

TEST_F(FpTest, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < fp::kSiteCount; ++i) {
    const auto site = static_cast<fp::Site>(i);
    const auto back = fp::site_from_name(fp::site_name(site));
    ASSERT_TRUE(back.has_value()) << fp::site_name(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(fp::site_from_name("nope").has_value());
}

// ---- ring + reassembly sites ----------------------------------------------

using ChaosRing = ChaosTest;

TEST_F(ChaosRing, PushFailpointReportsFullAndLeavesTheItemUntouched) {
  pipeline::SpscRing<int> ring(4);
  ASSERT_EQ(fp::arm("ring_push=always"), "");
  int item = 7;
  EXPECT_FALSE(ring.try_push(item));
  EXPECT_EQ(item, 7);
  fp::disarm();
  EXPECT_TRUE(ring.try_push(item));

  ASSERT_EQ(fp::arm("ring_pop=always"), "");
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out)) << "armed pop reports empty even when data waits";
  fp::disarm();
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
}

using ChaosReassembly = ChaosTest;

TEST_F(ChaosReassembly, BufferFailpointDropsSegmentsAsBudgetExhaustion) {
  std::size_t delivered = 0;
  net::TcpReassembler reasm([&](const net::StreamChunk& c) { delivered += c.data.size(); });

  reasm.ingest(tcp_packet(1, 40000, 100, "aaa"));  // pins ISN, delivers in order
  const std::size_t delivered_before = delivered;

  ASSERT_EQ(fp::arm("reassembly_buffer=always"), "");
  reasm.ingest(tcp_packet(1, 40000, 110, "bbb"));  // hole -> buffered -> injected drop
  EXPECT_GE(reasm.stats().dropped_segments, 1u);
  EXPECT_EQ(delivered, delivered_before);

  fp::disarm();
  reasm.ingest(tcp_packet(1, 40000, 103, "ccccccc"));  // fills 103..110
  EXPECT_EQ(delivered, delivered_before + 7) << "the dropped segment must stay dropped";
}

// ---- alert sink containment ------------------------------------------------

class FlakySink final : public ids::AlertSink {
 public:
  bool throwing = false;
  std::vector<ids::Alert> received;
  void on_alert(const ids::Alert& alert) override {
    if (throwing) throw std::runtime_error("sink down");
    received.push_back(alert);
  }
};

using ChaosSink = ChaosTest;

TEST_F(ChaosSink, GuardedSinkQuarantinesAfterConsecutiveFailuresOnly) {
  FlakySink inner;
  pipeline::GuardedSink guard(&inner, /*quarantine_after=*/3);
  const ids::Alert alert{1, 0, 0, pattern::Group::http, 0};

  inner.throwing = true;
  guard.on_alert(alert);
  guard.on_alert(alert);
  inner.throwing = false;
  guard.on_alert(alert);  // success resets the streak
  inner.throwing = true;
  guard.on_alert(alert);
  guard.on_alert(alert);
  EXPECT_FALSE(guard.quarantined()) << "4 errors, but never 3 consecutive";
  EXPECT_EQ(guard.errors(), 4u);
  EXPECT_EQ(inner.received.size(), 1u);

  guard.on_alert(alert);  // third consecutive failure
  EXPECT_TRUE(guard.quarantined());
  inner.throwing = false;
  guard.on_alert(alert);  // quarantined: counted + dropped, inner untouched
  EXPECT_EQ(guard.dropped(), 1u);
  EXPECT_EQ(inner.received.size(), 1u);
}

TEST_F(ChaosSink, WriteFailpointDrivesQuarantineWithoutAThrowingSink) {
  FlakySink inner;
  pipeline::GuardedSink guard(&inner, /*quarantine_after=*/2);
  ASSERT_EQ(fp::arm("alert_sink_write=always"), "");
  const ids::Alert alert{1, 0, 0, pattern::Group::http, 0};
  guard.on_alert(alert);
  guard.on_alert(alert);
  EXPECT_TRUE(guard.quarantined());
  EXPECT_EQ(guard.errors(), 2u);
  EXPECT_TRUE(inner.received.empty()) << "the injected failure fires before delivery";
}

// The guard's counts reach WorkerStats: every alert a worker raised is either
// a failed delivery or one dropped under quarantine.
TEST_F(ChaosSink, PipelineExportsEveryQuarantineLossPerWorker) {
  ASSERT_EQ(fp::arm("alert_sink_write=always"), "");
  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  cfg.sink_quarantine_after = 2;
  pipeline::PipelineRuntime rt(demo_db(), cfg);
  rt.start();
  for (std::uint32_t f = 0; f < 32; ++f) {
    rt.submit(tcp_packet(1 + f, 40000, 100, "xxNEEDLExx", f));
  }
  rt.stop();

  EXPECT_TRUE(rt.alerts().empty()) << "no delivery may succeed";
  const auto stats = rt.stats();
  expect_accounting_identity(stats);
  for (std::size_t w = 0; w < stats.workers.size(); ++w) {
    const pipeline::WorkerStats& ws = stats.workers[w];
    ASSERT_GT(ws.alerts, 0u) << "the traffic must alert on worker " << w;
    EXPECT_EQ(ws.alerts, ws.sink_errors + ws.sink_dropped_alerts) << "worker " << w;
    EXPECT_EQ(ws.sink_quarantined, ws.alerts >= 2 ? 1u : 0u) << "worker " << w;
  }
}

TEST_F(ChaosSink, NdjsonSurvivesWriteFailuresAndKeepsForwarding) {
  std::vector<ids::Alert> forwarded;
  ids::AlertBuffer collect(forwarded);

  char* buffer = nullptr;
  std::size_t buffer_size = 0;
  std::FILE* mem = open_memstream(&buffer, &buffer_size);
  ASSERT_NE(mem, nullptr);
  {
    telemetry::NdjsonAlertSink sink(mem, nullptr, &collect);
    ASSERT_EQ(fp::arm("alert_sink_write=always"), "");
    sink.on_alert(ids::Alert{1, 0, 0, pattern::Group::http, 0});
    sink.on_alert(ids::Alert{2, 0, 4, pattern::Group::dns, 0});
    EXPECT_EQ(sink.dropped(), 2u);
    EXPECT_EQ(sink.emitted(), 0u);
    EXPECT_FALSE(sink.ok());
    EXPECT_EQ(forwarded.size(), 2u) << "downstream delivery survives a sick log file";

    fp::disarm();
    sink.on_alert(ids::Alert{3, 0, 8, pattern::Group::http, 0});
    EXPECT_EQ(sink.emitted(), 1u) << "the sink recovers once writes succeed again";
    EXPECT_EQ(forwarded.size(), 3u);
  }
  std::fclose(mem);  // caller owns the memstream (the sink only borrows it)
  std::free(buffer);
}

// ---- hot-swap publish site -------------------------------------------------

using ChaosSwap = ChaosTest;

TEST_F(ChaosSwap, PublishFailpointThrowsAndTheOldGenerationStaysLive) {
  const DatabasePtr db_a = demo_db();
  const DatabasePtr db_b = demo_db();

  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  pipeline::PipelineRuntime rt(db_a, cfg);
  rt.start();
  const std::uint64_t gen_before = rt.generation();

  ASSERT_EQ(fp::arm("hot_swap_publish=always"), "");
  EXPECT_THROW(rt.swap_database(db_b), std::runtime_error);
  EXPECT_EQ(rt.generation(), gen_before) << "a failed publish must not change the ruleset";

  fp::disarm();
  rt.submit(tcp_packet(1, 40001, 100, "xxNEEDLExx"));
  rt.swap_database(db_b);
  EXPECT_NE(rt.generation(), gen_before);
  rt.stop();
  EXPECT_EQ(rt.alerts().size(), 1u) << "the pipeline keeps scanning across a failed swap";
  expect_accounting_identity(rt.stats());
}

// ---- overload eviction -----------------------------------------------------

using ChaosOverload = ChaosTest;

TEST_F(ChaosOverload, HealthyRunShedsNothing) {
  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  pipeline::PipelineRuntime rt(demo_db(), cfg);
  rt.start();
  for (std::uint32_t i = 0; i < 100; ++i) {
    rt.submit(tcp_packet(1 + i % 4, 40000, 100 + (i / 4) * 8, "xxNEEDLE", i));
  }
  rt.stop();
  const auto totals = rt.stats().totals();
  EXPECT_EQ(totals.shed_packets, 0u);
  EXPECT_EQ(totals.processed_packets, totals.packets);
}

// Flow A goes idle at t = 0; eight one-packet batches of flow B arrive at
// t = 2 s while the worker cannot pop (ring_pop fires), so its 8-batch ring
// is full when it resumes.  A full ring alone keeps A under the configured
// 10 s timeout.  When the drop policy discarded B's first batch, the one
// pushed after it arms overload eviction, whose sweep at the 1 s timeout
// evicts A.  It applies while the ring holds at least 3/4 of its capacity
// as a batch is popped: to the first two of the seven (7 and 6 of 8
// queued).  The worker sweeps after every packet, so each of those sweeps
// once.  Emptying the ring disarms it: eight batches of flow C that fill
// the ring again without a drop sweep at the configured timeout.
TEST_F(ChaosOverload, FullRingSweepsAtTheOverloadTimeoutAfterADrop) {
  for (const bool drop_first : {false, true}) {
    SCOPED_TRACE(drop_first ? "first packet of B dropped" : "nothing dropped");
    pipeline::PipelineConfig cfg;
    cfg.workers = 1;
    cfg.ring_batches = 8;
    cfg.batch_packets = 1;
    cfg.backpressure = pipeline::BackpressurePolicy::drop;
    cfg.idle_timeout_us = 10'000'000;
    cfg.eviction_sweep_packets = 1;
    pipeline::PipelineRuntime rt(demo_db(), cfg);
    rt.start();
    // Queues eight packets of one flow at t = 2 s behind a worker that
    // cannot pop, then lets it drain them.
    const auto fill_ring = [&](std::uint32_t flow, std::string_view spec) {
      ASSERT_EQ(fp::arm(spec), "");
      // Once one pop has failed, the worker sees the arming on every later
      // pop, so no batch of the flow is popped before all of them are queued.
      while (fp::fires(fp::Site::ring_pop) == 0) std::this_thread::yield();
      for (std::uint32_t i = 0; i < 8; ++i) {
        rt.submit(tcp_packet(flow, 40000 + flow, 100 + i * 6, "flow", 2'000'000));
      }
      fp::disarm();
      rt.quiesce();
    };
    rt.submit(tcp_packet(1, 40000, 100, "flow A", 0));
    rt.quiesce();
    // A worker that cannot pop returns no batch, so the first ring push
    // after arming is B's first packet.
    fill_ring(2, drop_first ? "ring_pop=always,ring_push=once:1" : "ring_pop=always");
    fill_ring(3, "ring_pop=always");
    rt.stop();

    const auto stats = rt.stats();
    expect_accounting_identity(stats);
    EXPECT_EQ(stats.dropped_backpressure, drop_first ? 1u : 0u);
    const auto totals = stats.totals();
    EXPECT_EQ(totals.flows_evicted, drop_first ? 1u : 0u);
    EXPECT_EQ(totals.overload_sweeps, drop_first ? 2u : 0u);
  }
}

// ---- fault differential ----------------------------------------------------

using ChaosDifferential = ChaosTest;

// Runs whose alerts are compared share `db`: alerts carry its generation.
std::vector<ids::Alert> run_pipeline(const std::vector<net::Packet>& packets,
                                     const DatabasePtr& db) {
  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 4;
  pipeline::PipelineRuntime rt(db, cfg);
  rt.start();
  for (const auto& p : packets) rt.submit(p);
  rt.stop();
  expect_accounting_identity(rt.stats());
  std::vector<ids::Alert> alerts = rt.alerts();
  std::sort(alerts.begin(), alerts.end());
  return alerts;
}

TEST_F(ChaosDifferential, DisarmedRunsAreIdenticalAndBlockedPushRetriesAreLossless) {
  std::vector<net::Packet> packets;
  for (std::uint32_t f = 0; f < 16; ++f) {
    packets.push_back(tcp_packet(10 + f, 50000, 100, "ab NEE", f));
    packets.push_back(tcp_packet(10 + f, 50000, 106, "DLE cd", f + 16));
  }

  const DatabasePtr db = demo_db();
  const auto baseline = run_pipeline(packets, db);
  ASSERT_EQ(baseline.size(), 16u);
  EXPECT_EQ(run_pipeline(packets, db), baseline) << "disarmed runs must be deterministic";

  // Injected ring-full under the block policy: the router retries until the
  // push lands, so faults cost latency, never alerts.
  ASSERT_EQ(fp::arm("ring_push=every:3"), "");
  EXPECT_EQ(run_pipeline(packets, db), baseline);
  EXPECT_GT(fp::fires(fp::Site::ring_push), 0u) << "the fault actually fired";

  // Injected ring-empty on the consumer side: workers just spin once more.
  ASSERT_EQ(fp::arm("ring_pop=every:2"), "");
  EXPECT_EQ(run_pipeline(packets, db), baseline);

  fp::disarm();
  EXPECT_EQ(run_pipeline(packets, db), baseline) << "disarming restores the exact baseline";
}

// ---- worker failure + watchdog ---------------------------------------------

using ChaosWorker = ChaosTest;

TEST_F(ChaosWorker, BatchFailureIsContainedDrainedAndAccounted) {
  ASSERT_EQ(fp::arm("worker_batch=always"), "");
  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 4;
  pipeline::PipelineRuntime rt(demo_db(), cfg);
  rt.start();
  for (std::uint32_t i = 0; i < 64; ++i) {
    rt.submit(tcp_packet(1 + i % 8, 40000, 100 + (i / 8) * 8, "xxNEEDLE", i));
  }
  rt.stop();  // must terminate: dead workers drain their rings

  const auto stats = rt.stats();
  expect_accounting_identity(stats);
  EXPECT_GE(stats.worker_failures, 1u);
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_NE(stats.errors.front().find("failpoint"), std::string::npos);
  const auto totals = stats.totals();
  EXPECT_EQ(totals.processed_packets, 0u) << "every batch threw before processing";
  EXPECT_EQ(totals.shed_packets, totals.packets);
  EXPECT_EQ(totals.shed_bytes, totals.payload_bytes);
}

TEST(ChaosWatchdog, FlagsOneStallPerEpisodeAndClearsOnRecovery) {
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<bool> finished{false};
  pipeline::Watchdog dog({.interval_ms = 2, .stall_intervals = 2});
  dog.watch({&heartbeat, &finished});
  dog.start();

  const auto wait_until = [&](auto cond) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!cond() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cond();
  };

  EXPECT_TRUE(wait_until([&] { return dog.stalls() >= 1; })) << "flat heartbeat = stall";
  EXPECT_EQ(dog.currently_stalled(), 1u);
  EXPECT_EQ(dog.stalls(), 1u) << "one episode counts once, not once per sample";

  // Recovery: the heartbeat advances, the episode ends.
  std::thread beater([&] {
    for (int i = 0; i < 200 && dog.currently_stalled() != 0; ++i) {
      heartbeat.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  beater.join();
  EXPECT_TRUE(wait_until([&] { return dog.currently_stalled() == 0; }));

  // A second wedge is a NEW episode.
  EXPECT_TRUE(wait_until([&] { return dog.stalls() >= 2; }));

  // A finished worker is never a stall, however flat its heartbeat.
  finished.store(true, std::memory_order_release);
  EXPECT_TRUE(wait_until([&] { return dog.currently_stalled() == 0; }));
  dog.stop();
}

class WedgingSink final : public ids::AlertSink {
 public:
  void on_alert(const ids::Alert&) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return released_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(ChaosWatchdog, PipelineSurfacesAWedgedWorkerInStats) {
  WedgingSink sink;
  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 1;
  cfg.watchdog_interval_ms = 2;
  cfg.watchdog_stall_intervals = 3;
  cfg.alert_sink = &sink;
  pipeline::PipelineRuntime rt(demo_db(), cfg);
  rt.start();
  rt.submit(tcp_packet(1, 40000, 100, "xxNEEDLExx"));
  rt.flush();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.stats().watchdog_stalls == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rt.stats().watchdog_stalls, 1u)
      << "a sink wedged inside a batch must show up as a stall";

  sink.release();
  rt.stop();
  expect_accounting_identity(rt.stats());
}

// ---- exporter socket site ---------------------------------------------------

std::string http_request(std::uint16_t port, const std::string& head) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  const std::string req = head + "\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

using ChaosExporter = ChaosTest;

TEST_F(ChaosExporter, PartialWritesStillDeliverByteIdenticalResponses) {
  telemetry::MetricsRegistry reg;
  reg.counter("vpm_chaos_ops_total", "ops", {}).add(123);

  telemetry::HttpExporterConfig cfg;
  cfg.bind_address = "127.0.0.1";
  cfg.port = 0;
  telemetry::HttpExporter exporter(cfg);
  exporter.add_registry(reg);
  exporter.start();
  ASSERT_GT(exporter.port(), 0);

  const std::string baseline = http_request(exporter.port(), "GET /metrics HTTP/1.1");
  ASSERT_NE(baseline.find("vpm_chaos_ops_total 123"), std::string::npos);

  // Injected short writes: send_all degrades to one-byte chunks and must
  // still push the whole response through the poll-deadline loop.
  ASSERT_EQ(fp::arm("exporter_socket=always"), "");
  EXPECT_EQ(http_request(exporter.port(), "GET /metrics HTTP/1.1"), baseline);
  EXPECT_GT(fp::fires(fp::Site::exporter_socket), 0u);
  fp::disarm();
  EXPECT_EQ(exporter.slow_client_aborts(), 0u);
  exporter.stop();
}

TEST_F(ChaosExporter, SlowClientIsAbortedAtTheReadDeadline) {
  telemetry::HttpExporterConfig cfg;
  cfg.bind_address = "127.0.0.1";
  cfg.port = 0;
  cfg.read_timeout_ms = 50;
  telemetry::HttpExporter exporter(cfg);
  exporter.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exporter.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // A slow-loris client: partial headers, then silence.
  ASSERT_GT(::send(fd, "GET /metr", 9, 0), 0);
  char buf[256];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);  // blocks until server closes
  EXPECT_EQ(n, 0) << "the server must hang up, not answer a half request";
  ::close(fd);

  EXPECT_GE(exporter.slow_client_aborts(), 1u);
  exporter.stop();
}

// ---- defensive decode regressions -------------------------------------------

TEST(HardenedDecode, PcapRecordClaimingMoreThanTheFileIsSkipped) {
  const auto pcap = net::write_pcap({tcp_packet(1, 40000, 100, "hello")});
  auto lying = pcap;
  ASSERT_GE(lying.size(), 36u);
  // Patch incl_len (record header offset 24 + 8) to ~2 GiB.
  lying[32] = 0xFF; lying[33] = 0xFF; lying[34] = 0xFF; lying[35] = 0x7F;
  const auto result = net::read_pcap(lying);
  EXPECT_EQ(result.packets.size(), 0u);
  EXPECT_GE(result.skipped_records, 1u);
}

TEST(HardenedDecode, PcapOversizedInFileRecordIsSkippedAndParsingResumes) {
  const auto valid = net::write_pcap({tcp_packet(1, 40000, 100, "hello")});
  ASSERT_GT(valid.size(), 24u);
  // header | bogus record claiming 70000 bytes (> eth + max sane payload,
  // present in full) | the valid record.  The parser must skip the claimed
  // extent and still decode the trailing record.
  util::Bytes stitched(valid.begin(), valid.begin() + 24);
  const std::uint32_t bogus_len = 70000;
  for (int i = 0; i < 8; ++i) stitched.push_back(0);  // ts_sec, ts_usec
  for (int i = 0; i < 2; ++i) {                       // incl_len, orig_len
    stitched.push_back(bogus_len & 0xFF);
    stitched.push_back(bogus_len >> 8 & 0xFF);
    stitched.push_back(bogus_len >> 16 & 0xFF);
    stitched.push_back(bogus_len >> 24 & 0xFF);
  }
  stitched.resize(stitched.size() + bogus_len, 0);
  stitched.insert(stitched.end(), valid.begin() + 24, valid.end());

  const auto result = net::read_pcap(stitched);
  EXPECT_EQ(result.skipped_records, 1u);
  ASSERT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.packets[0].payload, util::to_bytes("hello"));
}

TEST(HardenedDecode, UdpLengthFieldBelowHeaderSizeIsRejected) {
  net::Packet p = tcp_packet(1, 40000, 0, "hello", 0, 53);
  p.tuple.proto = net::IpProto::udp;
  auto pcap = net::write_pcap({p});
  // UDP length field: record data at 40, eth 14, ipv4 20, udp len at +4.
  const std::size_t udp_len_off = 40 + 14 + 20 + 4;
  ASSERT_GT(pcap.size(), udp_len_off + 1);
  pcap[udp_len_off] = 0;
  pcap[udp_len_off + 1] = 3;  // < the 8-byte UDP header: impossible
  const auto result = net::read_pcap(pcap);
  EXPECT_EQ(result.packets.size(), 0u);
  EXPECT_EQ(result.skipped_records, 1u);
}

TEST(HardenedDecode, PatternDbImplausibleCountThrowsInsteadOfLooping) {
  pattern::PatternSet set;
  set.add("abc");
  auto blob = pattern::serialize_patterns(set);
  ASSERT_GE(blob.size(), 12u);
  // v1 layout: 8-byte magic, then the u32 pattern count.
  blob[8] = 0xFF; blob[9] = 0xFF; blob[10] = 0xFF; blob[11] = 0xFF;
  EXPECT_THROW(pattern::deserialize_patterns(blob), std::invalid_argument);
}

TEST(HardenedDecode, SnortOversizedLineAndContentAreCountedNotFatal) {
  std::string text = "alert tcp any any -> any 80 (content:\"ok\"; sid:1;)\n";
  text += "alert tcp any any -> any 80 (content:\"" + std::string(1 << 21, 'a') +
          "\"; sid:2;)\n";  // line over the 1 MiB ceiling
  text += "alert tcp any any -> any 80 (content:\"" + std::string(70000, 'b') +
          "\"; sid:3;)\n";  // content over the 64 KiB ceiling

  std::size_t skipped = 0;
  const auto rules = pattern::parse_rules(text, &skipped);
  EXPECT_EQ(rules.size(), 1u);
  EXPECT_EQ(skipped, 2u);
}

}  // namespace
}  // namespace vpm
