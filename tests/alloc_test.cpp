// Proves the batch-scan steady state is allocation-free: this binary
// replaces global operator new/delete with counting versions, warms up the
// matcher scratch / engine flow tables / batch machinery, then drives many
// more rounds under churny batch- and chunk-size variation and asserts the
// allocation counter does not move.  This is the zero-alloc contract the
// pipeline worker's scan loop relies on under sustained small-packet load.
// The same allocator tracks live heap bytes, which bounds what one tracked
// stream costs, and attributes news and deletes to the thread a test marks
// as its own versus every other thread (the pipeline's workers).
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "ac/ac_compact.hpp"
#include "core/matcher_factory.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pipeline/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "util/failpoint.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
// Heap bytes currently held through operator new, as malloc_usable_size
// reports them (allocator rounding included).
std::atomic<std::int64_t> g_live_bytes{0};
// Per-thread attribution: set on the thread a test marks as its own.
thread_local bool t_marked_thread = false;
std::atomic<std::uint64_t> g_marked_allocations{0};
std::atomic<std::uint64_t> g_other_allocations{0};
std::atomic<std::uint64_t> g_other_frees{0};

void* counted(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  (t_marked_thread ? g_marked_allocations : g_other_allocations)
      .fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr && !t_marked_thread) g_other_frees.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return counted(p);
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) throw std::bad_alloc();
  return counted(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
// Nothrow variants too (std::stable_sort's temporary buffer uses them):
// leaving them to the default implementation would pair a foreign new with
// our free-based delete — an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(std::malloc(n != 0 ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(std::malloc(n != 0 ? n : 1));
}
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace vpm {
namespace {

using testutil::case_seed;
using testutil::seed_note;

struct CountingBatchSink final : BatchSink {
  std::uint64_t matches = 0;
  void on_match(std::uint32_t, const Match&) override { ++matches; }
};

struct CountingAlertSink final : ids::AlertSink {
  std::uint64_t alerts = 0;
  void on_alert(const ids::Alert&) override { ++alerts; }
};

// Thread-safe: a pipeline's workers deliver into it concurrently.
struct AtomicCountingAlertSink final : ids::AlertSink {
  std::atomic<std::uint64_t> alerts{0};
  void on_alert(const ids::Alert&) override {
    alerts.fetch_add(1, std::memory_order_relaxed);
  }
};

// Matcher-level: scan_batch with a reused scratch, batch size churning
// between rounds, must not allocate after the first full-size round.  The
// AC compact variant pins the lane kernel's staging + hit-pool scratch (the
// pipeline's fallback engine for long/dense rulesets) alongside V-PATCH and
// DFC.
TEST(AllocTest, MatcherBatchScanSteadyStateIsAllocationFree) {
  for (core::Algorithm algo : {core::Algorithm::vpatch, core::Algorithm::dfc,
                               core::Algorithm::aho_corasick_compact}) {
    const auto set = testutil::random_set(300, 6, case_seed(301));
    const auto matcher = core::make_matcher(algo, set);
    std::vector<util::Bytes> payloads;
    for (std::size_t i = 0; i < 32; ++i) {
      payloads.push_back(testutil::random_text(256, case_seed(302) + i));
    }
    std::vector<util::ByteView> views(payloads.begin(), payloads.end());

    ScanScratch scratch;
    CountingBatchSink sink;
    const auto drive = [&](std::size_t batch) {
      for (std::size_t begin = 0; begin < views.size(); begin += batch) {
        const std::size_t count = std::min(batch, views.size() - begin);
        matcher->scan_batch({views.data() + begin, count}, sink, scratch);
      }
    };

    // Warm-up: largest batch first (high-water scratch), then churn.
    for (std::size_t batch : {std::size_t{32}, std::size_t{20}, std::size_t{7},
                              std::size_t{1}}) {
      drive(batch);
    }

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t batch : {std::size_t{32}, std::size_t{7}, std::size_t{1},
                                std::size_t{20}}) {
        drive(batch);
      }
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << core::algorithm_name(algo)
                             << " allocated in steady state (" << seed_note() << ")";
    EXPECT_GT(sink.matches, 0u) << "workload must produce matches to be meaningful";
  }
}

// Engine-level: the worker scan loop body — stage() per chunk across mixed
// protocol groups and flows, flush_batch() per round — with chunk sizes
// churning, must not allocate once flow buffers and scratch reached their
// high-water marks.  A flush's byte total varies with content (each
// stream's carry does), so every batch engine's staging is pinned: the
// engines of the matcher-level pin above.
TEST(AllocTest, EngineStageFlushSteadyStateIsAllocationFree) {
  for (core::Algorithm algo : {core::Algorithm::vpatch, core::Algorithm::dfc,
                               core::Algorithm::aho_corasick_compact}) {
    const auto rules = testutil::random_set(200, 6, case_seed(303));
    ids::IdsEngine engine(compile(algo, rules));
    CountingAlertSink sink;

    const util::Bytes pool = testutil::random_text(1 << 16, case_seed(304));
    const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                     pattern::Group::dns};
    const std::size_t sizes[] = {1500, 700, 256, 64, 1};

    const auto drive = [&](int round) {
      for (std::uint64_t flow = 0; flow < 6; ++flow) {
        const std::size_t size = sizes[(round + flow) % std::size(sizes)];
        const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
        engine.stage(flow, groups[flow % std::size(groups)],
                     {pool.data() + offset, size}, sink);
      }
      engine.flush_batch(sink);
    };

    for (int round = 0; round < 10; ++round) drive(round);  // warm-up

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 50; ++round) drive(round);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << core::algorithm_name(algo)
                             << " engine batch loop allocated in steady state ("
                             << seed_note() << ")";
    EXPECT_GT(sink.alerts, 0u) << "workload must produce alerts to be meaningful";
  }
}

// Engine-level with the approximate prefilter forced on: the screen reads
// the staged payloads in place and emits verdicts every flush — the verdict
// and gather arrays grow to a high-water mark, so the steady state must stay
// allocation-free.  The
// ruleset has a length floor (random_set's 1-byte patterns would null the
// signatures and silently skip the screen path).
TEST(AllocTest, EnginePrefilterScreenSteadyStateIsAllocationFree) {
  pattern::PatternSet rules;
  {
    util::Rng rng(case_seed(305));
    while (rules.size() < 150) {
      const std::size_t len = 4 + rng.below(5);  // 4..8 bytes
      util::Bytes b(len);
      for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(4));
      rules.add(std::move(b), rng.chance(0.3));
    }
  }
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  engine.set_prefilter_mode(core::PrefilterMode::on);
  CountingAlertSink sink;

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(306));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "prefilter screen allocated in steady state ("
                           << seed_note() << ")";
  const auto& counters = engine.counters();
  EXPECT_GT(counters.prefilter_pass_payloads + counters.prefilter_reject_payloads, 0u)
      << "the screen must actually have run to be meaningful";
  EXPECT_GT(sink.alerts, 0u) << "workload must produce alerts to be meaningful";
}

// Packet ownership across the pipeline: the submitting thread allocates every
// payload, and the return rings bring each drained batch back so that thread
// frees it too.  Long-lived in-order TCP flows (no FIN or RST, eviction off)
// and a counting sink keep the workers' own steady state allocation-free, so
// after a warm-up the workers must make no allocation and no free at all, and
// the test thread's only allocations are its K payload copies: the runtime
// adds none, not even a batch vector per push.
TEST(AllocTest, PipelineFreesEachPacketOnTheSubmittingThread) {
  struct MarkThread {
    MarkThread() { t_marked_thread = true; }
    ~MarkThread() { t_marked_thread = false; }
  } mark;
  constexpr unsigned kWorkers = 2;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kFlowsPerShard = 4;
  constexpr std::size_t kPayload = 512;

  AtomicCountingAlertSink sink;
  pipeline::PipelineConfig cfg;
  cfg.workers = kWorkers;
  cfg.batch_packets = kBatch;
  cfg.idle_timeout_us = 0;
  cfg.alert_sink = &sink;
  pipeline::PipelineRuntime rt(
      compile(core::Algorithm::vpatch, testutil::random_set(200, 6, case_seed(308))), cfg);

  // kFlowsPerShard client flows on each shard, so one round of kBatch packets
  // per shard fills exactly one batch per shard.
  std::vector<net::Packet> flows;  // tuple and next sequence number per flow
  std::size_t per_shard[kWorkers] = {};
  for (std::uint16_t port = 40000; flows.size() < kWorkers * kFlowsPerShard; ++port) {
    net::Packet p;
    p.tuple.src_ip = 0x0A000001;
    p.tuple.dst_ip = 0xC0A80001;
    p.tuple.src_port = port;
    p.tuple.dst_port = 80;
    p.tuple.proto = net::IpProto::tcp;
    std::size_t& n = per_shard[pipeline::shard_of(p.tuple, kWorkers)];
    if (n < kFlowsPerShard) {
      ++n;
      flows.push_back(p);
    }
  }

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(309));
  std::uint64_t now_us = 0;
  std::size_t submitted = 0;
  // One round: kBatch / kFlowsPerShard in-order segments on every flow, then
  // quiesce(), after which every batch of the round is back on this thread.
  const auto round = [&] {
    for (std::size_t seg = 0; seg < kBatch / kFlowsPerShard; ++seg) {
      for (net::Packet& flow : flows) {
        net::Packet p;
        p.timestamp_us = ++now_us;
        p.tuple = flow.tuple;
        p.tcp_seq = flow.tcp_seq;
        const std::size_t offset = (submitted * 977) % (pool.size() - kPayload);
        p.payload.assign(pool.begin() + static_cast<std::ptrdiff_t>(offset),
                         pool.begin() + static_cast<std::ptrdiff_t>(offset + kPayload));
        flow.tcp_seq += static_cast<std::uint32_t>(kPayload);
        rt.submit(std::move(p));
        ++submitted;
      }
    }
    rt.quiesce();
  };

  rt.start();
  for (int r = 0; r < 50; ++r) round();  // warm-up: flows, scratch, batches

  const auto read = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  const std::uint64_t marked_before = read(g_marked_allocations);
  const std::uint64_t other_before = read(g_other_allocations);
  const std::uint64_t frees_before = read(g_other_frees);
  const std::size_t first = submitted;
  for (int r = 0; r < 100; ++r) round();
  const std::uint64_t k = submitted - first;
  const std::uint64_t marked = read(g_marked_allocations) - marked_before;
  const std::uint64_t other = read(g_other_allocations) - other_before;
  const std::uint64_t frees = read(g_other_frees) - frees_before;
  rt.stop();

  EXPECT_EQ(other, 0u) << "worker threads allocated in steady state (" << seed_note() << ")";
  EXPECT_EQ(frees, 0u) << "worker threads freed in steady state (" << seed_note() << ")";
  EXPECT_EQ(marked, k) << "the runtime allocated on the submitting thread beyond its "
                       << k << " payload copies (" << seed_note() << ")";
  const auto stats = rt.stats();
  EXPECT_EQ(stats.totals().processed_packets, submitted);
  EXPECT_GT(sink.alerts.load(), 0u) << "workload must produce alerts to be meaningful";
}

// Bounded per-stream state: a tracked stream holds its carry and a fixed
// header (flow-table slot, scanner, allocator rounding), never a copy of its
// chunk (staged chunks live in the engine's batch arena) or of its group's
// tables.  S1-web on V-PATCH is the sensor benchmark's http ruleset; 4096
// streams of four 64-byte chunks each, staged 32 to a batch, is small-packet
// churn.
TEST(AllocTest, TrackedStreamHoldsCarryAndHeaderOnly) {
  const auto rules = pattern::generate_ruleset(pattern::s1_config()).web_patterns();
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  CountingAlertSink sink;
  const std::size_t max_len = rules.length_stats().max_len;  // the http set holds them all
  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kHeader = 256;
  constexpr std::size_t kBatch = 32;
  constexpr std::uint64_t kStreams = 4096;

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(307));
  std::size_t staged = 0;
  // Four chunks on each of `count` fresh http streams, one chunk per stream
  // per batch.
  const auto open_streams = [&](std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
      for (std::uint64_t flow = first; flow < first + count; ++flow) {
        const std::size_t offset = (flow * 977 + chunk * 131) % (pool.size() - kChunk);
        engine.stage(flow, pattern::Group::http, {pool.data() + offset, kChunk}, sink);
        if (++staged % kBatch == 0) engine.flush_batch(sink);
      }
    }
    engine.flush_batch(sink);
  };

  // Throwaway flows bring the batch scratch to its high-water mark.
  open_streams(kStreams, kBatch);
  for (std::uint64_t flow = kStreams; flow < kStreams + kBatch; ++flow) {
    engine.close_flow(flow);
  }

  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  open_streams(0, kStreams);
  const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);
  ASSERT_EQ(engine.active_flows(), kStreams);
  const double per_stream =
      static_cast<double>(after - before) / static_cast<double>(kStreams);
  EXPECT_LE(per_stream, static_cast<double>((max_len - 1) + kHeader))
      << "live heap bytes per tracked stream (max_len " << max_len << ")";
  RecordProperty("bytes_per_stream", std::to_string(per_stream));
}

// The disarmed failpoint check sits on the hottest paths (every ring push
// and pop, every reassembly buffering decision): it must stay one relaxed
// load — no allocation, and no fires.
TEST(AllocTest, DisarmedFailpointCheckIsAllocationFree) {
  util::failpoint::disarm();
  bool any = false;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1'000'000; ++i) {
    any |= util::failpoint::should_fail(util::failpoint::Site::ring_push);
    any |= util::failpoint::should_fail(util::failpoint::Site::reassembly_buffer);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disarmed should_fail must not allocate";
  EXPECT_FALSE(any);
}

// Telemetry record paths: counter add, gauge set, histogram record — the
// operations the scan path performs once instruments are registered — must
// never allocate.  Registration may (and does) allocate; that is setup.
TEST(AllocTest, TelemetryRecordPathIsAllocationFree) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter =
      registry.counter("alloc_test_ops_total", "ops", {{"worker", "0"}});
  telemetry::Gauge& gauge = registry.gauge("alloc_test_depth", "depth");
  telemetry::Histogram& latency =
      registry.histogram("alloc_test_latency_seconds", "lat",
                         telemetry::latency_buckets_seconds(), {{"worker", "0"}});
  telemetry::Histogram& sizes = registry.histogram(
      "alloc_test_bytes", "sz", telemetry::size_buckets_bytes(), {{"worker", "0"}});

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    counter.add(3);
    gauge.set(i);
    latency.record(static_cast<double>(i % 977) * 1e-6);
    sizes.record(static_cast<double>((i * 131) % 65536));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "telemetry record path allocated";
  EXPECT_EQ(counter.value(), 300000u);
  EXPECT_EQ(latency.snapshot().count, 100000u);
}

// Engine-level with instruments installed: the flush-latency histogram and
// per-group counters ride the batch loop without breaking its zero-alloc
// steady state (the contract PipelineConfig::metrics documents).
TEST(AllocTest, EngineWithTelemetrySteadyStateIsAllocationFree) {
  const auto rules = testutil::random_set(200, 6, case_seed(303));
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  CountingAlertSink sink;

  telemetry::MetricsRegistry registry;
  ids::EngineTelemetry et;
  et.flush_latency = &registry.histogram(
      "vpm_scan_latency_seconds", "lat", telemetry::latency_buckets_seconds());
  for (std::size_t gi = 0; gi < ids::kEngineGroupCount; ++gi) {
    const std::string group(pattern::group_name(static_cast<pattern::Group>(gi)));
    et.group_scan_bytes[gi] =
        &registry.counter("vpm_group_scan_bytes_total", "b", {{"group", group}});
    et.group_alerts[gi] =
        &registry.counter("vpm_group_alerts_total", "a", {{"group", group}});
  }
  engine.set_telemetry(et);

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(304));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "instrumented engine batch loop allocated ("
                           << seed_note() << ")";
  const telemetry::Histogram* h = registry.find_histogram("vpm_scan_latency_seconds", {});
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->snapshot().count, 0u) << "flush latency must have been recorded";
}

// Building the compact automaton over the tls_screened ruleset (S2-web's
// patterns of >= 8 B, ~150 K states) allocates per build, not per state:
// a per-node or per-state vector, and the heap such vectors leave behind
// after the build, would put this in the hundreds of thousands.
TEST(AllocTest, CompactAcBuildAllocatesPerBuildNotPerState) {
  const pattern::PatternSet set = testutil::tls_screened_set();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ac::AcCompactMatcher matcher(set);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_GT(matcher.state_count(), 100000u);
  EXPECT_LT(allocations, matcher.state_count() / 1000)
      << allocations << " allocations for " << matcher.state_count() << " states";
}

}  // namespace
}  // namespace vpm
