// The capture-path scale benches of the sharded pipeline runtime: steady
// live ingestion, million-flow churn and overload floods.  End-to-end
// sensor throughput and its per-stage split are sensorbench/'s job; the
// matcher-only figures are the fig* benches'.
//
//   pipeline_throughput --source=trace --soak-seconds=N [--flows=N]
//                       [--evict-steps=K] [--seed=N] [--json=FILE]
//   pipeline_throughput --churn=N [--evict-steps=K] [--seed=N] [--json=FILE]
//   pipeline_throughput --flood [--runs=N] [--quick] [--seed=N] [--json=FILE]
//
// --source=trace --soak-seconds=N switches to the live-ingestion soak: an
// endless TraceSource (fresh flows every epoch) feeds the pipeline for N
// wall seconds with bounded incremental eviction, reporting steady-state
// kpkt/s, flow-table occupancy (tracked connections), and eviction debt.
//
// --churn=N is the million-flow churn phase: N distinct single-packet flows
// streamed through one worker with bounded-step eviction, proving the
// tables sustain >= 1M tracked flows, plus a direct FlowTable measurement
// of the full-sweep latency spike vs the bounded-step bound.
//
// --flood measures what one worker keeps when it is offered more than it
// can inspect: each mix replayed open loop at 2x and 4x of its closed-loop
// capacity under drop backpressure, where the drops start overload
// eviction.
//
// With none of --soak-seconds, --churn and --flood, it prints this usage and
// exits 2.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "capture/topology.hpp"
#include "capture/trace_source.hpp"
#include "common.hpp"
#include "pipeline/runtime.hpp"
#include "util/flow_table.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

// --source=trace --soak-seconds=N: steady-state ingestion from an endless
// generated trace.  Every epoch remaps the server address, so the flow
// tables see continuous arrival of NEW flows while old epochs age out
// through bounded incremental eviction — the deployed-sensor steady state,
// not a replay that ends.
int soak_mode(const Options& opt, std::size_t flow_count, double soak_seconds,
              std::size_t evict_steps) {
  capture::TraceConfig tc;
  tc.profile = "mixed";
  tc.flows = flow_count;
  tc.bytes_per_flow = 32 * 1024;
  tc.seed = opt.seed + 7;
  tc.epochs = 0;  // endless
  capture::TraceSource source(tc);

  // One epoch's capture-time span; an idle timeout of one span means a
  // flow's state lives ~one epoch past its last packet, so the live set
  // hovers around two epochs' flows and eviction runs continuously.
  std::uint64_t span_us = 0;
  for (const net::Packet& p : source.base().packets) {
    span_us = std::max(span_us, p.timestamp_us);
  }

  pipeline::PipelineConfig cfg;
  cfg.workers = std::max(1u, std::thread::hardware_concurrency() / 2);
  cfg.idle_timeout_us = span_us;
  cfg.eviction_max_steps = evict_steps;
  pipeline::PipelineRuntime rt(compile(core::Algorithm::vpatch, s1_web_patterns(opt.seed)),
                               cfg);
  rt.start();

  std::printf("=== Capture soak: trace source, %zu flows/epoch, %zu pkt/epoch, "
              "%u workers, eviction bound %zu slots/sweep, %.0f s ===\n",
              flow_count, source.packets_per_epoch(), cfg.workers, evict_steps,
              soak_seconds);
  const std::vector<int> widths{10, 12, 14, 14, 14};
  print_row({"t_s", "kpkt/s", "tracked", "evicted", "epochs"}, widths);

  util::Timer wall;
  std::vector<net::Packet> batch;
  std::uint64_t submitted = 0, last_sampled = 0;
  double last_sample_t = 0.0;
  util::RunningStats steady_kpps;  // samples after the first (warm-up) second
  std::uint64_t peak_tracked = 0;
  while (wall.seconds() < soak_seconds) {
    batch.clear();
    source.poll(batch, 256);
    for (net::Packet& p : batch) rt.submit(std::move(p));
    submitted += batch.size();
    const double t = wall.seconds();
    if (t - last_sample_t >= 1.0) {
      const auto totals = rt.stats().totals();
      const double kpps =
          static_cast<double>(submitted - last_sampled) / (t - last_sample_t) / 1e3;
      peak_tracked = std::max(peak_tracked, totals.tracked_connections);
      if (last_sample_t > 0.0) steady_kpps.add(kpps);  // skip warm-up interval
      print_row({fmt(t, 1), fmt(kpps, 0), std::to_string(totals.tracked_connections),
                 std::to_string(totals.flows_evicted),
                 std::to_string(submitted / source.packets_per_epoch())},
                widths);
      last_sampled = submitted;
      last_sample_t = t;
    }
  }
  rt.stop();
  const double secs = wall.seconds();
  const auto totals = rt.stats().totals();
  // Debt: connections still tracked beyond the roughly one-epoch live set —
  // flows whose eviction the bounded sweeps have not reached yet.
  const std::uint64_t live_estimate = flow_count;
  const std::uint64_t debt = totals.tracked_connections > live_estimate
                                 ? totals.tracked_connections - live_estimate
                                 : 0;
  std::printf("soak: %llu packets in %.1f s (steady %.0f kpkt/s), "
              "%llu connections started / %llu ended, %llu evicted, "
              "final tracked %llu (eviction debt ~%llu)\n",
              static_cast<unsigned long long>(submitted), secs, steady_kpps.mean(),
              static_cast<unsigned long long>(totals.connections_started),
              static_cast<unsigned long long>(totals.connections_ended),
              static_cast<unsigned long long>(totals.flows_evicted),
              static_cast<unsigned long long>(totals.tracked_connections),
              static_cast<unsigned long long>(debt));

  JsonReport report("capture_soak", opt);
  report.add({{"mode", "soak"}, {"profile", "trace:mixed"}},
             {{"steady_kpps", steady_kpps.mean()},
              {"kpps_stddev", steady_kpps.stddev()},
              {"soak_seconds", secs}},
             {{"workers", cfg.workers},
              {"flows_per_epoch", flow_count},
              {"packets", submitted},
              {"eviction_max_steps", evict_steps},
              {"connections_started", totals.connections_started},
              {"connections_ended", totals.connections_ended},
              {"flows_evicted", totals.flows_evicted},
              {"peak_tracked", peak_tracked},
              {"final_tracked", totals.tracked_connections},
              {"eviction_debt", debt}});
  return report.write() ? 0 : 1;
}

// --churn=N: million-flow scale.  Part 1 measures the eviction pause
// directly on a FlowTable (full sweep vs bounded steps over the same
// table).  Part 2 streams N single-packet flows through one pipeline worker
// with bounded eviction and verifies the tables sustain the load and the
// lifecycle identity started == ended + still-tracked holds.
int churn_mode(const Options& opt, std::size_t total_flows, std::size_t evict_steps) {
  std::printf("=== Flow-table churn: %zu flows, eviction bound %zu ===\n",
              total_flows, evict_steps);

  // Part 1: the latency-spike comparison the bounded sweep exists for.
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> table;
  for (std::uint64_t i = 0; i < total_flows; ++i) {
    table.find_or_emplace(i, [&] { return i; });
  }
  util::Timer t_full;
  // Sweep evicting nothing: pure scan cost, the floor of the pause a full
  // sweep inflicts on the packet path at this table size.  The visit counter
  // keeps the scan observable (a result-free sweep is dead code to the
  // optimizer, which benchmarks an empty loop at 0 ms).
  std::uint64_t visited_full = 0;
  table.sweep_step(table.capacity(), [&](std::uint64_t, std::uint64_t) {
    ++visited_full;
    return false;
  });
  const double full_ms = t_full.seconds() * 1e3;
  double max_step_ms = 0.0;
  std::size_t step_calls = 0;
  std::uint64_t visited_stepped = 0;
  for (std::size_t visited = 0; visited < table.capacity();
       visited += evict_steps, ++step_calls) {
    util::Timer t_step;
    table.sweep_step(evict_steps, [&](std::uint64_t, std::uint64_t) {
      ++visited_stepped;
      return false;
    });
    max_step_ms = std::max(max_step_ms, t_step.seconds() * 1e3);
  }
  if (visited_full != table.size() || visited_stepped != table.size()) {
    std::fprintf(stderr, "churn: sweep visit counts diverged (%llu/%llu vs %zu)\n",
                 static_cast<unsigned long long>(visited_full),
                 static_cast<unsigned long long>(visited_stepped), table.size());
    return 1;
  }
  std::printf("eviction pause at %zu entries (capacity %zu): full sweep %.2f ms; "
              "bounded %zu-slot step max %.4f ms over %zu calls\n",
              table.size(), table.capacity(), full_ms, evict_steps, max_step_ms,
              step_calls);

  // Part 2: the pipeline sustaining a tracked set at total_flows' scale.
  // Single-packet flows 1 us apart, idle timeout at 5/8 of the capture
  // span: the tracked set climbs to ~62% of total_flows (>= 1M tracked at
  // --churn=2000000) before idle eviction engages, and from there every
  // batch retires at most eviction_max_steps slots — bounded per-batch cost
  // while the table stays millions deep.
  pipeline::PipelineConfig cfg;
  cfg.workers = 1;
  cfg.idle_timeout_us = static_cast<std::uint64_t>(total_flows) * 5 / 8;
  cfg.eviction_max_steps = evict_steps;
  pipeline::PipelineRuntime rt(compile(core::Algorithm::vpatch, s1_web_patterns(opt.seed)),
                               cfg);
  rt.start();
  util::Timer wall;
  std::uint64_t peak_tracked = 0;
  net::Packet p;
  p.tuple.dst_ip = 0xC0A80001;
  p.tuple.src_port = 49152;
  p.tuple.dst_port = 80;
  p.payload = util::Bytes{'G', 'E', 'T', ' ', '/', 'x', ' ', 'H',
                          'T', 'T', 'P', '/', '1', '.', '1', '\n'};
  for (std::uint64_t i = 0; i < total_flows; ++i) {
    p.timestamp_us = i;
    p.tuple.src_ip = static_cast<std::uint32_t>(0x0B000000 + i);
    rt.submit(p);
    if ((i + 1) % 65536 == 0) {
      peak_tracked = std::max(peak_tracked, rt.stats().totals().tracked_connections);
    }
  }
  rt.stop();
  const double secs = wall.seconds();
  const auto totals = rt.stats().totals();
  peak_tracked = std::max(peak_tracked, totals.tracked_connections);
  // Lifecycle identity: every connection ever started was either ended
  // (FIN/RST/eviction all finish through the same path) or is still
  // tracked.  An all-TCP workload keeps tracked_connections TCP-only.
  const bool identity_ok = totals.connections_started ==
                           totals.connections_ended + totals.tracked_connections;
  std::printf("churn: %zu flows in %.1f s (%.0f kpkt/s), peak tracked %llu, "
              "final tracked %llu, evicted %llu, identity started==ended+tracked %s\n",
              total_flows, secs, static_cast<double>(total_flows) / secs / 1e3,
              static_cast<unsigned long long>(peak_tracked),
              static_cast<unsigned long long>(totals.tracked_connections),
              static_cast<unsigned long long>(totals.flows_evicted),
              identity_ok ? "OK" : "VIOLATED");

  JsonReport report("capture_churn", opt);
  report.add({{"mode", "churn"}},
             {{"full_sweep_ms", full_ms},
              {"bounded_step_max_ms", max_step_ms},
              {"kpps", static_cast<double>(total_flows) / secs / 1e3}},
             {{"flows", total_flows},
              {"eviction_max_steps", evict_steps},
              {"table_capacity", table.capacity()},
              {"peak_tracked", peak_tracked},
              {"final_tracked", totals.tracked_connections},
              {"flows_evicted", totals.flows_evicted},
              {"connections_started", totals.connections_started},
              {"connections_ended", totals.connections_ended},
              {"identity_ok", identity_ok ? 1u : 0u}});
  if (!report.write()) return 1;
  return identity_ok ? 0 : 1;
}

// ---------------------------------------------------------------- flood

double rss_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// One traffic mix of the flood: a generated base epoch, replayed with
// TraceSource's per-epoch remap (both addresses XORed, capture time shifted
// by one span), so every epoch brings fresh connections.
struct FloodMix {
  std::string name;
  pattern::PatternSet rules;
  std::vector<net::Packet> base;
  std::uint64_t span_us = 0;
  std::uint64_t packets = 0;  // offered per run
};

// http: 256 flows x 64 KiB, reorder 0.05, S1-web.  evasion: the evasion
// corpus at MSS 64, 256 flows x 8 KiB, on S2-full — one worker inspects
// 64 B packets with S1-web faster than a single producer can offer twice
// its rate.
FloodMix flood_mix(bool evasion, const Options& opt) {
  net::FlowGenConfig g;
  g.flow_count = 256;
  g.seed = opt.seed + 7;
  FloodMix m;
  if (evasion) {
    g.bytes_per_flow = 8 * 1024;
    g.mss = 64;
    g.evasion = true;
    m = {"evasion", s2_full_patterns(), {}, 0, 2'000'000};
  } else {
    g.bytes_per_flow = 64 * 1024;
    g.reorder_fraction = 0.05;
    m = {"http", s1_web_patterns(), {}, 0, 400'000};
  }
  if (opt.quick) m.packets /= 10;
  m.base = net::generate_flows(g).packets;
  for (const net::Packet& p : m.base) m.span_us = std::max(m.span_us, p.timestamp_us);
  m.span_us += 1000;
  return m;
}

// An alert's identity as one 64-bit key: the kept share compares key
// multisets, at 8 bytes an alert instead of a whole ids::Alert.
std::uint64_t alert_key(const ids::Alert& a) {
  return util::mix64(a.flow_id ^ util::mix64(a.stream_offset ^ util::mix64(a.pattern_id)));
}

// Collects alert keys for one worker (never called concurrently).  Its
// storage is sized and touched before a run's RSS baseline, so the RSS peak
// measures the sensor and not this log.
class KeySink final : public ids::AlertSink {
 public:
  explicit KeySink(std::size_t reserve) {
    keys_.resize(reserve);
    keys_.clear();
  }
  void on_alert(const ids::Alert& a) override { keys_.push_back(alert_key(a)); }
  std::vector<std::uint64_t> sorted() && {
    std::sort(keys_.begin(), keys_.end());
    return std::move(keys_);
  }

 private:
  std::vector<std::uint64_t> keys_;
};

struct FloodRun {
  double seconds = 0.0;                 // first submit to the end of stop()
  double offered_kpps = 0.0;            // achieved offered rate
  std::vector<std::uint64_t> alert_keys;  // sorted
  pipeline::WorkerStats totals;
  std::uint64_t ring_drops = 0;
  std::uint64_t tracked_peak = 0;
  double rss_peak_mib = 0.0;  // above the pre-run baseline
};

// Offers mix.packets packets at `kpps` (0: as fast as submit() returns)
// while a sampler thread reads RSS and the tracked-flow count every 5 ms.
FloodRun flood_run(const FloodMix& mix, const DatabasePtr& db,
                   pipeline::PipelineConfig cfg, double kpps, std::size_t alert_reserve) {
  KeySink sink(alert_reserve);
  cfg.alert_sink = &sink;
  malloc_trim(0);
  const double rss_base = rss_mib();
  FloodRun r;
  pipeline::PipelineRuntime rt(db, cfg);
  rt.start();
  std::jthread sampler([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      r.rss_peak_mib = std::max(r.rss_peak_mib, rss_mib() - rss_base);
      r.tracked_peak = std::max(r.tracked_peak, rt.stats().totals().tracked_connections);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const double period_ns = kpps > 0.0 ? 1e6 / kpps : 0.0;
  const std::uint64_t t0 = util::monotonic_ns();
  std::size_t cursor = 0;
  std::uint64_t epoch = 0;
  for (std::uint64_t k = 0; k < mix.packets; ++k) {
    net::Packet p = mix.base[cursor];
    const auto remap = static_cast<std::uint32_t>(epoch * 0x9E3779B1u);
    p.tuple.src_ip ^= remap;
    p.tuple.dst_ip ^= remap;
    p.timestamp_us += epoch * mix.span_us;
    if (++cursor == mix.base.size()) {
      cursor = 0;
      ++epoch;
    }
    if (period_ns > 0.0) {
      const auto due = t0 + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
      while (util::monotonic_ns() < due) {
      }
    }
    rt.submit(std::move(p));
  }
  const std::uint64_t t1 = util::monotonic_ns();
  rt.stop();
  r.seconds = static_cast<double>(util::monotonic_ns() - t0) * 1e-9;
  sampler.request_stop();
  sampler.join();
  r.offered_kpps = static_cast<double>(mix.packets) / (static_cast<double>(t1 - t0) * 1e-6);
  const pipeline::PipelineStats stats = rt.stats();
  r.totals = stats.totals();
  r.ring_drops = stats.dropped_backpressure;
  r.tracked_peak = std::max(r.tracked_peak, r.totals.tracked_connections);
  r.alert_keys = std::move(sink).sorted();
  return r;
}

// The share of the lossless multiset that `got` still holds (both sorted).
double kept_share(const std::vector<std::uint64_t>& lossless,
                  const std::vector<std::uint64_t>& got) {
  std::size_t kept = 0;
  auto a = lossless.begin();
  auto b = got.begin();
  while (a != lossless.end() && b != got.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++kept, ++a, ++b;
    }
  }
  return lossless.empty() ? 1.0
                          : static_cast<double>(kept) / static_cast<double>(lossless.size());
}

// --flood: every round of a mix starts with one closed-loop run under block
// backpressure, whose rate is the worker's capacity in that round and whose
// alerts are the lossless reference; then each offered rate runs once under
// drop backpressure.  Measuring the capacity in every round keeps the
// offered multiple true while the host drifts.  One worker on CPU 2, the
// producer on CPU 1 (no pinning below 4 CPUs); the idle timeout is one
// epoch span.
int flood_mode(const Options& opt) {
  const bool pin = std::thread::hardware_concurrency() >= 4;
  if (pin) capture::pin_current_thread(1);
  const std::vector<double> rates{2.0, 4.0};
  JsonReport report("overload", opt);
  const std::vector<int> widths{9, 6, 24, 8, 8, 10, 9, 9, 9};
  for (const bool evasion : {false, true}) {
    const FloodMix mix = flood_mix(evasion, opt);
    const DatabasePtr db = compile(core::Algorithm::vpatch, mix.rules);
    pipeline::PipelineConfig cfg;
    cfg.workers = 1;
    cfg.idle_timeout_us = mix.span_us;
    if (pin) cfg.worker_cpus = {2};

    struct Samples {
      std::vector<double> kept, drop_share, evicted, overload_sweeps, tracked, rss, kpps;
    };
    std::vector<Samples> cells(rates.size());
    std::vector<double> capacity_kpps;
    std::vector<std::uint64_t> lossless;
    for (unsigned r = 0; r < opt.runs; ++r) {
      cfg.backpressure = pipeline::BackpressurePolicy::block;
      FloodRun closed = flood_run(mix, db, cfg, 0.0, lossless.size());
      const double capacity = static_cast<double>(mix.packets) / closed.seconds / 1e3;
      capacity_kpps.push_back(capacity);
      if (r == 0) {
        lossless = std::move(closed.alert_keys);
      } else if (closed.alert_keys != lossless) {
        std::fprintf(stderr, "flood: closed-loop alerts differ between rounds\n");
        return 1;
      }
      cfg.backpressure = pipeline::BackpressurePolicy::drop;
      for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        const FloodRun run = flood_run(mix, db, cfg, rates[ri] * capacity, lossless.size());
        Samples& c = cells[ri];
        c.kept.push_back(kept_share(lossless, run.alert_keys));
        c.drop_share.push_back(static_cast<double>(run.ring_drops) /
                               static_cast<double>(mix.packets));
        c.evicted.push_back(static_cast<double>(run.totals.flows_evicted));
        c.overload_sweeps.push_back(static_cast<double>(run.totals.overload_sweeps));
        c.tracked.push_back(static_cast<double>(run.tracked_peak));
        c.rss.push_back(run.rss_peak_mib);
        c.kpps.push_back(run.offered_kpps);
      }
    }

    const auto med = [](const std::vector<double>& v) { return util::percentile_of(v, 50); };
    std::printf("=== Flood: %s, %zu pkt/epoch, %llu pkt/run, capacity %.0f kpkt/s "
                "[%.0f, %.0f], %zu lossless alerts, %u rounds ===\n",
                mix.name.c_str(), mix.base.size(),
                static_cast<unsigned long long>(mix.packets), med(capacity_kpps),
                util::percentile_of(capacity_kpps, 25), util::percentile_of(capacity_kpps, 75),
                lossless.size(), opt.runs);
    report.add({{"mix", mix.name}, {"rate", "closed"}},
               {{"capacity_kpps_median", med(capacity_kpps)},
                {"capacity_kpps_q1", util::percentile_of(capacity_kpps, 25)},
                {"capacity_kpps_q3", util::percentile_of(capacity_kpps, 75)}},
               {{"packets", mix.packets}, {"lossless_alerts", lossless.size()}});
    print_row({"mix", "rate", "kept % med [q1, q3]", "drop %", "evicted", "overload", "tracked",
               "RSS MiB", "kpkt/s"},
              widths);
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      const std::string rate = fmt(rates[ri], 0) + "x";
      const Samples& c = cells[ri];
      const double q1 = util::percentile_of(c.kept, 25);
      const double q3 = util::percentile_of(c.kept, 75);
      print_row({mix.name, rate,
                 fmt(100 * med(c.kept), 1) + " [" + fmt(100 * q1, 1) + ", " + fmt(100 * q3, 1) +
                     "]",
                 fmt(100 * med(c.drop_share), 1), fmt(med(c.evicted), 0),
                 fmt(med(c.overload_sweeps), 0), fmt(med(c.tracked), 0), fmt(med(c.rss), 1),
                 fmt(med(c.kpps), 0)},
                widths);
      report.add({{"mix", mix.name}, {"rate", rate}},
                 {{"kept_median", med(c.kept)},
                  {"kept_q1", q1},
                  {"kept_q3", q3},
                  {"ring_drop_share_median", med(c.drop_share)},
                  {"tracked_peak_median", med(c.tracked)},
                  {"rss_peak_mib_median", med(c.rss)},
                  {"flows_evicted_median", med(c.evicted)},
                  {"overload_sweeps_median", med(c.overload_sweeps)},
                  {"offered_kpps_median", med(c.kpps)}},
                 {{"runs", opt.runs}});
    }
  }
  return report.write() ? 0 : 1;
}

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::size_t flow_count = 32;
  double soak_seconds = 0.0;
  std::size_t churn_flows = 0;
  std::size_t evict_steps = 2048;
  bool flood = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flood") == 0) {
      flood = true;
    } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flow_count = static_cast<std::size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--soak-seconds=", 15) == 0) {
      soak_seconds = std::strtod(argv[i] + 15, nullptr);
    } else if (std::strncmp(argv[i], "--churn=", 8) == 0) {
      churn_flows = static_cast<std::size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--evict-steps=", 14) == 0) {
      evict_steps = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::strtoull(argv[i] + 14, nullptr, 10)));
    } else if (std::strncmp(argv[i], "--source=", 9) == 0) {
      // --source=trace is the only generated source here; accepted for
      // symmetry with pcap_sensor's flag.
      if (std::strcmp(argv[i] + 9, "trace") != 0) {
        std::fprintf(stderr, "only --source=trace is supported by this bench\n");
        return 2;
      }
    }
  }
  if (flood) return flood_mode(opt);
  if (churn_flows > 0) return churn_mode(opt, churn_flows, evict_steps);
  if (soak_seconds > 0.0) {
    return soak_mode(opt, std::max<std::size_t>(flow_count, 256), soak_seconds,
                     evict_steps);
  }
  std::fprintf(stderr,
               "usage: %s --source=trace --soak-seconds=N [--flows=N] [--evict-steps=K]\n"
               "       %s --churn=N [--evict-steps=K]\n"
               "       %s --flood [--runs=N] [--quick]\n"
               "       (all also take --seed=N --json=FILE)\n",
               argv[0], argv[0], argv[0]);
  return 2;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
