// End-to-end sensor benchmark.
//
// Drives the deployed sensor path through public calls only — compile() →
// PipelineRuntime(db, cfg) → CaptureSource::poll(…, 256) → submit() →
// stop() — with one producer thread (this one) and two workers, checks every
// run's alerts and stats identities against a single-threaded oracle, and
// prints the metrics BENCHMARK.json names, ending with one JSON result line.
//
//   sensor_bench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures with telemetry off and prints the end-to-end metrics.
// --trace 1 adds a registry-on run with spans around the benchmark's own
// calls plus an inline single-thread replay, and prints the per-layer
// metrics.  README.md defines every metric and why each workload exists.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capture/source.hpp"
#include "capture/topology.hpp"
#include "capture/trace_source.hpp"
#include "core/database.hpp"
#include "ids/engine.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/flowgen.hpp"
#include "net/reassembly.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pipeline/runtime.hpp"
#include "simd/cpu_features.hpp"
#include "telemetry/metrics.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace vpm;

// The fixed thread budget: the producer (this thread) plus two workers,
// pinned to CPUs 1, 2 and 3 on hosts with at least four.
constexpr unsigned kWorkers = 2;
constexpr int kProducerCpu = 1;
constexpr std::size_t kPollPackets = 256;
constexpr std::size_t kEvictionSteps = 2048;
// Set-up rounds per run (at least one, then more while they fit
// kSetupRoundSeconds, up to kMaxSetupRounds).  A round runs compile +
// construct + start once with this thread on each CPU in turn and keeps the
// fastest; setup_s is the median over rounds.  The host runs its vCPUs at
// speeds up to ~45% apart for seconds at a time, so set-ups on one CPU read
// whichever speed that CPU has; a round's fastest reads the speed the host
// gives at best, and a slower set-up path slows every CPU alike.
constexpr double kSetupRoundSeconds = 1.5;
constexpr std::size_t kMaxSetupRounds = 25;
// A paced phase whose generator ran later than this at p99 measured the
// generator, not the sensor, and is repeated; the run fails rather than
// report detect_* when all attempts (kAttempts, below) ran late.  Normal
// lateness is about 0.1 ms; a host that takes the producer's vCPU away for
// a few tens of milliseconds in a phase stays under the bound.
constexpr double kGenLateBoundUs = 2000.0;
// detect_p99_ms needs at least ten samples beyond p99, in the run and in
// each window its p99 is the median over.
constexpr std::size_t kMinDetectSamples = 1000;
constexpr std::size_t kDetectWindows = 25;
// A closed-loop run's paced probe aims for this many windows.
constexpr std::size_t kProbeWindows = 5;
// Alert arrival times kept per paced phase: every alert, or a hash-selected
// subset of about this many when the phase raises more.
constexpr std::uint64_t kDetectSampleTarget = 65536;

// The offered rate of every paced phase: about one third of http_mss's
// median closed-loop kpps on the 4-core host the benchmark was defined on.
// A constant, never derived at run time: a rate that tracked capacity would
// hide a slowdown.  At this rate a shard fills its 32-packet batch in about
// half a millisecond, so batching, not a host hiccup, sets the p99 on every
// mix and detect_* compares the mixes at one load.
constexpr double kPacedKpps = 120.0;

std::uint64_t now_ns() { return util::monotonic_ns(); }

// ---------------------------------------------------------------- workloads

enum class Traffic : std::uint8_t { http, churn, tls };

struct Workload {
  std::string_view name;
  Traffic traffic;
  bool open_loop;  // the whole run is one paced phase with drop backpressure
};

constexpr Workload kWorkloads[] = {
    {"http_mss", Traffic::http, false},
    {"small_churn", Traffic::churn, false},
    {"tls_screened", Traffic::tls, false},
    {"http_paced", Traffic::http, true},
};

// One epoch of generated packets plus what replaying it needs.  Later epochs
// are the same packets with both endpoint addresses XOR-remapped and capture
// time shifted by span_us — TraceSource's endless-epoch scheme — so every
// epoch brings fresh connections with identical content.
struct Inputs {
  pattern::PatternSet rules;
  core::Algorithm algorithm = core::Algorithm::vpatch;
  std::vector<net::Packet> base;
  std::uint64_t span_us = 0;
  std::optional<capture::TraceConfig> trace;  // http: served by TraceSource
};

net::FiveTuple remap(net::FiveTuple t, std::uint64_t epoch) {
  const auto mix = static_cast<std::uint32_t>(epoch * 0x9E3779B1u);
  t.src_ip ^= mix;
  t.dst_ip ^= mix;
  return t;
}

// The endless source for the generated mixes TraceSource cannot produce
// (MSS 64 evasion, random TLS-like payloads): the same per-epoch remap.
class ReplaySource final : public capture::CaptureSource {
 public:
  ReplaySource(const std::vector<net::Packet>& base, std::uint64_t span_us)
      : base_(base), span_us_(span_us) {}

  std::size_t poll(std::vector<net::Packet>& out, std::size_t max_packets) override {
    for (std::size_t n = 0; n < max_packets; ++n) {
      net::Packet p = base_[cursor_];
      p.tuple = remap(p.tuple, epoch_);
      p.timestamp_us += epoch_ * span_us_;
      stats_.bytes += p.payload.size();
      ++stats_.packets;
      out.push_back(std::move(p));
      if (++cursor_ == base_.size()) {
        cursor_ = 0;
        ++epoch_;
      }
    }
    return max_packets;
  }
  bool exhausted() const override { return false; }
  std::string_view kind() const override { return "replay"; }
  capture::CaptureStats stats() const override { return stats_; }

 private:
  const std::vector<net::Packet>& base_;
  const std::uint64_t span_us_;
  std::uint64_t epoch_ = 0;
  std::size_t cursor_ = 0;
  capture::CaptureStats stats_;
};

std::unique_ptr<capture::CaptureSource> open_source(const Inputs& in) {
  if (in.trace) return std::make_unique<capture::TraceSource>(*in.trace);
  return std::make_unique<ReplaySource>(in.base, in.span_us);
}

// The rulesets are fixed (only the traffic follows --seed): a different
// ruleset per seed would change the matcher's cost and widen the spread.
pattern::PatternSet s1_web() {
  return pattern::generate_ruleset(pattern::s1_config()).web_patterns();
}

// S2-web's >= 8-byte patterns, re-homed into the group port-443 flows
// classify into (generic).
pattern::PatternSet s2_gated_generic() {
  pattern::PatternSet out;
  for (const pattern::Pattern& p :
       pattern::generate_ruleset(pattern::s2_config()).web_patterns()) {
    if (p.bytes.size() >= 8) out.add(p.bytes, p.nocase, pattern::Group::generic);
  }
  return out;
}

// 256 in-order flows to port 443, 64 MSS-sized uniformly random payloads
// each, interleaved round-robin; one payload in every run of 256 carries a
// whole rule at a random offset, so alerts exist.
std::vector<net::Packet> tls_epoch(const pattern::PatternSet& rules, std::uint64_t seed) {
  constexpr std::size_t kFlows = 256, kSegments = 64, kMss = 1460, kPlantEvery = 256;
  util::Rng rng(seed);
  std::vector<net::FiveTuple> tuples(kFlows);
  std::vector<std::uint32_t> seq(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    tuples[f].src_ip = 0x0A010000u | static_cast<std::uint32_t>(f + 2);
    tuples[f].dst_ip = 0xC0A80101u;
    tuples[f].src_port = static_cast<std::uint16_t>(49152 + f);
    tuples[f].dst_port = 443;
    seq[f] = static_cast<std::uint32_t>(rng());
  }
  std::vector<net::Packet> out;
  out.reserve(kFlows * kSegments);
  std::uint64_t clock_us = 1'000'000;
  for (std::size_t s = 0; s < kSegments; ++s) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      net::Packet p;
      p.timestamp_us = clock_us;
      clock_us += static_cast<std::uint64_t>(rng.between(5, 200));
      p.tuple = tuples[f];
      p.tcp_seq = seq[f];
      seq[f] += static_cast<std::uint32_t>(kMss);
      p.payload.resize(kMss);
      for (std::size_t i = 0; i < kMss; i += 8) {
        const std::uint64_t r = rng();
        std::memcpy(p.payload.data() + i, &r, std::min<std::size_t>(8, kMss - i));
      }
      out.push_back(std::move(p));
    }
  }
  for (std::size_t block = 0; block < out.size(); block += kPlantEvery) {
    util::Bytes& payload =
        out[block + rng.below(std::min(kPlantEvery, out.size() - block))].payload;
    const util::Bytes& pat = rules[static_cast<std::uint32_t>(rng.below(rules.size()))].bytes;
    const std::size_t at = rng.below(payload.size() - pat.size() + 1);
    std::copy(pat.begin(), pat.end(), payload.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return out;
}

Inputs make_inputs(Traffic traffic, std::uint64_t seed) {
  Inputs in;
  switch (traffic) {
    case Traffic::http: {
      capture::TraceConfig tc;
      tc.profile = "mixed";  // 200-1460 B segments, 5% adjacent reorder, port 80
      tc.flows = 256;
      tc.bytes_per_flow = 64 * 1024;
      tc.seed = seed;
      tc.epochs = 0;
      in.rules = s1_web();
      in.base = capture::TraceSource(tc).base().packets;
      in.trace = tc;
      break;
    }
    case Traffic::churn: {
      net::FlowGenConfig g;
      g.flow_count = 4096;
      g.bytes_per_flow = 1024;
      g.mss = 64;
      g.evasion = true;
      g.seed = seed;
      in.rules = s1_web();
      in.base = net::generate_flows(g).packets;
      break;
    }
    case Traffic::tls:
      in.rules = s2_gated_generic();
      in.algorithm = core::Algorithm::aho_corasick_compact;
      in.base = tls_epoch(in.rules, seed);
      break;
  }
  std::uint64_t max_ts = 0;
  for (const net::Packet& p : in.base) max_ts = std::max(max_ts, p.timestamp_us);
  in.span_us = max_ts + 1000;  // TraceSource's epoch shift
  return in;
}

pipeline::PipelineConfig sensor_config(const Inputs& in) {
  pipeline::PipelineConfig cfg;
  cfg.workers = kWorkers;
  if (std::thread::hardware_concurrency() >= 4) cfg.worker_cpus = {2, 3};
  cfg.prefilter = core::PrefilterMode::automatic;
  cfg.idle_timeout_us = in.span_us;  // one epoch span
  cfg.eviction_max_steps = kEvictionSteps;
  return cfg;
}

// ------------------------------------------------------------------ oracle

// Order-free alert multiset digest: a count plus a sum of per-alert terms in
// which each flow carries its own odd weight, so equal digests mean equal
// (flow, pattern, offset) multisets up to 64-bit collisions, and the
// expected digest of E epochs follows from per-flow sums of one epoch.
std::uint64_t flow_weight(std::uint64_t flow_id) { return util::mix64(flow_id) | 1; }
std::uint64_t alert_term(std::uint32_t pattern_id, std::uint64_t offset) {
  return util::mix64(util::mix64(offset) ^ pattern_id);
}

struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void add(const ids::Alert& a) {
    ++count;
    sum += flow_weight(a.flow_id) * alert_term(a.pattern_id, a.stream_offset);
  }
  Digest& operator+=(const Digest& o) {
    count += o.count;
    sum += o.sum;
    return *this;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

class DigestSink final : public ids::AlertSink {
 public:
  void on_alert(const ids::Alert& a) override { digest.add(a); }
  Digest digest;
};

// Ground truth of the base epoch from the single-threaded reference.
struct Oracle {
  std::vector<net::FiveTuple> flows;                       // directional tuples
  std::unordered_map<std::uint64_t, std::uint32_t> index;  // flow id -> flows[]
  std::vector<std::uint64_t> alerts_of, term_sum;          // per flow
  // Per flow, ascending: (stream end offset, base packet index) of every
  // delivered chunk — finds the packet that completed a match.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> deliveries;
  std::vector<std::uint32_t> pattern_len;  // by master pattern id
  std::uint64_t alerts = 0;
  double replay_s = 0;  // untimed-replay wall time of one epoch

  std::uint32_t flow(std::uint64_t id) const {
    const auto it = index.find(id);
    if (it == index.end()) throw std::runtime_error("alert or chunk for an unknown flow");
    return it->second;
  }

  Digest expected(std::uint64_t epochs) const {
    Digest d;
    d.count = alerts * epochs;
    for (std::uint64_t e = 0; e < epochs; ++e) {
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (alerts_of[f] != 0) d.sum += flow_weight(remap(flows[f], e).hash()) * term_sum[f];
      }
    }
    return d;
  }
};

// The calls one pipeline worker makes, inline on this thread: ingest() with
// stage() in the chunk callback, flush_batch() every 32 packets, and every
// 512 packets a flush plus one bounded idle-eviction step.  Untimed it is
// the oracle; timed it splits a packet's cost between net and ids.
class InlineReplay {
 public:
  struct Spans {
    std::uint64_t ingest_ns = 0;       // around ingest(), children included
    std::uint64_t ingest_self_ns = 0;  // ingest() minus stage/teardown inside it
    std::uint64_t stage_ns = 0;
    std::uint64_t teardown_ns = 0;     // connection-end flush + close_flow
    std::uint64_t flush_ns = 0;        // top-level flush_batch()
    std::uint64_t evict_ns = 0;        // evict_idle_step(), teardowns included
    std::uint64_t wall_ns = 0;
    std::uint64_t packets = 0, chunks = 0, sweeps = 0;
  };

  InlineReplay(DatabasePtr db, ids::AlertSink& sink, std::uint64_t idle_us, bool timed,
               Oracle* log)
      : engine_(std::move(db)),
        sink_(sink),
        idle_us_(idle_us),
        timed_(timed),
        log_(log),
        reassembler_([this](const net::StreamChunk& c) { on_chunk(c); }) {
    engine_.set_prefilter_mode(core::PrefilterMode::automatic);
    reassembler_.on_connection_end([this](const net::FiveTuple& client, net::EndReason) {
      const std::uint64_t t0 = clock();
      if (engine_.staged_chunks() > 0) engine_.flush_batch(sink_);
      engine_.close_flow(pipeline::flow_key(client));
      engine_.close_flow(pipeline::flow_key(client.reversed()));
      const std::uint64_t dt = clock() - t0;
      spans_.teardown_ns += dt;
      nested_ns_ += dt;
    });
  }

  void run(const std::vector<net::Packet>& base, std::uint64_t span_us, std::uint64_t epochs) {
    std::vector<net::Packet> packets = base;  // remapped in place per epoch
    const std::uint64_t wall0 = now_ns();
    std::uint64_t virtual_now = 0;
    std::size_t since_flush = 0, since_sweep = 0;
    for (std::uint64_t e = 0; e < epochs; ++e) {
      for (std::size_t i = 0; i < packets.size(); ++i) {
        net::Packet& p = packets[i];
        p.tuple = remap(base[i].tuple, e);
        p.timestamp_us = base[i].timestamp_us + e * span_us;
        virtual_now = std::max(virtual_now, p.timestamp_us);
        packet_ = static_cast<std::uint32_t>(i);
        const std::uint64_t nested = nested_ns_;
        const std::uint64_t t0 = clock();
        reassembler_.ingest(p);
        const std::uint64_t dt = clock() - t0;
        spans_.ingest_ns += dt;
        spans_.ingest_self_ns += dt - (nested_ns_ - nested);
        ++spans_.packets;
        if (++since_flush == 32) {
          since_flush = 0;
          flush();
        }
        if (++since_sweep == 512) {
          since_sweep = 0;
          flush();
          const std::uint64_t t1 = clock();
          reassembler_.evict_idle_step(virtual_now, idle_us_, kEvictionSteps);
          spans_.evict_ns += clock() - t1;
          ++spans_.sweeps;
        }
      }
    }
    flush();
    spans_.wall_ns = now_ns() - wall0;
  }

  const Spans& spans() const { return spans_; }
  const ids::EngineCounters& counters() const { return engine_.counters(); }

 private:
  std::uint64_t clock() const { return timed_ ? now_ns() : 0; }

  void on_chunk(const net::StreamChunk& c) {
    const std::uint64_t flow = pipeline::flow_key(c.tuple);
    if (log_ != nullptr) {
      log_->deliveries[log_->flow(flow)].emplace_back(c.offset + c.data.size(), packet_);
    }
    const std::uint64_t t0 = clock();
    engine_.stage(flow, ids::classify_port(c.server_port), c.data, sink_);
    const std::uint64_t dt = clock() - t0;
    spans_.stage_ns += dt;
    nested_ns_ += dt;
    ++spans_.chunks;
  }

  void flush() {
    const std::uint64_t t0 = clock();
    engine_.flush_batch(sink_);
    spans_.flush_ns += clock() - t0;
  }

  ids::IdsEngine engine_;
  ids::AlertSink& sink_;
  const std::uint64_t idle_us_;
  const bool timed_;
  Oracle* log_;
  std::uint32_t packet_ = 0;
  std::uint64_t nested_ns_ = 0;
  Spans spans_;
  net::TcpReassembler reassembler_;  // last: its callbacks use the members above
};

Oracle build_oracle(const Inputs& in) {
  Oracle o;
  for (const net::Packet& p : in.base) {
    if (o.index.emplace(pipeline::flow_key(p.tuple), static_cast<std::uint32_t>(o.flows.size()))
            .second) {
      o.flows.push_back(p.tuple);
    }
  }
  o.alerts_of.assign(o.flows.size(), 0);
  o.term_sum.assign(o.flows.size(), 0);
  o.deliveries.resize(o.flows.size());
  for (const pattern::Pattern& p : in.rules) {
    o.pattern_len.push_back(static_cast<std::uint32_t>(p.bytes.size()));
  }

  class OracleSink final : public ids::AlertSink {
   public:
    explicit OracleSink(Oracle& o) : o_(o) {}
    void on_alert(const ids::Alert& a) override {
      const std::uint32_t f = o_.flow(a.flow_id);
      ++o_.alerts_of[f];
      o_.term_sum[f] += alert_term(a.pattern_id, a.stream_offset);
      ++o_.alerts;
    }

   private:
    Oracle& o_;
  } sink(o);
  const std::uint64_t t0 = now_ns();
  InlineReplay replay(compile(in.algorithm, in.rules), sink, in.span_us, false, &o);
  replay.run(in.base, in.span_us, 1);
  o.replay_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (o.alerts == 0) throw std::runtime_error("the base epoch raises no alerts");
  return o;
}

// -------------------------------------------------------------- alert sink

// The pipeline's alert sink in every phase: folds each alert into a
// per-worker digest (compared with the oracle after stop()) and, in paced
// phases, keeps the arrival time of a hash-selected subset for the
// detection-delay percentiles.  All storage is sized and touched before the
// phase starts, so the sink adds nothing to the measured resident memory.
class CheckingSink final : public ids::AlertSink {
 public:
  struct Sample {
    std::uint64_t flow_id = 0;
    std::uint64_t offset = 0;
    std::uint64_t at_ns = 0;
    std::uint32_t pattern_id = 0;
  };

  // Keeps alerts whose term has (term >> 32) & sample_mask == 0, up to
  // `capacity` per worker; capacity 0 keeps none.
  CheckingSink(std::uint64_t sample_mask, std::size_t capacity)
      : id_(next_id()), sample_mask_(sample_mask) {
    for (Slot& s : slots_) s.samples.resize(capacity);
  }

  void on_alert(const ids::Alert& a) override {
    Slot& s = slot();
    const std::uint64_t term = flow_weight(a.flow_id) * alert_term(a.pattern_id, a.stream_offset);
    ++s.digest.count;
    s.digest.sum += term;
    if (s.samples.empty() || ((term >> 32) & sample_mask_) != 0) return;
    if (s.used == s.samples.size()) {
      ++s.overflow;
      return;
    }
    s.samples[s.used++] = {a.flow_id, a.stream_offset, now_ns(), a.pattern_id};
  }

  // Valid once the workers are joined (after PipelineRuntime::stop()).
  Digest digest() const {
    Digest d;
    for (const Slot& s : slots_) d += s.digest;
    return d;
  }
  std::vector<Sample> samples() const {
    std::vector<Sample> out;
    for (const Slot& s : slots_) {
      out.insert(out.end(), s.samples.begin(),
                 s.samples.begin() + static_cast<std::ptrdiff_t>(s.used));
    }
    return out;
  }
  std::uint64_t overflow() const {
    std::uint64_t n = 0;
    for (const Slot& s : slots_) n += s.overflow;
    return n;
  }

 private:
  struct alignas(64) Slot {
    Digest digest;
    std::vector<Sample> samples;
    std::size_t used = 0;
    std::uint64_t overflow = 0;
  };

  // Each worker thread claims its own slot on its first alert.
  Slot& slot() {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* mine = nullptr;
    if (owner != id_) {
      const unsigned i = claimed_.fetch_add(1, std::memory_order_relaxed);
      if (i >= slots_.size()) throw std::logic_error("alerts from more threads than workers");
      owner = id_;
      mine = &slots_[i];
    }
    return *mine;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const std::uint64_t id_;
  const std::uint64_t sample_mask_;
  std::array<Slot, kWorkers> slots_;
  std::atomic<unsigned> claimed_{0};
};

// ------------------------------------------------------------------ phases

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

// ------------------------------------------------------------- host health
//
// On a shared VM host the hypervisor sometimes runs other guests on this
// guest's vCPUs for minutes at a time.  The guest kernel counts that as
// steal time.  A phase whose CPUs lost more than kStealBound of their time
// measured the host, not the sensor: it is repeated after the host is quiet
// again.  Steal cannot come from the program: it is time the vCPU wanted to
// run and was not let.  Calm phases lose under 1%; phases in a bad stretch
// lost 1.4-4% and read up to 10% slower, with a late generator.

constexpr double kStealBound = 0.01;
constexpr int kAttempts = 3;
// Total time a run may spend waiting for a quiet host, checked in windows
// of kQuietProbeSeconds with the measured CPUs busy (an idle vCPU accrues no
// steal).  Steal comes in bursts, so one quiet second says little.
constexpr double kQuietWaitSeconds = 60.0;
constexpr double kQuietProbeSeconds = 3.0;

// The CPUs the producer and workers run on (every CPU when unpinned).
std::vector<int> measured_cpus() {
  std::vector<int> cpus;
  const unsigned n = std::thread::hardware_concurrency();
  if (n >= 4) return {1, 2, 3};
  for (unsigned c = 0; c < std::max(n, 1u); ++c) cpus.push_back(static_cast<int>(c));
  return cpus;
}

// Summed steal ticks (USER_HZ) of the measured CPUs, from /proc/stat.
std::uint64_t steal_ticks() {
  const std::vector<int> cpus = measured_cpus();
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  std::uint64_t total = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "cpu", 3) != 0 || line[3] < '0' || line[3] > '9') continue;
    int cpu = -1;
    unsigned long long v[8] = {};
    if (std::sscanf(line + 3, "%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu, &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9 &&
        std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
      total += v[7];
    }
  }
  std::fclose(f);
  return total;
}

// Share of the measured CPUs' time stolen between two readings.
double steal_share(std::uint64_t ticks0, std::uint64_t ticks1, double seconds) {
  const double capacity = static_cast<double>(sysconf(_SC_CLK_TCK)) * seconds *
                          static_cast<double>(measured_cpus().size());
  return capacity > 0 ? static_cast<double>(ticks1 - ticks0) / capacity : 0.0;
}

// Keeps the measured CPUs busy in kQuietProbeSeconds windows until one
// loses less than kStealBound, or `budget_s` runs out.  Returns the time
// spent.
double wait_for_quiet_host(double budget_s) {
  const std::uint64_t t0 = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  while (elapsed() < budget_s) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> spinners;
    for (const int cpu : measured_cpus()) {
      spinners.emplace_back([&stop, cpu] {
        capture::pin_current_thread(cpu);
        while (!stop.load(std::memory_order_relaxed)) {
        }
      });
    }
    const std::uint64_t s0 = steal_ticks(), w0 = now_ns();
    std::this_thread::sleep_for(std::chrono::duration<double>(kQuietProbeSeconds));
    const double share =
        steal_share(s0, steal_ticks(), static_cast<double>(now_ns() - w0) * 1e-9);
    stop = true;
    for (std::thread& t : spinners) t.join();
    if (share < kStealBound) break;
  }
  return elapsed();
}

struct PhaseSpec {
  bool paced = false;
  double seconds = 0;        // closed loop: run at least this long, whole epochs
  double kpps = 0;           // paced: fixed offered rate
  std::uint64_t epochs = 0;  // paced: whole epochs offered
  pipeline::BackpressurePolicy backpressure = pipeline::BackpressurePolicy::block;
  bool traced = false;  // registry on + producer spans
  // Return freed heap to the kernel before the RSS baseline, so sensor_mb
  // cannot hide in memory the inputs or the oracle freed.  Only phases that
  // report sensor_mb do: releasing an earlier phase's heap would make the
  // kernel hand the pages back while the next phase is timed.
  bool trim_heap = false;
};

struct Setup {
  double compile_s = 0, runtime_s = 0;
  double total() const { return compile_s + runtime_s; }
};

struct Phase {
  std::uint64_t packets = 0, payload_bytes = 0, epochs = 0;
  double window_s = 0, drain_s = 0, sensor_mib = 0;
  // Paced: packet k was due at t0_ns + k * period_ns.
  std::uint64_t t0_ns = 0;
  double period_ns = 0;
  double late_p99_us = 0;
  double steal_share = 0;  // of the measured CPUs' time in the window
  std::vector<CheckingSink::Sample> samples;
  std::uint64_t sample_overflow = 0;
  Digest digest;
  pipeline::PipelineStats stats;
  // Traced.
  std::uint64_t poll_ns = 0, submit_ns = 0, tracked_peak = 0;
  telemetry::HistogramSnapshot batch_fill, ring_dwell, scan_latency, chunk_bytes;
  std::uint64_t group_scan_bytes = 0;

  double gbps() const { return static_cast<double>(payload_bytes) * 8.0 / window_s / 1e9; }
  double kpps() const { return static_cast<double>(packets) / window_s / 1e3; }
};

// Count and sum of one histogram family across the workers.
telemetry::HistogramSnapshot merged(const telemetry::MetricsRegistry& reg, const char* name) {
  telemetry::HistogramSnapshot m;
  for (unsigned w = 0; w < kWorkers; ++w) {
    const telemetry::Histogram* h = reg.find_histogram(name, {{"worker", std::to_string(w)}});
    if (h == nullptr) throw std::runtime_error(std::string("no histogram ") + name);
    const telemetry::HistogramSnapshot s = h->snapshot();
    m.count += s.count;
    m.sum += s.sum;
  }
  return m;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

Phase run_phase(const Inputs& in, const Oracle& oracle, const PhaseSpec& spec) {
  Phase ph;
  const std::size_t per_epoch = in.base.size();
  std::unique_ptr<capture::CaptureSource> source = open_source(in);

  // Bookkeeping is allocated and touched before the RSS baseline.
  const std::uint64_t total = spec.paced ? spec.epochs * per_epoch : 0;
  std::uint64_t mask = 0;
  std::size_t capacity = 0;
  if (spec.paced) {
    const std::uint64_t expected = oracle.alerts * spec.epochs;
    std::uint64_t keep_one_in = 1;
    while (expected / keep_one_in > kDetectSampleTarget) keep_one_in <<= 1;
    mask = keep_one_in - 1;
    capacity = static_cast<std::size_t>(expected / keep_one_in) * 5 / 4 + 1024;
  }
  CheckingSink sink(mask, capacity);
  std::vector<double> late_us(total, 0.0);
  std::vector<net::Packet> pulled;
  pulled.reserve(kPollPackets);
  telemetry::MetricsRegistry registry;  // outlives the runtime

  if (spec.trim_heap) malloc_trim(0);
  const double rss_base = rss_mib();
  double rss_peak = rss_base;

  const DatabasePtr db = compile(in.algorithm, in.rules);
  pipeline::PipelineConfig cfg = sensor_config(in);
  cfg.backpressure = spec.backpressure;
  cfg.alert_sink = &sink;
  if (spec.traced) cfg.metrics = &registry;
  pipeline::PipelineRuntime rt(db, cfg);
  rt.start();

  ph.period_ns = spec.paced ? 1e6 / spec.kpps : 0.0;
  // Paced: the first packet is due 1 ms out, so the schedule starts clean.
  const std::uint64_t start = spec.paced ? now_ns() + 1'000'000 : now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(spec.seconds * 1e9);
  const std::uint64_t steal0 = steal_ticks();
  ph.t0_ns = start;
  std::uint64_t k = 0;
  unsigned polls = 0;
  for (;;) {
    const std::size_t in_epoch = k % per_epoch;
    if (in_epoch == 0 && k > 0 && (spec.paced ? k >= total : now_ns() >= deadline)) break;
    pulled.clear();
    const std::uint64_t t0 = spec.traced ? now_ns() : 0;
    source->poll(pulled, std::min(kPollPackets, per_epoch - in_epoch));
    const std::uint64_t t1 = spec.traced ? now_ns() : 0;
    ph.poll_ns += t1 - t0;
    for (net::Packet& p : pulled) {
      ph.payload_bytes += p.payload.size();
      if (spec.paced) {
        // Busy-wait on the monotonic clock, never sleep.
        const std::uint64_t due =
            ph.t0_ns + static_cast<std::uint64_t>(static_cast<double>(k) * ph.period_ns);
        std::uint64_t t = now_ns();
        while (t < due) t = now_ns();
        late_us[k] = static_cast<double>(t - due) * 1e-3;
        rt.submit(std::move(p));
        if (spec.traced) ph.submit_ns += now_ns() - t;
      } else {
        rt.submit(std::move(p));
      }
      ++k;
    }
    if (spec.traced && !spec.paced) ph.submit_ns += now_ns() - t1;
    if ((++polls & 15) == 0) {
      rss_peak = std::max(rss_peak, rss_mib());
      if (spec.traced) {
        ph.tracked_peak =
            std::max(ph.tracked_peak, rt.stats().totals().tracked_connections);
      }
    }
  }
  const std::uint64_t stop0 = now_ns();
  rt.stop();
  const std::uint64_t end = now_ns();
  rss_peak = std::max(rss_peak, rss_mib());

  ph.packets = k;
  ph.epochs = k / per_epoch;
  ph.window_s = static_cast<double>(end - start) * 1e-9;
  ph.steal_share = steal_share(steal0, steal_ticks(), ph.window_s);
  ph.drain_s = static_cast<double>(end - stop0) * 1e-9;
  ph.sensor_mib = rss_peak - rss_base;
  ph.stats = rt.stats();
  ph.digest = sink.digest();
  ph.samples = sink.samples();
  ph.sample_overflow = sink.overflow();
  if (spec.paced) ph.late_p99_us = quantile(std::move(late_us), 0.99);
  if (spec.traced) {
    ph.tracked_peak = std::max(ph.tracked_peak, ph.stats.totals().tracked_connections);
    ph.batch_fill = merged(registry, "vpm_batch_fill_packets");
    ph.ring_dwell = merged(registry, "vpm_ring_dwell_seconds");
    ph.scan_latency = merged(registry, "vpm_scan_latency_seconds");
    ph.chunk_bytes = merged(registry, "vpm_chunk_bytes");
    for (unsigned w = 0; w < kWorkers; ++w) {
      for (std::size_t g = 0; g < ids::kEngineGroupCount; ++g) {
        // Same (name, labels) as the worker's registration: returns its series.
        const std::string group(pattern::group_name(static_cast<pattern::Group>(g)));
        ph.group_scan_bytes +=
            registry
                .counter("vpm_group_scan_bytes_total", "Bytes scanned per rule group",
                         {{"group", group}, {"worker", std::to_string(w)}})
                .value();
      }
    }
  }
  return ph;
}

std::uint64_t epochs_for(const Inputs& in, double seconds, double kpps) {
  const double packets = seconds * kpps * 1e3;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(packets / static_cast<double>(in.base.size()))));
}

Setup setup_once(const Inputs& in, std::optional<int> cpu) {
  if (cpu) capture::pin_current_thread(*cpu);
  const std::uint64_t s0 = now_ns();
  const DatabasePtr db = compile(in.algorithm, in.rules);
  const std::uint64_t s1 = now_ns();
  pipeline::PipelineRuntime rt(db, sensor_config(in));
  rt.start();
  const std::uint64_t s2 = now_ns();
  rt.stop();
  return {static_cast<double>(s1 - s0) * 1e-9, static_cast<double>(s2 - s1) * 1e-9};
}

// ------------------------------------------------------------------ checks

struct Checks {
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string u64(std::uint64_t v) { return std::to_string(v); }

void check_phase(const Phase& ph, const std::string& label, const Oracle& oracle,
                 Checks& c) {
  const pipeline::PipelineStats& s = ph.stats;
  const pipeline::WorkerStats t = s.totals();
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const pipeline::WorkerStats& w = s.workers[i];
    c.expect(w.packets == w.processed_packets + w.shed_packets,
             label + ": worker " + u64(i) + " packets != processed + shed");
  }
  c.expect(s.submitted == s.routed + s.dropped_backpressure,
           label + ": submitted != routed + dropped_backpressure");
  c.expect(s.submitted == ph.packets, label + ": runtime counted " + u64(s.submitted) +
                                          " submits, producer made " + u64(ph.packets));
  c.expect(t.connections_started == t.connections_ended + t.tracked_connections,
           label + ": connections_started != connections_ended + tracked_connections");
  c.expect(s.worker_failures == 0, label + ": worker failure");
  c.expect(t.sink_errors == 0, label + ": alert sink errors");
  const Digest want = oracle.expected(ph.epochs);
  c.expect(ph.digest == want, label + ": alert multiset differs from the oracle over " +
                                  u64(ph.epochs) + " epochs (" + u64(ph.digest.count) +
                                  " alerts, expected " + u64(want.count) + ")");
  c.expect(t.alerts == ph.digest.count,
           label + ": engine alert counter != alerts the sink received");
}

// Backpressure drops plus shed packets (the failure drain counts as shed).
std::uint64_t failed_ops(const Phase& ph) {
  return ph.stats.dropped_backpressure + ph.stats.totals().shed_packets;
}

struct Detect {
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, max_ms = 0;
  std::size_t samples = 0, windows = 0;
};

// Delay from the scheduled send time of the packet that completed each
// sampled match (alert stream_offset + pattern length) to its sink callback.
// p99 is the median over up to kDetectWindows equal slices of the schedule
// of each slice's p99, every slice holding at least kMinDetectSamples: a
// host freeze then moves the slices it falls in, not the run's p99.
Detect detection_delays(const Phase& ph, const Inputs& in, const Oracle& o) {
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> where;
  where.reserve(ph.epochs * o.flows.size());
  for (std::uint64_t e = 0; e < ph.epochs; ++e) {
    for (std::size_t f = 0; f < o.flows.size(); ++f) {
      where.emplace(remap(o.flows[f], e).hash(),
                    std::make_pair(e, static_cast<std::uint32_t>(f)));
    }
  }
  const std::size_t windows = std::clamp<std::size_t>(
      ph.samples.size() / kMinDetectSamples, 1, kDetectWindows);
  std::vector<double> delays;
  std::vector<std::vector<double>> by_window(windows);
  delays.reserve(ph.samples.size());
  for (const CheckingSink::Sample& s : ph.samples) {
    const auto it = where.find(s.flow_id);
    if (it == where.end()) throw std::runtime_error("sampled alert from an unknown flow");
    const auto [epoch, flow] = it->second;
    const std::uint64_t match_end = s.offset + o.pattern_len.at(s.pattern_id);
    const auto& d = o.deliveries[flow];
    const auto pos = std::lower_bound(
        d.begin(), d.end(), match_end,
        [](const std::pair<std::uint64_t, std::uint32_t>& x, std::uint64_t v) {
          return x.first < v;
        });
    if (pos == d.end()) throw std::runtime_error("sampled alert past its flow's bytes");
    const std::uint64_t k = epoch * in.base.size() + pos->second;
    const std::uint64_t due =
        ph.t0_ns + static_cast<std::uint64_t>(static_cast<double>(k) * ph.period_ns);
    delays.push_back((static_cast<double>(s.at_ns) - static_cast<double>(due)) * 1e-6);
    by_window[std::min<std::size_t>(k * windows / ph.packets, windows - 1)].push_back(
        delays.back());
  }
  std::vector<double> window_p99;
  for (std::vector<double>& w : by_window) window_p99.push_back(quantile(std::move(w), 0.99));
  Detect r;
  r.samples = delays.size();
  r.windows = windows;
  r.p50_ms = quantile(delays, 0.50);
  r.p90_ms = quantile(delays, 0.90);
  r.p99_ms = quantile(std::move(window_p99), 0.50);
  r.max_ms = quantile(std::move(delays), 1.0);
  return r;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string isa_name() {
  const simd::CpuFeatures& f = simd::cpu();
  if (f.has_avx512_kernel()) return "avx512";
  if (f.has_avx2_kernel()) return "avx2";
  return "scalar";
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_host(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  const char* force = std::getenv("VPM_FORCE_ISA");
  std::printf(
      "# run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"isa\": \"%s\", \"force_isa\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workers\": %u}\n",
      std::string(w.name).c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, std::thread::hardware_concurrency(), isa_name().c_str(),
      force != nullptr ? force : "", compiler_name().c_str(), SENSORBENCH_BUILD_TYPE,
      kWorkers);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + u64(attempted) + ", \"failed\": " + u64(failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  print_host(w, seed, seconds, trace);
  const bool pinned = std::thread::hardware_concurrency() >= 4;
  if (pinned) capture::pin_current_thread(kProducerCpu);
  const Inputs in = make_inputs(w.traffic, seed);
  const Oracle oracle = build_oracle(in);
  std::printf("# inputs: %zu packets/epoch, %zu flows, %zu patterns, %llu alerts/epoch\n",
              in.base.size(), oracle.flows.size(), in.rules.size(),
              static_cast<unsigned long long>(oracle.alerts));

  Checks checks;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](const Phase& ph, const std::string& label) {
    attempted += ph.packets;
    failed += failed_ops(ph);
    check_phase(ph, label, oracle, checks);
  };

  // Run time split: the workload's main phase, then (closed-loop workloads)
  // a paced probe at kPacedKpps, because every workload prints every
  // end-to-end metric and detect_* is read only from paced traffic; trace
  // mode adds a registry-on repeat of the main phase and the inline replay.
  // The probe lasts long enough for kProbeWindows windows of
  // kMinDetectSamples with a quarter to spare, within fixed shares of the
  // run: http mixes raise thousands of alerts a second and need the least,
  // tls_screened about 500 a second and gets the most.
  const double alerts_per_s = static_cast<double>(oracle.alerts) /
                              static_cast<double>(in.base.size()) * kPacedKpps * 1e3;
  const double probe_need_s =
      1.25 * static_cast<double>(kProbeWindows * kMinDetectSamples) / alerts_per_s;
  const double paced_share =
      w.open_loop ? 0.0
                  : std::clamp(probe_need_s / seconds, trace ? 0.2 : 0.3, trace ? 0.3 : 0.5);
  const double main_share = trace ? (0.9 - paced_share) / 2 : 1.0 - paced_share;

  // A phase that measured the host, not the sensor, is repeated once the
  // host is quiet again, up to kAttempts in all: one whose CPUs lost more
  // than kStealBound to steal, and a paced one whose generator fell behind
  // or that lost packets (a frozen vCPU).  Every attempt counts in
  // attempted/failed and is checked, and the checks below fail the run if
  // the last paced attempt is still late.
  double quiet_budget_s = kQuietWaitSeconds;
  const auto run_measured = [&](const PhaseSpec& spec, const std::string& label) {
    for (int attempt = 1;; ++attempt) {
      Phase ph = run_phase(in, oracle, spec);
      account(ph, label);
      const bool paced_ok =
          !spec.paced || (ph.late_p99_us <= kGenLateBoundUs && failed_ops(ph) == 0);
      if ((ph.steal_share <= kStealBound && paced_ok) || attempt == kAttempts) return ph;
      std::printf(
          "# %s phase repeated: steal %.4f, generator p99 lateness %.3f us, %llu failed\n",
          label.c_str(), ph.steal_share, ph.late_p99_us,
          static_cast<unsigned long long>(failed_ops(ph)));
      quiet_budget_s -= wait_for_quiet_host(quiet_budget_s);
    }
  };

  PhaseSpec main_spec;
  if (w.open_loop) {
    main_spec.paced = true;
    main_spec.kpps = kPacedKpps;
    main_spec.epochs = epochs_for(in, seconds * main_share, kPacedKpps);
    main_spec.backpressure = pipeline::BackpressurePolicy::drop;
  } else {
    main_spec.seconds = seconds * main_share;
  }
  main_spec.trim_heap = true;
  const Phase main = run_measured(main_spec, "main");

  Phase probe;
  if (!w.open_loop) {
    PhaseSpec spec;
    spec.paced = true;
    spec.kpps = kPacedKpps;
    spec.epochs = epochs_for(in, seconds * paced_share, kPacedKpps);
    probe = run_measured(spec, "paced");
  }
  const Phase& paced = w.open_loop ? main : probe;
  checks.expect(paced.late_p99_us <= kGenLateBoundUs,
                "generator fell behind its schedule: p99 lateness " +
                    std::to_string(paced.late_p99_us) + " us");
  const Detect detect = detection_delays(paced, in, oracle);
  checks.expect(detect.samples >= kMinDetectSamples && paced.sample_overflow == 0,
                "too few detection-delay samples: " + u64(detect.samples));
  std::printf(
      "# detect: %zu samples in %zu windows, p90 %.3f ms, max %.3f ms; generator p99 "
      "lateness %.3f us\n",
      detect.samples, detect.windows, detect.p90_ms, detect.max_ms, paced.late_p99_us);
  std::printf("# host: steal %.4f main, %.4f paced; %.1f s spent waiting for a quiet host\n",
              main.steal_share, paced.steal_share, kQuietWaitSeconds - quiet_budget_s);

  std::vector<std::optional<int>> cpus{std::nullopt};
  if (pinned) cpus = {0, 1, 2, 3};
  std::vector<double> setup_s, compile_s, runtime_s;
  const std::uint64_t rounds0 = now_ns();
  while (setup_s.empty() ||
         (setup_s.size() < kMaxSetupRounds &&
          static_cast<double>(now_ns() - rounds0) * 1e-9 < kSetupRoundSeconds)) {
    std::optional<Setup> best;
    for (const std::optional<int>& cpu : cpus) {
      const Setup s = setup_once(in, cpu);
      if (!best || s.total() < best->total()) best = s;
    }
    setup_s.push_back(best->total());
    compile_s.push_back(best->compile_s);
    runtime_s.push_back(best->runtime_s);
  }
  if (pinned) capture::pin_current_thread(kProducerCpu);
  std::printf("# setup: %zu rounds of %zu, compile %.6f s, runtime %.6f s (medians)\n",
              setup_s.size(), cpus.size(), median(compile_s), median(runtime_s));

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"gbps", main.gbps(), "Gbit/s"},
        {"kpps", main.kpps(), "kpkt/s"},
        {"detect_p50_ms", detect.p50_ms, "ms"},
        {"detect_p99_ms", detect.p99_ms, "ms"},
        {"sensor_mb", main.sensor_mib, "MiB"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    PhaseSpec traced_spec = main_spec;
    traced_spec.traced = true;
    traced_spec.trim_heap = false;
    const Phase tp = run_measured(traced_spec, "traced");

    // Inline replay for about a tenth of the run, at least three epochs so
    // idle eviction engages.
    const auto replay_epochs = std::max<std::uint64_t>(
        3, static_cast<std::uint64_t>(seconds * 0.1 / std::max(oracle.replay_s, 1e-3)));
    DigestSink replay_sink;
    InlineReplay replay(compile(in.algorithm, in.rules), replay_sink, in.span_us, true,
                        nullptr);
    replay.run(in.base, in.span_us, replay_epochs);
    checks.expect(replay_sink.digest == oracle.expected(replay_epochs),
                  "inline replay: alert multiset differs from the oracle");
    const InlineReplay::Spans& r = replay.spans();

    const double rules_mib =
        static_cast<double>(compile(in.algorithm, in.rules)->memory_bytes()) /
        (1024.0 * 1024.0);
    const pipeline::WorkerStats t = tp.stats.totals();
    const std::uint64_t screened = t.prefilter_pass_payloads + t.prefilter_reject_payloads;
    metrics = {
        {"capture.poll_ns_per_pkt", ratio(tp.poll_ns, tp.packets), "ns/pkt"},
        {"pipeline.submit_ns_per_pkt", ratio(tp.submit_ns, tp.packets), "ns/pkt"},
        {"pipeline.producer_busy_share",
         ratio(static_cast<double>(tp.poll_ns + tp.submit_ns), tp.window_s * 1e9), "ratio"},
        {"pipeline.batch_fill_mean",
         ratio(tp.batch_fill.sum, static_cast<double>(tp.batch_fill.count)), "pkt"},
        {"pipeline.ring_dwell_mean_us",
         ratio(tp.ring_dwell.sum, static_cast<double>(tp.ring_dwell.count)) * 1e6, "us"},
        {"pipeline.drain_s", tp.drain_s, "s"},
        {"ids.flush_mean_us",
         ratio(tp.scan_latency.sum, static_cast<double>(tp.scan_latency.count)) * 1e6, "us"},
        {"ids.flush_share", ratio(tp.scan_latency.sum, kWorkers * tp.window_s), "ratio"},
        {"ids.scan_ns_per_byte",
         ratio(tp.scan_latency.sum * 1e9, static_cast<double>(t.bytes_inspected)), "ns/B"},
        {"ids.chunks_per_pkt", ratio(t.chunks, t.packets), "chunk/pkt"},
        {"ids.alerts", static_cast<double>(tp.digest.count), "count"},
        {"prefilter.screened_share", ratio(screened, t.chunks), "ratio"},
        {"prefilter.pass_ratio", ratio(t.prefilter_pass_payloads, screened), "ratio"},
        {"prefilter.screened_payloads", static_cast<double>(screened), "count"},
        {"exact.bytes_share", ratio(tp.group_scan_bytes, t.bytes_inspected), "ratio"},
        {"rules_mb", rules_mib, "MiB"},
        {"setup.compile_s", median(compile_s), "s"},
        {"setup.runtime_s", median(runtime_s), "s"},
        {"net.chunk_bytes_mean",
         ratio(tp.chunk_bytes.sum, static_cast<double>(tp.chunk_bytes.count)), "B"},
        {"net.overlap_trimmed_bytes", static_cast<double>(t.duplicate_bytes_trimmed), "B"},
        {"net.overwritten_bytes", static_cast<double>(t.overwritten_bytes), "B"},
        {"net.flows_evicted", static_cast<double>(t.flows_evicted), "count"},
        {"net.tracked_peak", static_cast<double>(tp.tracked_peak), "count"},
        {"net.ingest_self_ns_per_pkt", ratio(r.ingest_self_ns, r.packets), "ns/pkt"},
        {"ids.stage_ns_per_chunk", ratio(r.stage_ns, r.chunks), "ns/chunk"},
        {"ids.flush_ns_per_byte",
         ratio(r.flush_ns + r.teardown_ns, replay.counters().bytes_inspected), "ns/B"},
        {"net.evict_ns_per_sweep", ratio(r.evict_ns, r.sweeps), "ns"},
        {"trace.overhead_pct", ratio(main.gbps() - tp.gbps(), main.gbps()) * 100.0, "%"},
        {"trace.unattributed_share",
         ratio(static_cast<double>(r.wall_ns) -
                   static_cast<double>(r.ingest_ns + r.flush_ns + r.evict_ns),
               static_cast<double>(r.wall_ns)),
         "ratio"},
        {"bench.gen_late_p99_us", paced.late_p99_us, "us"},
        {"bench.detect_samples", static_cast<double>(detect.samples), "count"},
        {"bench.steal_share", tp.steal_share, "ratio"},
    };
  }

  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  print_result(checks.failures.empty(), attempted, failed, metrics);
  return checks.failures.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: sensor_bench --workload http_mss|small_churn|tls_screened|http_paced "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage();
    }
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      return usage();
    }
  }
  if (!(seconds > 0) || (trace != 0 && trace != 1)) return usage();
  for (const Workload& w : kWorkloads) {
    if (w.name != workload) continue;
    try {
      return run(w, seed, seconds, trace == 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sensor_bench: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
