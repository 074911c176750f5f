// Configuration for the sharded multi-worker pipeline runtime.
//
// The runtime mirrors an RSS-style NIC deployment: each flow is hashed to
// one worker shard, so per-flow packet order is preserved without locks on
// the hot path, and every worker owns a private TcpReassembler + IdsEngine
// pair (shared-nothing; the only cross-thread structures are the SPSC rings
// — one forward and one return ring per worker — and the stats counters).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/prefilter.hpp"
#include "ids/alert.hpp"
#include "net/packet.hpp"
#include "net/reassembly.hpp"

namespace vpm::telemetry {
class MetricsRegistry;
}

namespace vpm::pipeline {

// A unit of transfer through the rings: packets are moved in batches to
// amortize queue synchronization over many small segments.  The router
// stamps enqueue_ns (steady-clock) as it pushes when telemetry is enabled,
// so the consuming worker can histogram ring dwell time; 0 = unstamped.
// after_drop tells the worker that the drop policy discarded the batch
// before this one on its shard (see PipelineConfig::idle_timeout_us).
//
// A batch makes a round trip: the producer fills it, its shard's worker
// drains it and hands it back, packets intact, through the return ring, and
// the producer clear()s it and refills the same vector.  Every payload is
// therefore allocated and freed on the producer thread (see ShardRouter).
struct PacketBatch {
  std::vector<net::Packet> packets;
  std::uint64_t enqueue_ns = 0;
  bool after_drop = false;

  auto begin() { return packets.begin(); }
  auto end() { return packets.end(); }
  auto begin() const { return packets.begin(); }
  auto end() const { return packets.end(); }
  std::size_t size() const { return packets.size(); }
  bool empty() const { return packets.empty(); }
  void reserve(std::size_t n) { packets.reserve(n); }
  void push_back(net::Packet p) { packets.push_back(std::move(p)); }
  void clear() {
    packets.clear();
    enqueue_ns = 0;
    after_drop = false;
  }
};

// The pipeline's per-STREAM identity: the engine flow id every worker uses —
// directional, so each side of a TCP connection scans as its own stream —
// and independent of the worker count, which is what makes the sharded
// alert multiset comparable.
// Sharding does NOT use this key: the shard index derives from the
// direction-symmetric FiveTuple::conn_hash() so both sides of a connection
// always land on the same worker (see shard_of).
inline std::uint64_t flow_key(const net::FiveTuple& tuple) { return tuple.hash(); }

// What the ingest side does when a worker's ring is full.
//   block: spin/yield until the worker catches up (lossless, default).
//   drop:  discard the batch and count the packets (NIC-like tail drop).
enum class BackpressurePolicy : std::uint8_t { block, drop };

struct PipelineConfig {
  // Approximate q-gram prefilter ahead of each worker's exact engines.
  // Alert output is mode-independent (zero false negatives); `automatic`
  // screens heavy groups and adaptively bypasses when traffic is match-heavy.
  core::PrefilterMode prefilter = core::PrefilterMode::automatic;
  unsigned workers = 2;              // shard / worker-thread count (>= 1)
  std::size_t batch_packets = 32;    // packets per batch before a ring push
  std::size_t ring_batches = 256;    // per-worker ring capacity, in batches
                                     // (forward and return ring alike)
  BackpressurePolicy backpressure = BackpressurePolicy::block;

  // Idle-flow eviction keeps per-worker flow tables bounded under churn.
  // Time is packet-capture time (Packet::timestamp_us), not wall time, so
  // replays behave identically at any speed.  0 disables eviction.
  //
  // Overload eviction needs no setting.  Under the drop policy every lost
  // segment stalls its stream, and a stalled connection costs reassembly
  // time until it is evicted.  So from the first drop on a shard until its
  // worker finds its ring empty, each batch the worker pops from a ring at
  // least 3/4 full sweeps 4x as often and evicts flows idle for 1 s (the
  // smaller of that and idle_timeout_us; 1 s when eviction is off).  A ring
  // that fills without a drop (block, or a stall the drop policy absorbs)
  // never arms it, so lossless runs keep their alerts independent of thread
  // timing (bench_pipeline_throughput --flood measures what it keeps).
  std::uint64_t idle_timeout_us = 0;
  std::size_t eviction_sweep_packets = 512;  // packets between sweeps
  // Upper bound on flow-table slots examined per eviction sweep: each sweep
  // advances a rotating cursor by at most this many slots, so idle flows are
  // evicted with bounded lag instead of an O(table) stall at million-flow
  // scale — the soak bench quantifies the spike-vs-debt trade.  Small tables
  // are unaffected (a bound >= capacity is a full sweep).  0 is clamped to 1.
  std::size_t eviction_max_steps = 2048;

  // Worker→CPU pinning: worker i pins its thread to worker_cpus[i %
  // worker_cpus.size()] at startup.  Empty = no pinning (the default; the
  // scheduler places threads).  Fill from --cpu-list.
  std::vector<int> worker_cpus;

  net::ReassemblyConfig reassembly{};

  // Worker liveness watchdog.  0 disables (no sampler thread).  A worker
  // whose heartbeat stays flat for watchdog_stall_intervals consecutive
  // samples counts one stall episode in stats().watchdog_stalls.
  std::uint64_t watchdog_interval_ms = 0;
  unsigned watchdog_stall_intervals = 5;

  // Alert-sink containment: after this many CONSECUTIVE delivery failures
  // (exceptions from cfg.alert_sink) the worker quarantines the sink —
  // further alerts are counted (WorkerStats::sink_dropped_alerts) and
  // dropped instead of risking a wedged or crashing engine.  One successful
  // delivery resets the streak.
  unsigned sink_quarantine_after = 8;

  // Optional live alert delivery.  Called from worker threads concurrently;
  // the sink must be thread-safe.  When null, alerts are buffered per worker
  // and available from PipelineRuntime::alerts() after stop().
  ids::AlertSink* alert_sink = nullptr;

  // Optional telemetry.  When set, the runtime registers per-worker latency
  // and size histograms plus per-rule-group counters in the registry (the
  // vpm_* families; see telemetry/pipeline_metrics.hpp for the stats-derived
  // ones) and workers record into them: ring dwell and scan/flush latency,
  // batch fill, reassembled chunk sizes, per-group scan bytes and alerts.
  // Recording is relaxed-atomic and allocation-free; null keeps the hot path
  // byte-identical to the uninstrumented build (no clock reads).  The
  // registry must outlive the runtime.
  telemetry::MetricsRegistry* metrics = nullptr;
};

}  // namespace vpm::pipeline
