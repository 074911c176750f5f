// Aggregated counter view of a running (or finished) pipeline.
//
// Each worker counts into a plain WorkerStats that only its own thread
// touches and publishes it, field by field through the table below, into
// release-stored atomics after every batch (and on swap adoption and exit),
// so PipelineRuntime::stats() can be called from any thread at any time and
// returns a coherent-enough snapshot (counts lag by at most one in-flight
// batch per worker).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vpm::pipeline {

// How a WorkerStats field behaves over time and across workers.  Every
// consumer that renders or aggregates stats switches on this, so a gauge can
// never accidentally be exported or summed as a monotonic counter:
//   counter    monotonically increasing; totals() sums across workers and
//              the Prometheus exporter emits TYPE counter
//   gauge      point-in-time level; totals() sums (the fleet-wide level at
//              the snapshot instant) and the exporter emits TYPE gauge
//   gauge_max  point-in-time level where summing is meaningless (ruleset
//              generation, swap count); totals() takes the max and the
//              exporter emits TYPE gauge
enum class StatKind : std::uint8_t { counter, gauge, gauge_max };

struct WorkerStats {
  std::uint64_t packets = 0;         // packets consumed from the ring
  std::uint64_t batches = 0;         // batches consumed from the ring
  std::uint64_t payload_bytes = 0;   // raw payload bytes ingested
  std::uint64_t bytes_inspected = 0; // bytes the engine actually scanned
  std::uint64_t chunks = 0;          // reassembled chunks fed to the engine
  std::uint64_t alerts = 0;
  std::uint64_t flows_seen = 0;      // distinct flows the engine ever saw
  std::uint64_t flows_evicted = 0;   // idle evictions (engine + reassembler)
  std::uint64_t reassembly_drops = 0;
  std::uint64_t duplicate_bytes_trimmed = 0;  // overlap bytes the policy discarded
  // Bidirectional reassembly: per-side delivery and lifecycle counters.
  std::uint64_t c2s_delivered_bytes = 0;  // client→server bytes reassembled
  std::uint64_t s2c_delivered_bytes = 0;  // server→client bytes reassembled
  std::uint64_t overwritten_bytes = 0;    // buffered bytes replaced (last/target)
  std::uint64_t discarded_on_close_bytes = 0;  // pending dropped by RST/close/evict
  std::uint64_t connections_started = 0;
  std::uint64_t connections_ended = 0;
  std::uint64_t active_flows = 0;    // gauge: engine flows currently holding state
  std::uint64_t tracked_connections = 0;  // gauge: reassembler connections + UDP flows
                                          // currently tracked (flow-table occupancy)
  std::uint64_t rules_generation = 0;  // gauge: ruleset generation this worker runs
  std::uint64_t rules_swaps = 0;       // gauge: hot-swaps this worker has adopted
  // Overload / robustness accounting.  The drain identity after stop():
  //   packets == processed_packets + shed_packets        (per worker)
  //   routed  == Σ packets                               (across workers)
  // i.e. every packet that entered a ring was either fully processed or shed
  // by the failure drain — never silently lost.
  std::uint64_t processed_packets = 0;  // packets fully handled (not shed)
  std::uint64_t shed_packets = 0;       // packets discarded by the failure drain
  std::uint64_t shed_bytes = 0;         // payload bytes of shed packets
  std::uint64_t overload_sweeps = 0;    // idle sweeps run at the overload timeout
  std::uint64_t heartbeats = 0;         // worker loop iterations (liveness)
  std::uint64_t sink_errors = 0;        // alert-sink deliveries that threw
  std::uint64_t sink_dropped_alerts = 0;  // alerts dropped while quarantined
  std::uint64_t sink_quarantined = 0;   // gauge: 1 when the sink is quarantined
  // Approximate prefilter screening outcomes (zero when the prefilter is off
  // or bypassed; pass+reject <= chunks since only screened chunks count).
  std::uint64_t prefilter_pass_payloads = 0;
  std::uint64_t prefilter_reject_payloads = 0;
  std::uint64_t prefilter_pass_bytes = 0;
  std::uint64_t prefilter_reject_bytes = 0;

  // THE single enumeration of every field, with its name and kind.  Every
  // stats surface (the worker's atomic publication, totals() aggregation
  // below, the human formatter and the Prometheus exporter in
  // telemetry/pipeline_metrics) iterates this, so a new field added here —
  // and only here — shows up everywhere at once; one added to the struct but
  // not the table trips the static_assert below.  f(name, kind, member
  // pointer) per field.
  template <typename F>
  static void for_each_field(F&& f) {
    f("packets", StatKind::counter, &WorkerStats::packets);
    f("batches", StatKind::counter, &WorkerStats::batches);
    f("payload_bytes", StatKind::counter, &WorkerStats::payload_bytes);
    f("bytes_inspected", StatKind::counter, &WorkerStats::bytes_inspected);
    f("chunks", StatKind::counter, &WorkerStats::chunks);
    f("alerts", StatKind::counter, &WorkerStats::alerts);
    f("flows_seen", StatKind::counter, &WorkerStats::flows_seen);
    f("flows_evicted", StatKind::counter, &WorkerStats::flows_evicted);
    f("reassembly_drops", StatKind::counter, &WorkerStats::reassembly_drops);
    f("duplicate_bytes_trimmed", StatKind::counter,
      &WorkerStats::duplicate_bytes_trimmed);
    f("c2s_delivered_bytes", StatKind::counter, &WorkerStats::c2s_delivered_bytes);
    f("s2c_delivered_bytes", StatKind::counter, &WorkerStats::s2c_delivered_bytes);
    f("overwritten_bytes", StatKind::counter, &WorkerStats::overwritten_bytes);
    f("discarded_on_close_bytes", StatKind::counter,
      &WorkerStats::discarded_on_close_bytes);
    f("connections_started", StatKind::counter, &WorkerStats::connections_started);
    f("connections_ended", StatKind::counter, &WorkerStats::connections_ended);
    f("active_flows", StatKind::gauge, &WorkerStats::active_flows);
    f("tracked_connections", StatKind::gauge, &WorkerStats::tracked_connections);
    f("rules_generation", StatKind::gauge_max, &WorkerStats::rules_generation);
    f("rules_swaps", StatKind::gauge_max, &WorkerStats::rules_swaps);
    f("processed_packets", StatKind::counter, &WorkerStats::processed_packets);
    f("shed_packets", StatKind::counter, &WorkerStats::shed_packets);
    f("shed_bytes", StatKind::counter, &WorkerStats::shed_bytes);
    f("overload_sweeps", StatKind::counter, &WorkerStats::overload_sweeps);
    f("heartbeats", StatKind::counter, &WorkerStats::heartbeats);
    f("sink_errors", StatKind::counter, &WorkerStats::sink_errors);
    f("sink_dropped_alerts", StatKind::counter, &WorkerStats::sink_dropped_alerts);
    f("sink_quarantined", StatKind::gauge, &WorkerStats::sink_quarantined);
    f("prefilter_pass_payloads", StatKind::counter,
      &WorkerStats::prefilter_pass_payloads);
    f("prefilter_reject_payloads", StatKind::counter,
      &WorkerStats::prefilter_reject_payloads);
    f("prefilter_pass_bytes", StatKind::counter, &WorkerStats::prefilter_pass_bytes);
    f("prefilter_reject_bytes", StatKind::counter,
      &WorkerStats::prefilter_reject_bytes);
  }

  // 32 uint64 fields.  If this fires you added a field: list it in
  // for_each_field (pick its StatKind deliberately) and bump the count.
  static constexpr std::size_t kFieldCount = 32;

  WorkerStats& operator+=(const WorkerStats& o) {
    for_each_field([&](const char*, StatKind kind, auto member) {
      switch (kind) {
        case StatKind::counter:
        case StatKind::gauge:  // summed gauges: the fleet-wide level
          this->*member += o.*member;
          break;
        case StatKind::gauge_max:
          if (o.*member > this->*member) this->*member = o.*member;
          break;
      }
    });
    return *this;
  }
};

static_assert(sizeof(WorkerStats) == WorkerStats::kFieldCount * sizeof(std::uint64_t),
              "WorkerStats changed: update for_each_field and kFieldCount");

struct PipelineStats {
  std::vector<WorkerStats> workers;
  std::uint64_t submitted = 0;             // packets handed to submit()
  std::uint64_t routed = 0;                // packets pushed into some ring
  std::uint64_t dropped_backpressure = 0;  // packets discarded (drop policy)
  std::uint64_t watchdog_stalls = 0;       // stall episodes the watchdog flagged
  std::uint64_t worker_failures = 0;       // workers that died and drained
  // One human-readable line per contained failure (worker exceptions); the
  // engine keeps running — these are for the operator, not control flow.
  std::vector<std::string> errors;

  // Aggregation follows each field's StatKind: counters and gauges sum
  // (point-in-time gauges like active_flows sum to the fleet-wide level of
  // the snapshot); gauge_max fields (rules_generation, rules_swaps) take the
  // max — the newest generation any worker has adopted.
  WorkerStats totals() const {
    WorkerStats t;
    for (const WorkerStats& w : workers) t += w;
    return t;
  }
};

}  // namespace vpm::pipeline
