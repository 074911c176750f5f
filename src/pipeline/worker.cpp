#include "pipeline/worker.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "capture/topology.hpp"
#include "ids/pcap_pipeline.hpp"
#include "telemetry/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace vpm::pipeline {

namespace {

// A packet consumed from the ring but discarded unprocessed (ladder shed or
// failure drain).
void count_shed(WorkerStats& s, const net::Packet& p) {
  ++s.packets;
  s.payload_bytes += p.payload.size();
  ++s.shed_packets;
  s.shed_bytes += p.payload.size();
}

}  // namespace

void GuardedSink::on_alert(const ids::Alert& alert) {
  if (quarantined_) {
    ++dropped_;
    return;
  }
  try {
    if (util::failpoint::should_fail(util::failpoint::Site::alert_sink_write)) {
      throw std::runtime_error("injected alert-sink failure (failpoint)");
    }
    inner_->on_alert(alert);
    consecutive_ = 0;
  } catch (...) {
    ++errors_;
    if (++consecutive_ >= quarantine_after_) quarantined_ = true;
  }
}

Worker::Worker(const PipelineConfig& cfg, const RulesChannel& channel)
    : cfg_(cfg),
      ring_(cfg.ring_batches > 0 ? cfg.ring_batches : 1),
      returns_(ring_.capacity()),
      reassembler_(
          [this](const net::StreamChunk& chunk) {
            // Staged, not scanned: the chunk is copied into the flow's
            // stream buffer now (reassembler views die with this callback)
            // and scanned together with the rest of the batch in one
            // scan_batch round per protocol group at flush time.  Flow id is
            // the DIRECTIONAL tuple hash (each side scans as its own
            // stream); classification uses the connection's server port so
            // both directions hit the same rule group.
            engine_.stage(flow_key(chunk.tuple), ids::classify_port(chunk.server_port),
                          chunk.data, *sink_);
          },
          cfg.reassembly),
      engine_(channel.current()),
      guarded_sink_(cfg.alert_sink != nullptr ? cfg.alert_sink : &buffer_sink_,
                    cfg.sink_quarantine_after),
      sink_(&guarded_sink_),
      swaps_(channel),
      overload_(cfg.overload),
      base_buffered_budget_(cfg.reassembly.max_buffered_bytes) {
  engine_.set_prefilter_mode(cfg.prefilter);
  // Connection end (FIN completion, RST, close, eviction) is a stream
  // boundary: scan anything still staged under the dying streams, then drop
  // both sides' scanner state so a reused tuple starts a fresh stream — at
  // the same packet whatever the worker count, so the differential contract
  // holds across lifecycle events.
  reassembler_.on_connection_end(
      [this](const net::FiveTuple& client, net::EndReason) {
        if (engine_.staged_chunks() > 0) engine_.flush_batch(*sink_);
        engine_.close_flow(flow_key(client));
        engine_.close_flow(flow_key(client.reversed()));
      });
  publish_stats();  // stats() before start() shows the initial generation
}

Worker::~Worker() {
  if (thread_.joinable()) {
    request_stop();
    join();
  }
}

void Worker::enable_telemetry(telemetry::MetricsRegistry& reg, unsigned index) {
  const std::string worker = std::to_string(index);
  ring_dwell_ = &reg.histogram(
      "vpm_ring_dwell_seconds",
      "Time a packet batch waited in its shard ring before a worker popped it",
      telemetry::latency_buckets_seconds(), {{"worker", worker}});
  batch_fill_ = &reg.histogram(
      "vpm_batch_fill_packets", "Packets per popped batch",
      telemetry::linear_buckets(1.0, 8.0, 16), {{"worker", worker}});

  ids::EngineTelemetry et;
  et.flush_latency = &reg.histogram(
      "vpm_scan_latency_seconds",
      "Wall latency of one batched scan round (IdsEngine::flush_batch)",
      telemetry::latency_buckets_seconds(), {{"worker", worker}});
  for (std::size_t gi = 0; gi < ids::kEngineGroupCount; ++gi) {
    const std::string group(pattern::group_name(static_cast<pattern::Group>(gi)));
    et.group_scan_bytes[gi] =
        &reg.counter("vpm_group_scan_bytes_total", "Bytes scanned per rule group",
                     {{"group", group}, {"worker", worker}});
    et.group_alerts[gi] =
        &reg.counter("vpm_group_alerts_total", "Alerts raised per rule group",
                     {{"group", group}, {"worker", worker}});
  }
  engine_.set_telemetry(et);

  reassembler_.set_chunk_histogram(&reg.histogram(
      "vpm_chunk_bytes", "Reassembled in-order chunk sizes delivered to the engine",
      telemetry::size_buckets_bytes(), {{"worker", worker}}));
}

void Worker::start() { thread_ = std::thread([this] { run(); }); }

void Worker::request_stop() { done_.store(true, std::memory_order_release); }

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::run() {
  // Containment boundary: anything the loop throws (engine bug, OOM on one
  // flow, an injected worker_batch fault) is recorded and the ring is then
  // DRAINED (everything counted as shed) instead of abandoned — under the
  // block backpressure policy an abandoned ring would wedge the producer and
  // with it every healthy shard.
  try {
    // Pin before any work: the flow tables and scratch this thread is about
    // to fault in should come from the pinned CPU's local node.
    if (pin_cpu_ >= 0) capture::pin_current_thread(pin_cpu_);
    run_loop();
  } catch (const std::exception& e) {
    error_ = std::string("worker failure: ") + e.what();
    failed_.store(true, std::memory_order_release);
    drain_after_failure();
  } catch (...) {
    error_ = "worker failure: non-standard exception";
    failed_.store(true, std::memory_order_release);
    drain_after_failure();
  }
  publish_stats();
  finished_.store(true, std::memory_order_release);
}

void Worker::run_loop() {
  PacketBatch batch;
  unsigned idle_spins = 0;
  // Dwell/fill accounting for a just-popped batch; a no-op (and no clock
  // read) when telemetry is off or the producer did not stamp the batch.
  const auto record_pop = [this](const PacketBatch& b) {
    if (batch_fill_ != nullptr) batch_fill_->record(static_cast<double>(b.size()));
    if (ring_dwell_ != nullptr && b.enqueue_ns != 0) {
      ring_dwell_->record(static_cast<double>(util::monotonic_ns() - b.enqueue_ns) *
                          1e-9);
    }
  };
  for (;;) {
    // Liveness: one bump per iteration, idle included — a flat heartbeat
    // therefore means the thread is wedged inside a batch, not merely idle.
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    apply_overload();
    if (ring_.try_pop(batch)) {
      record_pop(batch);
      // Adopt AFTER the pop: the producer publishes a new generation before
      // pushing any batch meant for it, and the ring's release-push /
      // acquire-pop edge makes that publication visible here — so a batch
      // is never scanned under rules older than those current when it was
      // pushed.
      maybe_adopt_rules();
      process(batch);
      // Hand the drained batch back so the producer frees its payloads.  A
      // full return ring (or the ring_push failpoint) falls back to clearing
      // it here; the worker never blocks on the producer.
      if (!returns_.try_push(batch)) batch.clear();
      // Published after the return: a snapshot counting this batch implies
      // the producer can already pop it back (quiesce() relies on that).
      ++stats_.batches;
      publish_stats();
      idle_spins = 0;
      continue;
    }
    // Idle: adopt promptly so a swap during a traffic lull does not wait
    // for the next packet.
    maybe_adopt_rules();
    // The producer sets done_ only after flushing, so an empty ring observed
    // AFTER the done_ load means there is nothing left to drain.  Emptiness
    // is read off the indices: try_pop may report a non-empty ring empty
    // (the ring_pop failpoint), and ending on that would abandon batches.
    if (done_.load(std::memory_order_acquire)) {
      if (ring_.empty_approx()) break;
      continue;
    }
    if (++idle_spins >= 64) {
      std::this_thread::yield();
      idle_spins = 0;
    }
  }
}

void Worker::drain_after_failure() {
  // The engine is in an unknown state; do not touch it.  Keep consuming so
  // the producer never blocks on this shard, counting every packet as shed —
  // the drain identity (packets == processed + shed) keeps holding, it just
  // attributes the loss honestly.  Publishing per batch keeps quiesce()
  // moving; the first publication covers the failed batch.
  publish_stats();
  PacketBatch batch;
  for (;;) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    if (ring_.try_pop(batch)) {
      for (const net::Packet& p : batch) count_shed(stats_, p);
      batch.clear();
      publish_stats();
      continue;
    }
    // Same end condition as run_loop.
    if (done_.load(std::memory_order_acquire)) {
      if (ring_.empty_approx()) return;
      continue;
    }
    std::this_thread::yield();
  }
}

void Worker::maybe_adopt_rules() {
  // Lock-free fast path: one acquire load per loop iteration; the slot
  // mutex is touched only when a publication actually happened.
  const std::uint64_t seq = swaps_.sequence();
  if (seq == adopted_seq_) return;
  DatabasePtr db = swaps_.current();
  adopted_seq_ = seq;
  if (db == engine_.database_ptr()) return;
  // Flushes staged chunks under the old generation, then retires this
  // worker's reference to it (the last adopter destroys it).
  engine_.swap_rules(std::move(db), *sink_);
  ++stats_.rules_swaps;
  publish_stats();  // idle adoptions too: no batch follows to publish them
}

void Worker::apply_overload() {
  if (!cfg_.overload.enabled) return;
  const double fill = static_cast<double>(ring_.size_approx()) /
                      static_cast<double>(ring_.capacity());
  const DegradationLevel prev = overload_.level();
  const DegradationLevel now = overload_.update(fill);
  if (now == prev) return;
  stats_.degradation_level = static_cast<std::uint64_t>(now);
  stats_.degradation_transitions = overload_.transitions();
  // Rung 1+: shrink (or on descent restore) the reassembly buffering budget.
  if (now >= DegradationLevel::shrink_budgets) {
    const auto shrunk = static_cast<std::size_t>(
        cfg_.overload.budget_factor * static_cast<double>(base_buffered_budget_));
    reassembler_.set_max_buffered_bytes(std::max<std::size_t>(1, shrunk));
  } else {
    reassembler_.set_max_buffered_bytes(base_buffered_budget_);
  }
  publish_stats();
}

void Worker::process(PacketBatch& batch) {
  std::size_t handled = 0;
  try {
    if (util::failpoint::should_fail(util::failpoint::Site::worker_batch)) {
      throw std::runtime_error("injected batch-processing failure (failpoint)");
    }
    for (net::Packet& p : batch) {
      handle_packet(p);
      ++handled;
    }
    // One deferred scan round over everything the batch staged — the batch
    // fast path that amortizes filter setup and candidate storage across all
    // of the batch's small payloads.
    engine_.flush_batch(*sink_);
  } catch (...) {
    // Account the packets handle_packet never saw as consumed-and-shed, so
    // the drain identity survives a mid-batch failure; then let run()'s
    // containment boundary take over.
    for (std::size_t i = handled; i < batch.size(); ++i) {
      count_shed(stats_, batch.packets[i]);
    }
    throw;
  }
}

bool Worker::should_shed(const net::Packet& packet) const {
  return overload_.level() == DegradationLevel::shed_load &&
         packet.payload.size() > cfg_.overload.shed_payload_bytes;
}

void Worker::handle_packet(net::Packet& packet) {
  virtual_now_us_ = std::max(virtual_now_us_, packet.timestamp_us);
  if (should_shed(packet)) {
    count_shed(stats_, packet);
    return;
  }
  ++stats_.packets;
  stats_.payload_bytes += packet.payload.size();
  ++stats_.processed_packets;

  if (packet.tuple.proto == net::IpProto::tcp) {
    reassembler_.ingest(packet);
  } else {
    // UDP: datagram-scoped scan; the engine still keeps per-flow carry so a
    // pattern split across datagrams of one flow is found.
    const std::uint64_t key = flow_key(packet.tuple);
    *udp_last_seen_.find_or_emplace(key, [&] { return virtual_now_us_; }).first =
        virtual_now_us_;
    engine_.stage(key, ids::classify_port(packet.tuple.dst_port), packet.payload,
                  *sink_);
  }

  // Rung 2+ tightens eviction: a much shorter idle timeout (even when
  // eviction was configured off) and 4x more frequent sweeps.
  std::uint64_t idle_us = cfg_.idle_timeout_us;
  std::size_t sweep_every = cfg_.eviction_sweep_packets;
  if (overload_.level() >= DegradationLevel::evict_early) {
    const std::uint64_t degraded = cfg_.overload.degraded_idle_timeout_us;
    idle_us = idle_us == 0 ? degraded : std::min(idle_us, degraded);
    sweep_every = std::max<std::size_t>(1, sweep_every / 4);
  }
  if (idle_us > 0 && ++packets_since_sweep_ >= sweep_every) {
    packets_since_sweep_ = 0;
    // Scan staged chunks before tearing flows down: close_flow drops a
    // still-staged chunk unscanned.
    engine_.flush_batch(*sink_);
    sweep_idle(idle_us);
  }
}

void Worker::sweep_idle(std::uint64_t idle_us) {
  // Engine-side teardown happens in the reassembler's connection-end
  // callback (both directions of each evicted connection).
  // eviction_max_steps bounds the slots examined per sweep (rotating
  // cursor).
  const std::size_t max_steps = cfg_.eviction_max_steps;
  stats_.flows_evicted +=
      reassembler_.evict_idle_step(virtual_now_us_, idle_us, max_steps).size();
  udp_last_seen_.sweep_step(max_steps, [&](std::uint64_t key, std::uint64_t last_seen) {
    if (last_seen + idle_us > virtual_now_us_) return false;
    engine_.close_flow(key);
    ++stats_.flows_evicted;
    return true;
  });
}

void Worker::publish_stats() {
  if (!failed_.load(std::memory_order_relaxed)) {
    const ids::EngineCounters& ec = engine_.counters();
    stats_.bytes_inspected = ec.bytes_inspected;
    stats_.chunks = ec.chunks;
    stats_.alerts = ec.alerts;
    stats_.flows_seen = ec.flows;
    stats_.prefilter_pass_payloads = ec.prefilter_pass_payloads;
    stats_.prefilter_reject_payloads = ec.prefilter_reject_payloads;
    stats_.prefilter_pass_bytes = ec.prefilter_pass_bytes;
    stats_.prefilter_reject_bytes = ec.prefilter_reject_bytes;
    stats_.active_flows = engine_.active_flows();
    stats_.rules_generation = engine_.generation();
    const net::ReassemblyStats& rs = reassembler_.stats();
    stats_.reassembly_drops = rs.dropped_segments;
    stats_.duplicate_bytes_trimmed = rs.overlap_bytes_trimmed();
    stats_.c2s_delivered_bytes = rs.side[0].delivered_bytes;
    stats_.s2c_delivered_bytes = rs.side[1].delivered_bytes;
    stats_.overwritten_bytes = rs.side[0].overwritten_bytes + rs.side[1].overwritten_bytes;
    stats_.discarded_on_close_bytes = rs.discarded_on_close_bytes;
    stats_.connections_started = rs.connections_started;
    stats_.connections_ended = rs.connections_ended;
    stats_.tracked_connections = reassembler_.active_flows() + udp_last_seen_.size();
    stats_.sink_errors = guarded_sink_.errors();
    stats_.sink_dropped_alerts = guarded_sink_.dropped();
    stats_.sink_quarantined = guarded_sink_.quarantined() ? 1 : 0;
  }
  // Release, paired with stats()' acquire loads (see the header).
  std::size_t i = 0;
  WorkerStats::for_each_field([&](const char*, StatKind, auto member) {
    published_[i++].store(stats_.*member, std::memory_order_release);
  });
}

WorkerStats Worker::stats() const {
  WorkerStats s;
  std::size_t i = 0;
  WorkerStats::for_each_field([&](const char*, StatKind, auto member) {
    s.*member = published_[i++].load(std::memory_order_acquire);
  });
  // Live, not published: the watchdog's signal moves while a batch is wedged
  // and while the worker idles.
  s.heartbeats = heartbeat_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace vpm::pipeline
