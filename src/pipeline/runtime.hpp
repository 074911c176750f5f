// The sharded multi-worker IDS runtime.
//
// Usage:
//   auto db = vpm::compile(core::Algorithm::vpatch, rules);  // rules may die
//   pipeline::PipelineConfig cfg;
//   cfg.workers = 4;
//   pipeline::PipelineRuntime rt(db, cfg);
//   rt.start();
//   for (net::Packet& p : packets) rt.submit(std::move(p));
//   rt.swap_database(new_db);        // zero-drop ruleset hot-swap, any time
//   rt.stop();                       // flush + drain + join
//   use rt.alerts(), rt.stats();     // alerts carry their ruleset generation
//
// Determinism contract: with eviction and the drop policy disabled, the
// union of all workers' alerts is the same multiset a single-threaded
// IdsEngine fed by one TcpReassembler would produce over the same packets
// (flow ids are flow_key(tuple) in both cases) — flows never split across
// workers and per-flow order is preserved through the FIFO rings.  The
// differential test suite enforces this across worker counts and algorithms.
//
// Hot-swap contract: compile() builds the new database's per-group working
// sets on the caller's thread (control plane); swap_database() compiles
// nothing, publishes the database RCU-style (shared_ptr store + sequence
// bump; no locks on the scan path), and every worker adopts it at a batch
// boundary.  No packet is dropped by a swap: packets in flight finish
// under the generation that was current when their batch was popped, and
// every alert is tagged with the generation that produced it.  A swap is a
// clean stream boundary (per-flow carry resets), so a pattern spanning the
// swap point is attributed to neither generation.  The old generation's
// compiled tables are freed when the last worker adopts the new one.  For an
// exact packet partition between generations, quiesce() before swapping —
// pipeline_swap_test pins that recipe against single-threaded references.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/database.hpp"
#include "ids/alert.hpp"
#include "pipeline/config.hpp"
#include "pipeline/shard_router.hpp"
#include "pipeline/stats.hpp"
#include "pipeline/watchdog.hpp"
#include "pipeline/worker.hpp"

namespace vpm::pipeline {

class PipelineRuntime {
 public:
  // Shares `db` read-only with every worker through one RulesChannel (no
  // compile here, none per worker) and builds one reassembler/engine pair
  // per worker, each pinned to its cfg.worker_cpus entry when that list is
  // set.  workers, batch_packets and eviction_max_steps are clamped to
  // >= 1.  Throws std::invalid_argument on a null database.
  PipelineRuntime(DatabasePtr db, PipelineConfig cfg = {});

  ~PipelineRuntime();  // stops and joins if still running

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  // Spawns the worker threads.  One-shot: a runtime is started once.
  void start();

  // Routes one packet to its flow's shard.  Single-producer: submit(),
  // flush() and stop() must all be called from one thread.  Returns false
  // when the drop backpressure policy discarded a batch during this call —
  // the discarded batch may also contain earlier buffered packets, and a
  // packet accepted now can still be dropped by a later batch push or
  // flush(), so per-packet loss accounting must use
  // stats().dropped_backpressure, not the return values.
  bool submit(net::Packet packet);

  // Convenience bulk submit (copies).  Returns packets.size() minus the
  // packets the drop policy discarded while this call ran (batch
  // granularity; same caveats as the single-packet overload).
  std::size_t submit(std::span<const net::Packet> packets);

  // Pushes partially filled batches without stopping.
  void flush();

  // Publishes a new compiled database to every worker (zero-drop ruleset
  // hot-swap).  Compiles nothing; workers adopt at their next batch
  // boundary.  Callable from any thread, before or while running; with
  // concurrent callers the last publication wins.  Throws
  // std::invalid_argument on a null database.
  void swap_database(DatabasePtr db);

  // The most recently published ruleset generation (workers may briefly lag
  // until their next batch boundary; per-worker adoption is visible in
  // stats().workers[i].rules_generation).
  std::uint64_t generation() const;

  // Blocks until every packet submitted so far has been consumed from the
  // rings and its batch handed back to the producer (flushes partial
  // batches first).  Same single-producer rule as submit().  The
  // quiesce-then-swap recipe gives an exact packet partition between
  // ruleset generations.
  void quiesce();

  // Drains: flushes, lets every worker consume its ring to empty, joins the
  // threads, and gathers alerts.  Idempotent.
  void stop();

  bool running() const { return running_; }
  const PipelineConfig& config() const { return cfg_; }
  unsigned workers() const { return static_cast<unsigned>(workers_.size()); }

  // Counter snapshot; callable from any thread, before, during or after the
  // run.
  PipelineStats stats() const;

  // All workers' alerts concatenated (worker-major order).  Valid after
  // stop(); empty when cfg.alert_sink routed alerts elsewhere.
  const std::vector<ids::Alert>& alerts() const { return alerts_; }

 private:
  PipelineConfig cfg_;
  // Declared before workers_: every worker holds a reference to it.
  RulesChannel rules_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<Watchdog> watchdog_;  // null when cfg.watchdog_interval_ms == 0
  std::vector<ids::Alert> alerts_;
  std::atomic<std::uint64_t> submitted_{0};
  bool running_ = false;
  bool stopped_ = false;
};

}  // namespace vpm::pipeline
