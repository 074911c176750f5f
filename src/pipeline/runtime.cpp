#include "pipeline/runtime.hpp"

#include <stdexcept>
#include <thread>

#include "util/failpoint.hpp"

namespace vpm::pipeline {

PipelineRuntime::PipelineRuntime(DatabasePtr db, PipelineConfig cfg) : cfg_(cfg) {
  if (db == nullptr) throw std::invalid_argument("PipelineRuntime: null database");
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.batch_packets == 0) cfg_.batch_packets = 1;
  if (cfg_.eviction_max_steps == 0) cfg_.eviction_max_steps = 1;
  rules_.set_initial(std::move(db));

  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(cfg_, rules_));
    if (!cfg_.worker_cpus.empty()) {
      workers_.back()->set_cpu(cfg_.worker_cpus[i % cfg_.worker_cpus.size()]);
    }
    if (cfg_.metrics != nullptr) workers_.back()->enable_telemetry(*cfg_.metrics, i);
  }
  std::vector<ShardRouter::ShardRings> rings;
  rings.reserve(workers_.size());
  for (auto& w : workers_) rings.push_back({&w->ring(), &w->returns()});
  // Telemetry on => the router stamps batches so workers can measure dwell.
  router_ = std::make_unique<ShardRouter>(std::move(rings), cfg_.batch_packets,
                                          cfg_.backpressure, cfg_.metrics != nullptr);
}

void PipelineRuntime::swap_database(DatabasePtr db) {
  if (db == nullptr) {
    throw std::invalid_argument("PipelineRuntime::swap_database: null database");
  }
  // Chaos hook: a publish that fails BEFORE the channel store must leave the
  // previous generation fully live (workers keep scanning; no packet drops).
  if (util::failpoint::should_fail(util::failpoint::Site::hot_swap_publish)) {
    throw std::runtime_error(
        "PipelineRuntime::swap_database: injected publish failure (failpoint)");
  }
  // publish() orders the slot write before the seq bump, pairing with the
  // workers' seq-then-slot reads: observing the bump implies observing the
  // rules.
  rules_.publish(std::move(db));
}

std::uint64_t PipelineRuntime::generation() const {
  return rules_.current()->generation();
}

void PipelineRuntime::quiesce() {
  if (!running_) return;
  router_->flush();
  for (;;) {
    std::uint64_t processed = 0;
    for (const auto& w : workers_) processed += w->stats().packets;
    if (processed >= router_->routed()) return;
    std::this_thread::yield();
  }
}

PipelineRuntime::~PipelineRuntime() {
  if (running_) stop();
}

void PipelineRuntime::start() {
  if (running_ || stopped_) {
    throw std::logic_error("PipelineRuntime::start: runtime is one-shot");
  }
  for (auto& w : workers_) w->start();
  if (cfg_.watchdog_interval_ms > 0) {
    Watchdog::Config wc;
    wc.interval_ms = cfg_.watchdog_interval_ms;
    wc.stall_intervals = cfg_.watchdog_stall_intervals;
    watchdog_ = std::make_unique<Watchdog>(wc);
    for (auto& w : workers_) {
      watchdog_->watch({&w->heartbeat_counter(), &w->finished_flag()});
    }
    watchdog_->start();
  }
  running_ = true;
}

bool PipelineRuntime::submit(net::Packet packet) {
  if (!running_) throw std::logic_error("PipelineRuntime::submit: not running");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return router_->route(std::move(packet));
}

std::size_t PipelineRuntime::submit(std::span<const net::Packet> packets) {
  // Drops happen at batch granularity, so "how many of *these* packets
  // survived" is measured against the drop counter, not per-call returns.
  const std::uint64_t dropped_before = router_->dropped();
  for (const net::Packet& p : packets) submit(p);
  const std::uint64_t dropped = router_->dropped() - dropped_before;
  return packets.size() > dropped ? packets.size() - static_cast<std::size_t>(dropped)
                                  : 0;
}

void PipelineRuntime::flush() {
  if (running_) router_->flush();
}

void PipelineRuntime::stop() {
  if (!running_) return;
  router_->flush();
  // done_ is set only after the flush above, so a worker that observes it
  // and then finds its ring empty has truly consumed everything.
  for (auto& w : workers_) w->request_stop();
  for (auto& w : workers_) w->join();
  // After the joins: the workers' finished flags are set, so stopping the
  // sampler here can never miss a real stall or flag a false one.
  if (watchdog_ != nullptr) watchdog_->stop();
  for (auto& w : workers_) {
    std::vector<ids::Alert>& a = w->alerts();
    alerts_.insert(alerts_.end(), a.begin(), a.end());
    a.clear();
    a.shrink_to_fit();
  }
  running_ = false;
  stopped_ = true;
}

PipelineStats PipelineRuntime::stats() const {
  PipelineStats s;
  s.workers.reserve(workers_.size());
  for (const auto& w : workers_) s.workers.push_back(w->stats());
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.routed = router_->routed();
  s.dropped_backpressure = router_->dropped();
  if (watchdog_ != nullptr) s.watchdog_stalls = watchdog_->stalls();
  for (const auto& w : workers_) {
    if (w->failed()) {
      ++s.worker_failures;
      s.errors.push_back(w->error());
    }
  }
  return s;
}

}  // namespace vpm::pipeline
