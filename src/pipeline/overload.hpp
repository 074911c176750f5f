// Watermark-driven graceful-degradation ladder.
//
// The overload signal is the worker's own ring occupancy: a ring filling up
// means the worker is falling behind its shard's arrival rate, and under the
// block backpressure policy that stall propagates to the ingest thread and
// every other shard.  Instead of wedging (block) or dropping blindly at the
// tail (drop), an overloaded worker climbs a ladder of increasingly lossy
// countermeasures — each rung sacrifices the least valuable work first, and
// every sacrificed byte is accounted (WorkerStats::shed_*):
//
//   rung 0  normal          full fidelity
//   rung 1  shrink_budgets  per-connection reassembly buffering budget drops
//                           to budget_factor of its configured value: the
//                           memory- and CPU-hungriest evasion state goes
//                           first, in-order traffic is untouched
//   rung 2  evict_early     idle flows are evicted on a much shorter timeout
//                           and sweeps run more often, bounding flow-table
//                           growth under churn floods
//   rung 3  shed_load       payloads larger than shed_payload_bytes are
//                           discarded before any processing: one oversized
//                           segment costs as much scan time as dozens of
//                           small ones, so shedding it frees the most
//                           capacity at the smallest coverage loss
//
// Transitions move ONE rung per evaluation (a batch boundary), with
// hysteresis: the ladder climbs at enter_fill[rung] and only descends below
// exit_fill[rung-1] (< enter), so a fill level oscillating around one
// watermark cannot flap the ladder.  The manager itself is plain single-
// threaded state owned by the worker; only the mirrored stats gauge crosses
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace vpm::pipeline {

enum class DegradationLevel : std::uint8_t {
  normal = 0,
  shrink_budgets = 1,
  evict_early = 2,
  shed_load = 3,
};

inline constexpr std::size_t kDegradationLevels = 4;

constexpr const char* degradation_level_name(DegradationLevel l) {
  switch (l) {
    case DegradationLevel::normal: return "normal";
    case DegradationLevel::shrink_budgets: return "shrink_budgets";
    case DegradationLevel::evict_early: return "evict_early";
    case DegradationLevel::shed_load: return "shed_load";
  }
  return "?";
}

struct OverloadConfig {
  bool enabled = false;

  // Watermarks as ring-fill fractions (0..1).  enter_fill[i] climbs from
  // rung i to i+1; exit_fill[i] descends from rung i+1 back to i.  Sane
  // configs keep exit_fill[i] < enter_fill[i] (the hysteresis band) and both
  // arrays monotonically increasing.
  double enter_fill[kDegradationLevels - 1] = {0.50, 0.75, 0.90};
  double exit_fill[kDegradationLevels - 1] = {0.30, 0.55, 0.75};

  // Rung 1: the reassembly buffering budget becomes
  // max(1, budget_factor * configured max_buffered_bytes).
  double budget_factor = 0.25;

  // Rung 2: idle timeout drops to min(configured, degraded_idle_timeout_us)
  // — or to degraded_idle_timeout_us outright when eviction was disabled —
  // and sweeps run every eviction_sweep_packets/4 packets.
  std::uint64_t degraded_idle_timeout_us = 1'000'000;  // 1 s of capture time

  // Rung 3 sheds exactly the packets whose payload exceeds
  // shed_payload_bytes; payloads at or below it are always processed.
  std::size_t shed_payload_bytes = 1200;
};

// Named policies for CLI/config surfaces: "off", "conservative" (the
// OverloadConfig defaults, enabled), "aggressive" (earlier watermarks,
// deeper budget cut, lower shed bound).  Unknown names -> nullopt.
std::optional<OverloadConfig> overload_policy_from_name(std::string_view name);

class OverloadManager {
 public:
  explicit OverloadManager(const OverloadConfig& cfg) : cfg_(cfg) {}

  // Evaluates one ladder step against the current ring-fill fraction.
  // Moves at most one rung; returns the (possibly unchanged) level.
  DegradationLevel update(double ring_fill) {
    const std::size_t cur = static_cast<std::size_t>(level_);
    if (cur + 1 < kDegradationLevels && ring_fill >= cfg_.enter_fill[cur]) {
      level_ = static_cast<DegradationLevel>(cur + 1);
      ++transitions_;
    } else if (cur > 0 && ring_fill < cfg_.exit_fill[cur - 1]) {
      level_ = static_cast<DegradationLevel>(cur - 1);
      ++transitions_;
    }
    return level_;
  }

  DegradationLevel level() const { return level_; }
  std::uint64_t transitions() const { return transitions_; }
  const OverloadConfig& config() const { return cfg_; }

 private:
  OverloadConfig cfg_;
  DegradationLevel level_ = DegradationLevel::normal;
  std::uint64_t transitions_ = 0;
};

}  // namespace vpm::pipeline
