// Instrumentation counters for the Fig. 5b experiment: the share of time in
// filtering vs verification, and how many vector lanes carry useful work
// when Filter 3 is evaluated speculatively.
#pragma once

#include <cstdint>

namespace vpm::core {

struct ScanStats {
  double filter_seconds = 0.0;
  double verify_seconds = 0.0;
  std::uint64_t short_candidates = 0;  // positions stored into A_short
  std::uint64_t short_survivors = 0;   // ... that pass the short pre-pass
  std::uint64_t long_candidates = 0;   // positions stored into A_long
  std::uint64_t matches = 0;
  // Vector-only: every time the kernel proceeds to Filter 3 ("at least one
  // element passed Filter 2"), the number of lanes that actually passed.
  std::uint64_t f3_blocks = 0;
  std::uint64_t f3_useful_lanes = 0;
  unsigned vector_width = 1;

  double filter_time_fraction() const {
    const double total = filter_seconds + verify_seconds;
    return total > 0.0 ? filter_seconds / total : 0.0;
  }
  // Mean fraction of useful lanes when Filter 3 runs (paper Fig. 5b red line).
  double f3_lane_utilization() const {
    if (f3_blocks == 0 || vector_width == 0) return 0.0;
    return static_cast<double>(f3_useful_lanes) /
           static_cast<double>(f3_blocks * vector_width);
  }

  void reset() { *this = ScanStats{}; }
};

}  // namespace vpm::core
