// Trace characterization, reported next to benchmark rows so a reader can
// judge how closely the synthetic workloads track the real captures.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace vpm::traffic {

struct TraceStats {
  std::size_t bytes = 0;
  double printable_fraction = 0.0;  // bytes in [0x20, 0x7F) plus \t \r \n
  double shannon_entropy_bits = 0.0;  // per byte, 0..8
  std::size_t distinct_bytes = 0;
  std::array<std::uint64_t, 256> histogram{};
};

TraceStats compute_trace_stats(util::ByteView trace);

// Occurrences of a token (exact bytes) per megabyte of trace — used to check
// that GET/HTTP-class tokens appear at realistic density.
double token_density_per_mb(util::ByteView trace, util::ByteView token);

}  // namespace vpm::traffic
