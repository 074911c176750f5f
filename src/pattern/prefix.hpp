// Pattern-prefix helpers for filter construction.
//
// All direct filters index on raw input bytes (no folding in the hot loop,
// matching the paper's Algorithm 1/2).  Case-insensitive patterns therefore
// insert every case variant of their prefix into the filters/tables: at most
// 2^k variants for a k-byte prefix, and only alphabetic bytes fork.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "pattern/pattern_set.hpp"
#include "util/bytes.hpp"

namespace vpm::pattern {

// Little-endian packed values of every case variant of `prefix` (1..4 bytes).
// For nocase == false, the single raw value.
std::vector<std::uint32_t> prefix_variants(util::ByteView prefix, bool nocase);

// The prefix_variants of the n-byte prefix (n in 1..4) of every pattern of
// `set` whose size lies in [n, max_size], in set order: the windows of a
// hashed filter over those patterns.
std::vector<std::uint32_t> prefix_windows(
    const PatternSet& set, std::size_t n,
    std::size_t max_size = std::numeric_limits<std::size_t>::max());

}  // namespace vpm::pattern
