// Direct filters: the cache-resident bitmaps at the heart of DFC and
// S-PATCH/V-PATCH.
//
// DirectFilter2B is "a bit-array that summarizes only a specific part of each
// pattern, e.g. its first two bytes, having one bit for every possible
// combination of two characters" (paper §II-B): 2^16 bits = 8 KB, L1-resident.
// HashedFilter is the S-PATCH third filter: a bitmap indexed by a
// multiplicative hash of a window of up to four bytes, sized per working set
// unless a size is given.  Filter 3 holds 4-byte windows, ShortTable's
// pre-pass bitmap 3-byte ones.
#pragma once

#include <cstdint>
#include <vector>

#include "pattern/pattern.hpp"
#include "util/bitarray.hpp"
#include "util/hash.hpp"

namespace vpm::dfc {

class DirectFilter2B {
 public:
  static constexpr std::size_t kBits = 1u << 16;

  DirectFilter2B() : bits_(kBits) {}

  // Marks a pattern's 2-byte prefix (all case variants when nocase).
  // 1-byte patterns wildcard the second byte: every (p0, x) combination is
  // set, which also makes the explicit zero-padded tail window test correct
  // at the last input position.
  void add_pattern_prefix(const pattern::Pattern& p);

  bool test(std::uint32_t window2) const { return bits_.test(window2); }
  const util::BitArray& bits() const { return bits_; }
  double occupancy() const { return bits_.occupancy(); }

 private:
  util::BitArray bits_;
};

// The size rule of a hashed filter: the smallest power of two of at least
// 2^kHashedMinBitsLog2 bits whose fill stays at or below kHashedFillTarget,
// so that about as small a share of the windows it tests that start no
// pattern pass it by collision, capped at 2^kHashedMaxBitsLog2 bits
// (128 KiB) to stay L2-resident.
inline constexpr double kHashedFillTarget = 0.015;
inline constexpr unsigned kHashedMinBitsLog2 = 10;
inline constexpr unsigned kHashedMaxBitsLog2 = 20;

class HashedFilter {
 public:
  // The filter of `windows` (duplicates allowed) at 2^bits_log2 bits, or,
  // for bits_log2 == 0, at the size rule's: the share of a 2^16-bit filter
  // that the windows set gives how many distinct windows there are (linear
  // counting: -2^16 ln(1 - fill)), and the filter takes the smallest size
  // that holds that many at the fill target.
  explicit HashedFilter(const std::vector<std::uint32_t>& windows, unsigned bits_log2 = 0);

  bool test(std::uint32_t window) const {
    return bits_.test(util::multiplicative_hash(window, bits_log2_));
  }
  unsigned bits_log2() const { return bits_log2_; }
  const util::BitArray& bits() const { return bits_; }
  double occupancy() const { return bits_.occupancy(); }

 private:
  unsigned bits_log2_;
  util::BitArray bits_;
};

}  // namespace vpm::dfc
