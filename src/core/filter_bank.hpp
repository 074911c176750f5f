// The S-PATCH three-filter bank (paper §IV-A, Fig. 1).
//
//   Filter 1 — direct 2-byte bitmap over the SHORT patterns (1..3 B).
//   Filter 2 — direct 2-byte bitmap over the LONG patterns (>= 4 B),
//              indexed identically to Filter 1.
//   Filter 3 — bitmap indexed by a multiplicative hash of a 4-byte window,
//              corroborating Filter-2 hits before a position is stored.
//
// Filters 1 and 2 are additionally kept byte-interleaved in one "merged"
// array (Fig. 3): because both use the same index, a single gather at byte
// offset 2*(window>>3) returns one byte of each filter, halving the gather
// count in V-PATCH.  Filter 3 is sized per working set by the hashed-filter
// rule (dfc::HashedFilter): the smallest power of two that keeps its fill at
// or below 1.5%, capped at 2^20 bits.  Total footprint: 8 + 8 KB direct
// (16 KB merged copy) + Filter 3, which is 32 KB on S1-web's http set and
// 128 KB (the cap) on S2-full — L2-resident with room for the input block
// and the candidate arrays, as the paper's size-efficiency property
// requires.  At the paper's fixed 8 KB (2^16 bits) Filter 3 was 4.3% full
// on S1-web and 12% on S2-full, against 1.1% and 0.8% at the derived sizes.
//
// The bank also holds round two's short pre-pass (keep_short).  Filter 1
// tests only two bytes, so it passes every position whose two bytes begin
// any 3-byte pattern.  Before the short candidates reach dfc::ShortTable,
// one branch-free loop over their span keeps only those whose 2-byte window
// starts a 1- or 2-byte pattern (an exact 2^16-bit set, 8 KB) or whose
// hashed 3-byte window is one of the 3-byte patterns' (a hashed filter of
// every case variant, sized by the same rule: 4 KB on S1-web, 32 KB on
// S2-full).  DFC verifies each hit of its short filter directly and builds
// neither set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dfc/direct_filter.hpp"
#include "pattern/pattern_set.hpp"
#include "util/bytes.hpp"

namespace vpm::core {

struct FilterBankConfig {
  // log2 of Filter-3 bit count, or 0 to derive it from the working set.  A
  // non-zero value overrides the derived size, for the ablation and Fig. 5a
  // sweeps (16 -> 8 KB, the paper's choice).  Trade-off: larger = fewer
  // false positives, smaller = better cache residency (paper §IV-A1).
  unsigned f3_bits_log2 = 0;
};

class FilterBank {
 public:
  explicit FilterBank(const pattern::PatternSet& set, FilterBankConfig cfg = {});

  // Scalar probes (S-PATCH inner loop).
  bool test_f1(std::uint32_t window2) const { return f1_.test(window2); }
  bool test_f2(std::uint32_t window2) const { return f2_.test(window2); }
  bool test_f3(std::uint32_t window4) const { return f3_.test(window4); }

  // Raw storage for the gather kernels.
  const std::uint8_t* merged_data() const { return merged_.data(); }
  const std::uint8_t* f3_data() const { return f3_.bits().data(); }
  unsigned f3_bits_log2() const { return f3_.bits_log2(); }

  double f1_occupancy() const { return f1_.occupancy(); }
  double f2_occupancy() const { return f2_.occupancy(); }
  double f3_occupancy() const { return f3_.occupancy(); }

  bool has_short_patterns() const { return has_short_; }
  bool has_long_patterns() const { return has_long_; }

  // The pre-pass over the n short candidates of data (each < data.size()):
  // overwrites positions with those a short pattern may start at, in order,
  // and returns their count.
  std::uint32_t keep_short(util::ByteView data, std::uint32_t* positions, std::uint32_t n) const;
  // The same over a batch's pool: candidate k is positions[k] within
  // payloads[item[k]], and the survivors stay in positions and item.
  std::uint32_t keep_short(std::span<const util::ByteView> payloads, std::uint32_t* positions,
                           std::uint32_t* item, std::uint32_t n) const;

  std::size_t memory_bytes() const {
    return 2 * dfc::DirectFilter2B::kBits / 8 + merged_.size() + (1u << f3_.bits_log2()) / 8 +
           head_.bits().byte_size() + third_.bits().byte_size();
  }

 private:
  // False only where no short pattern starts at data[pos..] (pos <
  // data.size()): neither is the 2-byte window in head_ — a 1-byte pattern
  // sets every second byte, so the last position's zero-padded window
  // passes — nor the 3-byte window in third_.  Windows past the view's end
  // read as zeros.
  bool may_start_short(util::ByteView data, std::size_t pos) const;

  dfc::DirectFilter2B f1_;
  dfc::DirectFilter2B f2_;
  dfc::HashedFilter f3_;
  std::vector<std::uint8_t> merged_;
  // The pre-pass sets: the 2-byte windows that start a 1- or 2-byte pattern,
  // and the hashed 3-byte windows of the 3-byte patterns.
  dfc::DirectFilter2B head_;
  dfc::HashedFilter third_;
  bool has_short_ = false;
  bool has_long_ = false;
};

}  // namespace vpm::core
