#include "core/filter_bank.hpp"

#include "pattern/prefix.hpp"
#include "util/bitarray.hpp"

namespace vpm::core {

FilterBank::FilterBank(const pattern::PatternSet& set, FilterBankConfig cfg)
    : f3_(pattern::prefix_windows(set, pattern::kShortLongBoundary), cfg.f3_bits_log2) {
  for (const pattern::Pattern& p : set) {
    if (p.size() < pattern::kShortLongBoundary) {
      f1_.add_pattern_prefix(p);
      has_short_ = true;
    } else {
      f2_.add_pattern_prefix(p);
      has_long_ = true;
    }
  }
  // Byte-interleaved merged layout: merged[2k] = F1 byte k, merged[2k+1] =
  // F2 byte k.  One dword gather at offset 2*(window>>3) then holds the F1
  // byte in bits 0..7 and the F2 byte in bits 8..15.
  const std::uint8_t* b1 = f1_.bits().data();
  const std::uint8_t* b2 = f2_.bits().data();
  const std::size_t nbytes = dfc::DirectFilter2B::kBits / 8;
  merged_.assign(2 * nbytes + util::BitArray::kGatherSlack, 0);
  for (std::size_t k = 0; k < nbytes; ++k) {
    merged_[2 * k] = b1[k];
    merged_[2 * k + 1] = b2[k];
  }
}

}  // namespace vpm::core
