#include "core/filter_bank.hpp"

#include "pattern/prefix.hpp"
#include "util/hash.hpp"

namespace vpm::core {

FilterBank::FilterBank(const pattern::PatternSet& set, FilterBankConfig cfg)
    : f3_(pattern::prefix_windows(set, pattern::kShortLongBoundary), cfg.f3_bits_log2),
      third_(pattern::prefix_windows(set, 3, 3)) {
  for (const pattern::Pattern& p : set) {
    if (p.size() < pattern::kShortLongBoundary) {
      f1_.add_pattern_prefix(p);
      if (p.size() < 3) head_.add_pattern_prefix(p);
      has_short_ = true;
    } else {
      f2_.add_pattern_prefix(p);
      has_long_ = true;
    }
  }
  merged_ = dfc::interleave(f1_, f2_);
}

bool FilterBank::may_start_short(util::ByteView data, std::size_t pos) const {
  const std::size_t remaining = data.size() - pos;
  const std::uint8_t* at = data.data() + pos;
  const std::uint32_t window =
      remaining >= 4 ? util::load_u32(at) : util::load_le(at, static_cast<unsigned>(remaining));
  return head_.test(window & 0xFFFFu) | third_.test(window & 0xFFFFFFu);
}

std::uint32_t FilterBank::keep_short(util::ByteView data, std::uint32_t* positions,
                                     std::uint32_t n) const {
  std::uint32_t kept = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t pos = positions[k];
    positions[kept] = pos;
    kept += may_start_short(data, pos);
  }
  return kept;
}

std::uint32_t FilterBank::keep_short(std::span<const util::ByteView> payloads,
                                     std::uint32_t* positions, std::uint32_t* item,
                                     std::uint32_t n) const {
  std::uint32_t kept = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t packet = item[k];
    const std::uint32_t pos = positions[k];
    positions[kept] = pos;
    item[kept] = packet;
    kept += may_start_short(payloads[packet], pos);
  }
  return kept;
}

}  // namespace vpm::core
