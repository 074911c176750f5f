#include "dfc/dfc.hpp"

#include <bit>

#include "util/hash.hpp"

namespace vpm::dfc {

DfcMatcher::DfcMatcher(const pattern::PatternSet& set)
    : short_table_(set), long_table_(set) {
  for (const pattern::Pattern& p : set) {
    df_all_.add_pattern_prefix(p);
    if (p.size() < pattern::kShortLongBoundary) {
      df_short_.add_pattern_prefix(p);
    } else {
      df_long_.add_pattern_prefix(p);
    }
  }
}

void DfcMatcher::scan(util::ByteView data, MatchSink& sink) const {
  if (data.empty()) return;
  scan_from(data, 0, sink);
}

void DfcMatcher::scan_from(util::ByteView data, std::size_t begin, MatchSink& sink) const {
  const std::uint8_t* d = data.data();
  const std::size_t n = data.size();
  for (std::size_t i = begin; i + 1 < n; ++i) {
    const std::uint32_t window = util::load_u16(d + i);
    if (!df_all_.test(window)) continue;
    if (df_short_.test(window)) short_table_.verify_at(data, i, sink);
    if (df_long_.test(window)) long_table_.verify_at(data, i, sink);
  }
  // Last position: only 1-byte patterns can start here.  The zero-padded
  // window is covered by the wildcard expansion of 1-byte prefixes.
  const std::uint32_t tail = d[n - 1];
  if (df_all_.test(tail) && df_short_.test(tail)) short_table_.verify_at(data, n - 1, sink);
}

void DfcMatcher::verify_block(util::ByteView data, std::size_t base, std::uint32_t short_mask,
                              std::uint32_t long_mask, MatchSink& sink) const {
  for (; short_mask != 0; short_mask &= short_mask - 1) {
    short_table_.verify_at(data, base + std::countr_zero(short_mask), sink);
  }
  for (; long_mask != 0; long_mask &= long_mask - 1) {
    long_table_.verify_at(data, base + std::countr_zero(long_mask), sink);
  }
}

std::size_t DfcMatcher::memory_bytes() const {
  return 3 * DirectFilter2B::kBits / 8 + short_table_.memory_bytes() +
         long_table_.memory_bytes();
}

}  // namespace vpm::dfc
