#include "pattern/prefix.hpp"

#include <cassert>

namespace vpm::pattern {

std::vector<std::uint32_t> prefix_variants(util::ByteView prefix, bool nocase) {
  assert(prefix.size() >= 1 && prefix.size() <= 4);
  std::vector<std::uint32_t> values{0};
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const std::uint8_t raw = prefix[i];
    const std::uint8_t lo = util::ascii_lower(raw);
    const std::uint8_t hi = util::ascii_upper(raw);
    const bool forks = nocase && lo != hi;
    const std::size_t n = values.size();
    if (forks) values.reserve(n * 2);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t base = values[k];
      values[k] = base | (static_cast<std::uint32_t>(forks ? lo : raw) << (8 * i));
      if (forks) values.push_back(base | (static_cast<std::uint32_t>(hi) << (8 * i)));
    }
  }
  return values;
}

std::vector<std::uint32_t> prefix_windows(const PatternSet& set, std::size_t n,
                                          std::size_t max_size) {
  std::vector<std::uint32_t> windows;
  for (const Pattern& p : set) {
    if (p.size() < n || p.size() > max_size) continue;
    const auto variants = prefix_variants({p.bytes.data(), n}, p.nocase);
    windows.insert(windows.end(), variants.begin(), variants.end());
  }
  return windows;
}

}  // namespace vpm::pattern
