#include "dfc/direct_filter.hpp"

#include <cassert>
#include <cmath>

#include "pattern/prefix.hpp"

namespace vpm::dfc {

void DirectFilter2B::add_pattern_prefix(const pattern::Pattern& p) {
  assert(!p.bytes.empty());
  if (p.size() == 1) {
    const std::uint8_t b = p.bytes[0];
    for (std::uint32_t first : pattern::prefix_variants({&b, 1}, p.nocase)) {
      for (std::uint32_t second = 0; second < 256; ++second) {
        bits_.set(first | (second << 8));
      }
    }
    return;
  }
  for (std::uint32_t v : pattern::prefix_variants({p.bytes.data(), 2}, p.nocase)) {
    bits_.set(v);
  }
}

std::vector<std::uint8_t> interleave(const DirectFilter2B& low, const DirectFilter2B& high) {
  const std::uint8_t* lo = low.bits().data();
  const std::uint8_t* hi = high.bits().data();
  const std::size_t nbytes = DirectFilter2B::kBits / 8;
  std::vector<std::uint8_t> merged(2 * nbytes + util::BitArray::kGatherSlack, 0);
  for (std::size_t k = 0; k < nbytes; ++k) {
    merged[2 * k] = lo[k];
    merged[2 * k + 1] = hi[k];
  }
  return merged;
}

namespace {

// The size of the filter whose fill estimates the distinct windows.
constexpr unsigned kCountBitsLog2 = 16;

util::BitArray hashed_bits(const std::vector<std::uint32_t>& windows, unsigned bits_log2) {
  util::BitArray bits(std::size_t{1} << bits_log2);
  for (std::uint32_t w : windows) bits.set(util::multiplicative_hash(w, bits_log2));
  return bits;
}

unsigned rule_bits_log2(const std::vector<std::uint32_t>& windows) {
  const double fill = hashed_bits(windows, kCountBitsLog2).occupancy();
  const double distinct = -static_cast<double>(1u << kCountBitsLog2) * std::log1p(-fill);
  unsigned bits_log2 = kHashedMinBitsLog2;
  while (bits_log2 < kHashedMaxBitsLog2 &&
         distinct > kHashedFillTarget * static_cast<double>(1u << bits_log2)) {
    ++bits_log2;
  }
  return bits_log2;
}

}  // namespace

HashedFilter::HashedFilter(const std::vector<std::uint32_t>& windows, unsigned bits_log2)
    : bits_log2_(bits_log2 != 0 ? bits_log2 : rule_bits_log2(windows)),
      bits_(hashed_bits(windows, bits_log2_)) {}

}  // namespace vpm::dfc
