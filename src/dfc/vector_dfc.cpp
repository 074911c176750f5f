#include "dfc/vector_dfc.hpp"

#include <stdexcept>

#include "simd/cpu_features.hpp"

namespace vpm::dfc {

VectorDfcMatcher::VectorDfcMatcher(const pattern::PatternSet& set)
    : scalar_(set), loop_(vector_dfc_loop_avx2()) {
  if (!simd::cpu().has_avx2_kernel()) {
    throw std::runtime_error("Vector-DFC requires AVX2");
  }
  // Interleave the short/long filters byte-wise so one gather returns both
  // (the filter-merging optimization of the paper's Fig. 3).
  const std::uint8_t* s = scalar_.df_short_.bits().data();
  const std::uint8_t* l = scalar_.df_long_.bits().data();
  const std::size_t nbytes = DirectFilter2B::kBits / 8;
  merged_.assign(2 * nbytes + util::BitArray::kGatherSlack, 0);
  for (std::size_t k = 0; k < nbytes; ++k) {
    merged_[2 * k] = s[k];
    merged_[2 * k + 1] = l[k];
  }
}

std::size_t VectorDfcMatcher::memory_bytes() const {
  return scalar_.memory_bytes() + merged_.size();
}

void VectorDfcMatcher::scan(util::ByteView data, MatchSink& sink) const {
  if (data.empty()) return;
  // The positions the vector loop leaves: DFC's own scalar loop.
  scalar_.scan_from(data, loop_(scalar_, merged_.data(), data, sink), sink);
}

}  // namespace vpm::dfc
