#include "dfc/vector_dfc.hpp"

#include <stdexcept>

#include "simd/cpu_features.hpp"

namespace vpm::dfc {

VectorDfcMatcher::VectorDfcMatcher(const pattern::PatternSet& set)
    : scalar_(set),
      merged_(interleave(scalar_.df_short_, scalar_.df_long_)),
      loop_(vector_dfc_loop_avx2()) {
  if (!simd::cpu().has_avx2_kernel()) {
    throw std::runtime_error("Vector-DFC requires AVX2");
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
