#include "dfc/vector_dfc.hpp"

#include <stdexcept>

#include "simd/cpu_features.hpp"
#include "util/hash.hpp"

#if defined(__AVX2__)
#include "simd/avx2_ops.hpp"
#endif

namespace vpm::dfc {

VectorDfcMatcher::VectorDfcMatcher(const pattern::PatternSet& set) : scalar_(set) {
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

#if defined(__AVX2__)

void VectorDfcMatcher::scan(util::ByteView data, MatchSink& sink) const {
  const std::uint8_t* d = data.data();
  const std::size_t n = data.size();
  if (n == 0) return;

  const __m256i shuffle2 = simd::avx2::window_shuffle_mask(2);
  const std::uint8_t* merged = merged_.data();

  std::size_t i = 0;
  if (n >= 16) {
    std::uint32_t hits[16];  // leftpack writes 8 dwords past the logical end
    for (; i + 16 <= n; i += 8) {
      const __m256i win = simd::avx2::windows2(d + i, shuffle2);
      // Byte offset into the merged layout: (window >> 3) * 2.
      const __m256i byte_off = _mm256_slli_epi32(_mm256_srli_epi32(win, 3), 1);
      const __m256i word = simd::avx2::gather_u32(merged, byte_off);
      const std::uint32_t short_mask = simd::avx2::filter_testbits(word, win);
      // Long filter bits live one byte higher in the gathered word.
      const __m256i word_long = _mm256_srli_epi32(word, 8);
      const std::uint32_t long_mask = simd::avx2::filter_testbits(word_long, win);

      // Immediate scalar verification of hit lanes — the vector/scalar mix
      // that caps this variant's speedup.
      if (short_mask != 0) {
        const unsigned cnt = simd::avx2::leftpack_positions(static_cast<std::uint32_t>(i),
                                                            short_mask, hits);
        for (unsigned k = 0; k < cnt; ++k) {
          scalar_.short_table_.verify_at(data, hits[k], sink);
        }
      }
      if (long_mask != 0) {
        const unsigned cnt = simd::avx2::leftpack_positions(static_cast<std::uint32_t>(i),
                                                            long_mask, hits);
        for (unsigned k = 0; k < cnt; ++k) {
          scalar_.long_table_.verify_at(data, hits[k], sink);
        }
      }
    }
  }

  // The positions the vector loop leaves: DFC's own scalar loop.
  scalar_.scan_from(data, i, sink);
}

#else

void VectorDfcMatcher::scan(util::ByteView data, MatchSink& sink) const {
  scalar_.scan(data, sink);  // unreachable: constructor throws without AVX2
}

#endif

}  // namespace vpm::dfc
