// Vector-DFC's block loop, AVX2 (W = 8).  Each block probes the merged
// short/long filters with one gather, and a block with any hit lane goes to
// DfcMatcher::verify_block, compiled baseline in dfc.cpp, so this unit
// compiles no table code.
#include "dfc/vector_dfc.hpp"

#if defined(__AVX2__)

#include "simd/avx2_ops.hpp"

namespace vpm::dfc {
namespace {

std::size_t block_loop(const DfcMatcher& dfc, const std::uint8_t* merged, util::ByteView data,
                       MatchSink& sink) {
  const std::uint8_t* d = data.data();
  const std::size_t n = data.size();
  const __m256i shuffle2 = simd::avx2::window_shuffle_mask(2);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 8) {
    const __m256i win = simd::avx2::windows2(d + i, shuffle2);
    // Byte offset into the merged layout: (window >> 3) * 2.
    const __m256i byte_off = _mm256_slli_epi32(_mm256_srli_epi32(win, 3), 1);
    const __m256i word = simd::avx2::gather_u32(merged, byte_off);
    const std::uint32_t short_mask = simd::avx2::filter_testbits(word, win);
    // Long filter bits live one byte higher in the gathered word.
    const std::uint32_t long_mask =
        simd::avx2::filter_testbits(_mm256_srli_epi32(word, 8), win);
    // Immediate scalar verification of hit lanes — the vector/scalar mix
    // that caps this variant's speedup.
    if ((short_mask | long_mask) != 0) dfc.verify_block(data, i, short_mask, long_mask, sink);
  }
  return i;
}

}  // namespace

VectorDfcLoop vector_dfc_loop_avx2() { return block_loop; }

}  // namespace vpm::dfc

#else  // !__AVX2__

namespace vpm::dfc {
VectorDfcLoop vector_dfc_loop_avx2() { return nullptr; }
}  // namespace vpm::dfc

#endif
