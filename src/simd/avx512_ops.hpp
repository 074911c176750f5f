// AVX-512 (W = 16) intrinsic sequences — the wide-vector stand-in for the
// paper's Xeon-Phi 512-bit VPU experiments (Fig. 7).
//
// Include only from translation units compiled with
// -mavx512f -mavx512bw -mavx512vl (guarded below).  Internal linkage, as in
// avx2_ops.hpp.
#pragma once

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || !defined(__AVX512VL__)
#error "avx512_ops.hpp must be compiled with -mavx512f -mavx512bw -mavx512vl"
#endif

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "simd/avx2_ops.hpp"
#include "util/hash.hpp"

namespace vpm::simd::avx512 {
namespace {

// W=16 sliding windows from two 16-byte registers: `lo` holds the bytes at
// p, `hi` the bytes at p+8.  Lanes 0..7 come from lo and lanes 8..15 from hi
// — two AVX2-style per-lane shuffles, no VBMI.
inline __m512i windows_of(__m128i lo, __m128i hi, __m256i shuffle) {
  return _mm512_inserti64x4(_mm512_castsi256_si512(avx2::windows_of(lo, shuffle)),
                            avx2::windows_of(hi, shuffle), 1);
}

inline __m512i gather_u32(const std::uint8_t* base, __m512i idx) {
  return _mm512_i32gather_epi32(idx, base, 1);
}

inline __m512i hash_mul(__m512i v, unsigned out_bits) {
  const __m512i prod =
      _mm512_mullo_epi32(v, _mm512_set1_epi32(static_cast<int>(util::kGoldenGamma)));
  return _mm512_srli_epi32(prod, 32u - out_bits);
}

// Filter membership test; returns a 16-bit lane mask (native kmask).
inline std::uint32_t filter_testbits(__m512i words, __m512i vals) {
  const __m512i amount = _mm512_and_si512(vals, _mm512_set1_epi32(7));
  const __m512i shifted = _mm512_srlv_epi32(words, amount);
  const __m512i bit = _mm512_and_si512(shifted, _mm512_set1_epi32(1));
  return _mm512_test_epi32_mask(bit, bit);
}

// Per-lane popcount of the 16 dword lanes (VPOPCNTDQ is not in the required
// feature set): same nibble-LUT + 0x01010101-multiply fold as the AVX2 one.
inline __m512i popcount_u32(__m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_nib = _mm512_set1_epi8(0x0F);
  const __m512i lo = _mm512_and_si512(v, low_nib);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_nib);
  const __m512i cnt8 =
      _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo), _mm512_shuffle_epi8(lut, hi));
  return _mm512_srli_epi32(_mm512_mullo_epi32(cnt8, _mm512_set1_epi32(0x01010101)), 24);
}

// Compress-store of matching lane positions — AVX-512 has vpcompressd, so no
// permutation table is needed and only `popcount(mask)` dwords are written.
inline unsigned leftpack_positions(std::uint32_t base_pos, std::uint32_t mask16,
                                   std::uint32_t* dst) {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i pos = _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(base_pos)), iota);
  _mm512_mask_compressstoreu_epi32(dst, static_cast<__mmask16>(mask16), pos);
  return static_cast<unsigned>(std::popcount(mask16));
}

}  // namespace
}  // namespace vpm::simd::avx512
