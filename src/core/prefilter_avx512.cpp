// Approximate q-gram prefilter screen, AVX-512: 16 STRIDED probe positions
// per block (lane j probes position p + j*threshold, so one block disposes
// of 16*threshold positions), read in place from the raw payload and
// case-folded in registers, one gather for the signature words, and a
// scalar neighborhood verify on the rare lanes that hit.  See
// prefilter_kernels.hpp for why strided probing cannot miss a qualifying
// run and for the read contract.
#include "core/prefilter_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <bit>

namespace vpm::core {

namespace {

// util::ascii_lower on every byte: 'A'..'Z' (x - 'A' < 26 unsigned) get +0x20.
inline __m512i fold(__m512i x) {
  const __mmask64 upper = _mm512_cmplt_epu8_mask(_mm512_sub_epi8(x, _mm512_set1_epi8('A')),
                                                 _mm512_set1_epi8(26));
  return _mm512_mask_add_epi8(x, upper, x, _mm512_set1_epi8(0x20));
}

// Lanes probe p + j*threshold.  kContiguous (threshold 4): lane j's gram is
// the j-th word of one plain 64-byte load at p; otherwise one gather.
template <bool kContiguous>
bool screen(const PrefilterView& v, const std::uint8_t* data, std::size_t len) {
  const std::size_t span = std::size_t{16} * v.threshold;  // positions per block
  const std::size_t last_lane = span - v.threshold;
  const __m512i lane_off = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(v.threshold)));
  const __m512i gram_mask = _mm512_set1_epi32(v.q == 4 ? -1 : 0x00FFFFFF);
  const __m512i gamma = _mm512_set1_epi32(static_cast<int>(util::kGoldenGamma));
  const __m512i m31 = _mm512_set1_epi32(31);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i wmask = _mm512_set1_epi32(static_cast<int>(v.word_mask));

  std::size_t p = 0;
  for (; p + last_lane + 4 <= len; p += span) {  // the last lane's 4 bytes in range
    __m512i raw;
    if constexpr (kContiguous) {
      raw = _mm512_loadu_si512(data + p);
    } else {
      const __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(p)), lane_off);
      raw = _mm512_i32gather_epi32(idx, data, 1);
    }
    const __m512i grams = _mm512_and_si512(fold(raw), gram_mask);
    const __m512i h = _mm512_mullo_epi32(grams, gamma);
    const __m512i widx = _mm512_and_si512(_mm512_srli_epi32(h, 10), wmask);
    const __m512i words = _mm512_i32gather_epi32(widx, v.words, 4);
    const __m512i b1 = _mm512_and_si512(h, m31);
    const __m512i b2 = _mm512_and_si512(_mm512_srli_epi32(h, 5), m31);
    const __m512i both =
        _mm512_and_si512(_mm512_srlv_epi32(words, b1), _mm512_srlv_epi32(words, b2));
    std::uint32_t m = _mm512_test_epi32_mask(both, one);
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      if (prefilter_verify_run(v, data, len, p + std::size_t{lane} * v.threshold)) {
        return true;
      }
      m &= m - 1;
    }
  }
  return prefilter_screen_tail(v, data, len, p);
}

// Every read stays inside [data, data + len): a block reads at most
// data[p + 15*threshold .. p + 15*threshold + 3] and runs only while that is
// in range; the tail and the verify go through prefilter_gram.
bool screen_payload(const PrefilterView& v, const std::uint8_t* data, std::size_t len) {
  return v.threshold == 4 ? screen<true>(v, data, len) : screen<false>(v, data, len);
}

}  // namespace

PrefilterScreen prefilter_screen_avx512() { return screen_payload; }

}  // namespace vpm::core

#else  // no AVX-512 toolchain support

namespace vpm::core {
PrefilterScreen prefilter_screen_avx512() { return nullptr; }
}  // namespace vpm::core

#endif
