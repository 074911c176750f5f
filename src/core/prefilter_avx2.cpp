// Approximate q-gram prefilter screen, AVX2: 8 STRIDED probe positions per
// block (lane j probes position p + j*threshold, so one block disposes of
// 8*threshold positions), read in place from the raw payload and
// case-folded in registers, one gather for the signature words, and a
// scalar neighborhood verify on the rare lanes that hit.  See
// prefilter_kernels.hpp for why strided probing cannot miss a qualifying
// run and for the read contract.
#include "core/prefilter_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace vpm::core {

namespace {

// util::ascii_lower on every byte: 'A'..'Z' get 0x20 ORed in.  The signed
// compares leave bytes >= 0x80 (negative) alone.
inline __m256i fold(__m256i x) {
  const __m256i upper =
      _mm256_and_si256(_mm256_cmpgt_epi8(x, _mm256_set1_epi8('A' - 1)),
                       _mm256_cmpgt_epi8(_mm256_set1_epi8('Z' + 1), x));
  return _mm256_or_si256(x, _mm256_and_si256(upper, _mm256_set1_epi8(0x20)));
}

// Lanes probe p + j*threshold.  kContiguous (threshold 4): lane j's gram is
// the j-th word of one plain 32-byte load at p; otherwise one gather.
template <bool kContiguous>
bool screen(const PrefilterView& v, const std::uint8_t* data, std::size_t len) {
  const std::size_t span = std::size_t{8} * v.threshold;  // positions per block
  const std::size_t last_lane = span - v.threshold;
  const __m256i lane_off = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(v.threshold)));
  const __m256i gram_mask = _mm256_set1_epi32(v.q == 4 ? -1 : 0x00FFFFFF);
  const __m256i gamma = _mm256_set1_epi32(static_cast<int>(util::kGoldenGamma));
  const __m256i m31 = _mm256_set1_epi32(31);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i wmask = _mm256_set1_epi32(static_cast<int>(v.word_mask));
  const int* words_base = reinterpret_cast<const int*>(v.words);

  std::size_t p = 0;
  for (; p + last_lane + 4 <= len; p += span) {  // the last lane's 4 bytes in range
    __m256i raw;
    if constexpr (kContiguous) {
      raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + p));
    } else {
      const __m256i idx = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(p)), lane_off);
      raw = _mm256_i32gather_epi32(reinterpret_cast<const int*>(data), idx, 1);
    }
    const __m256i grams = _mm256_and_si256(fold(raw), gram_mask);
    const __m256i h = _mm256_mullo_epi32(grams, gamma);
    const __m256i widx = _mm256_and_si256(_mm256_srli_epi32(h, 10), wmask);
    const __m256i words = _mm256_i32gather_epi32(words_base, widx, 4);
    const __m256i b1 = _mm256_and_si256(h, m31);
    const __m256i b2 = _mm256_and_si256(_mm256_srli_epi32(h, 5), m31);
    const __m256i hit = _mm256_and_si256(
        _mm256_and_si256(_mm256_srlv_epi32(words, b1), _mm256_srlv_epi32(words, b2)),
        one);
    std::uint32_t m = static_cast<std::uint32_t>(_mm256_movemask_ps(
                          _mm256_castsi256_ps(_mm256_cmpeq_epi32(hit, one)))) &
                      0xFFu;
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
// data[p + 7*threshold .. p + 7*threshold + 3] and runs only while that is
// in range; the tail and the verify go through prefilter_gram.
bool screen_payload(const PrefilterView& v, const std::uint8_t* data, std::size_t len) {
  return v.threshold == 4 ? screen<true>(v, data, len) : screen<false>(v, data, len);
}

}  // namespace

PrefilterScreen prefilter_screen_avx2() { return screen_payload; }

}  // namespace vpm::core

#else  // no AVX2 toolchain support

namespace vpm::core {
PrefilterScreen prefilter_screen_avx2() { return nullptr; }
}  // namespace vpm::core

#endif
