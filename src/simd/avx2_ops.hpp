// AVX2 (W = 8) intrinsic sequences of V-PATCH's round one (both widths),
// the AC lanes and Vector-DFC.
//
// Include only from translation units compiled with -mavx2 (guarded below).
// Everything sits in an unnamed namespace: each vector unit gets its own
// internal copy, so no definition compiled with one unit's -m flags can
// stand in for another's at link time.
#pragma once

#if !defined(__AVX2__)
#error "avx2_ops.hpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>

#include "util/hash.hpp"

namespace vpm::simd::avx2 {
namespace {

// Shuffle control producing, per 128-bit lane, four dwords of `bytes`-byte
// sliding windows (remaining dword bytes zeroed).  The raw input register
// holds the same 16 source bytes in both lanes (vbroadcasti128), so the low
// lane emits windows 0..3 and the high lane windows 4..7 — the transformation
// of the paper's Fig. 2 in a single vpshufb.
inline __m256i window_shuffle_mask(int bytes) {
  alignas(32) std::int8_t m[32];
  for (int lane = 0; lane < 2; ++lane) {
    for (int j = 0; j < 4; ++j) {
      const int start = lane * 4 + j;  // window start within the 16 raw bytes
      for (int b = 0; b < 4; ++b) {
        m[lane * 16 + j * 4 + b] =
            (b < bytes) ? static_cast<std::int8_t>(start + b) : static_cast<std::int8_t>(-1);
      }
    }
  }
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(m));
}

// W=8 sliding windows from 16 raw bytes already in a register: `shuffle`
// is window_shuffle_mask(2) or (4).  Lets a caller build windows from bytes
// it loaded itself (a masked or staged tail read).
inline __m256i windows_of(__m128i raw, __m256i shuffle) {
  return _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(raw), shuffle);
}

// W=8 sliding 2-byte windows from the 16 raw bytes at p (reads p[0..15],
// uses p[0..8]).
inline __m256i windows2(const std::uint8_t* p, __m256i shuffle2) {
  return windows_of(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), shuffle2);
}

// Hardware gather of 8 dwords at byte offsets idx[j] from base.
inline __m256i gather_u32(const std::uint8_t* base, __m256i idx) {
  return _mm256_i32gather_epi32(reinterpret_cast<const int*>(base), idx, 1);
}

// Lane-wise multiplicative hash into [0, 2^out_bits).
inline __m256i hash_mul(__m256i v, unsigned out_bits) {
  const __m256i prod = _mm256_mullo_epi32(v, _mm256_set1_epi32(static_cast<int>(util::kGoldenGamma)));
  return _mm256_srli_epi32(prod, static_cast<int>(32u - out_bits));
}

// Filter membership after a gather at byte offset (vals >> 3): test bit
// (vals & 7) of each gathered word; returns an 8-bit lane mask.
inline std::uint32_t filter_testbits(__m256i words, __m256i vals) {
  const __m256i amount = _mm256_and_si256(vals, _mm256_set1_epi32(7));
  const __m256i shifted = _mm256_srlv_epi32(words, amount);
  const __m256i bit = _mm256_and_si256(shifted, _mm256_set1_epi32(1));
  const __m256i nz = _mm256_cmpgt_epi32(bit, _mm256_setzero_si256());
  return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(nz)));
}

// Per-lane popcount of the 8 dword lanes (AVX2 has no vpopcntd): nibble-LUT
// byte counts, then a 0x01010101 multiply folds the four byte counts into
// the top byte of each dword (counts <= 8 per byte, so no carry).
inline __m256i popcount_u32(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nib = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low_nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nib);
  const __m256i cnt8 =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_srli_epi32(_mm256_mullo_epi32(cnt8, _mm256_set1_epi32(0x01010101)), 24);
}

// vpermd control table: row m lists the set-bit positions of mask m in order.
// Used to left-pack matching lane positions before the store into the
// candidate arrays (Polychroniou-style compaction; AVX2 has no vpcompressd).
struct LeftpackTable {
  alignas(32) std::uint32_t rows[256][8];
};

inline const LeftpackTable& leftpack_table() {
  static const LeftpackTable table = [] {
    LeftpackTable t{};
    for (unsigned m = 0; m < 256; ++m) {
      unsigned n = 0;
      for (unsigned j = 0; j < 8; ++j)
        if (m & (1u << j)) t.rows[m][n++] = j;
      for (; n < 8; ++n) t.rows[m][n] = 0;
    }
    return t;
  }();
  return table;
}

// Appends base_pos+j for every set bit j of mask8 to dst and returns the
// count.  Always stores 8 dwords — the destination must have >= 8 dwords of
// slack beyond the logical end (the candidate arrays reserve this).
inline unsigned leftpack_positions(std::uint32_t base_pos, std::uint32_t mask8,
                                   std::uint32_t* dst) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(leftpack_table().rows[mask8]));
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i pos = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base_pos)), iota);
  const __m256i packed = _mm256_permutevar8x32_epi32(pos, perm);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), packed);
  return static_cast<unsigned>(std::popcount(mask8));
}

}  // namespace
}  // namespace vpm::simd::avx2
