// Kernel-side contract of the approximate q-gram prefilter (core/prefilter).
//
// A payload PASSES the screen iff it contains a run of at least `threshold`
// CONSECUTIVE positions whose q-gram hits the blocked-Bloom signature.  A
// pattern of length L >= q contributes L-q+1 consecutive hitting positions
// wherever it occurs, and threshold is built as
// min(min_pattern_len - q + 1, cap), so every payload containing any
// pattern occurrence passes: rejection is exact, passing is approximate.
//
// Probe (shared bit-for-bit by the build, the scalar screen, and both
// vector kernels): h = gram * kGoldenGamma; the word at ((h >> 10) &
// word_mask) must have BOTH bit (h & 31) and bit ((h >> 5) & 31) set.
// Grams are little-endian windows of case-FOLDED bytes (q = 3 masks the
// top byte off a 4-byte load), so nocase and exact-case patterns screen
// through one signature.
//
// Probing is STRIDED: any threshold consecutive integers contain a multiple
// of threshold, so probing only positions 0, T, 2T, ... cannot miss a
// qualifying run — a hit at a strided position is then verified by scanning
// its neighborhood for the full run.  On the dominant reject path this cuts
// the probe count (and the signature gathers) by a factor of threshold.
//
// Read contract: every screen reads the payload in place, and every read
// of every path (vector block, scalar tail, neighborhood verify) stays
// inside [data, data + len) of the view it screens: no padding, no copy.
// The vector kernels fold ASCII case in registers; the scalar paths fold
// through prefilter_gram.  The kernels are compiled per-ISA in
// prefilter_avx2.cpp / prefilter_avx512.cpp, each of which exports only its
// getter below.  The inline helpers sit in an unnamed namespace, because the
// vector units compile them with their own -m flags.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/hash.hpp"

namespace vpm::core {

// The probe-side view of a built signature (points into Prefilter storage).
struct PrefilterView {
  const std::uint32_t* words = nullptr;
  std::uint32_t word_mask = 0;  // word_count - 1 (word_count is a power of 2)
  std::uint32_t q = 0;          // 3 or 4
  std::uint32_t threshold = 0;  // required consecutive-hit run length, >= 1
};

// A whole-payload screen of a raw payload with len >= q (see the read
// contract above).
using PrefilterScreen = bool (*)(const PrefilterView& v, const std::uint8_t* data,
                                 std::size_t len);

// The vectorized screens; null when the library was compiled without the
// width's -m flags.  Call one only when simd::cpu() reports its kernel.
PrefilterScreen prefilter_screen_avx2();    // 8 strided probes per block
PrefilterScreen prefilter_screen_avx512();  // 16 strided probes per block

namespace {

inline bool prefilter_probe(const PrefilterView& v, std::uint32_t gram) {
  const std::uint32_t h = gram * util::kGoldenGamma;
  const std::uint32_t w = v.words[(h >> 10) & v.word_mask];
  return ((w >> (h & 31u)) & (w >> ((h >> 5) & 31u)) & 1u) != 0;
}

// Folds ASCII upper case in each byte of a little-endian word: bytes 'A'..'Z'
// get +0x20 and nothing else changes (util::ascii_lower, four at a time).
constexpr std::uint32_t prefilter_fold4(std::uint32_t x) {
  const std::uint32_t low7 = x & 0x7F7F7F7Fu;
  const std::uint32_t ge_a = low7 + 0x3F3F3F3Fu;  // high bit: low7 >= 'A'
  const std::uint32_t gt_z = low7 + 0x25252525u;  // high bit: low7 > 'Z'
  const std::uint32_t upper = (ge_a ^ gt_z) & ~x & 0x80808080u;
  return x | (upper >> 2);
}

// The folded q-gram at position p <= len - q of a raw payload: loads
// min(4, len - p) bytes, so it never reads past data[len - 1].  Serves the
// scalar screen, the kernels' tails and the neighborhood verify.
inline std::uint32_t prefilter_gram(const PrefilterView& v, const std::uint8_t* data,
                                    std::size_t p, std::size_t len) {
  const std::uint32_t raw =
      len - p >= 4 ? util::load_u32(data + p) : util::load_le(data + p, 3);
  return prefilter_fold4(raw) & (v.q == 4 ? 0xFFFFFFFFu : 0x00FFFFFFu);
}

// Verify step after a strided hit at position p (which must itself hit):
// extend the hit run left and right until it either reaches threshold or
// breaks.  Extension stops as soon as the run qualifies, so the scan cost is
// bounded by threshold regardless of how long the true run is.
inline bool prefilter_verify_run(const PrefilterView& v, const std::uint8_t* data,
                                 std::size_t len, std::size_t p) {
  const std::size_t positions = len - v.q + 1;
  std::size_t l = p;
  std::size_t r = p + 1;
  while (l > 0 && r - l < v.threshold &&
         prefilter_probe(v, prefilter_gram(v, data, l - 1, len))) {
    --l;
  }
  while (r < positions && r - l < v.threshold &&
         prefilter_probe(v, prefilter_gram(v, data, r, len))) {
    ++r;
  }
  return r - l >= v.threshold;
}

// Scalar strided screen of a raw payload (len >= q) from position `start`
// (a multiple of threshold, so the stride lattice stays aligned with the
// callers' vector blocks) to the end.  The whole scalar screen is this from
// position 0; the kernels finish their last partial block with it.
inline bool prefilter_screen_tail(const PrefilterView& v, const std::uint8_t* data,
                                  std::size_t len, std::size_t start) {
  const std::size_t positions = len - v.q + 1;
  for (std::size_t p = start; p < positions; p += v.threshold) {
    if (prefilter_probe(v, prefilter_gram(v, data, p, len)) &&
        prefilter_verify_run(v, data, len, p)) {
      return true;
    }
  }
  return false;
}

}  // namespace
}  // namespace vpm::core
