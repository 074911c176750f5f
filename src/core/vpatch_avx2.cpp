// V-PATCH filtering kernel, AVX2 (W = 8) — the paper's Haswell target.
#include "core/vpatch_kernels.hpp"

#if defined(__AVX2__)

#include <cstring>

#include "core/vpatch_round_one.hpp"
#include "simd/avx2_ops.hpp"

namespace vpm::core {
namespace {

// The 8-position block at position i: bytes [i, i+16).
struct Block {
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kReads = 16;
  using Vec = __m256i;

  __m128i raw;

  static Block load(const std::uint8_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  // AVX2 has no masked byte load: the bytes go through a zeroed stack copy.
  static Block load_tail(const std::uint8_t* p, std::size_t avail) {
    alignas(16) std::uint8_t tail[kReads] = {};
    std::memcpy(tail, p, avail);
    return load(tail);
  }

  Vec windows(__m256i shuffle) const { return simd::avx2::windows_of(raw, shuffle); }
  static Vec gather(const std::uint8_t* base, Vec off) {
    return simd::avx2::gather_u32(base, off);
  }
  static Vec shr(Vec v, unsigned n) { return _mm256_srli_epi32(v, static_cast<int>(n)); }
  static Vec shl(Vec v, unsigned n) { return _mm256_slli_epi32(v, static_cast<int>(n)); }
  static Vec hash(Vec v, unsigned bits) { return simd::avx2::hash_mul(v, bits); }
  static std::uint32_t test_bits(Vec words, Vec vals) {
    return simd::avx2::filter_testbits(words, vals);
  }
  static unsigned store_positions(std::uint32_t base, std::uint32_t mask, std::uint32_t* dst) {
    return simd::avx2::leftpack_positions(base, mask, dst);
  }
};

}  // namespace

const VpatchKernel* vpatch_kernel_avx2() { return vpatch_kernel_table<Block>(); }

}  // namespace vpm::core

#else  // !__AVX2__

namespace vpm::core {
const VpatchKernel* vpatch_kernel_avx2() { return nullptr; }
}  // namespace vpm::core

#endif
