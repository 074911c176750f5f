// V-PATCH filtering kernel, AVX-512 (W = 16) — the wide-vector stand-in for
// the paper's Xeon-Phi experiments (Fig. 7): twice the lanes per gather,
// native compress stores instead of the permutation-table left-pack.
#include "core/vpatch_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include "core/vpatch_round_one.hpp"
#include "simd/avx512_ops.hpp"

namespace vpm::core {
namespace {

// The 16-position block at position i: `lo` holds bytes [i, i+16) and `hi`
// bytes [i+8, i+24).
struct Block {
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kReads = 24;
  using Vec = __m512i;

  __m128i lo;
  __m128i hi;

  static Block load(const std::uint8_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8))};
  }
  // A masked-off byte never faults, and reads as zero.
  static Block load_tail(const std::uint8_t* p, std::size_t avail) {
    const std::uint32_t bytes = (1u << avail) - 1;
    return {_mm_maskz_loadu_epi8(static_cast<__mmask16>(bytes), p),
            _mm_maskz_loadu_epi8(static_cast<__mmask16>(bytes >> 8), p + 8)};
  }

  Vec windows(__m256i shuffle) const { return simd::avx512::windows_of(lo, hi, shuffle); }
  static Vec gather(const std::uint8_t* base, Vec off) {
    return simd::avx512::gather_u32(base, off);
  }
  static Vec shr(Vec v, unsigned n) { return _mm512_srli_epi32(v, n); }
  static Vec shl(Vec v, unsigned n) { return _mm512_slli_epi32(v, n); }
  static Vec hash(Vec v, unsigned bits) { return simd::avx512::hash_mul(v, bits); }
  static std::uint32_t test_bits(Vec words, Vec vals) {
    return simd::avx512::filter_testbits(words, vals);
  }
  static unsigned store_positions(std::uint32_t base, std::uint32_t mask, std::uint32_t* dst) {
    return simd::avx512::leftpack_positions(base, mask, dst);
  }
};

}  // namespace

const VpatchKernel* vpatch_kernel_avx512() { return vpatch_kernel_table<Block>(); }

}  // namespace vpm::core

#else  // no AVX-512 toolchain support

namespace vpm::core {
const VpatchKernel* vpatch_kernel_avx512() { return nullptr; }
}  // namespace vpm::core

#endif
