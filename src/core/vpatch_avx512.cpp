// V-PATCH filtering kernel, AVX-512 (W = 16) — the wide-vector stand-in for
// the paper's Xeon-Phi experiments (Fig. 7): twice the lanes per gather,
// native compress stores instead of the permutation-table left-pack.
#include "core/vpatch_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <algorithm>
#include <bit>

#include "simd/avx512_ops.hpp"

namespace vpm::core {

namespace {

using namespace simd::avx512;

struct BlockMasks {
  std::uint32_t short_mask = 0;
  std::uint32_t long_mask = 0;
  std::uint32_t f2_mask = 0;
};

// The raw bytes of the 16-position block at position i: `lo` holds bytes
// [i, i+16) and `hi` bytes [i+8, i+24).
struct BlockBytes {
  __m128i lo;
  __m128i hi;
};

inline BlockBytes load_block(const std::uint8_t* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8))};
}

// The same bytes near the end of a view: only the avail (< 32) bytes at p
// are read — a masked-off byte never faults — and the rest read as zero, so
// the view's last position pairs its byte with a zero, as the scalar tail
// probe does.
inline BlockBytes load_block_tail(const std::uint8_t* p, std::size_t avail) {
  const std::uint32_t bytes = (1u << avail) - 1;
  return {_mm_maskz_loadu_epi8(static_cast<__mmask16>(bytes), p),
          _mm_maskz_loadu_epi8(static_cast<__mmask16>(bytes >> 8), p + 8)};
}

// Lanes [0, count) of a block, count clamped to the 16 lanes.
inline std::uint32_t first_lanes(std::size_t count) {
  return count >= 16 ? 0xFFFFu : (1u << count) - 1;
}

// Which lanes of a block may report: a short candidate needs its position
// inside the filtered range, a long one also its whole 4-byte window inside
// the view.
struct Lanes {
  std::uint32_t short_lanes;
  std::uint32_t long_lanes;
};
constexpr Lanes kAllLanes{0xFFFFu, 0xFFFFu};

// Hoisted kernel constants — built once per scan call, or once per BATCH in
// the batch entry point.
struct KernelConsts {
  __m256i shuffle2;
  __m256i shuffle4;
  unsigned f3_bits;
  explicit KernelConsts(const FilterBank& bank)
      : shuffle2(simd::avx2::window_shuffle_mask(2)),
        shuffle4(simd::avx2::window_shuffle_mask(4)),
        f3_bits(bank.f3_bits_log2()) {}
};

// One 16-position filtering block at base position i of d.
template <bool kMerged, bool kSpecF3>
inline BlockMasks process_block(const BlockBytes& bytes, const std::uint8_t* d, std::size_t i,
                                const FilterBank& bank, const KernelConsts& c, Lanes lanes) {
  BlockMasks r;
  const __m512i win2 = windows_of(bytes.lo, bytes.hi, c.shuffle2);

  __m512i word_f1, word_f2;
  if constexpr (kMerged) {
    const __m512i off = _mm512_slli_epi32(_mm512_srli_epi32(win2, 3), 1);
    const __m512i word = gather_u32(bank.merged_data(), off);
    word_f1 = word;
    word_f2 = _mm512_srli_epi32(word, 8);
  } else {
    const __m512i off = _mm512_srli_epi32(win2, 3);
    word_f1 = gather_u32(bank.f1_data(), off);
    word_f2 = gather_u32(bank.f2_data(), off);
  }
  r.short_mask = filter_testbits(word_f1, win2) & lanes.short_lanes;
  r.f2_mask = filter_testbits(word_f2, win2) & lanes.long_lanes;

  if (r.f2_mask != 0) {
    if constexpr (kSpecF3) {
      const __m512i win4 = windows_of(bytes.lo, bytes.hi, c.shuffle4);
      const __m512i keys = hash_mul(win4, c.f3_bits);
      const __m512i off3 = _mm512_srli_epi32(keys, 3);
      const __m512i word3 = gather_u32(bank.f3_data(), off3);
      r.long_mask = filter_testbits(word3, keys) & r.f2_mask;
    } else {
      std::uint32_t m = r.f2_mask;
      while (m != 0) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        if (bank.test_f3(util::load_u32(d + i + lane))) r.long_mask |= 1u << lane;
      }
    }
  }
  return r;
}

struct StoreToBuffers {
  CandidateBuffers* out;
  inline void on_block(std::size_t i, const BlockMasks& m) {
    if (m.short_mask != 0) {
      out->n_short += leftpack_positions(static_cast<std::uint32_t>(i), m.short_mask,
                                         out->short_pos.data() + out->n_short);
    }
    if (m.long_mask != 0) {
      out->n_long += leftpack_positions(static_cast<std::uint32_t>(i), m.long_mask,
                                        out->long_pos.data() + out->n_long);
    }
  }
};

struct CountOnly {
  std::uint64_t shorts = 0;
  std::uint64_t longs = 0;
  inline void on_block(std::size_t, const BlockMasks& m) {
    shorts += std::popcount(m.short_mask);
    longs += std::popcount(m.long_mask);
  }
};

template <bool kMerged, bool kSpecF3, typename Store>
void run_filter(const std::uint8_t* d, std::size_t begin, std::size_t end,
                std::size_t total_len, const FilterBank& bank, bool unroll2, Store& store,
                ScanStats* stats, const KernelConsts& c) {
  std::uint64_t f3_blocks = 0;
  std::uint64_t f3_lanes = 0;
  const auto filter = [&](const BlockBytes& bytes, std::size_t at, Lanes lanes) {
    const BlockMasks m = process_block<kMerged, kSpecF3>(bytes, d, at, bank, c, lanes);
    if (stats) {
      f3_blocks += (m.f2_mask != 0);
      f3_lanes += std::popcount(m.f2_mask);
    }
    return m;
  };
  std::size_t i = begin;

  // Full blocks read bytes [i, i+24); unrolled, [i, i+40).
  if (unroll2) {
    while (i + 32 <= end && i + 40 <= total_len) {
      const BlockMasks a = filter(load_block(d + i), i, kAllLanes);
      const BlockMasks b = filter(load_block(d + i + 16), i + 16, kAllLanes);
      store.on_block(i, a);
      store.on_block(i + 16, b);
      i += 32;
    }
  }
  while (i + 16 <= end && i + 24 <= total_len) {
    store.on_block(i, filter(load_block(d + i), i, kAllLanes));
    i += 16;
  }
  // The rest of the range (fewer than 24 positions) in masked blocks that
  // read only the view's own bytes.
  for (; i < end; i += 16) {
    const std::size_t long_end = total_len >= i + 4 ? std::min(end, total_len - 3) : i;
    const Lanes lanes{first_lanes(end - i), first_lanes(long_end - i)};
    const BlockBytes bytes = load_block_tail(d + i, std::min<std::size_t>(total_len - i, 24));
    store.on_block(i, filter(bytes, i, lanes));
  }

  if (stats) {
    stats->f3_blocks += f3_blocks;
    stats->f3_useful_lanes += f3_lanes;
  }
}

// One whole-batch pass with the constants hoisted across payloads.
template <bool kMerged, bool kSpecF3>
void run_filter_batch(std::span<const util::ByteView> payloads, const FilterBank& bank,
                      bool unroll2, CandidateBuffers& out, std::uint32_t* short_item,
                      std::uint32_t* long_item, std::size_t max_payload) {
  const KernelConsts c(bank);
  StoreToBuffers store{&out};
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const util::ByteView data = payloads[p];
    const std::size_t n = data.size();
    if (n == 0 || n > max_payload) continue;
    const std::uint32_t short_begin = out.n_short;
    const std::uint32_t long_begin = out.n_long;
    run_filter<kMerged, kSpecF3>(data.data(), 0, n, n, bank, unroll2, store, nullptr, c);
    const std::uint32_t packet = static_cast<std::uint32_t>(p);
    for (std::uint32_t k = short_begin; k < out.n_short; ++k) short_item[k] = packet;
    for (std::uint32_t k = long_begin; k < out.n_long; ++k) long_item[k] = packet;
  }
}

}  // namespace

void vpatch_filter_avx512(const std::uint8_t* data, std::size_t begin, std::size_t end,
                          std::size_t total_len, const FilterBank& bank, CandidateBuffers& out,
                          const KernelOptions& opt, ScanStats* stats) {
  StoreToBuffers store{&out};
  const KernelConsts c(bank);
  if (opt.merged_filters) {
    if (opt.speculative_f3)
      return run_filter<true, true>(data, begin, end, total_len, bank, opt.unroll2, store,
                                    stats, c);
    return run_filter<true, false>(data, begin, end, total_len, bank, opt.unroll2, store,
                                   stats, c);
  }
  if (opt.speculative_f3)
    return run_filter<false, true>(data, begin, end, total_len, bank, opt.unroll2, store,
                                   stats, c);
  return run_filter<false, false>(data, begin, end, total_len, bank, opt.unroll2, store,
                                  stats, c);
}

void vpatch_filter_batch_avx512(std::span<const util::ByteView> payloads,
                                const FilterBank& bank, CandidateBuffers& out,
                                std::uint32_t* short_item, std::uint32_t* long_item,
                                std::size_t max_payload, const KernelOptions& opt) {
  if (opt.merged_filters) {
    if (opt.speculative_f3)
      return run_filter_batch<true, true>(payloads, bank, opt.unroll2, out, short_item,
                                          long_item, max_payload);
    return run_filter_batch<true, false>(payloads, bank, opt.unroll2, out, short_item,
                                         long_item, max_payload);
  }
  if (opt.speculative_f3)
    return run_filter_batch<false, true>(payloads, bank, opt.unroll2, out, short_item,
                                         long_item, max_payload);
  return run_filter_batch<false, false>(payloads, bank, opt.unroll2, out, short_item,
                                        long_item, max_payload);
}

void vpatch_filter_nostore_avx512(const std::uint8_t* data, std::size_t begin,
                                  std::size_t end, std::size_t total_len,
                                  const FilterBank& bank, NoStoreCounts& counts) {
  CountOnly store;
  const KernelConsts c(bank);
  run_filter<true, true>(data, begin, end, total_len, bank, /*unroll2=*/true, store, nullptr,
                         c);
  counts.short_hits += store.shorts;
  counts.long_hits += store.longs;
}

}  // namespace vpm::core

#else  // no AVX-512 toolchain support

#include <cstdlib>

namespace vpm::core {
void vpatch_filter_avx512(const std::uint8_t*, std::size_t, std::size_t, std::size_t,
                          const FilterBank&, CandidateBuffers&, const KernelOptions&,
                          ScanStats*) {
  std::abort();
}
void vpatch_filter_batch_avx512(std::span<const util::ByteView>, const FilterBank&,
                                CandidateBuffers&, std::uint32_t*, std::uint32_t*,
                                std::size_t, const KernelOptions&) {
  std::abort();
}
void vpatch_filter_nostore_avx512(const std::uint8_t*, std::size_t, std::size_t, std::size_t,
                                  const FilterBank&, NoStoreCounts&) {
  std::abort();
}
}  // namespace vpm::core

#endif
