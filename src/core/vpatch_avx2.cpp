// V-PATCH filtering kernel, AVX2 (W = 8) — the paper's Haswell target.
#include "core/vpatch_kernels.hpp"

#if defined(__AVX2__)

#include <algorithm>
#include <bit>
#include <cstring>

#include "simd/avx2_ops.hpp"

namespace vpm::core {

namespace {

using namespace simd::avx2;

struct BlockMasks {
  std::uint32_t short_mask = 0;  // lanes that passed Filter 1
  std::uint32_t long_mask = 0;   // lanes that passed Filters 2 AND 3
  std::uint32_t f2_mask = 0;     // lanes that passed Filter 2 (stats)
};

inline __m128i load_block(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Lanes [0, count) of a block, count clamped to the 8 lanes.
inline std::uint32_t first_lanes(std::size_t count) {
  return count >= 8 ? 0xFFu : (1u << count) - 1;
}

// Which lanes of a block may report: a short candidate needs its position
// inside the filtered range, a long one also its whole 4-byte window inside
// the view.
struct Lanes {
  std::uint32_t short_lanes;
  std::uint32_t long_lanes;
};
constexpr Lanes kAllLanes{0xFFu, 0xFFu};

// Hoisted kernel constants, built once per scan call — or once per BATCH in
// the batch entry point, which is the point of batching small payloads.
struct KernelConsts {
  __m256i shuffle2;
  __m256i shuffle4;
  unsigned f3_bits;
  explicit KernelConsts(const FilterBank& bank)
      : shuffle2(window_shuffle_mask(2)),
        shuffle4(window_shuffle_mask(4)),
        f3_bits(bank.f3_bits_log2()) {}
};

// One 8-position filtering block at base position i of d (Algorithm 2
// body); `raw` holds bytes [i, i+16).
template <bool kMerged, bool kSpecF3>
inline BlockMasks process_block(__m128i raw, const std::uint8_t* d, std::size_t i,
                                const FilterBank& bank, const KernelConsts& c, Lanes lanes) {
  BlockMasks r;
  const __m256i win2 = windows_of(raw, c.shuffle2);

  __m256i word_f1, word_f2;
  if constexpr (kMerged) {
    // One gather serves both filters: byte offset 2*(window >> 3) into the
    // interleaved layout; F1 byte in bits 0..7, F2 byte in bits 8..15.
    const __m256i off = _mm256_slli_epi32(_mm256_srli_epi32(win2, 3), 1);
    const __m256i word = gather_u32(bank.merged_data(), off);
    word_f1 = word;
    word_f2 = _mm256_srli_epi32(word, 8);
  } else {
    const __m256i off = _mm256_srli_epi32(win2, 3);
    word_f1 = gather_u32(bank.f1_data(), off);
    word_f2 = gather_u32(bank.f2_data(), off);
  }
  r.short_mask = filter_testbits(word_f1, win2) & lanes.short_lanes;
  r.f2_mask = filter_testbits(word_f2, win2) & lanes.long_lanes;

  if (r.f2_mask != 0) {
    if constexpr (kSpecF3) {
      // Speculative: evaluate Filter 3 on ALL lanes, mask by Filter 2.
      const __m256i win4 = windows_of(raw, c.shuffle4);
      const __m256i keys = hash_mul(win4, c.f3_bits);
      const __m256i off3 = _mm256_srli_epi32(keys, 3);
      const __m256i word3 = gather_u32(bank.f3_data(), off3);
      r.long_mask = filter_testbits(word3, keys) & r.f2_mask;
    } else {
      // Ablation: per-lane scalar probes for only the useful lanes.
      std::uint32_t m = r.f2_mask;
      while (m != 0) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        const std::uint32_t w4 = util::load_u32(d + i + lane);
        if (bank.test_f3(w4)) r.long_mask |= 1u << lane;
      }
    }
  }
  return r;
}

// Store policies: the real engine appends positions; the Fig. 6 no-store
// variant only counts.
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
  const auto filter = [&](__m128i raw, std::size_t at, Lanes lanes) {
    const BlockMasks m = process_block<kMerged, kSpecF3>(raw, d, at, bank, c, lanes);
    if (stats) {
      f3_blocks += (m.f2_mask != 0);
      f3_lanes += std::popcount(m.f2_mask);
    }
    return m;
  };
  std::size_t i = begin;

  // Full blocks read bytes [i, i+16); unrolled, [i, i+24).
  if (unroll2) {
    // Two independent 8-lane blocks per iteration: the second block's
    // computation overlaps the first block's gather latency (§IV-B).
    while (i + 16 <= end && i + 24 <= total_len) {
      const BlockMasks a = filter(load_block(d + i), i, kAllLanes);
      const BlockMasks b = filter(load_block(d + i + 8), i + 8, kAllLanes);
      store.on_block(i, a);
      store.on_block(i + 8, b);
      i += 16;
    }
  }
  while (i + 8 <= end && i + 16 <= total_len) {
    store.on_block(i, filter(load_block(d + i), i, kAllLanes));
    i += 8;
  }
  // The rest of the range (fewer than 16 positions) reads a zeroed stack
  // copy of the view's next bytes, so no load leaves the view and the last
  // position pairs its byte with a zero, as the scalar tail probe does.
  if (i < end) {
    alignas(16) std::uint8_t tail[32] = {};
    std::memcpy(tail, d + i, std::min<std::size_t>(total_len - i, 24));
    const std::size_t long_end = total_len >= i + 4 ? std::min(end, total_len - 3) : i;
    for (std::size_t k = 0; i + k < end; k += 8) {
      const Lanes lanes{first_lanes(end - i - k), first_lanes(std::max(long_end, i + k) - i - k)};
      store.on_block(i + k, filter(load_block(tail + k), i + k, lanes));
    }
  }

  if (stats) {
    stats->f3_blocks += f3_blocks;
    stats->f3_useful_lanes += f3_lanes;
  }
}

// One whole-batch pass: constants live in registers across payloads.
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

void vpatch_filter_avx2(const std::uint8_t* data, std::size_t begin, std::size_t end,
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

void vpatch_filter_batch_avx2(std::span<const util::ByteView> payloads,
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

void vpatch_filter_nostore_avx2(const std::uint8_t* data, std::size_t begin, std::size_t end,
                                std::size_t total_len, const FilterBank& bank,
                                NoStoreCounts& counts) {
  CountOnly store;
  const KernelConsts c(bank);
  run_filter<true, true>(data, begin, end, total_len, bank, /*unroll2=*/true, store, nullptr,
                         c);
  counts.short_hits += store.shorts;
  counts.long_hits += store.longs;
}

}  // namespace vpm::core

#else  // !__AVX2__

#include <cstdlib>

namespace vpm::core {
void vpatch_filter_avx2(const std::uint8_t*, std::size_t, std::size_t, std::size_t,
                        const FilterBank&, CandidateBuffers&, const KernelOptions&, ScanStats*) {
  std::abort();
}
void vpatch_filter_batch_avx2(std::span<const util::ByteView>, const FilterBank&,
                              CandidateBuffers&, std::uint32_t*, std::uint32_t*, std::size_t,
                              const KernelOptions&) {
  std::abort();
}
void vpatch_filter_nostore_avx2(const std::uint8_t*, std::size_t, std::size_t, std::size_t,
                                const FilterBank&, NoStoreCounts&) {
  std::abort();
}
}  // namespace vpm::core

#endif
