// Round one's width-generic body (Algorithm 2), private to the two vector
// kernel units: core/vpatch_avx2.cpp and core/vpatch_avx512.cpp each include
// it under their ISA guard and instantiate vpatch_kernel_table<Block>() with
// their own Block type, which provides:
//   kLanes                   W, the positions one block filters
//   kReads                   the bytes a full block reads from its base
//   Vec                      the vector of W dwords
//   load(p)                  the bytes [p, p + kReads)
//   load_tail(p, avail)      the same, reading only p[0, avail) (avail <=
//                            kReads) and zeros past them
//   windows(shuffle)         the block's W sliding 2- or 4-byte windows
//   gather, shr, shl, hash, test_bits, store_positions
//                            the simd::avx2 / simd::avx512 ops at width W
// Everything here sits in an unnamed namespace: the two units compile it
// with different -m flags, so no inline definition may be shared.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "core/vpatch_kernels.hpp"
#include "simd/avx2_ops.hpp"

namespace vpm::core {
namespace {

struct BlockMasks {
  std::uint32_t short_mask = 0;  // lanes that passed Filter 1
  std::uint32_t long_mask = 0;   // lanes that passed Filters 2 AND 3
  std::uint32_t f2_mask = 0;     // lanes that passed Filter 2 (stats)
};

// Lanes [0, count) of a block of W <= 16 lanes, count clamped to W.
template <std::size_t W>
constexpr std::uint32_t first_lanes(std::size_t count) {
  return count >= W ? (1u << W) - 1 : (1u << count) - 1;
}

// Which lanes of a block may report: a short candidate needs its position
// inside the filtered range, a long one also its whole 4-byte window inside
// the view.
struct Lanes {
  std::uint32_t short_lanes;
  std::uint32_t long_lanes;
};

// Hoisted kernel constants, built once per call — or once per BATCH in the
// batch entry, which is the point of batching small payloads.  Both widths
// build their windows with AVX2's per-128-bit-lane shuffle.
struct KernelConsts {
  __m256i shuffle2;
  __m256i shuffle4;
  unsigned f3_bits;
  explicit KernelConsts(const FilterBank& bank)
      : shuffle2(simd::avx2::window_shuffle_mask(2)),
        shuffle4(simd::avx2::window_shuffle_mask(4)),
        f3_bits(bank.f3_bits_log2()) {}
};

// One W-position filtering block at base position i of d.
template <class Block, bool kMerged, bool kSpecF3>
inline BlockMasks process_block(const Block& block, const std::uint8_t* d, std::size_t i,
                                const FilterBank& bank, const KernelConsts& c, Lanes lanes) {
  using Vec = typename Block::Vec;
  BlockMasks r;
  const Vec win2 = block.windows(c.shuffle2);

  Vec word_f1, word_f2;
  if constexpr (kMerged) {
    // One gather serves both filters: byte offset 2*(window >> 3) into the
    // interleaved layout; F1 byte in bits 0..7, F2 byte in bits 8..15.
    const Vec off = Block::shl(Block::shr(win2, 3), 1);
    const Vec word = Block::gather(bank.merged_data(), off);
    word_f1 = word;
    word_f2 = Block::shr(word, 8);
  } else {
    const Vec off = Block::shr(win2, 3);
    word_f1 = Block::gather(bank.f1_data(), off);
    word_f2 = Block::gather(bank.f2_data(), off);
  }
  r.short_mask = Block::test_bits(word_f1, win2) & lanes.short_lanes;
  r.f2_mask = Block::test_bits(word_f2, win2) & lanes.long_lanes;

  if (r.f2_mask != 0) {
    if constexpr (kSpecF3) {
      // Speculative: evaluate Filter 3 on ALL lanes, mask by Filter 2.
      const Vec keys = Block::hash(block.windows(c.shuffle4), c.f3_bits);
      const Vec word3 = Block::gather(bank.f3_data(), Block::shr(keys, 3));
      r.long_mask = Block::test_bits(word3, keys) & r.f2_mask;
    } else {
      // Ablation: per-lane scalar probes for only the useful lanes.
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

// Store policies: the real engine appends positions; the Fig. 6 no-store
// variant only counts.
template <class Block>
struct StoreToBuffers {
  CandidateBuffers* out;
  inline void on_block(std::size_t i, const BlockMasks& m) {
    if (m.short_mask != 0) {
      out->n_short += Block::store_positions(static_cast<std::uint32_t>(i), m.short_mask,
                                             out->short_pos.data() + out->n_short);
    }
    if (m.long_mask != 0) {
      out->n_long += Block::store_positions(static_cast<std::uint32_t>(i), m.long_mask,
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

template <class Block, bool kMerged, bool kSpecF3, typename Store>
void run_filter(const std::uint8_t* d, std::size_t begin, std::size_t end,
                std::size_t total_len, const FilterBank& bank, bool unroll2, Store& store,
                ScanStats* stats, const KernelConsts& c) {
  constexpr std::size_t W = Block::kLanes;
  constexpr std::size_t R = Block::kReads;
  constexpr Lanes kAllLanes{first_lanes<W>(W), first_lanes<W>(W)};
  std::uint64_t f3_blocks = 0;
  std::uint64_t f3_lanes = 0;
  const auto filter = [&](const Block& block, std::size_t at, Lanes lanes) {
    const BlockMasks m = process_block<Block, kMerged, kSpecF3>(block, d, at, bank, c, lanes);
    if (stats) {
      f3_blocks += (m.f2_mask != 0);
      f3_lanes += std::popcount(m.f2_mask);
    }
    return m;
  };
  std::size_t i = begin;

  // Full blocks read bytes [i, i+R); unrolled, [i, i+W+R).
  if (unroll2) {
    // Two independent blocks per iteration: the second block's computation
    // overlaps the first block's gather latency (§IV-B).
    while (i + 2 * W <= end && i + W + R <= total_len) {
      const BlockMasks a = filter(Block::load(d + i), i, kAllLanes);
      const BlockMasks b = filter(Block::load(d + i + W), i + W, kAllLanes);
      store.on_block(i, a);
      store.on_block(i + W, b);
      i += 2 * W;
    }
  }
  while (i + W <= end && i + R <= total_len) {
    store.on_block(i, filter(Block::load(d + i), i, kAllLanes));
    i += W;
  }
  // The rest of the range (fewer than R positions) in tail blocks, which
  // read only the view's own bytes: the last position pairs its byte with a
  // zero, as S-PATCH's tail probe does.
  for (; i < end; i += W) {
    const std::size_t long_end = total_len >= i + 4 ? std::min(end, total_len - 3) : i;
    const Lanes lanes{first_lanes<W>(end - i), first_lanes<W>(long_end - i)};
    const Block block = Block::load_tail(d + i, std::min(total_len - i, R));
    store.on_block(i, filter(block, i, lanes));
  }

  if (stats) {
    stats->f3_blocks += f3_blocks;
    stats->f3_useful_lanes += f3_lanes;
  }
}

// One whole-batch pass: the constants stay in registers across payloads.
template <class Block, bool kMerged, bool kSpecF3>
void run_filter_batch(std::span<const util::ByteView> payloads, const FilterBank& bank,
                      bool unroll2, CandidateBuffers& out, std::uint32_t* short_item,
                      std::uint32_t* long_item, std::size_t max_payload) {
  const KernelConsts c(bank);
  StoreToBuffers<Block> store{&out};
  filter_each_payload(payloads, out, short_item, long_item, max_payload,
                      [&](const std::uint8_t* d, std::size_t n) {
                        run_filter<Block, kMerged, kSpecF3>(d, 0, n, n, bank, unroll2, store,
                                                            nullptr, c);
                      });
}

// Calls body(merged, speculative) with opt's two template-selected choices
// as std::bool_constant arguments.
template <class Body>
void with_options(const KernelOptions& opt, Body&& body) {
  if (opt.merged_filters) {
    if (opt.speculative_f3) return body(std::true_type{}, std::true_type{});
    return body(std::true_type{}, std::false_type{});
  }
  if (opt.speculative_f3) return body(std::false_type{}, std::true_type{});
  return body(std::false_type{}, std::false_type{});
}

// The table entries at one width (see VpatchKernel).
template <class Block>
struct Kernel {
  static void filter(const std::uint8_t* data, std::size_t begin, std::size_t end,
                     std::size_t total_len, const FilterBank& bank, CandidateBuffers& out,
                     const KernelOptions& opt, ScanStats* stats) {
    StoreToBuffers<Block> store{&out};
    const KernelConsts c(bank);
    with_options(opt, [&](auto merged, auto spec) {
      run_filter<Block, decltype(merged)::value, decltype(spec)::value>(
          data, begin, end, total_len, bank, opt.unroll2, store, stats, c);
    });
  }

  static void filter_batch(std::span<const util::ByteView> payloads, const FilterBank& bank,
                           CandidateBuffers& out, std::uint32_t* short_item,
                           std::uint32_t* long_item, std::size_t max_payload,
                           const KernelOptions& opt) {
    with_options(opt, [&](auto merged, auto spec) {
      run_filter_batch<Block, decltype(merged)::value, decltype(spec)::value>(
          payloads, bank, opt.unroll2, out, short_item, long_item, max_payload);
    });
  }

  static void filter_nostore(const std::uint8_t* data, std::size_t begin, std::size_t end,
                             std::size_t total_len, const FilterBank& bank,
                             NoStoreCounts& counts) {
    CountOnly store;
    const KernelConsts c(bank);
    run_filter<Block, true, true>(data, begin, end, total_len, bank, /*unroll2=*/true, store,
                                  nullptr, c);
    counts.short_hits += store.shorts;
    counts.long_hits += store.longs;
  }
};

template <class Block>
const VpatchKernel* vpatch_kernel_table() {
  static constexpr VpatchKernel kTable{Kernel<Block>::filter, Kernel<Block>::filter_batch,
                                       Kernel<Block>::filter_nostore};
  return &kTable;
}

}  // namespace
}  // namespace vpm::core
