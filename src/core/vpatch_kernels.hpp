// V-PATCH's round one (Algorithm 2) behind one function-pointer table per
// width: AVX2 (W = 8) and AVX-512 (W = 16) in translation units compiled
// with the matching -m flags, and S-PATCH's scalar loop (file-local to
// vpatch.cpp).  A VpatchMatcher picks its table once, in its constructor.
//
// The two vector widths share one body, core/vpatch_round_one.hpp, which
// each unit instantiates with its own `Block`: the W-position filtering
// block's full load, its tail load (AVX-512: a masked load; AVX2: a zeroed
// stack copy) and thin wrappers over the simd::avx2 / simd::avx512 ops.
//
// Contract shared by all tables:
//   * filter every position of [begin, end) of data (end <= total_len); a
//     position's 2-byte window is (data[p], data[p+1]), with a zero for the
//     second byte at p = total_len - 1 (only 1-byte patterns can start
//     there), and a position reports a long candidate only when its 4-byte
//     window fits (p + 4 <= total_len) — the candidates, in position order,
//     are exactly those of the Isa::scalar width (S-PATCH);
//   * read only bytes [begin, total_len): the positions the full-width loop
//     cannot reach get one more block per W positions whose bytes come
//     from the Block's tail load;
//   * append hit positions to out.short_pos / out.long_pos (left-pack stores
//     may write a full vector of slack past the logical end);
//   * when stats is non-null, record speculative Filter-3 lane utilization.
#pragma once

#include <cstdint>
#include <span>

#include "core/candidates.hpp"
#include "core/filter_bank.hpp"
#include "core/scan_stats.hpp"

namespace vpm::core {

// Filtering with the candidate stores suppressed — the "V-PATCH-filtering"
// series of Fig. 6 (counts survive; the position writes do not happen).
struct NoStoreCounts {
  std::uint64_t short_hits = 0;
  std::uint64_t long_hits = 0;
};

struct VpatchKernel {
  // Round one over positions [begin, end) of a view of total_len bytes.
  void (*filter)(const std::uint8_t* data, std::size_t begin, std::size_t end,
                 std::size_t total_len, const FilterBank& bank, CandidateBuffers& out,
                 ScanStats* stats);
  // Whole-batch round one (the scan_batch fast path): filters every position
  // of every payload with 0 < size() <= max_payload into the shared
  // candidate pool, appending each candidate's payload index to short_item /
  // long_item in step (slack contract as above, caller provides pool-sized
  // item arrays).  Kernel constants (shuffle masks, filter pointers, F3 hash
  // bits) are hoisted across the batch, so the per-call setup a small-packet
  // scan() pays per payload is paid once per batch.  The caller scans the
  // oversized payloads through the chunked per-payload path.
  void (*filter_batch)(std::span<const util::ByteView> payloads, const FilterBank& bank,
                       CandidateBuffers& out, std::uint32_t* short_item,
                       std::uint32_t* long_item, std::size_t max_payload);
  // Counts what `filter` would store.
  void (*filter_nostore)(const std::uint8_t* data, std::size_t begin, std::size_t end,
                         std::size_t total_len, const FilterBank& bank, NoStoreCounts& counts);
};

// The vector tables; null when the library was compiled without the
// width's -m flags.  Call one only when simd::cpu() reports its kernel.
const VpatchKernel* vpatch_kernel_avx2();    // W = 8
const VpatchKernel* vpatch_kernel_avx512();  // W = 16

// Every filter_batch's payload loop: runs filter(data, n), round one over
// every position of one payload appending to `out`, on each payload with
// 0 < n <= max_payload, and tags the candidates it appended with the
// payload's index.
template <class Filter>
void filter_each_payload(std::span<const util::ByteView> payloads, CandidateBuffers& out,
                         std::uint32_t* short_item, std::uint32_t* long_item,
                         std::size_t max_payload, Filter&& filter) {
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const util::ByteView data = payloads[p];
    const std::size_t n = data.size();
    if (n == 0 || n > max_payload) continue;
    const std::uint32_t short_begin = out.n_short;
    const std::uint32_t long_begin = out.n_long;
    filter(data.data(), n);
    const std::uint32_t packet = static_cast<std::uint32_t>(p);
    for (std::uint32_t k = short_begin; k < out.n_short; ++k) short_item[k] = packet;
    for (std::uint32_t k = long_begin; k < out.n_long; ++k) long_item[k] = packet;
  }
}

}  // namespace vpm::core
