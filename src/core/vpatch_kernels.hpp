// ISA-specific V-PATCH filtering kernels (Algorithm 2), linked from
// translation units compiled with the matching -m flags.
//
// Contract shared by all kernels:
//   * filter every position of [begin, end) of data (end <= total_len); a
//     position's 2-byte window is (data[p], data[p+1]), with a zero for the
//     second byte at p = total_len - 1 (only 1-byte patterns can start
//     there), and a position reports a long candidate only when its 4-byte
//     window fits (p + 4 <= total_len) — the candidates, in position order,
//     are exactly those of the Isa::scalar width (S-PATCH), whose loop and
//     tail probe are file-local to vpatch.cpp;
//   * read only bytes [begin, total_len): the positions the full-width loop
//     cannot reach get one more block whose bytes come from a masked load
//     (AVX-512) or a zeroed stack copy (AVX2);
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

// Ablation knobs for the kernel's three design choices, each measured
// against its alternative by bench/ablation_design.cpp.  The defaults are
// the paper's configuration.
struct KernelOptions {
  bool unroll2 = true;          // 2x manual unroll (two gather chains in flight)
  bool merged_filters = true;   // one gather for F1+F2 vs two separate gathers
  bool speculative_f3 = true;   // all-lane F3 + mask vs per-lane scalar probes
};

// AVX2, W = 8. Requires simd::cpu().has_avx2_kernel().
void vpatch_filter_avx2(const std::uint8_t* data, std::size_t begin, std::size_t end,
                        std::size_t total_len, const FilterBank& bank, CandidateBuffers& out,
                        const KernelOptions& opt, ScanStats* stats);

// AVX-512, W = 16. Requires simd::cpu().has_avx512_kernel().
void vpatch_filter_avx512(const std::uint8_t* data, std::size_t begin, std::size_t end,
                          std::size_t total_len, const FilterBank& bank, CandidateBuffers& out,
                          const KernelOptions& opt, ScanStats* stats);

// Whole-batch round one (the scan_batch fast path): filters every position
// of every payload with size() <= max_payload into the shared candidate
// pool, appending each candidate's payload index to short_item / long_item
// in step (slack contract as above, caller provides pool-sized item
// arrays).  Kernel constants (shuffle masks, filter pointers, F3 hash bits)
// are hoisted across the batch, so the per-call setup a small-packet scan()
// pays per payload is paid once per batch.  Empty and oversized payloads are
// skipped (the caller scans oversized ones through the chunked per-payload
// path).
void vpatch_filter_batch_avx2(std::span<const util::ByteView> payloads,
                              const FilterBank& bank, CandidateBuffers& out,
                              std::uint32_t* short_item, std::uint32_t* long_item,
                              std::size_t max_payload, const KernelOptions& opt);
void vpatch_filter_batch_avx512(std::span<const util::ByteView> payloads,
                                const FilterBank& bank, CandidateBuffers& out,
                                std::uint32_t* short_item, std::uint32_t* long_item,
                                std::size_t max_payload, const KernelOptions& opt);

// Filtering with the candidate stores suppressed — the "V-PATCH-filtering"
// series of Fig. 6 (counts survive; the position writes do not happen).
struct NoStoreCounts {
  std::uint64_t short_hits = 0;
  std::uint64_t long_hits = 0;
};
void vpatch_filter_nostore_avx2(const std::uint8_t* data, std::size_t begin, std::size_t end,
                                std::size_t total_len, const FilterBank& bank,
                                NoStoreCounts& counts);
void vpatch_filter_nostore_avx512(const std::uint8_t* data, std::size_t begin,
                                  std::size_t end, std::size_t total_len,
                                  const FilterBank& bank, NoStoreCounts& counts);

}  // namespace vpm::core
