// V-PATCH — the vectorized pattern matcher (paper §IV-B) — and S-PATCH, the
// scalar restructuring of DFC that it vectorizes (§IV-A, Algorithm 1): one
// class, S-PATCH being its Isa::scalar width.
//
// Round one filters each input chunk: a short-pattern (1-3 B) position must
// pass Filter 1, a long-pattern position Filter 2 and the hashed 4-byte
// Filter 3, before it is stored.  Filter 3 is sized per working set
// (core/filter_bank.hpp), so its fill, and with it the share of positions
// it passes by collision, stays at or below 1.5%.  Round two is DFC's
// scalar verification over the stored candidate positions ("the
// verification round is as in DFC", §IV-A2): long candidates through
// dfc::LongTable, short ones through dfc::ShortTable after its branch-free
// pre-pass over the span of candidates, which drops those whose 2-byte
// window starts no 1- or 2-byte pattern and whose hashed 3-byte window
// starts no 3-byte pattern: Filter 1 tests only two bytes.  Only the span
// entries (verify_span, verify_flat) run the pre-pass; DFC's per-position
// verify_at does not.  Splitting the rounds keeps the filters
// cache-resident during round one and keeps scalar verification out of the
// vector code.
//
// The constructor picks round one's kernel table once (core/vpatch_kernels.hpp):
// the AVX-512 (W=16) or AVX2 (W=8) table, whose kernels share one
// width-generic body and differ only in their Block type, or at Isa::scalar
// S-PATCH's own scalar loop, the reference the tests check the vector
// candidates against.  Every scan path calls through that table.  The unroll
// factor, filter merging and speculative-Filter-3 evaluation are
// configurable so the ablation benches can isolate each design decision.
//
// Batch fast path (scan_batch) and the deferred-verification contract:
// round one runs across ALL payloads of a batch, appending candidates to one
// shared, caller-owned candidate pool segmented per payload (each candidate
// carries its payload index; positions stay payload-relative).  Verification
// is then DEFERRED into a single round over the whole pool, whose long pass
// prefetches each level of the compact table for every candidate before
// any candidate needs it (dfc::LongTable::verify_flat).  Consequences
// callers rely on:
//   * per-payload match multisets equal scan(), but matches of one payload
//     arrive in two bursts (short pass, then long pass) interleaved with
//     other payloads' matches — consumers must not assume payload-contiguous
//     emission;
//   * candidate slack stores (a full vector per left-pack) land in the pool
//     region the NEXT payload's round one immediately overwrites, which is
//     why the pool needs total-batch-positions + kStoreSlack capacity, not
//     per-payload slack;
//   * payload views must stay valid until scan_batch returns (verification
//     re-reads payload bytes), and payloads longer than cfg.chunk_size take
//     the chunked per-payload scan() path so the pool stays bounded.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/candidates.hpp"
#include "core/filter_bank.hpp"
#include "core/scan_stats.hpp"
#include "core/vpatch_kernels.hpp"
#include "dfc/compact_table.hpp"
#include "match/matcher.hpp"

namespace vpm::core {

enum class Isa : std::uint8_t {
  scalar,  // no vector kernel: S-PATCH
  avx2,    // W = 8 (the paper's Haswell configuration)
  avx512,  // W = 16 (the paper's Xeon-Phi configuration, on AVX-512 hosts)
  best,    // widest available at runtime
};

std::string_view isa_name(Isa isa);
// Resolves `best` to the widest kernel the CPU supports; returns `scalar`
// when no vector kernel is available.
Isa resolve_isa(Isa requested);
bool isa_supported(Isa isa);

struct VpatchConfig {
  FilterBankConfig filters{};
  // Input positions filtered per round-one pass before verification runs;
  // sized so the candidate arrays stay cache-resident next to the filters.
  std::size_t chunk_size = 32 * 1024;
  Isa isa = Isa::best;
  KernelOptions kernel{};
};

class VpatchMatcher final : public Matcher {
 public:
  // Throws std::runtime_error if cfg.isa names a kernel the CPU lacks.
  explicit VpatchMatcher(const pattern::PatternSet& set, VpatchConfig cfg = {});

  void scan(util::ByteView data, MatchSink& sink) const override;
  // The batch fast path: one filtering round over every payload, one
  // deferred prefetch-pipelined verification round (see the header comment).
  void scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink,
                  ScanScratch& scratch) const override;
  std::string_view name() const override;
  std::size_t memory_bytes() const override {
    return bank_.memory_bytes() + short_table_.memory_bytes() + long_table_.memory_bytes();
  }

  // Instrumented scan for the Fig. 5b filtering/verification time split.
  void scan_with_stats(util::ByteView data, MatchSink& sink, ScanStats& stats) const;

  // Round one in isolation (Fig. 6): with_stores=true exercises the real
  // kernel including candidate stores; false uses the no-store variant.
  // The scratch overload reuses caller-owned candidate buffers so repeated
  // calls (the Fig. 6 measurement loop) allocate nothing.
  struct FilterOnlyResult {
    std::uint64_t short_candidates = 0;
    std::uint64_t long_candidates = 0;
  };
  FilterOnlyResult filter_only(util::ByteView data, bool with_stores) const;
  FilterOnlyResult filter_only(util::ByteView data, bool with_stores,
                               ScanScratch& scratch) const;

  Isa isa() const { return isa_; }
  unsigned vector_width() const;
  const FilterBank& filter_bank() const { return bank_; }
  const VpatchConfig& config() const { return cfg_; }

 private:
  template <bool kWithStats>
  void scan_impl(util::ByteView data, MatchSink& sink, ScanStats* stats) const;

  VpatchConfig cfg_;
  Isa isa_;
  const VpatchKernel* kernel_;  // round one at isa_
  FilterBank bank_;
  dfc::ShortTable short_table_;
  dfc::LongTable long_table_;
};

}  // namespace vpm::core
