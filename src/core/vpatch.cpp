#include "core/vpatch.hpp"

#include <algorithm>
#include <type_traits>

#include "simd/cpu_features.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace vpm::core {
namespace {

// S-PATCH's round one: filters positions [begin, end) of data (end <=
// total_len - 1; every position has a full 2-byte window) into `out`.  One
// 2-byte load of the merged layout serves both Filter 1 (low byte) and
// Filter 2 (high byte).
void spatch_filter_scalar(const std::uint8_t* data, std::size_t begin, std::size_t end,
                          std::size_t total_len, const FilterBank& bank,
                          CandidateBuffers& out) {
  const std::uint8_t* merged = bank.merged_data();
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t window = util::load_u16(data + i);
    const std::uint32_t word = util::load_u16(merged + 2 * (window >> 3));
    const std::uint32_t bit = window & 7u;
    if ((word >> bit) & 1u) {
      out.short_pos[out.n_short++] = static_cast<std::uint32_t>(i);
    }
    if ((word >> (bit + 8)) & 1u && i + 4 <= total_len) {
      const std::uint32_t window4 = util::load_u32(data + i);
      if (bank.test_f3(window4)) {
        out.long_pos[out.n_long++] = static_cast<std::uint32_t>(i);
      }
    }
  }
}

// The zero-padded final-position probe (only 1..3-byte patterns can start at
// the last bytes; 1-byte wildcard expansion makes the padded test exact).
void spatch_filter_tail(const std::uint8_t* data, std::size_t total_len,
                        const FilterBank& bank, CandidateBuffers& out) {
  const std::uint32_t window = data[total_len - 1];  // zero-padded second byte
  if (bank.test_f1(window)) {
    out.short_pos[out.n_short++] = static_cast<std::uint32_t>(total_len - 1);
  }
}

// Round two over one chunk's candidates.  A separate function on purpose:
// inlined into the scan_impl template, GCC 12 compiles these table probes
// into code that verifies up to a fifth slower (S-PATCH's scan() on the
// S1-web and S2-full sets).
void verify_chunk(const Verifier& verifier, util::ByteView data,
                  const CandidateBuffers& buffers, MatchSink& sink) {
  verifier.verify_short(data, {buffers.short_pos.data(), buffers.n_short}, sink);
  verifier.verify_long(data, {buffers.long_pos.data(), buffers.n_long}, sink);
}

}  // namespace

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::avx2: return "avx2";
    case Isa::avx512: return "avx512";
    case Isa::best: return "best";
  }
  return "?";
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::scalar: return true;
    case Isa::avx2: return simd::cpu().has_avx2_kernel();
    case Isa::avx512: return simd::cpu().has_avx512_kernel();
    case Isa::best: return true;
  }
  return false;
}

Isa resolve_isa(Isa requested) {
  if (requested != Isa::best) return requested;
  if (simd::cpu().has_avx512_kernel()) return Isa::avx512;
  if (simd::cpu().has_avx2_kernel()) return Isa::avx2;
  return Isa::scalar;
}

VpatchMatcher::VpatchMatcher(const pattern::PatternSet& set, VpatchConfig cfg)
    : cfg_(cfg),
      isa_(resolve_isa(cfg.isa)),
      bank_(set, cfg.filters),
      verifier_(set, cfg.long_bucket_bits) {
  if (!isa_supported(isa_)) {
    throw std::runtime_error("V-PATCH: requested ISA not supported on this CPU");
  }
}

std::string_view VpatchMatcher::name() const {
  switch (isa_) {
    case Isa::avx512: return "V-PATCH-512";
    case Isa::avx2: return "V-PATCH";
    default: return "S-PATCH";
  }
}

unsigned VpatchMatcher::vector_width() const {
  switch (isa_) {
    case Isa::avx512: return 16;
    case Isa::avx2: return 8;
    default: return 1;
  }
}

void VpatchMatcher::round_one(const std::uint8_t* d, std::size_t begin, std::size_t end,
                              std::size_t n, CandidateBuffers& buffers, ScanStats* stats) const {
  switch (isa_) {
    case Isa::avx2:
      vpatch_filter_avx2(d, begin, end, n, bank_, buffers, cfg_.kernel, stats);
      return;
    case Isa::avx512:
      vpatch_filter_avx512(d, begin, end, n, bank_, buffers, cfg_.kernel, stats);
      return;
    default:
      // S-PATCH: the scalar loop over the positions with a full 2-byte
      // window, then the zero-padded probe of the last one.
      spatch_filter_scalar(d, begin, std::min(end, n - 1), n, bank_, buffers);
      if (end == n) spatch_filter_tail(d, n, bank_, buffers);
      return;
  }
}

template <bool kWithStats>
void VpatchMatcher::scan_impl(util::ByteView data, MatchSink& sink, ScanStats* stats) const {
  const std::size_t n = data.size();
  if (n == 0) return;
  const std::uint8_t* d = data.data();
  CandidateBuffers buffers;
  buffers.ensure_capacity(std::min(cfg_.chunk_size, n));

  // The round timer only exists in the instrumented instantiation — a clock
  // read per chunk is real money on small-packet scans.
  using RoundTimer = std::conditional_t<kWithStats, util::Timer, util::NullTimer>;

  for (std::size_t chunk = 0; chunk < n; chunk += cfg_.chunk_size) {
    const std::size_t end = std::min(chunk + cfg_.chunk_size, n);
    buffers.clear();

    RoundTimer timer;
    round_one(d, chunk, end, n, buffers, stats);
    if constexpr (kWithStats) {
      stats->filter_seconds += timer.seconds();
      stats->short_candidates += buffers.n_short;
      stats->long_candidates += buffers.n_long;
      timer.reset();
    }

    verify_chunk(verifier_, data, buffers, sink);
    if constexpr (kWithStats) {
      stats->verify_seconds += timer.seconds();
    }
  }
}

void VpatchMatcher::scan(util::ByteView data, MatchSink& sink) const {
  scan_impl<false>(data, sink, nullptr);
}

void VpatchMatcher::scan_with_stats(util::ByteView data, MatchSink& sink,
                                    ScanStats& stats) const {
  stats.vector_width = vector_width();
  struct Tee final : MatchSink {
    MatchSink* inner = nullptr;
    std::uint64_t n = 0;
    void on_match(const Match& m) override {
      ++n;
      inner->on_match(m);
    }
  } tee;
  tee.inner = &sink;
  scan_impl<true>(data, tee, &stats);
  stats.matches += tee.n;
}

void VpatchMatcher::scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink,
                               ScanScratch& scratch) const {
  BatchScanState& st = scratch.state_for<BatchScanState>(scratch_owner_id());

  // Capacity: every position of every batched payload can land in both
  // candidate arrays; oversized payloads take the chunked per-payload path
  // below, keeping the shared pool bounded by the batch byte count.
  std::size_t batched_positions = 0;
  for (const util::ByteView& p : payloads) {
    if (p.size() <= cfg_.chunk_size) batched_positions += p.size();
  }
  st.buffers.ensure_capacity(batched_positions);
  st.short_item.ensure(batched_positions + CandidateBuffers::kStoreSlack);
  st.long_item.ensure(batched_positions + CandidateBuffers::kStoreSlack);
  // Stage-one verification scratch, sized by the same content-INDEPENDENT
  // bound (actual long-candidate counts vary per batch; sizing by the bound
  // keeps the steady state allocation-free).
  st.entry_begin.ensure(batched_positions + CandidateBuffers::kStoreSlack);
  st.entry_end.ensure(batched_positions + CandidateBuffers::kStoreSlack);
  st.window4.ensure(batched_positions + CandidateBuffers::kStoreSlack);
  st.buffers.clear();

  // Round one across the whole batch: candidates accumulate in the shared
  // pool; slack stores past the logical end are overwritten by the next
  // payload's appends (or ignored), per the pool capacity contract.  The
  // vector ISAs run the whole batch through one kernel call (setup hoisted
  // across payloads); oversized payloads are skipped there and scanned
  // through the chunked per-payload path below.
  bool batched_round_one = true;
  switch (isa_) {
    case Isa::avx2:
      vpatch_filter_batch_avx2(payloads, bank_, st.buffers, st.short_item.data(),
                               st.long_item.data(), cfg_.chunk_size, cfg_.kernel);
      break;
    case Isa::avx512:
      vpatch_filter_batch_avx512(payloads, bank_, st.buffers, st.short_item.data(),
                                 st.long_item.data(), cfg_.chunk_size, cfg_.kernel);
      break;
    default:
      batched_round_one = false;
      break;
  }

  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const util::ByteView data = payloads[p];
    const std::size_t n = data.size();
    if (n == 0) continue;
    if (n > cfg_.chunk_size) {
      PacketSinkAdapter adapter;
      adapter.out = &sink;
      adapter.packet = static_cast<std::uint32_t>(p);
      scan(data, adapter);
      continue;
    }
    if (batched_round_one) continue;  // the batch kernel already filtered it
    const std::uint32_t short_begin = st.buffers.n_short;
    const std::uint32_t long_begin = st.buffers.n_long;
    round_one(data.data(), 0, n, n, st.buffers, nullptr);
    for (std::uint32_t k = short_begin; k < st.buffers.n_short; ++k) {
      st.short_item[k] = static_cast<std::uint32_t>(p);
    }
    for (std::uint32_t k = long_begin; k < st.buffers.n_long; ++k) {
      st.long_item[k] = static_cast<std::uint32_t>(p);
    }
  }

  // Round two, deferred: one verification pass over the whole pool.  The
  // long pass software-prefetches bucket headers and entry rows ahead.
  const auto emit = [&sink](std::uint32_t packet, const Match& m) {
    sink.on_match(packet, m);
  };
  verifier_.short_table().verify_flat(payloads, st.buffers.short_pos.data(),
                                      st.short_item.data(), st.buffers.n_short, emit);
  verifier_.long_table().verify_flat(payloads, st.buffers.long_pos.data(),
                                     st.long_item.data(), st.buffers.n_long,
                                     st.entry_begin.data(), st.entry_end.data(),
                                     st.window4.data(), emit);
}

VpatchMatcher::FilterOnlyResult VpatchMatcher::filter_only(util::ByteView data,
                                                           bool with_stores) const {
  ScanScratch scratch;
  return filter_only(data, with_stores, scratch);
}

VpatchMatcher::FilterOnlyResult VpatchMatcher::filter_only(util::ByteView data,
                                                           bool with_stores,
                                                           ScanScratch& scratch) const {
  FilterOnlyResult result;
  const std::size_t n = data.size();
  if (n == 0) return result;
  const std::uint8_t* d = data.data();

  if (!with_stores) {
    NoStoreCounts counts;
    switch (isa_) {
      case Isa::avx2:
        vpatch_filter_nostore_avx2(d, 0, n, n, bank_, counts);
        break;
      case Isa::avx512:
        vpatch_filter_nostore_avx512(d, 0, n, n, bank_, counts);
        break;
      default:
        // Scalar, counting only: the probe sequence of round_one().
        for (std::size_t i = 0; i + 1 < n; ++i) {
          const std::uint32_t window = util::load_u16(d + i);
          if (bank_.test_f1(window)) ++counts.short_hits;
          if (bank_.test_f2(window) && i + 4 <= n &&
              bank_.test_f3(util::load_u32(d + i))) {
            ++counts.long_hits;
          }
        }
        if (bank_.test_f1(d[n - 1])) ++counts.short_hits;
        break;
    }
    result.short_candidates = counts.short_hits;
    result.long_candidates = counts.long_hits;
    return result;
  }

  CandidateBuffers& buffers = scratch.state_for<BatchScanState>(scratch_owner_id()).buffers;
  buffers.ensure_capacity(std::min(cfg_.chunk_size, n));
  for (std::size_t chunk = 0; chunk < n; chunk += cfg_.chunk_size) {
    buffers.clear();
    round_one(d, chunk, std::min(chunk + cfg_.chunk_size, n), n, buffers, nullptr);
    result.short_candidates += buffers.n_short;
    result.long_candidates += buffers.n_long;
  }
  return result;
}

}  // namespace vpm::core
