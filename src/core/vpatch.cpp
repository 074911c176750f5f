#include "core/vpatch.hpp"

#include <algorithm>
#include <type_traits>

#include "simd/cpu_features.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace vpm::core {
namespace {

// S-PATCH's round one (the Isa::scalar width), under the VpatchKernel
// contract.  One 2-byte load of the merged layout serves both Filter 1 (low
// byte) and Filter 2 (high byte).  The counts, the output and filter
// pointers and Filter 3's hash bits live in locals: a uint32_t candidate
// store could alias the buffers' and the bank's fields, so read through
// them, each would be reloaded for every position.
void spatch_filter(const std::uint8_t* data, std::size_t begin, std::size_t end,
                   std::size_t total_len, const FilterBank& bank, CandidateBuffers& out,
                   const KernelOptions&, ScanStats*) {
  const std::uint8_t* merged = bank.merged_data();
  const std::uint8_t* f3 = bank.f3_data();
  const unsigned f3_bits = bank.f3_bits_log2();
  std::uint32_t* short_pos = out.short_pos.data();
  std::uint32_t* long_pos = out.long_pos.data();
  std::uint32_t n_short = out.n_short;
  std::uint32_t n_long = out.n_long;
  // Every position below total_len - 1 has a full 2-byte window.
  const std::size_t full_end = std::min(end, total_len - 1);
  for (std::size_t i = begin; i < full_end; ++i) {
    const std::uint32_t window = util::load_u16(data + i);
    const std::uint32_t word = util::load_u16(merged + 2 * (window >> 3));
    const std::uint32_t bit = window & 7u;
    if ((word >> bit) & 1u) short_pos[n_short++] = static_cast<std::uint32_t>(i);
    if ((word >> (bit + 8)) & 1u && i + 4 <= total_len) {
      const std::uint32_t key = util::multiplicative_hash(util::load_u32(data + i), f3_bits);
      if ((f3[key >> 3] >> (key & 7u)) & 1u) long_pos[n_long++] = static_cast<std::uint32_t>(i);
    }
  }
  // The zero-padded final-position probe (only 1..3-byte patterns can start
  // at the last bytes; 1-byte wildcard expansion makes the padded test exact).
  if (end == total_len && bank.test_f1(data[total_len - 1])) {
    short_pos[n_short++] = static_cast<std::uint32_t>(total_len - 1);
  }
  out.n_short = n_short;
  out.n_long = n_long;
}

void spatch_filter_batch(std::span<const util::ByteView> payloads, const FilterBank& bank,
                         CandidateBuffers& out, std::uint32_t* short_item,
                         std::uint32_t* long_item, std::size_t max_payload,
                         const KernelOptions& opt) {
  filter_each_payload(payloads, out, short_item, long_item, max_payload,
                      [&](const std::uint8_t* d, std::size_t n) {
                        spatch_filter(d, 0, n, n, bank, out, opt, nullptr);
                      });
}

// spatch_filter's probe sequence, counting only.
void spatch_filter_nostore(const std::uint8_t* data, std::size_t begin, std::size_t end,
                           std::size_t total_len, const FilterBank& bank,
                           NoStoreCounts& counts) {
  for (std::size_t i = begin; i < std::min(end, total_len - 1); ++i) {
    const std::uint32_t window = util::load_u16(data + i);
    if (bank.test_f1(window)) ++counts.short_hits;
    if (bank.test_f2(window) && i + 4 <= total_len &&
        bank.test_f3(util::load_u32(data + i))) {
      ++counts.long_hits;
    }
  }
  if (end == total_len && bank.test_f1(data[total_len - 1])) ++counts.short_hits;
}

constexpr VpatchKernel kSpatchKernel{spatch_filter, spatch_filter_batch,
                                     spatch_filter_nostore};

// The table of a supported ISA.
const VpatchKernel* kernel_for(Isa isa) {
  switch (isa) {
    case Isa::avx2: return vpatch_kernel_avx2();
    case Isa::avx512: return vpatch_kernel_avx512();
    default: return &kSpatchKernel;
  }
}

// Round two over one chunk's candidates; the short ones go through the
// table's pre-pass, which overwrites short_pos with its survivors, counted
// in the return value.  A separate function on purpose: inlined into the
// scan_impl template, GCC 12 compiles these table probes into code that
// verifies up to a fifth slower (S-PATCH's scan() on the S1-web and S2-full
// sets).
std::uint32_t verify_chunk(const dfc::ShortTable& short_table, const dfc::LongTable& long_table,
                           util::ByteView data, CandidateBuffers& buffers, MatchSink& sink) {
  const std::uint32_t short_kept =
      short_table.verify_span(data, buffers.short_pos.data(), buffers.n_short, sink);
  for (std::uint32_t pos : std::span(buffers.long_pos.data(), buffers.n_long)) {
    long_table.verify_at(data, pos, sink);
  }
  return short_kept;
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
      kernel_(isa_supported(isa_) ? kernel_for(isa_) : nullptr),
      bank_(set, cfg.filters),
      short_table_(set),
      long_table_(set) {
  if (kernel_ == nullptr) {
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
    kernel_->filter(d, chunk, end, n, bank_, buffers, cfg_.kernel, stats);
    if constexpr (kWithStats) {
      stats->filter_seconds += timer.seconds();
      stats->short_candidates += buffers.n_short;
      stats->long_candidates += buffers.n_long;
      timer.reset();
    }

    const std::uint32_t short_kept = verify_chunk(short_table_, long_table_, data, buffers, sink);
    if constexpr (kWithStats) {
      stats->verify_seconds += timer.seconds();
      stats->short_survivors += short_kept;
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
  // payload's appends (or ignored), per the pool capacity contract.  One
  // kernel call covers the batch (setup hoisted across payloads); it skips
  // oversized payloads, which take the chunked per-payload path here.
  kernel_->filter_batch(payloads, bank_, st.buffers, st.short_item.data(),
                        st.long_item.data(), cfg_.chunk_size, cfg_.kernel);
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    if (payloads[p].size() <= cfg_.chunk_size) continue;
    PacketSinkAdapter adapter;
    adapter.out = &sink;
    adapter.packet = static_cast<std::uint32_t>(p);
    scan(payloads[p], adapter);
  }

  // Round two, deferred: one verification pass over the whole pool.  The
  // long pass software-prefetches bucket headers and entry rows ahead.
  const auto emit = [&sink](std::uint32_t packet, const Match& m) {
    sink.on_match(packet, m);
  };
  short_table_.verify_flat(payloads, st.buffers.short_pos.data(),
                            st.short_item.data(), st.buffers.n_short, emit);
  long_table_.verify_flat(payloads, st.buffers.long_pos.data(),
                           st.long_item.data(), st.buffers.n_long, st.entry_begin.data(),
                           st.entry_end.data(), st.window4.data(), emit);
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
    kernel_->filter_nostore(d, 0, n, n, bank_, counts);
    result.short_candidates = counts.short_hits;
    result.long_candidates = counts.long_hits;
    return result;
  }

  CandidateBuffers& buffers = scratch.state_for<BatchScanState>(scratch_owner_id()).buffers;
  buffers.ensure_capacity(std::min(cfg_.chunk_size, n));
  for (std::size_t chunk = 0; chunk < n; chunk += cfg_.chunk_size) {
    buffers.clear();
    kernel_->filter(d, chunk, std::min(chunk + cfg_.chunk_size, n), n, bank_, buffers,
                    cfg_.kernel, nullptr);
    result.short_candidates += buffers.n_short;
    result.long_candidates += buffers.n_long;
  }
  return result;
}

}  // namespace vpm::core
