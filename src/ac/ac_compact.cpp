#include "ac/ac_compact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "ac/ac_lanes.hpp"
#include "ac/trie.hpp"
#include "core/candidates.hpp"
#include "simd/cpu_features.hpp"
#include "util/bytes.hpp"

namespace vpm::ac {

namespace {

// Per-state layout threshold, evaluated at build time.  The automaton is
// case-folded, so at most 230 row entries can ever differ from the root row
// (the folded alphabet); a strict size break-even (245) would therefore
// never pick dense.  Instead, states diffing on more than half the folded
// alphabet take the dense row: the memory cost is small and bounded (such
// states are rare and shallow-hot), and a dense lookup saves the sparse
// path's second gather.  Must stay <= 255 so rank bases fit 8 bits.
constexpr std::size_t kDenseThreshold = 128;
// Staged offsets/positions are 32-bit; a single payload must leave room for
// the offset arithmetic (anything bigger takes the per-payload scan path).
constexpr std::size_t kMaxLanePayload = std::size_t{1} << 30;

// Reusable staging + hit-pool scratch for the lane-parallel batch path,
// installed into the caller-owned ScanScratch (zero steady-state allocs).
struct AcBatchState final : ScanScratch::State {
  core::UninitArray<std::uint8_t> folded;
  core::UninitArray<std::uint32_t> offsets;
  core::UninitArray<std::uint32_t> lens;
  core::UninitArray<std::uint32_t> packets;
  core::UninitArray<AcLaneHit> hits;
};

}  // namespace

AcCompactMatcher::AcCompactMatcher(const pattern::PatternSet& set) : set_(&set) {
  RowDiffs diffs;
  const Trie trie(set, diffs);
  const auto n = static_cast<std::uint32_t>(trie.state_count());
  state_count_ = n;

  meta_.reserve(set.size());
  for (const pattern::Pattern& p : set) {
    meta_.push_back({static_cast<std::uint32_t>(p.size()), p.nocase});
  }

  // One ref per state, in state (BFS) order: the root is dense at offset 0,
  // and an output state's record is preceded by its out-word, the index of
  // its merged output list (own outputs + report-link chain) in the CSR.
  std::vector<std::uint32_t> ref(n, kAcRootRef);
  dense_states_ = 1;
  std::uint64_t cursor = 256;
  for (std::uint32_t s = 1; s < n; ++s) {
    const auto begin = static_cast<std::uint32_t>(output_ids_.size());
    trie.append_matches(s, output_ids_);
    std::uint32_t flags = 0;
    if (output_ids_.size() != begin) {
      output_spans_.push_back({begin, static_cast<std::uint32_t>(output_ids_.size()) - begin});
      flags |= kAcOutputFlag;
      ++cursor;
    }
    const std::size_t diff = diffs.size(s);
    if (diff >= kDenseThreshold) {
      flags |= kAcDenseFlag;
      ++dense_states_;
    }
    ref[s] = static_cast<std::uint32_t>(cursor & kAcOffsetMask) | flags;
    cursor += (flags & kAcDenseFlag) ? 256 : kAcSparseChunks + diff;
  }
  if (cursor > kAcOffsetMask) {
    throw std::runtime_error("aho-corasick-compact: automaton exceeds 2^30 arena words");
  }

  // The root row, then every other record: a dense row is the root row
  // overlaid with the state's diff; a sparse record is the diff itself.
  arena_.assign(cursor, 0);
  const std::array<std::uint32_t, 256> root = trie.root_row();
  for (unsigned b = 0; b < 256; ++b) arena_[b] = ref[root[b]];
  std::uint32_t span = 0;
  for (std::uint32_t s = 1; s < n; ++s) {
    const std::uint32_t off = ref[s] & kAcOffsetMask;
    if (ref[s] & kAcOutputFlag) arena_[off - 1] = span++;
    const std::uint8_t* bytes = diffs.bytes.data() + diffs.begin[s];
    const std::uint32_t* targets = diffs.targets.data() + diffs.begin[s];
    const std::size_t diff = diffs.size(s);
    if (ref[s] & kAcDenseFlag) {
      std::copy_n(arena_.begin(), 256, arena_.begin() + off);
      for (std::size_t k = 0; k < diff; ++k) arena_[off + bytes[k]] = ref[targets[k]];
    } else {
      std::array<std::uint32_t, kAcSparseChunks> chunk{};
      for (std::size_t k = 0; k < diff; ++k) {  // ascending byte order
        const std::uint32_t c = ac_chunk_of(bytes[k]);
        chunk[c] |= 1u << (bytes[k] - c * 24u);
        arena_[off + kAcSparseChunks + k] = ref[targets[k]];
      }
      std::uint32_t rank_base = 0;
      for (std::uint32_t c = 0; c < kAcSparseChunks; ++c) {
        arena_[off + c] = chunk[c] | (rank_base << 24);
        rank_base += static_cast<std::uint32_t>(std::popcount(chunk[c]));
      }
    }
  }
}

std::span<const std::uint32_t> AcCompactMatcher::outputs(std::uint32_t ref) const {
  const OutputSpan span = output_spans_[arena_[(ref & kAcOffsetMask) - 1]];
  return {output_ids_.data() + span.begin, span.count};
}

void AcCompactMatcher::emit(std::uint32_t ref, std::uint64_t end_pos, util::ByteView data,
                            MatchSink& sink) const {
  for (const std::uint32_t id : outputs(ref)) {
    const Meta m = meta_[id];
    const std::uint64_t start = end_pos + 1 - m.length;
    if (!m.nocase) {
      // Automaton is case-folded; exact-case patterns verify raw bytes.
      if (!(*set_)[id].matches_at(data, start)) continue;
    }
    sink.on_match({id, start});
  }
}

void AcCompactMatcher::scan(util::ByteView data, MatchSink& sink) const {
  const std::uint32_t* arena = arena_.data();
  std::uint32_t ref = kAcRootRef;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint32_t b = util::ascii_lower(data[i]);
    const std::uint32_t off = ref & kAcOffsetMask;
    if (ref & kAcDenseFlag) {
      ref = arena[off + b];
    } else {
      const std::uint32_t c = ac_chunk_of(b);
      const std::uint32_t r = b - c * 24u;
      const std::uint32_t w = arena[off + c];
      if ((w >> r) & 1u) {
        const std::uint32_t idx =
            (w >> 24) + static_cast<std::uint32_t>(std::popcount(w & ((1u << r) - 1u)));
        ref = arena[off + kAcSparseChunks + idx];
      } else {
        ref = arena[b];  // diff miss: the root row, always offset 0
      }
    }
    if (ref & kAcOutputFlag) emit(ref, i, data, sink);
  }
}

void AcCompactMatcher::scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink,
                                  ScanScratch& scratch) const {
  std::size_t total = 0;
  std::size_t staged = 0;
  for (const util::ByteView& p : payloads) {
    if (p.empty() || p.size() >= kMaxLanePayload) continue;
    total += p.size();
    ++staged;
  }
  // Width by batch occupancy: 16 lanes only pay off when the batch can keep
  // most of them filled — an 8-payload batch runs ~1.5x faster on the
  // 8-lane AVX2 kernel than half-empty on the 16-lane one.
  const bool has_avx512 = simd::cpu().has_avx512_kernel();
  const bool has_avx2 = simd::cpu().has_avx2_kernel();
  int width = 0;
  if (has_avx512 && (staged >= 12 || !has_avx2)) {
    width = 16;
  } else if (has_avx2) {
    width = 8;
  }
  // A single payload cannot fill lanes, and a >2 GB staging copy would
  // overflow the gather indices (vpgatherdd sign-extends its 32-bit
  // indices, so staged offsets must stay below 2^31): both take the
  // per-payload path.
  if (width == 0 || staged < 2 || total + kStagePad > 0x7FFFFFFFull) {
    Matcher::scan_batch(payloads, sink, scratch);
    return;
  }

  AcBatchState& st = scratch.state_for<AcBatchState>(scratch_owner_id());
  st.folded.ensure(total + kStagePad);
  st.offsets.ensure(staged);
  st.lens.ensure(staged);
  st.packets.ensure(staged);
  // At most one output-state hit per staged byte — content-independent bound.
  st.hits.ensure(total);

  PacketSinkAdapter adapter;
  adapter.out = &sink;

  std::uint32_t off = 0;
  std::size_t idx = 0;
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const util::ByteView data = payloads[p];
    if (data.empty()) continue;
    if (data.size() >= kMaxLanePayload) {
      adapter.packet = static_cast<std::uint32_t>(p);
      scan(data, adapter);
      continue;
    }
    st.offsets[idx] = off;
    st.lens[idx] = static_cast<std::uint32_t>(data.size());
    st.packets[idx] = static_cast<std::uint32_t>(p);
    std::uint8_t* dst = st.folded.data() + off;
    for (std::size_t i = 0; i < data.size(); ++i) dst[i] = util::ascii_lower(data[i]);
    off += static_cast<std::uint32_t>(data.size());
    ++idx;
  }
  for (std::size_t i = 0; i < kStagePad; ++i) st.folded[off + i] = 0;

  const AcCompactView view{arena_.data()};
  const AcStagedBatch in{st.folded.data(), st.offsets.data(), st.lens.data(),
                         st.packets.data(), staged};
  const AcLanesScan lanes = (width == 16) ? ac_lanes_avx512() : ac_lanes_avx2();
  const std::size_t n_hits = lanes(view, in, st.hits.data());

  // Deferred verification round: resolve CSR output lists and case-verify
  // against the ORIGINAL payload bytes (the staged copy is folded).
  for (std::size_t h = 0; h < n_hits; ++h) {
    const AcLaneHit& hit = st.hits[h];
    adapter.packet = hit.packet;
    emit(hit.ref, hit.pos, payloads[hit.packet], adapter);
  }
}

std::size_t AcCompactMatcher::memory_bytes() const {
  return arena_.size() * sizeof(std::uint32_t) + output_ids_.size() * sizeof(std::uint32_t) +
         output_spans_.size() * sizeof(OutputSpan) + meta_.size() * sizeof(Meta);
}

}  // namespace vpm::ac
