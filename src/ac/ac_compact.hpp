// Compressed interleaved Aho-Corasick: one flat arena of 32-bit words
// replacing the full-matrix automaton's state x 256 transition table.
//
// Motivation (paper §II): the full DFA "does not fit in the cache" — for the
// 20 K-pattern sets the matrix is tens of MB and every input byte is a
// dependent, likely-missing load.  Two observations shrink it by >90%:
//
//   1. For every state s != root, the fail-resolved DFA row of s is the ROOT
//      row except at a handful of bytes (s's own goto children plus the few
//      bytes its fail chain overrides).  Storing only that per-state DIFF
//      keeps the O(1)-per-byte DFA property: a missing byte falls back to
//      the always-cache-hot root row — exactly, not approximately.
//   2. Folding the "this state reports matches" flag into the high bit of
//      the state reference makes the common no-match scan loop branch on a
//      register test instead of a second indexed load.
//
// Arena encoding (StateRef = std::uint32_t):
//   bit 31  kOutputFlag — the state has a non-empty merged output list
//   bit 30  kDenseFlag  — the record is a dense 256-entry row
//   bits 0..29          — word offset of the record in the arena
//
// Records (at word offset `off`; the root row is dense at offset 0):
//   output states  arena[off - 1] = index into the CSR output spans
//   dense          arena[off + b] = StateRef of next state for folded byte b
//   sparse         arena[off + c], c in [0, 11): chunk word for folded bytes
//                  [24c, 24c + 24): low 24 bits = presence bitmap (bit r set
//                  iff byte 24c + r differs from the root row), high 8 bits
//                  = rank base (count of present bits in chunks < c);
//                  arena[off + 11 + i] = StateRef of the i-th present byte.
//
//   lookup(off, b): c = b / 24, r = b % 24, w = arena[off + c];
//     present  -> arena[off + 11 + (w >> 24) + popcount(low bits of w < r)]
//     absent   -> arena[b]                     (the root row, offset 0)
//
// A state is laid out dense when it diffs from the root row on more than
// half the folded alphabet (>= 128 bytes) — the per-state threshold chosen
// at build time: such states are rare, so the memory cost is negligible,
// and the dense lookup needs one gather instead of two.  The root is always
// dense.  The arena is one contiguous, offset-addressed,
// trivially serializable blob: no per-node heap allocations, and state
// references gather directly (the SIMD lane kernel in ac_lanes.hpp walks 8
// or 16 payloads at once over this exact layout).
//
// Build, linear in the automaton's size.  The flat trie (trie.hpp) hands
// out every state's diff as one CSR in BFS order: diff(s) is diff(fail(s))
// overlaid with s's goto children, a sorted merge that also derives the
// fail links (fail(s) is shallower than s, so its diff is already there).
// Records are laid out in that order, so one pass over the diff sizes
// computes every state's ref (offset, dense and output flags) before the
// arena fill, and the fill writes each sparse record straight from its
// diff.  No state's 256-entry row is materialized or scanned; only a dense
// record copies the root row, as its encoding requires.  Output spans are
// numbered in state order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::ac {

inline constexpr std::uint32_t kAcOutputFlag = 0x80000000u;
inline constexpr std::uint32_t kAcDenseFlag = 0x40000000u;
inline constexpr std::uint32_t kAcOffsetMask = 0x3FFFFFFFu;
inline constexpr std::uint32_t kAcSparseChunks = 11;   // ceil(256 / 24)
inline constexpr std::uint32_t kAcRootRef = kAcDenseFlag;  // dense, offset 0

// chunk index b / 24 without a division (exact for b in [0, 255]).
constexpr std::uint32_t ac_chunk_of(std::uint32_t b) { return (b * 171u) >> 12; }

class AcCompactMatcher final : public Matcher {
 public:
  explicit AcCompactMatcher(const pattern::PatternSet& set);

  void scan(util::ByteView data, MatchSink& sink) const override;

  // Lane-parallel batch fast path: payloads are staged (copied + case-folded
  // + 3 zero pad bytes) into caller-owned scratch, then 8 (AVX2) or 16
  // (AVX-512) payload lanes traverse the arena simultaneously via vpgatherdd
  // with dynamic lane refill; automaton hits are buffered and resolved in
  // one deferred verification round.  Zero steady-state heap allocations;
  // falls back to per-payload scan() when no vector kernel is available.
  // The kernels read ONLY the staged copy — never past the caller's payload
  // buffers (see ac_lanes.hpp for the staging read contract).
  void scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink,
                  ScanScratch& scratch) const override;

  std::string_view name() const override { return "Aho-Corasick-compact"; }
  std::size_t memory_bytes() const override;

  // The pattern ids an output state reports before case verification:
  // every pattern whose folded form is a suffix of the state's string.
  // `ref` must carry kAcOutputFlag.
  std::span<const std::uint32_t> outputs(std::uint32_t ref) const;

  std::size_t state_count() const { return state_count_; }
  std::size_t dense_states() const { return dense_states_; }
  std::size_t arena_words() const { return arena_.size(); }
  const std::uint32_t* arena() const { return arena_.data(); }

 private:
  struct OutputSpan {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  struct Meta {
    std::uint32_t length = 0;
    bool nocase = false;
  };

  // Resolves the CSR output list of an output state and reports every
  // pattern verified at end position `end_pos` of `data`.
  void emit(std::uint32_t ref, std::uint64_t end_pos, util::ByteView data,
            MatchSink& sink) const;

  std::vector<std::uint32_t> arena_;
  std::vector<OutputSpan> output_spans_;
  std::vector<std::uint32_t> output_ids_;
  std::vector<Meta> meta_;
  const pattern::PatternSet* set_ = nullptr;
  std::size_t state_count_ = 0;
  std::size_t dense_states_ = 0;
};

}  // namespace vpm::ac
