// Compact hash tables for the verification phase.
//
// "Specially designed compact hash tables that are different for different
// pattern lengths ... Each hash table is indexed with as many bytes as the
// shortest pattern it contains" (paper §IV-A2, after Choi et al.).  Two
// families, split at the S-PATCH 4-byte boundary:
//   * ShortTable  — patterns of 1..3 bytes, by direct index: 1-byte patterns
//                   by their byte, 2- and 3-byte patterns by their 2-byte
//                   window, with a 3-byte pattern's last byte stored inline,
//                   so a candidate costs one lookup and no byte loop.  Its
//                   span entries (V-PATCH's round two) first drop, in a
//                   branch-free pre-pass, each candidate whose 2-byte window
//                   starts no 1- or 2-byte pattern and whose hashed 3-byte
//                   window is not in a bitmap of the 3-byte patterns:
//                   Filter 1 passes every position whose two bytes begin
//                   any 3-byte pattern;
//   * LongTable   — patterns of >= 4 bytes, indexed by a multiplicative hash
//                   of the first four input bytes, with the 4-byte prefix
//                   stored inline for an O(1) reject before the full compare.
// Both use CSR (offset-array + flat entry array) bucket storage; LongTable
// keeps all pattern bytes in one arena, so verification touches at most two
// contiguous allocations.  Case-insensitive patterns insert one entry per
// case variant of the indexed prefix; variants are distinct byte strings, so
// an input window matches exactly one of them and nothing is
// double-reported.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dfc/direct_filter.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace vpm::dfc {


class ShortTable {
 public:
  // Builds from the short family (patterns with size() < 4) of `set`;
  // other patterns are ignored.
  explicit ShortTable(const pattern::PatternSet& set);

  // Reports every short pattern matching at data[pos..].
  void verify_at(util::ByteView data, std::size_t pos, MatchSink& sink) const {
    verify_one(data, pos, [&](const Match& m) { sink.on_match(m); });
  }

  // Reports what verify_at reports at each of the n candidate positions of
  // data (each < data.size()), but verifies only the candidates that pass
  // the pre-pass (see may_start): it overwrites positions with them, in
  // order, and returns their count.
  std::uint32_t verify_span(util::ByteView data, std::uint32_t* positions, std::uint32_t n,
                            MatchSink& sink) const;

  // Batched variant: candidate k is positions[k] within payloads[item[k]].
  // Emit is invoked as emit(item[k], Match).  Like verify_span, it keeps the
  // pre-pass survivors in positions and item.  No prefetch pipeline: a
  // candidate is a probe of the 8 KB window set and the hashed bitmap, then,
  // for a survivor, one lookup in the 1 KB byte index and one in the 16 KB
  // window index, all cache-resident across a batch.
  template <class Emit>
  void verify_flat(std::span<const util::ByteView> payloads, std::uint32_t* positions,
                   std::uint32_t* item, std::uint32_t n, Emit&& emit) const {
    std::uint32_t kept = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint32_t packet = item[k];
      const std::uint32_t pos = positions[k];
      positions[kept] = pos;
      item[kept] = packet;
      kept += may_start(payloads[packet], pos);
    }
    for (std::uint32_t k = 0; k < kept; ++k) {
      verify_one(payloads[item[k]], positions[k],
                 [&](const Match& m) { emit(item[k], m); });
    }
  }

  std::size_t entry_count() const { return byte_ids_.size() + window_entries_.size(); }
  std::size_t pattern_count() const { return pattern_count_; }
  std::size_t memory_bytes() const;

 private:
  // A 2- or 3-byte pattern under one case variant of its first two bytes.
  struct WindowEntry {
    std::uint32_t id = 0;
    std::uint8_t len = 0;
    std::uint8_t third = 0;  // the third byte, ASCII-lowered when nocase
    bool nocase = false;
  };

  // 64 consecutive windows of the index: bit w % 64 of `used` is set when
  // window w has entries, and `slot` counts the used windows before them.
  struct WindowBlock {
    std::uint64_t used = 0;
    std::uint32_t slot = 0;
  };

  // The pre-pass: false only where no short pattern starts at data[pos..]
  // (pos < data.size()).  Either the 2-byte window starts a 1- or 2-byte
  // pattern — an exact set, in which a 1-byte pattern sets every second
  // byte, so the last position's zero-padded window passes it — or the
  // 3-byte window, hashed, is in the bitmap of every case variant of the
  // 3-byte patterns.  Windows past the view's end read as zeros.
  bool may_start(util::ByteView data, std::size_t pos) const {
    const std::size_t remaining = data.size() - pos;
    const std::uint8_t* at = data.data() + pos;
    const std::uint32_t window =
        remaining >= 4 ? util::load_u32(at) : util::load_le(at, static_cast<unsigned>(remaining));
    return head_.test(window & 0xFFFFu) | third_.test(window & 0xFFFFFFu);
  }

  // The slot of window w, a used window of `block`.
  static std::uint32_t slot_of(const WindowBlock& block, std::uint32_t w) {
    const std::uint64_t before = (std::uint64_t{1} << (w & 63u)) - 1;
    return block.slot + static_cast<std::uint32_t>(std::popcount(block.used & before));
  }

  template <class Emit>
  void verify_one(util::ByteView data, std::size_t pos, Emit&& emit) const {
    if (pos >= data.size()) return;
    const std::uint8_t* at = data.data() + pos;
    for (std::uint32_t e = byte_offsets_[at[0]]; e < byte_offsets_[at[0] + 1u]; ++e) {
      emit(Match{byte_ids_[e], pos});
    }
    const std::size_t remaining = data.size() - pos;
    if (remaining < 2 || window_blocks_.empty()) return;
    const std::uint32_t window = util::load_u16(at);
    const WindowBlock& block = window_blocks_[window >> 6];
    if (((block.used >> (window & 63u)) & 1u) == 0) return;
    const std::uint32_t slot = slot_of(block, window);
    for (std::uint32_t e = window_offsets_[slot]; e < window_offsets_[slot + 1]; ++e) {
      const WindowEntry& entry = window_entries_[e];
      if (entry.len == 3) {
        if (remaining < 3) continue;
        const std::uint8_t third = entry.nocase ? util::ascii_lower(at[2]) : at[2];
        if (third != entry.third) continue;
      }
      emit(Match{entry.id, pos});
    }
  }

  // 1-byte patterns: 257 CSR offsets over the byte (nocase patterns appear
  // under both cases), and their ids.
  std::vector<std::uint32_t> byte_offsets_;
  std::vector<std::uint32_t> byte_ids_;
  // 2- and 3-byte patterns: a CSR over the 65,536 little-endian 2-byte
  // windows that stores offsets only for windows with entries — 1,024
  // blocks (16 KB) map a window to its slot, so the index stays cache-sized
  // however many windows the family leaves empty.  Empty when the family
  // has no 2- or 3-byte pattern.
  std::vector<WindowBlock> window_blocks_;
  std::vector<std::uint32_t> window_offsets_;  // used windows + 1
  std::vector<WindowEntry> window_entries_;
  // The pre-pass sets: the 2-byte windows that start a 1- or 2-byte pattern,
  // and the hashed 3-byte windows of the 3-byte patterns, sized per working
  // set.
  DirectFilter2B head_;
  HashedFilter third_;
  std::size_t pattern_count_ = 0;
};

class LongTable {
 public:
  // 2^15 buckets keep mean bucket occupancy around one entry for 20 K
  // patterns.
  static constexpr unsigned kBucketBits = 15;

  // Builds from the long family (size() >= 4) of `set`.
  explicit LongTable(const pattern::PatternSet& set);

  void verify_at(util::ByteView data, std::size_t pos, MatchSink& sink) const {
    if (pos + 4 > data.size()) return;  // no long pattern can fit
    const std::uint32_t window = util::load_u32(data.data() + pos);
    const std::uint32_t bucket = util::multiplicative_hash(window, kBucketBits);
    verify_entries(data, pos, window, offsets_[bucket], offsets_[bucket + 1],
                   [&](const Match& m) { sink.on_match(m); });
  }

  // Batched deferred verification (round two of the batch fast path), by
  // GROUP PREFETCHING: instead of one loop with a dependent three-level
  // pointer chase per candidate (bucket header -> entry row -> arena bytes),
  // the pool is walked in four short passes, each issuing the next level's
  // prefetch for EVERY candidate before any candidate needs it — so each
  // level's misses overlap across the whole pool rather than serializing:
  //   A: hash the (cache-hot, just-filtered) payload windows, prefetch the
  //      bucket headers;
  //   B: read the headers into CSR ranges, prefetch the entry rows (two
  //      lines: Entry is 17 B, buckets regularly straddle a line);
  //   C: read each row's first entry, prefetch its arena bytes;
  //   D: compare and emit.
  // The pass scratch (entry_begin/entry_end/window4, capacity >= n) stays
  // L1/L2-resident, so the re-walks are cheap.
  //
  // Equivalent to calling verify_at per candidate: candidate k is
  // positions[k] within payloads[item[k]]; emit(item[k], Match).
  template <class Emit>
  void verify_flat(std::span<const util::ByteView> payloads, const std::uint32_t* positions,
                   const std::uint32_t* item, std::uint32_t n, std::uint32_t* entry_begin,
                   std::uint32_t* entry_end, std::uint32_t* window4, Emit&& emit) const {
    // Pass A: window hashes; bucket ids park in entry_end until pass B.
    for (std::uint32_t k = 0; k < n; ++k) {
      const util::ByteView d = payloads[item[k]];
      const std::size_t pos = positions[k];
      if (pos + 4 > d.size()) {  // no long pattern can fit: empty range
        entry_begin[k] = 1;      // begin > end marks "skip" until pass B
        entry_end[k] = 0;
        continue;
      }
      const std::uint32_t w = util::load_u32(d.data() + pos);
      const std::uint32_t b = util::multiplicative_hash(w, kBucketBits);
      window4[k] = w;
      entry_begin[k] = 0;
      entry_end[k] = b;
      __builtin_prefetch(offsets_.data() + b);
    }
    // Pass B: CSR ranges; prefetch entry rows of non-empty buckets.
    for (std::uint32_t k = 0; k < n; ++k) {
      if (entry_begin[k] > entry_end[k]) {
        entry_begin[k] = entry_end[k] = 0;
        continue;
      }
      const std::uint32_t b = entry_end[k];
      const std::uint32_t begin = offsets_[b];
      const std::uint32_t end = offsets_[b + 1];
      entry_begin[k] = begin;
      entry_end[k] = end;
      if (begin != end) {
        const char* row = reinterpret_cast<const char*>(entries_.data() + begin);
        __builtin_prefetch(row);
        __builtin_prefetch(row + 64);
      }
    }
    // Pass C: arena bytes of each row's first entry (later entries of a
    // multi-entry bucket share the row and usually the arena region).
    for (std::uint32_t k = 0; k < n; ++k) {
      if (entry_begin[k] != entry_end[k]) {
        __builtin_prefetch(arena_.at(entries_[entry_begin[k]].offset));
      }
    }
    // Pass D: compares.
    for (std::uint32_t k = 0; k < n; ++k) {
      if (entry_begin[k] == entry_end[k]) continue;
      verify_entries(payloads[item[k]], positions[k], window4[k], entry_begin[k],
                     entry_end[k], [&](const Match& m) { emit(item[k], m); });
    }
  }

  std::size_t entry_count() const { return entries_.size(); }
  std::size_t pattern_count() const { return pattern_count_; }
  double mean_bucket_entries() const;
  std::size_t memory_bytes() const;

 private:
  struct Entry {
    std::uint32_t prefix = 0;  // the case-variant 4-byte prefix, little-endian
    std::uint32_t id = 0;
    std::uint32_t len = 0;
    std::uint32_t offset = 0;  // pattern bytes in the arena (raw)
    bool nocase = false;
  };

  template <class Emit>
  void verify_entries(util::ByteView data, std::size_t pos, std::uint32_t window,
                      std::uint32_t begin, std::uint32_t end, Emit&& emit) const {
    const std::size_t remaining = data.size() - pos;
    for (std::uint32_t e = begin; e < end; ++e) {
      const Entry& entry = entries_[e];
      if (entry.prefix != window || entry.len > remaining) continue;
      // Prefix (4 bytes) already matched exactly; compare the remainder with
      // the entry's case mode.
      if (util::bytes_equal(data.data() + pos + 4, arena_.at(entry.offset) + 4,
                            entry.len - 4, entry.nocase)) {
        emit(Match{entry.id, pos});
      }
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> offsets_;  // 2^kBucketBits + 1 CSR offsets
  util::ByteArena arena_;
  std::size_t pattern_count_ = 0;
};

}  // namespace vpm::dfc
