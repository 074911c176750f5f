// Candidate-position buffers (the paper's A_short / A_long temporary arrays).
//
// Round one appends positions; round two verifies and clears.  The arrays
// carry slack beyond the logical end because the AVX2 left-pack store always
// writes a full vector register (8 dwords) regardless of how many lanes
// matched.
//
// Storage is deliberately UNINITIALIZED on growth: every dword below the
// logical end (n_short / n_long) is written by a left-pack store or the
// scalar append before it is ever read, and the slack region is write-only,
// so the value-initialization a std::vector resize would perform is pure
// waste on the hot path.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

#include "match/matcher.hpp"

namespace vpm::core {

// Grow-only array of uninitialized trivially-copyable storage.  Growth
// discards previous contents (callers fill from scratch after ensure()).
// It grows to the next power of two: batch byte totals vary with content
// (a stream's carry length does), so exact-size growth would reallocate at
// every new high-water mark long after warm-up.
template <class T>
class UninitArray {
 public:
  void ensure(std::size_t need) {
    if (capacity_ < need) {
      const std::size_t capacity = std::bit_ceil(need);
      data_ = std::make_unique_for_overwrite<T[]>(capacity);
      capacity_ = capacity;
    }
  }
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

struct CandidateBuffers {
  UninitArray<std::uint32_t> short_pos;
  UninitArray<std::uint32_t> long_pos;
  std::uint32_t n_short = 0;
  std::uint32_t n_long = 0;

  static constexpr std::size_t kStoreSlack = 16;  // >= one full vector store

  // Capacity for filtering `chunk_positions` input positions: every position
  // can be stored in both arrays in the worst case.  Growth discards current
  // contents (call before round one starts, never between rounds).
  void ensure_capacity(std::size_t chunk_positions) {
    const std::size_t need = chunk_positions + kStoreSlack;
    short_pos.ensure(need);
    long_pos.ensure(need);
  }

  void clear() { n_short = n_long = 0; }
};

// Reusable state for the two-round batch fast path (Matcher::scan_batch):
// one shared candidate pool segmented per payload, the candidate -> payload
// index maps, and the stage-one scratch of the software-pipelined deferred
// verification round.  Installed into a caller-owned ScanScratch so the
// steady-state batch loop performs zero heap allocations.
struct BatchScanState final : ScanScratch::State {
  CandidateBuffers buffers;
  UninitArray<std::uint32_t> short_item;   // short candidate -> payload index
  UninitArray<std::uint32_t> long_item;    // long candidate -> payload index
  UninitArray<std::uint32_t> entry_begin;  // resolved CSR entry ranges (long)
  UninitArray<std::uint32_t> entry_end;
  UninitArray<std::uint32_t> window4;      // 4-byte windows of long candidates
};

}  // namespace vpm::core
