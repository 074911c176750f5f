// Bounded single-producer / single-consumer ring queue.
//
// The pipeline moves packet batches from the ingest thread to each worker
// through one of these, and each drained batch back through a second one
// (the worker's return ring): exactly one thread pushes and exactly one
// thread pops each ring, so the only synchronization needed is a release
// store / acquire load pair on each index.  Both sides keep a cached copy
// of the opposing index so the common case (queue neither full nor empty)
// touches no cross-core cache line.  Capacity is rounded up to a power of
// two.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/failpoint.hpp"

namespace vpm::pipeline {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // Producer side.  Moves `item` in on success; leaves it untouched when the
  // ring is full.
  bool try_push(T& item) {
    // Chaos hook: report "full" without touching the item — callers follow
    // their real backpressure path (block retries, drop counts the loss).
    if (util::failpoint::should_fail(util::failpoint::Site::ring_push)) return false;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity()) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side.
  bool try_pop(T& out) {
    // Chaos hook: report "empty" (a consumer hiccup); nothing is lost — the
    // batch is popped on a later attempt.
    if (util::failpoint::should_fail(util::failpoint::Site::ring_pop)) return false;
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Approximate occupancy (either side may be mid-operation).
  std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool empty_approx() const { return size_approx() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next slot to push
  alignas(64) std::uint64_t cached_head_ = 0;       // producer's view of head_
  alignas(64) std::uint64_t cached_tail_ = 0;       // consumer's view of tail_
};

}  // namespace vpm::pipeline
