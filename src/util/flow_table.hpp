// Open-addressing flow table for millions-of-flows churn.
//
// The per-worker flow maps (TcpReassembler connections, IdsEngine stream
// state, the worker's UDP last-seen tracker) were std::unordered_map: one
// heap node per entry, pointer-chasing buckets, and idle eviction as a full
// O(table) sweep — a latency spike that grows with the table and lands in
// the middle of packet processing.  This table replaces them with:
//
//   - linear-probe open addressing over a flat power-of-two slot array
//     (cached 64-bit hash per slot, so probing never touches keys of
//     non-matching entries' values);
//   - values on their own heap cells, so Value* stays stable across
//     rehash and erase — IdsEngine::Staged::flow relies on exactly this,
//     as unordered_map's node stability did before;
//   - tombstone deletion.  Backward-shift deletion would be tombstone-free
//     but moves surviving entries backwards across the wrap-around, which
//     can carry an entry from a not-yet-visited slot into an
//     already-visited one during an in-progress sweep — a missed flow.
//     Tombstones keep every live entry in place; the table rebuilds in
//     bulk when tombstones exceed a quarter of capacity;
//   - an incremental sweep cursor: sweep_step(max_slots, fn) examines a
//     bounded run of slots and remembers where it stopped, so idle
//     eviction can be amortized over packet batches instead of stalling
//     on one full pass (the classic NIDS flow-table design; see
//     evict_idle_step / PipelineConfig::eviction_max_steps).
//
// Single-threaded by design, like the maps it replaces: each pipeline
// worker owns its tables exclusively.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace vpm::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlowTable {
 public:
  FlowTable() = default;
  explicit FlowTable(std::size_t initial_capacity) { reserve_slots(initial_capacity); }

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  FlowTable(FlowTable&&) = default;
  FlowTable& operator=(FlowTable&&) = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  Value* find(const Key& key) {
    const std::size_t idx = find_index(key, hash_of(key));
    return idx == kNotFound ? nullptr : slots_[idx].value.get();
  }
  const Value* find(const Key& key) const {
    const std::size_t idx = find_index(key, hash_of(key));
    return idx == kNotFound ? nullptr : slots_[idx].value.get();
  }

  // Find-or-insert.  `make` is invoked only on insertion and must return a
  // Value (a factory rather than a default constructor: engine FlowState is
  // built from the current ruleset).  Returns {value, inserted}.  The
  // returned pointer is stable for the entry's lifetime.
  template <typename Make>
  std::pair<Value*, bool> find_or_emplace(const Key& key, Make&& make) {
    const std::uint64_t h = hash_of(key);
    std::size_t idx = find_index(key, h);
    if (idx != kNotFound) return {slots_[idx].value.get(), false};
    if (slots_.empty() || (size_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
      grow();
    }
    idx = insert_index(key, h);
    Slot& s = slots_[idx];
    if (s.state == State::tombstone) --tombstones_;
    s.state = State::full;
    s.hash = h;
    s.key = key;
    s.value = std::make_unique<Value>(make());
    ++size_;
    return {s.value.get(), true};
  }

  bool erase(const Key& key) {
    const std::size_t idx = find_index(key, hash_of(key));
    if (idx == kNotFound) return false;
    erase_at(idx);
    maybe_rebuild();
    return true;
  }

  void clear() {
    for (Slot& s : slots_) {
      s.state = State::empty;
      s.value.reset();
    }
    size_ = 0;
    tombstones_ = 0;
    cursor_ = 0;
  }

  // Visits every live entry; fn(key, value).  Must not mutate the table.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.state == State::full) fn(s.key, *s.value);
    }
  }

  // Incremental sweep: examines up to `max_slots` slots starting at the
  // persistent cursor (wrapping), erasing entries fn(key, value) returns
  // true for.  max_slots >= capacity() is a full sweep.  Consecutive calls
  // with max_slots summing to >= capacity() visit every entry that stays
  // put, so bounded per-batch calls converge to the same eviction set a full
  // sweep finds — just spread over time (the "eviction debt" the soak bench
  // reports).  Returns the number erased.
  template <typename Fn>
  std::size_t sweep_step(std::size_t max_slots, Fn&& fn) {
    if (slots_.empty() || max_slots == 0) return 0;
    std::size_t erased = 0;
    const std::size_t n = std::min(max_slots, slots_.size());
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = cursor_;
      cursor_ = (cursor_ + 1) & (slots_.size() - 1);
      Slot& s = slots_[i];
      if (s.state == State::full && fn(s.key, *s.value)) {
        erase_at(i);
        ++erased;
      }
    }
    maybe_rebuild();
    return erased;
  }

 private:
  enum class State : std::uint8_t { empty, full, tombstone };

  struct Slot {
    State state = State::empty;
    std::uint64_t hash = 0;
    Key key{};
    std::unique_ptr<Value> value;
  };

  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  std::uint64_t hash_of(const Key& key) const {
    return static_cast<std::uint64_t>(Hash{}(key));
  }

  std::size_t find_index(const Key& key, std::uint64_t h) const {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.state == State::empty) return kNotFound;
      if (s.state == State::full && s.hash == h && s.key == key) return i;
      i = (i + 1) & mask;
    }
  }

  // First insertable slot for a key known to be absent (reuses the first
  // tombstone on the probe path).
  std::size_t insert_index(const Key& key, std::uint64_t h) const {
    (void)key;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.state != State::full) return i;
      i = (i + 1) & mask;
    }
  }

  void erase_at(std::size_t idx) {
    Slot& s = slots_[idx];
    s.state = State::tombstone;
    s.value.reset();
    ++tombstones_;
    --size_;
  }

  void grow() {
    std::size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    // Size for the live entries only: a grow triggered by tombstone pileup
    // may keep (or even shrink toward kMinCapacity) the capacity.
    while ((size_ + 1) * 4 > cap * 3) cap *= 2;
    rehash(cap);
  }

  void maybe_rebuild() {
    if (!slots_.empty() && tombstones_ * 4 > slots_.size()) {
      std::size_t cap = kMinCapacity;
      while ((size_ + 1) * 4 > cap * 3) cap *= 2;
      rehash(std::max(cap, kMinCapacity));
    }
  }

  void reserve_slots(std::size_t want_entries) {
    std::size_t cap = kMinCapacity;
    while ((want_entries + 1) * 4 > cap * 3) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    // vector(n) default-constructs in place — Slot is move-only (unique_ptr).
    slots_ = std::vector<Slot>(new_cap);
    const std::size_t mask = new_cap - 1;
    for (Slot& s : old) {
      if (s.state != State::full) continue;
      std::size_t i = static_cast<std::size_t>(s.hash) & mask;
      while (slots_[i].state == State::full) i = (i + 1) & mask;
      Slot& dst = slots_[i];
      dst.state = State::full;
      dst.hash = s.hash;
      dst.key = std::move(s.key);
      dst.value = std::move(s.value);  // Value* unchanged: stability holds
    }
    tombstones_ = 0;
    cursor_ &= mask;  // keep the sweep cursor in range; exact slot is moot
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t cursor_ = 0;
};

// splitmix64 finalizer: the pipeline's flow ids are already-mixed tuple
// hashes, but a cheap re-mix keeps linear probing robust for arbitrary
// uint64 keys (sequential ids, port-only variation).
struct U64Hash {
  std::size_t operator()(std::uint64_t x) const {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

}  // namespace vpm::util
