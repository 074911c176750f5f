// The common exact-multiple-pattern-matching interface.
//
// Every engine (Aho-Corasick full and compact, DFC, Vector-DFC, S-PATCH,
// V-PATCH, naive) reports the identical multiset of (pattern_id, start
// position) for all occurrences of all patterns — "producing the same output
// as Aho-Corasick" (paper §IV-A2).  That contract is the backbone of the
// differential test suite.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace vpm {

struct Match {
  std::uint32_t pattern_id = 0;
  std::uint64_t pos = 0;  // start offset of the occurrence within the scanned buffer

  friend bool operator==(const Match&, const Match&) = default;
  friend auto operator<=>(const Match&, const Match&) = default;
};

// Receives matches during a scan.  Implementations must tolerate matches
// arriving in engine-specific order (AC emits by end position; the filtering
// engines by family then position).
class MatchSink {
 public:
  virtual void on_match(const Match& m) = 0;

 protected:
  ~MatchSink() = default;
};

class CountingSink final : public MatchSink {
 public:
  void on_match(const Match&) override { ++count_; }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

class CollectingSink final : public MatchSink {
 public:
  void on_match(const Match& m) override { matches_.push_back(m); }
  const std::vector<Match>& matches() const { return matches_; }
  // Canonical order for set comparison across engines.
  std::vector<Match> sorted() const {
    std::vector<Match> v = matches_;
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  std::vector<Match> matches_;
};

// Receives matches during a batch scan; `packet` is the index into the
// payload span passed to Matcher::scan_batch, and Match::pos is relative to
// that payload.  Matches never span payload boundaries.
class BatchSink {
 public:
  virtual void on_match(std::uint32_t packet, const Match& m) = 0;

 protected:
  ~BatchSink() = default;
};

// Adapts a per-payload scan()'s MatchSink stream into BatchSink deliveries
// for a fixed payload index (the generic scan_batch fallback and engines'
// oversized-payload paths).
struct PacketSinkAdapter final : MatchSink {
  BatchSink* out = nullptr;
  std::uint32_t packet = 0;
  void on_match(const Match& m) override { out->on_match(packet, m); }
};

// Process-unique owner tags for ScanScratch state.  Every Matcher draws one
// at construction; ids are never reused, so scratch tagged by a dead engine
// can never be mistaken for the current owner's (the ABA hazard a raw
// `const void*` owner pointer had: a new engine allocated at a dead engine's
// address would inherit stale state).
inline std::uint64_t next_scratch_owner_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Caller-owned, reusable scratch for Matcher::scan_batch.
//
// The batch fast path amortizes per-call setup across many small payloads;
// the remaining fixed cost is the scratch storage (candidate arrays,
// per-packet bookkeeping), which the caller owns so steady-state scanning
// performs zero heap allocations.  A scratch instance must not be shared
// between threads.  It MAY be handed to different matchers over time: the
// stored state is tagged by the owning matcher's monotonically assigned id
// and is re-created whenever the owner changes.
class ScanScratch {
 public:
  struct State {
    virtual ~State() = default;
  };

  // Returns the stored state if it was installed by the owner with id
  // `owner_id` (a Matcher::scratch_owner_id()) with type T, otherwise
  // replaces the state with a default-constructed T.  Owner ids are
  // monotonic and never recycled, so a mismatch is always detected; State
  // implementations must still be pure reusable scratch whose logical
  // content is re-established on every scan_batch call (capacity may carry
  // over; data must not).
  template <class T>
  T& state_for(std::uint64_t owner_id) {
    if (owner_ != owner_id || dynamic_cast<T*>(state_.get()) == nullptr) {
      state_ = std::make_unique<T>();
      owner_ = owner_id;
    }
    return static_cast<T&>(*state_);
  }

 private:
  std::unique_ptr<State> state_;
  std::uint64_t owner_ = 0;  // 0 = no state installed (ids start at 1)
};

class Matcher {
 public:
  Matcher() = default;
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;
  virtual ~Matcher() = default;

  // This engine's ScanScratch owner tag (monotonic, never reused).
  std::uint64_t scratch_owner_id() const { return scratch_owner_id_; }

  // Finds every occurrence of every pattern in `data`.
  virtual void scan(util::ByteView data, MatchSink& sink) const = 0;

  // Scans each payload independently (matches never cross payloads) and
  // reports (payload index, match) pairs.  Match multiset per payload is
  // identical to scan(payloads[i], ...); the emission ORDER across and
  // within payloads is engine-specific, exactly as it is for scan().
  //
  // The default walks payloads through scan().  Engines with a real batch
  // fast path override it to run one filtering round over the whole batch
  // and one deferred verification round, reusing `scratch` across calls.
  virtual void scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink,
                          ScanScratch& scratch) const {
    (void)scratch;
    PacketSinkAdapter adapter;
    adapter.out = &sink;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      adapter.packet = static_cast<std::uint32_t>(i);
      scan(payloads[i], adapter);
    }
  }

  virtual std::string_view name() const = 0;

  // Approximate heap footprint of the search structures, for the memory
  // comparisons (AC's automaton blow-up vs the filters' few KB).
  virtual std::size_t memory_bytes() const = 0;

  std::uint64_t count_matches(util::ByteView data) const {
    CountingSink sink;
    scan(data, sink);
    return sink.count();
  }

  std::vector<Match> find_matches(util::ByteView data) const {
    CollectingSink sink;
    scan(data, sink);
    return sink.sorted();
  }

 private:
  std::uint64_t scratch_owner_id_ = next_scratch_owner_id();
};

using MatcherPtr = std::unique_ptr<Matcher>;

}  // namespace vpm
