// A flow's stream state between chunks of its reassembled byte stream.
//
// NIDS payloads arrive in chunks; a pattern may straddle a chunk boundary.
// StreamScanner keeps as carry the tail of the previous data that a match
// could still start in (WorkingSet::carry_after: a backward walk over the
// set's pattern grams, at most max_len - 1 bytes) and assembles carry+chunk
// for IdsEngine to scan; a match that ends inside the carry region was
// already reported by the previous chunk's scan and is suppressed, so each
// match is reported exactly once with absolute stream offsets.  The scanner
// points at its group's WorkingSet (engine, pattern-length table and gram
// sets) and copies none of it, so a tracked stream costs its carry buffer
// plus a few words.
#pragma once

#include <cstdint>

#include "core/database.hpp"
#include "util/bytes.hpp"

namespace vpm::ids {

class StreamScanner {
 public:
  // `set` must outlive the scanner; its carry_after() sizes the carry.
  explicit StreamScanner(const WorkingSet& set) : set_(&set) {}

  // prepare() assembles carry+chunk into the flow buffer and returns the
  // view to scan (stable until commit()); the caller scans it — many flows
  // together through Matcher::scan_batch — suppressing matches that end
  // inside staged_carry() (already reported by the previous chunk's scan)
  // and rebasing surviving positions by staged_base(); commit() consumes the
  // chunk and retains the next carry.  At most one chunk may be staged at a
  // time.
  util::ByteView prepare(util::ByteView chunk);
  void commit();
  bool staged() const { return staged_; }
  std::size_t staged_carry() const { return carry_at_stage_; }
  std::uint64_t staged_base() const { return consumed_ - carry_at_stage_; }

  // The carry-dedup rule: a match ending inside the carry was already
  // reported by the previous chunk's scan.
  bool already_reported(const Match& m, std::size_t carry) const {
    return m.pos + set_->lengths[m.pattern_id] <= carry;
  }

 private:
  const WorkingSet* set_;
  util::Bytes buffer_;  // carry + current chunk
  std::size_t carry_len_ = 0;
  std::uint64_t consumed_ = 0;
  std::size_t carry_at_stage_ = 0;  // carry length captured by prepare()
  std::size_t staged_chunk_len_ = 0;
  bool staged_ = false;
};

}  // namespace vpm::ids
