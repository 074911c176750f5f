// A flow's stream state between chunks of its reassembled byte stream.
//
// NIDS payloads arrive in chunks; a pattern may straddle a chunk boundary.
// StreamScanner keeps as carry the tail of the previous data that a match
// could still start in (WorkingSet::carry_after: a backward walk over the
// set's pattern grams, at most max_carry() bytes).  IdsEngine stages carry
// followed by the next chunk in its batch arena and scans that view; a
// match that ends inside the carry region was already reported by the
// previous chunk's scan and is suppressed, so each match is reported
// exactly once with absolute stream offsets.  The scanner points at its
// group's WorkingSet (engine, pattern-length table and gram sets), copies
// none of it and holds no chunk, so a tracked stream costs its carry — in
// the scanner up to kInlineCarry bytes, in one max_carry()-byte heap block
// beyond — plus a few words.
#pragma once

#include <cstdint>
#include <memory>

#include "core/database.hpp"
#include "util/bytes.hpp"

namespace vpm::ids {

class StreamScanner {
 public:
  // Carries up to this length live inside the scanner, with no heap block.
  static constexpr std::size_t kInlineCarry = 16;

  // `set` must outlive the scanner; its carry_after() sizes the carry.
  explicit StreamScanner(const WorkingSet& set) : set_(&set) {}

  // The staging protocol: the caller copies carry() followed by the next
  // chunk into one view and calls stage(); it scans the view — many flows
  // together through Matcher::scan_batch — suppressing matches that end
  // inside staged_carry() (already reported by the previous chunk's scan)
  // and rebasing surviving positions by staged_base(); commit(view)
  // consumes the chunk and keeps the view's live tail as the next carry.
  // At most one chunk may be staged at a time, and carry() is stable until
  // commit().
  util::ByteView carry() const {
    return {carry_len_ <= kInlineCarry ? inline_carry_ : long_carry_.get(), carry_len_};
  }
  void stage() { staged_ = true; }
  void commit(util::ByteView staged);
  bool staged() const { return staged_; }
  std::size_t staged_carry() const { return carry_len_; }
  std::uint64_t staged_base() const { return consumed_ - carry_len_; }

  // The carry-dedup rule: a match ending inside the carry was already
  // reported by the previous chunk's scan.
  bool already_reported(const Match& m, std::size_t carry) const {
    return m.pos + set_->lengths[m.pattern_id] <= carry;
  }

 private:
  const WorkingSet* set_;
  std::uint64_t consumed_ = 0;  // stream bytes committed so far
  // max_carry() bytes, allocated by the first carry longer than
  // kInlineCarry and kept for the stream's life.
  std::unique_ptr<std::uint8_t[]> long_carry_;
  std::uint32_t carry_len_ = 0;
  bool staged_ = false;
  std::uint8_t inline_carry_[kInlineCarry] = {};
};

}  // namespace vpm::ids
