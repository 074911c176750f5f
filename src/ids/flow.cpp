#include "ids/flow.hpp"

#include <algorithm>

namespace vpm::ids {

util::ByteView StreamScanner::prepare(util::ByteView chunk) {
  // Assemble carry + chunk; the view stays valid until commit() (the buffer
  // is not touched in between).  Room for the longest carry up front: a
  // later, longer carry then never regrows the buffer for a chunk this size.
  buffer_.reserve(set_->max_carry() + chunk.size());
  buffer_.resize(carry_len_);
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  carry_at_stage_ = carry_len_;
  staged_chunk_len_ = chunk.size();
  staged_ = true;
  return buffer_;
}

void StreamScanner::commit() {
  consumed_ += staged_chunk_len_;
  // Retain as the next carry only the tail a match could still start in.
  carry_len_ = set_->carry_after(buffer_);
  std::copy(buffer_.end() - static_cast<long>(carry_len_), buffer_.end(), buffer_.begin());
  buffer_.resize(carry_len_);
  staged_ = false;
}

void StreamScanner::feed(util::ByteView chunk, MatchSink& sink) {
  const util::ByteView view = prepare(chunk);

  struct DedupSink final : MatchSink {
    MatchSink* inner = nullptr;
    const StreamScanner* scanner = nullptr;
    std::uint64_t base = 0;
    std::size_t carry = 0;
    void on_match(const Match& m) override {
      if (scanner->already_reported(m, carry)) return;
      inner->on_match({m.pattern_id, base + m.pos});
    }
  } dedup;
  dedup.inner = &sink;
  dedup.scanner = this;
  dedup.base = staged_base();
  dedup.carry = staged_carry();

  set_->matcher->scan(view, dedup);
  commit();
}

void StreamScanner::reset() {
  buffer_.clear();
  carry_len_ = 0;
  consumed_ = 0;
  carry_at_stage_ = 0;
  staged_chunk_len_ = 0;
  staged_ = false;
}

}  // namespace vpm::ids
