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

}  // namespace vpm::ids
