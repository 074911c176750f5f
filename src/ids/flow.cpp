#include "ids/flow.hpp"

#include <cstring>

namespace vpm::ids {

void StreamScanner::commit(util::ByteView staged) {
  consumed_ += staged.size() - carry_len_;
  // Retain as the next carry only the tail a match could still start in.
  carry_len_ = static_cast<std::uint32_t>(set_->carry_after(staged));
  staged_ = false;
  if (carry_len_ == 0) return;
  std::uint8_t* to = inline_carry_;
  if (carry_len_ > kInlineCarry) {
    if (long_carry_ == nullptr) {
      long_carry_ = std::make_unique_for_overwrite<std::uint8_t[]>(set_->max_carry());
    }
    to = long_carry_.get();
  }
  std::memcpy(to, staged.data() + staged.size() - carry_len_, carry_len_);
}

}  // namespace vpm::ids
