#include "core/naive.hpp"

namespace vpm::core {

NaiveMatcher::NaiveMatcher(const pattern::PatternSet& set) {
  for (const pattern::Pattern& p : set) {
    const std::uint8_t first = p.bytes[0];
    const std::uint8_t lower = p.nocase ? util::ascii_lower(first) : first;
    const std::uint8_t upper = p.nocase ? util::ascii_upper(first) : first;
    by_first_byte_[lower].push_back(&p);
    if (upper != lower) by_first_byte_[upper].push_back(&p);
  }
}

void NaiveMatcher::scan(util::ByteView data, MatchSink& sink) const {
  for (std::size_t pos = 0; pos < data.size(); ++pos) {
    for (const pattern::Pattern* p : by_first_byte_[data[pos]]) {
      if (p->matches_at(data, pos)) sink.on_match({p->id, pos});
    }
  }
}

}  // namespace vpm::core
