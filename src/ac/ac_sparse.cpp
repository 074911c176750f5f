#include "ac/ac_sparse.hpp"

#include "util/bytes.hpp"

namespace vpm::ac {

AcSparseMatcher::AcSparseMatcher(const pattern::PatternSet& set) : trie_(set), set_(&set) {
  meta_.reserve(set.size());
  for (const pattern::Pattern& p : set) {
    meta_.push_back({static_cast<std::uint32_t>(p.size()), p.nocase});
  }
}

void AcSparseMatcher::scan(util::ByteView data, MatchSink& sink) const {
  std::uint32_t state = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    state = trie_.next_state(state, util::ascii_lower(data[i]));
    // Emit own outputs, then chase the report-link chain.
    for (std::uint32_t n = state; n != kNoState; n = trie_.report_link(n)) {
      for (const std::uint32_t id : trie_.outputs(n)) {
        const Meta m = meta_[id];
        const std::uint64_t start = i + 1 - m.length;
        if (!m.nocase && !(*set_)[id].matches_at(data, start)) continue;
        sink.on_match({id, start});
      }
    }
  }
}

std::size_t AcSparseMatcher::memory_bytes() const {
  return trie_.memory_bytes() + meta_.size() * sizeof(Meta);
}

}  // namespace vpm::ac
