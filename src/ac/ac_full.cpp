#include "ac/ac_full.hpp"

#include <algorithm>
#include <array>

#include "ac/trie.hpp"
#include "util/bytes.hpp"

namespace vpm::ac {

AcFullMatcher::AcFullMatcher(const pattern::PatternSet& set) : set_(&set) {
  RowDiffs diffs;
  const Trie trie(set, diffs);
  state_count_ = trie.state_count();

  meta_.reserve(set.size());
  for (const pattern::Pattern& p : set) {
    meta_.push_back({static_cast<std::uint32_t>(p.size()), p.nocase});
  }

  // Dense transition matrix: each state's row is the root row overlaid with
  // the state's diff (the root's own diff is empty).
  next_.assign(state_count_ * 256, 0);
  const std::array<std::uint32_t, 256> root = trie.root_row();
  std::copy(root.begin(), root.end(), next_.begin());
  for (std::uint32_t s = 1; s < state_count_; ++s) {
    std::uint32_t* row = next_.data() + static_cast<std::size_t>(s) * 256;
    std::copy_n(next_.data(), 256, row);
    for (std::uint32_t k = diffs.begin[s]; k < diffs.begin[s + 1]; ++k) {
      row[diffs.bytes[k]] = diffs.targets[k];
    }
  }

  // Merged output lists: the state's own outputs plus every output reachable
  // over the report-link chain (patterns that are proper suffixes).
  output_spans_.resize(state_count_);
  for (std::uint32_t s = 0; s < state_count_; ++s) {
    const auto begin = static_cast<std::uint32_t>(output_ids_.size());
    trie.append_matches(s, output_ids_);
    output_spans_[s] = {begin, static_cast<std::uint32_t>(output_ids_.size()) - begin};
  }
}

void AcFullMatcher::scan(util::ByteView data, MatchSink& sink) const {
  const std::uint32_t* next = next_.data();
  std::uint32_t state = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    state = next[static_cast<std::size_t>(state) * 256 + util::ascii_lower(data[i])];
    const OutputSpan span = output_spans_[state];
    if (span.count == 0) continue;
    for (std::uint32_t k = 0; k < span.count; ++k) {
      const std::uint32_t id = output_ids_[span.begin + k];
      const Meta m = meta_[id];
      const std::uint64_t start = i + 1 - m.length;
      if (!m.nocase) {
        // Automaton is case-folded; exact-case patterns verify raw bytes.
        const pattern::Pattern& p = (*set_)[id];
        if (!p.matches_at(data, start)) continue;
      }
      sink.on_match({id, start});
    }
  }
}

std::size_t AcFullMatcher::memory_bytes() const {
  return next_.size() * sizeof(std::uint32_t) + output_ids_.size() * sizeof(std::uint32_t) +
         output_spans_.size() * sizeof(OutputSpan) + meta_.size() * sizeof(Meta);
}

}  // namespace vpm::ac
