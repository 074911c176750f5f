// Sparse (failure-link) Aho-Corasick.
//
// Keeps only the flat trie (ac/trie.hpp) and walks fail links at scan time
// — the memory-frugal variant (Snort's sparse/bnfa family).  A transition
// binary-searches the state's contiguous, byte-ordered child range and
// falls back along fail links; outputs are the state's own run of sorted
// pattern ids plus those along its report-link chain.  The row diffs the
// trie's construction derives its fail links from are not kept.  Used as a
// second reference implementation in the differential tests and as the
// fallback when a full matrix would be oversized.
#pragma once

#include <cstdint>
#include <vector>

#include "ac/trie.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::ac {

class AcSparseMatcher final : public Matcher {
 public:
  explicit AcSparseMatcher(const pattern::PatternSet& set);

  void scan(util::ByteView data, MatchSink& sink) const override;
  std::string_view name() const override { return "Aho-Corasick-sparse"; }
  std::size_t memory_bytes() const override;

  std::size_t state_count() const { return trie_.state_count(); }

 private:
  Trie trie_;
  struct Meta {
    std::uint32_t length = 0;
    bool nocase = false;
  };
  std::vector<Meta> meta_;
  const pattern::PatternSet* set_ = nullptr;
};

}  // namespace vpm::ac
