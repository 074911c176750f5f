// PatternSet: the deduplicated collection handed to matcher builders.
//
// Provides the statistics the algorithms key off (short/long split at the
// S-PATCH 4-byte boundary), protocol-group filtering (the paper evaluates
// "web" = http + generic patterns), and deterministic random subsetting for
// the Fig. 5a pattern-count sweep.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pattern/pattern.hpp"

namespace vpm::pattern {

// Patterns shorter than this belong to the "short" family (Filter 1 /
// A_short); patterns of at least this length to the "long" family.
inline constexpr std::size_t kShortLongBoundary = 4;

struct LengthStats {
  std::size_t total = 0;
  std::size_t short_family = 0;  // 1..3 bytes
  std::size_t long_family = 0;   // >= 4 bytes
  std::size_t min_len = 0;
  std::size_t max_len = 0;
  double mean_len = 0.0;
  // Snort footnote statistic from the paper: fraction with length 1..4.
  double frac_len_1_to_4 = 0.0;
};

class PatternSet {
 public:
  // Adds a pattern unless an identical (bytes, nocase) one exists; returns
  // the id of the stored pattern either way. Empty patterns are rejected.
  std::uint32_t add(util::Bytes bytes, bool nocase = false, Group group = Group::generic);
  std::uint32_t add(std::string_view text, bool nocase = false, Group group = Group::generic) {
    return add(util::to_bytes(text), nocase, group);
  }

  bool contains(util::ByteView bytes, bool nocase) const;

  const Pattern& operator[](std::uint32_t id) const { return patterns_[id]; }
  std::size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }
  const std::vector<Pattern>& patterns() const { return patterns_; }

  auto begin() const { return patterns_.begin(); }
  auto end() const { return patterns_.end(); }

  LengthStats length_stats() const;

  // Patterns whose group is in `groups` (ids are re-densified in the result).
  PatternSet filter_groups(std::initializer_list<Group> groups) const;
  // The paper's "web traffic patterns": http-specific plus generic ones.
  PatternSet web_patterns() const { return filter_groups({Group::http, Group::generic}); }

  // Deterministic random subset of n patterns (n clamped to size()).
  PatternSet random_subset(std::size_t n, std::uint64_t seed) const;

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<util::Bytes, bool>& k) const;
  };
  std::vector<Pattern> patterns_;
  std::unordered_map<std::pair<util::Bytes, bool>, std::uint32_t, KeyHash> index_;
};

}  // namespace vpm::pattern
