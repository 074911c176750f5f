// Brute-force reference matcher: every pattern is compared at every position
// it can start — the ground truth oracle for the differential test suite.
// Never used in benchmarks.
#pragma once

#include <array>
#include <vector>

#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::core {

class NaiveMatcher final : public Matcher {
 public:
  // Keeps pointers into `set`, which must outlive the matcher.
  explicit NaiveMatcher(const pattern::PatternSet& set);

  void scan(util::ByteView data, MatchSink& sink) const override;
  std::string_view name() const override { return "naive"; }
  std::size_t memory_bytes() const override { return 0; }

 private:
  // The patterns whose first byte can equal b, in set order: a position is
  // compared only with the patterns that can start there.
  std::array<std::vector<const pattern::Pattern*>, 256> by_first_byte_;
};

}  // namespace vpm::core
