#include "pattern/pattern_set.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vpm::pattern {

std::size_t PatternSet::KeyHash::operator()(const std::pair<util::Bytes, bool>& k) const {
  const std::uint32_t h = util::fnv1a(k.first.data(), k.first.size());
  return h * 2u + (k.second ? 1u : 0u);
}

std::uint32_t PatternSet::add(util::Bytes bytes, bool nocase, Group group) {
  if (bytes.empty()) throw std::invalid_argument("PatternSet::add: empty pattern");
  auto key = std::make_pair(bytes, nocase);
  if (auto it = index_.find(key); it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(patterns_.size());
  patterns_.push_back(Pattern{id, std::move(bytes), nocase, group});
  index_.emplace(std::move(key), id);
  return id;
}

bool PatternSet::contains(util::ByteView bytes, bool nocase) const {
  return index_.contains({util::Bytes(bytes.begin(), bytes.end()), nocase});
}

LengthStats PatternSet::length_stats() const {
  LengthStats s;
  s.total = patterns_.size();
  if (patterns_.empty()) return s;
  s.min_len = patterns_.front().size();
  std::size_t sum = 0;
  std::size_t len_1_to_4 = 0;
  for (const Pattern& p : patterns_) {
    const std::size_t n = p.size();
    sum += n;
    s.min_len = std::min(s.min_len, n);
    s.max_len = std::max(s.max_len, n);
    if (n < kShortLongBoundary) ++s.short_family; else ++s.long_family;
    if (n <= 4) ++len_1_to_4;
  }
  s.mean_len = static_cast<double>(sum) / static_cast<double>(s.total);
  s.frac_len_1_to_4 = static_cast<double>(len_1_to_4) / static_cast<double>(s.total);
  return s;
}

PatternSet PatternSet::filter_groups(std::initializer_list<Group> groups) const {
  PatternSet out;
  for (const Pattern& p : patterns_) {
    if (std::find(groups.begin(), groups.end(), p.group) != groups.end()) {
      out.add(p.bytes, p.nocase, p.group);
    }
  }
  return out;
}

PatternSet PatternSet::random_subset(std::size_t n, std::uint64_t seed) const {
  n = std::min(n, patterns_.size());
  std::vector<std::uint32_t> ids(patterns_.size());
  std::iota(ids.begin(), ids.end(), 0u);
  util::Rng rng(seed);
  // Fisher-Yates prefix shuffle: only the first n slots matter.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(ids.size() - i));
    std::swap(ids[i], ids[j]);
  }
  PatternSet out;
  for (std::size_t i = 0; i < n; ++i) {
    const Pattern& p = patterns_[ids[i]];
    out.add(p.bytes, p.nocase, p.group);
  }
  return out;
}

}  // namespace vpm::pattern
