// Protocol rule groups (paper §V-A): "patterns are organized in groups,
// depending on the type of traffic they refer to. When traffic arrives ...
// the reassembled payload is matched only against patterns that are relevant
// (e.g. if the stream has HTTP traffic, it is checked against HTTP related
// patterns, as well as more general patterns)".
//
// GroupedRules builds one matcher per protocol, each over that protocol's
// patterns plus the generic ones.  Pattern ids reported by group matchers
// are LOCAL to the group's PatternSet; the mapping back to the master set is
// provided for alert rendering.
//
// A GroupedRules is an immutable compiled artifact once built: matcher_for()
// and every accessor are const and thread-safe (scan state lives in
// caller-owned ScanScratch), so one instance can back any number of engine
// instances across threads — the pipeline shares one GroupedRulesPtr per
// ruleset generation among all workers instead of compiling per worker.
// The groups are keyed off a shared compiled database: the Database ref
// keeps the master pattern bytes alive and supplies the algorithm, the
// per-group prefilter signatures and the generation id alerts carry.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/database.hpp"
#include "core/matcher_factory.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::ids {

class GroupedRules;
using GroupedRulesPtr = std::shared_ptr<const GroupedRules>;

class GroupedRules {
 public:
  // Keys the group matchers off `db` (master patterns + algorithm); the
  // stored ref keeps the database alive and generation() reports
  // db->generation().  Throws std::invalid_argument on a null database.
  explicit GroupedRules(DatabasePtr db);

  // The ruleset generation alerts produced through these rules carry.
  std::uint64_t generation() const { return db_->generation(); }
  const DatabasePtr& database() const { return db_; }

  // The matcher for traffic of protocol `g` (http/dns/ftp/smtp/generic).
  const Matcher& matcher_for(pattern::Group g) const { return *entries_[index(g)].matcher; }
  const pattern::PatternSet& patterns_for(pattern::Group g) const {
    return entries_[index(g)].patterns;
  }
  // Maps a group-local pattern id back to the master-set id.
  std::uint32_t master_id(pattern::Group g, std::uint32_t local_id) const {
    return entries_[index(g)].to_master[local_id];
  }
  std::size_t max_pattern_length(pattern::Group g) const {
    return entries_[index(g)].max_len;
  }
  const std::vector<std::uint32_t>& pattern_lengths(pattern::Group g) const {
    return entries_[index(g)].lengths;
  }
  // The group's approximate q-gram signature (null = no usable signature),
  // taken from the backing Database, so a deserialized artifact screens with
  // the exact saved signature.
  const core::PrefilterPtr& prefilter_for(pattern::Group g) const {
    return entries_[index(g)].prefilter;
  }

 private:
  static std::size_t index(pattern::Group g) { return static_cast<std::size_t>(g); }

  struct Entry {
    pattern::PatternSet patterns;
    std::vector<std::uint32_t> to_master;
    std::vector<std::uint32_t> lengths;
    MatcherPtr matcher;
    core::PrefilterPtr prefilter;
    std::size_t max_len = 0;
  };
  DatabasePtr db_;
  std::array<Entry, static_cast<std::size_t>(pattern::Group::count)> entries_;
};

}  // namespace vpm::ids
