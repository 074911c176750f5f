#include "ids/rule_group.hpp"

#include <stdexcept>

namespace vpm::ids {

GroupedRules::GroupedRules(DatabasePtr db) : db_(std::move(db)) {
  if (db_ == nullptr) throw std::invalid_argument("GroupedRules: null database");
  using pattern::Group;
  for (std::size_t g = 0; g < entries_.size(); ++g) {
    Entry& entry = entries_[g];
    const Group group = static_cast<Group>(g);
    for (const pattern::Pattern& p : db_->patterns()) {
      // Each group's working set = its own patterns + the generic ones; the
      // generic matcher sees only generic patterns.
      if (p.group != group && p.group != Group::generic) continue;
      const std::uint32_t local = entry.patterns.add(p.bytes, p.nocase, p.group);
      if (local == entry.to_master.size()) {
        entry.to_master.push_back(p.id);
        entry.lengths.push_back(static_cast<std::uint32_t>(p.size()));
        entry.max_len = std::max(entry.max_len, p.size());
      }
    }
    entry.prefilter = db_->prefilter_for(group);
    if (entry.patterns.empty()) {
      // Keep a valid (trivially empty-result) matcher for protocol groups
      // with no rules: one unmatched sentinel pattern is cheaper than a null
      // check on every inspect call — build from a set with no patterns is
      // rejected by some engines, so route through naive.
      entry.matcher = core::make_matcher(core::Algorithm::naive, entry.patterns);
      continue;
    }
    entry.matcher = core::make_matcher(db_->algorithm(), entry.patterns);
  }
}

}  // namespace vpm::ids
