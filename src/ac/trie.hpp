// Aho-Corasick goto/fail trie, built in linear time into flat arrays.
//
// Shared by the two automaton variants (full-matrix and compact).
// Built over case-folded bytes, as Snort's acsm does: the automaton alphabet
// is lowercased, nocase patterns match directly on an automaton hit, and
// case-sensitive patterns are verified against the original input bytes at
// the hit position.  This gives every engine in the library identical match
// semantics for mixed-case pattern sets.
//
// Layout.  States are numbered breadth-first: the root is 0, then every
// depth-1 state, then every depth-2 state, and within one depth in the
// lexicographic order of the folded strings they spell.  So a state's
// children are contiguous and in edge-byte order, children(s) =
// [first_child(s), first_child(s) + child_count(s)), and a state's fail
// target, being shallower, always precedes it.  Per-state arrays hold the
// child range, the edge byte, the fail link, the report link and an output
// range into one array of pattern ids sorted by folded bytes: the patterns
// that end at a state are one contiguous run of it.  No state owns a heap
// allocation.
//
// Construction, linear in the total pattern bytes (plus the id sort):
//   1. Fold every pattern into one buffer and stable-sort the ids by their
//      folded bytes.
//   2. Split the sorted ranges level by level.  A depth-d state owns the
//      ids whose folded form starts with its string; those of length d end
//      there (they sort first), and the rest split into one child per
//      distinct byte at position d.  Appending children as their parents
//      are split yields the breadth-first numbering directly.
//   3. In that order, build each state's fail-resolved DFA row as a diff
//      against the root row (RowDiffs): diff(s) is diff(fail(s)) overlaid
//      with s's children, one sorted merge.  The same merge derives the
//      fail link of each child on byte b as delta(fail(s), b): the entry of
//      diff(fail(s)) at b, or else the root row's.  No fail chain is ever
//      walked.  The report link (the nearest state along the fail chain
//      that has outputs) follows from the fail link in the same pass.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern_set.hpp"

namespace vpm::ac {

inline constexpr std::uint32_t kNoState = 0xFFFFFFFFu;

// diff(s) for every state, as one CSR in state order: the folded bytes at
// which the fail-resolved DFA row of s differs from the root row, in
// ascending order, and the target state of each.  diff(root) is empty.
struct RowDiffs {
  std::vector<std::uint32_t> begin;  // state_count() + 1 offsets
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> targets;

  std::size_t size(std::uint32_t s) const { return begin[s + 1] - begin[s]; }
};

class Trie {
 public:
  // Builds goto/fail/report links for all patterns in the set, and hands
  // out the row diffs the fail links were read from.
  Trie(const pattern::PatternSet& set, RowDiffs& diffs);

  std::size_t state_count() const { return edge_.size(); }

  std::uint32_t first_child(std::uint32_t s) const { return child_begin_[s]; }
  std::uint32_t child_count(std::uint32_t s) const {
    return child_begin_[s + 1] - child_begin_[s];
  }
  // The folded byte on the edge from s's parent (0 for the root).
  std::uint8_t edge_byte(std::uint32_t s) const { return edge_[s]; }
  std::uint32_t fail(std::uint32_t s) const { return fail_[s]; }
  // Pattern ids whose folded form ends exactly at s, ascending.
  std::span<const std::uint32_t> outputs(std::uint32_t s) const {
    return {ids_.data() + out_begin_[s], out_count_[s]};
  }
  // Appends every pattern id whose folded form is a suffix of s's string:
  // s's own outputs, then those along its report-link chain (the nearest
  // state along the fail chain that has outputs, and so on).
  void append_matches(std::uint32_t s, std::vector<std::uint32_t>& out) const;

  // The root's DFA row: its child on each folded byte, else the root.
  std::array<std::uint32_t, 256> root_row() const;

 private:
  std::vector<std::uint32_t> child_begin_;  // state_count() + 1 entries
  std::vector<std::uint8_t> edge_;
  std::vector<std::uint32_t> fail_;
  std::vector<std::uint32_t> report_;
  std::vector<std::uint32_t> out_begin_;  // index into ids_
  std::vector<std::uint32_t> out_count_;
  std::vector<std::uint32_t> ids_;  // pattern ids sorted by folded bytes
};

}  // namespace vpm::ac
