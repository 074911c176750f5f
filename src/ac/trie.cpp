#include "ac/trie.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/bytes.hpp"

namespace vpm::ac {

Trie::Trie(const pattern::PatternSet& set, RowDiffs& diffs) {
  const auto count = static_cast<std::uint32_t>(set.size());

  // Phase 1: every pattern folded into one buffer; ids sorted by folded
  // bytes (stable, so equal folded strings keep ascending ids).  The total
  // bounds the state count, so it must leave kNoState free.
  std::vector<std::uint32_t> start(count + 1, 0);
  std::size_t total = 0;
  for (std::uint32_t id = 0; id < count; ++id) {
    total += set[id].size();
    if (total >= kNoState) throw std::length_error("aho-corasick: patterns exceed 2^32 - 1 bytes");
    start[id + 1] = static_cast<std::uint32_t>(total);
  }
  std::vector<std::uint8_t> folded(start[count]);
  for (std::uint32_t id = 0; id < count; ++id) {
    std::uint8_t* dst = folded.data() + start[id];
    for (const std::uint8_t raw : set[id].bytes) *dst++ = util::ascii_lower(raw);
  }
  const auto len = [&](std::uint32_t id) { return start[id + 1] - start[id]; };
  const auto byte_at = [&](std::uint32_t id, std::uint32_t i) { return folded[start[id] + i]; };
  ids_.resize(count);
  std::iota(ids_.begin(), ids_.end(), 0u);
  std::stable_sort(ids_.begin(), ids_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t la = len(a);
    const std::uint32_t lb = len(b);
    const int c = std::memcmp(folded.data() + start[a], folded.data() + start[b], std::min(la, lb));
    return c < 0 || (c == 0 && la < lb);
  });

  // Each distinct non-empty prefix is one state: a sorted id adds the bytes
  // past its common prefix with the previous one.
  std::size_t n = 1;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t id = ids_[k];
    std::uint32_t lcp = 0;
    if (k > 0) {
      const std::uint32_t prev = ids_[k - 1];
      const std::uint32_t limit = std::min(len(prev), len(id));
      while (lcp < limit && byte_at(prev, lcp) == byte_at(id, lcp)) ++lcp;
    }
    n += len(id) - lcp;
  }

  child_begin_.assign(n + 1, 0);
  edge_.assign(n, 0);
  fail_.assign(n, 0);
  report_.assign(n, kNoState);
  out_begin_.assign(n, 0);
  out_count_.assign(n, 0);

  // Phase 2: split the sorted ranges level by level.  State s owns the ids
  // [out_begin_[s], range_end[s]); the ones of length depth(s) end at s.
  std::vector<std::uint32_t> range_end(n, 0);
  range_end[0] = count;
  auto next = std::uint32_t{1};
  for (std::uint32_t level_begin = 0, level_end = 1, depth = 0; level_begin < level_end;
       level_begin = level_end, level_end = next, ++depth) {
    for (std::uint32_t s = level_begin; s < level_end; ++s) {
      std::uint32_t i = out_begin_[s];
      const std::uint32_t end = range_end[s];
      while (i < end && len(ids_[i]) == depth) ++i;
      out_count_[s] = i - out_begin_[s];
      child_begin_[s] = next;
      while (i < end) {
        const std::uint8_t b = byte_at(ids_[i], depth);
        std::uint32_t j = i + 1;
        while (j < end && byte_at(ids_[j], depth) == b) ++j;
        edge_[next] = b;
        out_begin_[next] = i;
        range_end[next] = j;
        ++next;
        i = j;
      }
    }
  }
  child_begin_[n] = static_cast<std::uint32_t>(n);

  // Phase 3: row diffs, fail and report links in BFS order.  diff(s) is
  // diff(fail(s)) overlaid with s's children: the runs of diff(fail(s))
  // between two child bytes copy over whole.  Where a child's byte b meets
  // diff(fail(s)), that entry is delta(fail(s), b), the child's fail link;
  // where it does not, delta(fail(s), b) is the root row's entry.  Children
  // of the root keep fail 0.
  const std::array<std::uint32_t, 256> root = root_row();
  diffs.begin.assign(n + 1, 0);
  // Reserved, not written: untouched pages cost no memory, and a CSR that
  // never grows neither copies itself nor holds two buffers at once.  48
  // entries per state exceeds the mean diff of the bundled rulesets (about
  // 11 on S1-web and the tls_screened ruleset, 43 on S2-full).
  diffs.bytes.clear();
  diffs.targets.clear();
  diffs.bytes.reserve(n * 48);
  diffs.targets.reserve(n * 48);
  for (std::uint32_t s = 1; s < n; ++s) {
    const std::uint32_t f = fail_[s];
    report_[s] = out_count_[f] != 0 ? f : report_[f];
    std::uint32_t di = diffs.begin[f];
    const std::uint32_t de = diffs.begin[f + 1];
    // diff(s) has at most |diff(fail(s))| + |children(s)| entries.
    const std::size_t bound = diffs.bytes.size() + (de - di) + child_count(s);
    if (bound > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("aho-corasick: row diffs exceed 2^32 entries");
    }
    auto size = static_cast<std::uint32_t>(diffs.bytes.size());
    diffs.bytes.resize(bound);
    diffs.targets.resize(diffs.bytes.size());
    std::uint8_t* const bytes = diffs.bytes.data();
    std::uint32_t* const targets = diffs.targets.data();
    const auto copy_run = [&](std::uint32_t end) {
      std::copy(bytes + di, bytes + end, bytes + size);
      std::copy(targets + di, targets + end, targets + size);
      size += end - di;
      di = end;
    };
    for (std::uint32_t c = child_begin_[s]; c < child_begin_[s + 1]; ++c) {
      const std::uint8_t b = edge_[c];
      copy_run(static_cast<std::uint32_t>(std::lower_bound(bytes + di, bytes + de, b) - bytes));
      if (di < de && bytes[di] == b) {
        fail_[c] = targets[di++];
      } else {
        fail_[c] = root[b];
      }
      bytes[size] = b;
      targets[size] = c;
      ++size;
    }
    copy_run(de);
    diffs.bytes.resize(size);
    diffs.targets.resize(size);
    diffs.begin[s + 1] = size;
  }
}

std::array<std::uint32_t, 256> Trie::root_row() const {
  std::array<std::uint32_t, 256> row{};
  for (std::uint32_t c = child_begin_[0]; c < child_begin_[1]; ++c) row[edge_[c]] = c;
  return row;
}

void Trie::append_matches(std::uint32_t s, std::vector<std::uint32_t>& out) const {
  for (std::uint32_t t = s; t != kNoState; t = report_[t]) {
    const std::span<const std::uint32_t> own = outputs(t);
    out.insert(out.end(), own.begin(), own.end());
  }
}

}  // namespace vpm::ac
