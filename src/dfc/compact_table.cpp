#include "dfc/compact_table.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "pattern/prefix.hpp"
#include "util/hash.hpp"

namespace vpm::dfc {

namespace {

// CSR over `slots` keys: offsets[k]..offsets[k+1] index the values of key k,
// in insertion order.
template <class Value>
void build_csr(std::vector<std::pair<std::uint32_t, Value>>& keyed, std::size_t slots,
               std::vector<std::uint32_t>& offsets, std::vector<Value>& values) {
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  offsets.assign(slots + 1, 0);
  values.reserve(keyed.size());
  for (const auto& [key, value] : keyed) {
    ++offsets[key + 1];
    values.push_back(value);
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
}

}  // namespace

ShortTable::ShortTable(const pattern::PatternSet& set) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_byte;
  std::vector<std::pair<std::uint32_t, WindowEntry>> by_window;
  for (const pattern::Pattern& p : set) {
    if (p.size() >= pattern::kShortLongBoundary) continue;
    ++pattern_count_;
    if (p.size() == 1) {
      for (std::uint32_t v : pattern::prefix_variants({p.bytes.data(), 1}, p.nocase)) {
        by_byte.emplace_back(v, p.id);
      }
      continue;
    }
    WindowEntry entry;
    entry.id = p.id;
    entry.len = static_cast<std::uint8_t>(p.size());
    entry.nocase = p.nocase;
    if (p.size() == 3) entry.third = p.nocase ? util::ascii_lower(p.bytes[2]) : p.bytes[2];
    for (std::uint32_t v : pattern::prefix_variants({p.bytes.data(), 2}, p.nocase)) {
      by_window.emplace_back(v, entry);
    }
  }
  build_csr(by_byte, 256, byte_offsets_, byte_ids_);
  if (by_window.empty()) return;
  // Number the used windows in window order, then build the CSR over those
  // slot numbers.
  window_blocks_.resize((1u << 16) / 64);
  for (const auto& [window, entry] : by_window) {
    window_blocks_[window >> 6].used |= std::uint64_t{1} << (window & 63u);
  }
  std::uint32_t slots = 0;
  for (WindowBlock& block : window_blocks_) {
    block.slot = slots;
    slots += static_cast<std::uint32_t>(std::popcount(block.used));
  }
  for (auto& [window, entry] : by_window) window = slot_of(window_blocks_[window >> 6], window);
  build_csr(by_window, slots, window_offsets_, window_entries_);
}

std::size_t ShortTable::memory_bytes() const {
  return (byte_offsets_.size() + byte_ids_.size() + window_offsets_.size()) *
             sizeof(std::uint32_t) +
         window_blocks_.size() * sizeof(WindowBlock) +
         window_entries_.size() * sizeof(WindowEntry);
}

LongTable::LongTable(const pattern::PatternSet& set) {
  std::vector<std::pair<std::uint32_t, Entry>> keyed;
  for (const pattern::Pattern& p : set) {
    if (p.size() < pattern::kShortLongBoundary) continue;
    ++pattern_count_;
    const std::uint32_t offset = arena_.add(p.bytes);
    for (std::uint32_t v : pattern::prefix_variants({p.bytes.data(), 4}, p.nocase)) {
      keyed.emplace_back(util::multiplicative_hash(v, kBucketBits),
                         Entry{v, p.id, static_cast<std::uint32_t>(p.size()), offset, p.nocase});
    }
  }
  build_csr(keyed, std::size_t{1} << kBucketBits, offsets_, entries_);
}

double LongTable::mean_bucket_entries() const {
  std::size_t used = 0;
  for (std::size_t b = 0; b + 1 < offsets_.size(); ++b) {
    if (offsets_[b + 1] > offsets_[b]) ++used;
  }
  return used == 0 ? 0.0 : static_cast<double>(entries_.size()) / static_cast<double>(used);
}

std::size_t LongTable::memory_bytes() const {
  return entries_.size() * sizeof(Entry) + offsets_.size() * sizeof(std::uint32_t) +
         arena_.size();
}

}  // namespace vpm::dfc
