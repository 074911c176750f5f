#include "core/database.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace vpm {

namespace {

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t pattern_bytes(const pattern::PatternSet& set) {
  std::size_t bytes = 0;
  for (const pattern::Pattern& p : set) bytes += sizeof(pattern::Pattern) + p.bytes.capacity();
  return bytes;
}

// Fills the gram sets WorkingSet::carry_after() reads.  `window` holds the
// folded bytes i-3..i little-endian, as util::load_u32 reads them.
void build_carry_grams(WorkingSet& set) {
  std::size_t total = 0;
  for (const pattern::Pattern& p : set.patterns) total += p.size();
  const auto bits = total > 0 ? static_cast<unsigned>(std::bit_width(16 * total - 1)) : 0u;
  set.gram4_bits = std::clamp(bits, 12u, 24u);
  set.byte_set = util::BitArray(256);
  set.bigram_set = util::BitArray(std::size_t{1} << 16);
  set.gram4_set = util::BitArray(std::size_t{1} << set.gram4_bits);
  for (const pattern::Pattern& p : set.patterns) {
    std::uint32_t window = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      window = (window >> 8) | (std::uint32_t{util::ascii_lower(p.bytes[i])} << 24);
      set.byte_set.set(window >> 24);
      if (i >= 1) set.bigram_set.set(window >> 16);
      if (i >= 3) set.gram4_set.set(util::multiplicative_hash(window, set.gram4_bits));
    }
  }
}

// The patterns of a v1 or v2 blob, whose header lands in `header`.  v2
// blobs MUST carry the matching content fingerprint (save_patterns always
// writes it); exempting 0 would let corruption that zeroes the header field
// silently disable the integrity check.  v1 blobs predate fingerprints and
// are admitted unchecked.
pattern::PatternSet load_patterns(util::ByteView blob, pattern::DbHeader& header) {
  pattern::PatternSet set = pattern::deserialize_patterns(blob, &header);
  if (header.version >= 2 && header.fingerprint != Database::fingerprint_of(set)) {
    throw std::invalid_argument("pattern db: fingerprint mismatch (corrupt payload)");
  }
  return set;
}

// Sum of f(slot) over the distinct non-null pointers of a per-group array.
template <typename Slots, typename F>
std::size_t sum_distinct(const Slots& slots, F f) {
  std::size_t total = 0;
  for (auto it = slots.begin(); it != slots.end(); ++it) {
    if (*it != nullptr && std::find(slots.begin(), it, *it) == it) total += f(**it);
  }
  return total;
}

}  // namespace

std::uint64_t Database::fingerprint_of(const pattern::PatternSet& set) {
  std::uint64_t h = util::fnv1a64_u64(set.size(), util::kFnv64Seed);
  for (const pattern::Pattern& p : set) {
    h = util::fnv1a64_u64(p.size(), h);
    h = util::fnv1a64_u64((p.nocase ? 1u : 0u) |
                              (static_cast<std::uint64_t>(p.group) << 8),
                          h);
    h = util::fnv1a64(p.bytes.data(), p.bytes.size(), h);
  }
  return h;
}

Database::Database(Private, core::Algorithm algorithm, pattern::PatternSet patterns)
    : patterns_(std::move(patterns)),
      algorithm_(algorithm),
      generation_(next_generation()),
      fingerprint_(fingerprint_of(patterns_)) {
  // Fail at compile() time, not on first engine() use: a database whose
  // algorithm this CPU cannot run must never be handed out.
  if (!core::algorithm_available(algorithm_)) {
    throw std::runtime_error(std::string("compile: algorithm '") +
                             std::string(core::algorithm_name(algorithm_)) +
                             "' is unavailable on this CPU");
  }
  // Each group's working set is its own patterns plus the generic ones; the
  // generic group sees only generic patterns.  A composition equal to an
  // earlier group's reuses that set and its signature.
  for (std::size_t g = 0; g < sets_.size(); ++g) {
    const auto group = static_cast<pattern::Group>(g);
    std::vector<std::uint32_t> to_master;
    for (const pattern::Pattern& p : patterns_) {
      if (p.group == group || p.group == pattern::Group::generic) to_master.push_back(p.id);
    }
    const auto earlier = std::find_if(sets_.begin(), sets_.begin() + g, [&](const auto& set) {
      return set->to_master == to_master;
    });
    if (earlier != sets_.begin() + g) {
      sets_[g] = *earlier;
      prefilters_[g] = prefilters_[static_cast<std::size_t>(earlier - sets_.begin())];
      continue;
    }
    auto set = std::make_shared<WorkingSet>();
    for (const std::uint32_t id : to_master) {
      const pattern::Pattern& p = patterns_[id];
      set->patterns.add(p.bytes, p.nocase, p.group);
      set->lengths.push_back(static_cast<std::uint32_t>(p.size()));
      set->max_len = std::max(set->max_len, p.size());
    }
    set->to_master = std::move(to_master);
    set->matcher = core::make_matcher(
        set->patterns.empty() ? core::Algorithm::naive : algorithm_, set->patterns);
    build_carry_grams(*set);
    prefilters_[g] = core::build_prefilter(set->patterns);
    sets_[g] = std::move(set);
  }
}

std::size_t WorkingSet::carry_after(util::ByteView buffer) const {
  const std::size_t limit = std::min(buffer.size(), max_carry());
  std::size_t k = 0;  // steps passed; the next step reads byte n - 1 - k
  for (std::uint32_t window = 0; k < limit; ++k) {
    window = (window << 8) | util::ascii_lower(buffer[buffer.size() - 1 - k]);
    if (!byte_set.test(window & 0xFFu) || (k >= 1 && !bigram_set.test(window & 0xFFFFu)) ||
        (k >= 3 && !gram4_set.test(util::multiplicative_hash(window, gram4_bits)))) {
      break;
    }
  }
  return k;
}

const Matcher& Database::engine() const {
  for (const auto& set : sets_) {
    if (!set->to_master.empty() && set->to_master.size() == patterns_.size()) {
      return *set->matcher;
    }
  }
  std::call_once(engine_once_,
                 [this] { engine_ = core::make_matcher(algorithm_, patterns_); });
  return *engine_;
}

std::size_t Database::memory_bytes() const {
  const std::size_t sets = sum_distinct(sets_, [](const WorkingSet& set) {
    return set.matcher->memory_bytes() + pattern_bytes(set.patterns) +
           (set.to_master.capacity() + set.lengths.capacity()) * sizeof(std::uint32_t) +
           set.byte_set.byte_size() + set.bigram_set.byte_size() + set.gram4_set.byte_size();
  });
  const std::size_t signatures =
      sum_distinct(prefilters_, [](const core::Prefilter& f) { return f.memory_bytes(); });
  return pattern_bytes(patterns_) + sets + signatures;
}

util::Bytes Database::save_patterns() const {
  pattern::DbHeader header;
  header.algorithm_hint = static_cast<std::uint8_t>(algorithm_);
  header.fingerprint = fingerprint_;
  return pattern::serialize_patterns(patterns_, header);
}

DatabasePtr compile(core::Algorithm algorithm, pattern::PatternSet set) {
  return std::make_shared<Database>(Database::Private{}, algorithm, std::move(set));
}

DatabasePtr Database::from_serialized(util::ByteView blob) {
  pattern::DbHeader header;
  pattern::PatternSet set = load_patterns(blob, header);
  if (header.algorithm_hint == pattern::kNoAlgorithmHint ||
      !core::algorithm_from_name(
           core::algorithm_name(static_cast<core::Algorithm>(header.algorithm_hint)))
           .has_value()) {
    throw std::invalid_argument("pattern db: no usable algorithm hint; pass one explicitly");
  }
  const auto algorithm = static_cast<core::Algorithm>(header.algorithm_hint);
  if (!core::algorithm_available(algorithm)) {
    // A blob saved on a wider-ISA host: the payload is fine, this CPU just
    // cannot run the hinted engine — distinct from corruption, and fixable
    // by the caller choosing an engine for this host.
    throw std::invalid_argument(std::string("pattern db: hinted algorithm '") +
                                std::string(core::algorithm_name(algorithm)) +
                                "' is unavailable on this CPU; pass one explicitly");
  }
  return compile(algorithm, std::move(set));
}

DatabasePtr Database::from_serialized(util::ByteView blob, core::Algorithm algorithm) {
  pattern::DbHeader header;
  return compile(algorithm, load_patterns(blob, header));
}

Scanner::Scanner(DatabasePtr db) : db_(std::move(db)) {
  if (db_ == nullptr) throw std::invalid_argument("Scanner: null database");
}

void Scanner::rebind(DatabasePtr db) {
  if (db == nullptr) throw std::invalid_argument("Scanner::rebind: null database");
  db_ = std::move(db);
}

}  // namespace vpm
