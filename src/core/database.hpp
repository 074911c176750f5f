// The compile/runtime API split.
//
// vpm::Database is the immutable compiled artifact: compile() copies the
// pattern bytes and metadata out of the caller's PatternSet and builds the
// engine over the copy, so the source set may be destroyed the moment
// compile() returns (the old make_matcher contract — "the PatternSet must
// outlive the matcher" — does not apply here).  A Database is shared by
// std::shared_ptr<const Database> and is safe to scan from any number of
// threads concurrently: all mutable scan state lives in the per-thread
// Scanner session.
//
// A Database is built one way: compile() derives every engine, table and
// prefilter signature from the patterns alone.  save_patterns() stores only
// the patterns (and the engine choice), and from_serialized() compiles the
// stored patterns, so a loaded database equals the one compile() builds.
//
// vpm::Scanner is the thin per-thread runtime handle: a Database ref plus
// the reusable ScanScratch the batch fast path needs.  One Scanner per
// thread; Scanners are cheap (the compiled tables are shared, not copied).
//
// Identity: every compile() assigns a process-monotonic `generation` id
// (never reused — the pipeline's hot-swap tags alerts with it), and a
// content `fingerprint` (64-bit hash over the pattern bytes/flags/groups)
// that is stable across processes and survives save_patterns() /
// from_serialized() round trips.
//
//   auto db = vpm::compile(core::Algorithm::vpatch, rules);  // rules may die
//   vpm::Scanner scanner(db);                                // per thread
//   scanner.scan(payload, sink);
//   scanner.scan_batch(payloads, batch_sink);
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "core/matcher_factory.hpp"
#include "core/prefilter.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"
#include "pattern/serialize.hpp"
#include "util/bitarray.hpp"

namespace vpm {

class Database;
using DatabasePtr = std::shared_ptr<const Database>;

// What a stream of one protocol group is scanned against (paper §V-A): the
// group's own patterns plus the generic ones, compiled once per distinct
// composition.  Local ids index `patterns`; alerts report to_master[local].
struct WorkingSet {
  pattern::PatternSet patterns;
  std::vector<std::uint32_t> to_master;  // local id -> Database pattern id
  std::vector<std::uint32_t> lengths;    // local id -> pattern byte length
  std::size_t max_len = 0;
  // Built over `patterns`, so a set never moves once built.  A set with no
  // patterns gets the naive engine: some engines reject an empty set.
  MatcherPtr matcher;
  // The grams of `patterns`, case-folded (util::ascii_lower): every byte,
  // every bigram, and every 4-gram hashed by util::multiplicative_hash into
  // 2^gram4_bits bits, where gram4_bits = ceil(log2(16 x pattern bytes))
  // clamped to [12, 24].  carry_after() reads them.
  util::BitArray byte_set;
  util::BitArray bigram_set;
  util::BitArray gram4_set;
  unsigned gram4_bits = 0;

  // The longest stream suffix a match can start in and not end in: a
  // proper prefix of the longest pattern.
  std::size_t max_carry() const { return max_len > 0 ? max_len - 1 : 0; }

  // How many trailing bytes of a staged carry + chunk a match could still
  // start in: the length of the run, walked backward from the end, of positions
  // whose folded byte, bigram (from the second step on) and 4-gram (from
  // the fourth) are all grams of some pattern; at most min(size,
  // max_carry()).  A stream suffix that is a proper prefix of a pattern is
  // made of that pattern's grams, so the run covers it; a false hit only
  // lengthens the run.
  std::size_t carry_after(util::ByteView buffer) const;
};

class Database {
  struct Private {};  // only compile() constructs a Database

 public:
  Database(Private, core::Algorithm algorithm, pattern::PatternSet patterns);

  core::Algorithm algorithm() const { return algorithm_; }
  std::string_view algorithm_name() const { return core::algorithm_name(algorithm_); }
  std::size_t pattern_count() const { return patterns_.size(); }
  // What the sensor holds: the owned patterns, each distinct working set
  // (engine, tables and gram sets) and each distinct signature, each
  // counted once.  Builds nothing; a separately built engine() is not
  // counted.
  std::size_t memory_bytes() const;

  // Process-monotonic compile id (never reused; assigned per compile()).
  std::uint64_t generation() const { return generation_; }
  // Content hash over (count, and per pattern: length, nocase, group,
  // bytes); independent of the algorithm and of the process.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // The owned pattern copy (ids are the ids engines report).
  const pattern::PatternSet& patterns() const { return patterns_; }

  // The working set streams of protocol `group` are scanned against.
  // Groups whose compositions are equal share one set (same address).
  const WorkingSet& working_set(pattern::Group group) const {
    return *sets_[static_cast<std::size_t>(group)];
  }

  // Per-group approximate q-gram signatures over each group's working set,
  // built once per distinct set (groups sharing a set share its slot's
  // pointer).  Null slot = no usable signature for that group (empty, or
  // contains a sub-3-byte pattern).  Built from the patterns alone, so a
  // database loaded by from_serialized() holds the words compile() builds.
  const core::GroupPrefilters& prefilters() const { return prefilters_; }
  const core::PrefilterPtr& prefilter_for(pattern::Group group) const {
    return prefilters_[static_cast<std::size_t>(group)];
  }

  // The compiled whole-set engine.  Scanning through it directly is valid
  // (scan / scan_batch are const and thread-safe with caller-owned
  // scratch); Scanner packages exactly that.  When one working set holds
  // every pattern its ids are the Database ids, and this is that set's
  // matcher.  Otherwise it is built lazily on first access (std::call_once,
  // so concurrent first readers are safe): IdsEngine and the pipeline scan
  // the working sets and never pay for it.  Availability of the algorithm
  // is validated eagerly in compile(), so this cannot throw for a missing
  // kernel.
  const Matcher& engine() const;

  // Serialized v2 pattern database: the header, carrying this database's
  // fingerprint and algorithm hint, and the pattern records.  Feed it to
  // from_serialized() to rebuild an equivalent Database (new generation,
  // same fingerprint) in another process.
  util::Bytes save_patterns() const;

  // compile() over the patterns of save_patterns() output (or any v1/v2
  // pattern blob).  The no-algorithm overload requires a v2 blob with an
  // algorithm hint that is available on this CPU; the explicit overload
  // overrides/supplies the engine.  A v2 blob must carry the content
  // fingerprint (as save_patterns() writes), verified against the
  // deserialized patterns; absence or mismatch throws std::invalid_argument
  // (corrupt or tampered payload).  v1 blobs predate fingerprints and load
  // unchecked.  Nothing after the pattern records is read, so a blob that
  // still carries the prefilter section older versions appended loads to
  // the same database.
  static DatabasePtr from_serialized(util::ByteView blob);
  static DatabasePtr from_serialized(util::ByteView blob, core::Algorithm algorithm);

  static std::uint64_t fingerprint_of(const pattern::PatternSet& set);

 private:
  friend DatabasePtr compile(core::Algorithm, pattern::PatternSet);

  pattern::PatternSet patterns_;  // outlives engine_: the engine is built over it
  // One slot per group; equal compositions share one set.
  std::array<std::shared_ptr<const WorkingSet>, static_cast<std::size_t>(pattern::Group::count)>
      sets_;
  mutable std::once_flag engine_once_;
  mutable MatcherPtr engine_;  // lazily built; logically part of the const artifact
  core::GroupPrefilters prefilters_;
  core::Algorithm algorithm_;
  std::uint64_t generation_;
  std::uint64_t fingerprint_;
};

// Builds an immutable, shareable compiled database.  The set is copied (or
// moved — pass std::move(set) to avoid the copy); the caller's set is not
// referenced after compile() returns.  Throws std::runtime_error for vector
// engines on unsupported CPUs (same contract as make_matcher; checked here
// even though the whole-set engine itself materializes lazily).
DatabasePtr compile(core::Algorithm algorithm, pattern::PatternSet set);

// The per-thread scan session: a shared Database plus this thread's scratch.
class Scanner {
 public:
  // Throws std::invalid_argument on a null database.
  explicit Scanner(DatabasePtr db);

  const Database& database() const { return *db_; }
  const DatabasePtr& database_ptr() const { return db_; }

  // Swaps this session onto a new database (ruleset update).  Scratch
  // storage is retained; its state re-keys to the new engine automatically
  // (owner ids are never reused, so stale state cannot leak across).
  void rebind(DatabasePtr db);

  void scan(util::ByteView data, MatchSink& sink) const {
    db_->engine().scan(data, sink);
  }
  // Non-const: reuses this session's scratch across calls.
  void scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink) {
    db_->engine().scan_batch(payloads, sink, scratch_);
  }

  std::uint64_t count_matches(util::ByteView data) const {
    return db_->engine().count_matches(data);
  }
  std::vector<Match> find_matches(util::ByteView data) const {
    return db_->engine().find_matches(data);
  }

 private:
  DatabasePtr db_;
  ScanScratch scratch_;
};

}  // namespace vpm
