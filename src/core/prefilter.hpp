// Approximate per-rule-group payload prefilter (the paper's thesis applied
// one level up: a cheap cache-resident screen in front of the exact
// engines).
//
// At Database compile time each protocol group gets a q-gram blocked-Bloom
// signature over its pattern bytes (q = 3 or 4, case-folded).  At scan time
// a whole payload is screened in one vectorized pass: it reaches the exact
// engine only if it contains a run of >= threshold consecutive positions
// whose q-grams all hit the signature — where threshold =
// min(min_pattern_len - q + 1, 4), so any payload containing a pattern
// occurrence always passes (ZERO false negatives; rejection is exact,
// passing is approximate with a measured false-positive rate).  At low
// match fractions most payloads are rejected after the screen alone, and
// the per-group signature (a few hundred KB even for Snort-scale groups)
// stays L2-resident across the batch.
//
// Exactness is enforced by a differential suite (prefilter-on alert
// multiset == prefilter-off across engines, batch sizes, and worker
// counts), not argued; see tests/prefilter_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "pattern/pattern_set.hpp"
#include "util/bytes.hpp"

namespace vpm::core {

// Engine-level switch (IdsEngine::set_prefilter_mode / PipelineConfig /
// pcap_sensor --prefilter=):
//   off        never screen
//   on         screen every group that has a built signature
//   automatic  screen only groups whose statistics make screening advisable
//              (enough patterns to amortize the fold+probe pass), and
//              adaptively bypass a group whose observed pass ratio says the
//              screen is not rejecting enough to pay for itself (match-heavy
//              traffic or a weak threshold-1 signature).
enum class PrefilterMode : std::uint8_t { off, on, automatic };

std::string_view prefilter_mode_name(PrefilterMode mode);
// Accepts "off" / "on" / "auto".
std::optional<PrefilterMode> prefilter_mode_from_name(std::string_view name);

class Prefilter;
using PrefilterPtr = std::shared_ptr<const Prefilter>;

// Builds the signature over `set` (a group's working set: its own + generic
// patterns, as Database composes them).  Returns null when no exact
// signature exists: the set is empty or its shortest pattern is under 3
// bytes (every 1-2 byte pattern would force the screen to pass everything).
// The build has no settings: q is 4 when the shortest pattern has 4 bytes or
// more and 3 otherwise, the run requirement is capped at 4 windows, and the
// signature takes ~16 bits per distinct gram, between 2^10 and 2^24 bits, so
// every build of a pattern set yields the same words.
PrefilterPtr build_prefilter(const pattern::PatternSet& set);

// Immutable built signature; shared (like the Database that holds it) across
// engines and threads — screening keeps no state.
class Prefilter {
 public:
  // PrefilterMode::automatic engages a signature over at least this many
  // patterns: enough that screening beats scanning outright.
  static constexpr std::size_t kAdvisedPatterns = 8;

  // Scalar whole-payload screen (folds on the fly; allocation-free).
  // Payloads shorter than min_payload() cannot contain any pattern: exact
  // reject.
  bool screen(util::ByteView payload) const;

  // Vectorized batch screen: reads every payload in place, folding case in
  // registers (no copy, and no read past a view's end), and writes
  // verdicts[i] = 1 (might match — scan it) / 0 (cannot match — skip).
  // Verdicts are identical to screen() payload-by-payload on every ISA.
  void screen_batch(std::span<const util::ByteView> payloads,
                    std::uint8_t* verdicts) const;

  std::uint32_t q() const { return q_; }
  std::uint32_t threshold() const { return threshold_; }
  std::uint32_t bits_log2() const { return bits_log2_; }
  std::size_t pattern_count() const { return pattern_count_; }
  std::size_t gram_count() const { return gram_count_; }
  // Shortest payload that could possibly contain a pattern (threshold
  // consecutive windows of q bytes).
  std::size_t min_payload() const { return q_ + threshold_ - 1; }
  std::size_t memory_bytes() const { return words_.size() * sizeof(std::uint32_t); }
  // Fraction of signature bits set (drives the expected false-positive rate).
  double occupancy() const;
  // Whether PrefilterMode::automatic should engage this signature.
  bool advised() const { return pattern_count_ >= kAdvisedPatterns; }
  const std::vector<std::uint32_t>& words() const { return words_; }

 private:
  friend PrefilterPtr build_prefilter(const pattern::PatternSet& set);
  Prefilter(std::vector<std::uint32_t> words, std::uint32_t q, std::uint32_t threshold,
            std::uint32_t bits_log2, std::uint32_t pattern_count, std::uint32_t gram_count);

  std::vector<std::uint32_t> words_;
  std::uint32_t q_;
  std::uint32_t threshold_;
  std::uint32_t bits_log2_;
  std::uint32_t pattern_count_;
  std::uint32_t gram_count_;
};

inline constexpr std::size_t kPrefilterGroupCount =
    static_cast<std::size_t>(pattern::Group::count);
// One signature slot per protocol group (null = group has no usable
// signature: empty, or a pattern shorter than any workable q).
using GroupPrefilters = std::array<PrefilterPtr, kPrefilterGroupCount>;

}  // namespace vpm::core
