// S-PATCH — the scalar, vectorizable restructuring of DFC (paper §IV-A,
// Algorithm 1).
//
// Differences from DFC that this class embodies:
//   * short patterns get a dedicated first filter so frequent, cheap matches
//     (GET/HTTP-class tokens) are identified without dragging long-pattern
//     state in;
//   * long-pattern candidates must pass BOTH the 2-byte Filter 2 and the
//     hashed 4-byte Filter 3 before being stored — more compute per window,
//     far fewer verifications;
//   * filtering and verification run as two separate rounds over each input
//     chunk, communicating through the A_short/A_long position arrays.
#pragma once

#include <cstdint>

#include "core/candidates.hpp"
#include "core/filter_bank.hpp"
#include "core/scan_stats.hpp"
#include "core/verifier.hpp"
#include "match/matcher.hpp"

namespace vpm::core {

struct SpatchConfig {
  FilterBankConfig filters{};
  unsigned long_bucket_bits = 15;
  // Input positions filtered per round-one pass before verification runs;
  // sized so the candidate arrays stay cache-resident next to the filters.
  std::size_t chunk_size = 32 * 1024;
};

// Round one, scalar: filters positions [begin, end) of data (end <= n-1;
// every position has a full 2-byte window) into `out`.  Exposed as a free
// function because V-PATCH runs it when no vector kernel is available (its
// vector kernels cover every position themselves).
void spatch_filter_scalar(const std::uint8_t* data, std::size_t begin, std::size_t end,
                          std::size_t total_len, const FilterBank& bank,
                          CandidateBuffers& out);

// The zero-padded final-position probe (only 1..3-byte patterns can start at
// the last bytes; 1-byte wildcard expansion makes the padded test exact).
void spatch_filter_tail(const std::uint8_t* data, std::size_t total_len,
                        const FilterBank& bank, CandidateBuffers& out);

class SpatchMatcher final : public Matcher {
 public:
  explicit SpatchMatcher(const pattern::PatternSet& set, SpatchConfig cfg = {});

  void scan(util::ByteView data, MatchSink& sink) const override;
  std::string_view name() const override { return "S-PATCH"; }
  std::size_t memory_bytes() const override {
    return bank_.memory_bytes() + verifier_.memory_bytes();
  }

  // Instrumented scan for the Fig. 5b filtering/verification time split.
  void scan_with_stats(util::ByteView data, MatchSink& sink, ScanStats& stats) const;

  // Round one only over the whole input (Fig. 6 filtering-isolation bench).
  // Returns candidate counts; with_stores=false still records counts but
  // skips writing the position arrays.
  struct FilterOnlyResult {
    std::uint64_t short_candidates = 0;
    std::uint64_t long_candidates = 0;
  };
  FilterOnlyResult filter_only(util::ByteView data, bool with_stores) const;

  const FilterBank& filter_bank() const { return bank_; }
  const Verifier& verifier() const { return verifier_; }
  const SpatchConfig& config() const { return cfg_; }

 private:
  template <bool kWithStats>
  void scan_impl(util::ByteView data, MatchSink& sink, ScanStats* stats) const;

  SpatchConfig cfg_;
  FilterBank bank_;
  Verifier verifier_;
};

}  // namespace vpm::core
