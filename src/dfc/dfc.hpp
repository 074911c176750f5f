// DFC (Direct Filter Classification) — the scalar baseline of Choi et al.
// as described in the paper's §II-B.
//
// Single pass, filtering and verification interleaved per input position:
// a 2-byte window probes the initial filter over all patterns; on a hit, the
// two per-length-family filters (same index) decide which compact hash
// tables to verify against, immediately.  The interleaving is precisely what
// limits Vector-DFC and what S-PATCH's two-round split removes.
#pragma once

#include "dfc/compact_table.hpp"
#include "dfc/direct_filter.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::dfc {

class DfcMatcher final : public Matcher {
 public:
  explicit DfcMatcher(const pattern::PatternSet& set);

  void scan(util::ByteView data, MatchSink& sink) const override;
  // scan_batch stays on the generic per-payload fallback deliberately: DFC
  // has no per-call fixed cost to amortize (no candidate buffers, no kernel
  // setup), and restructuring it into a deferred store-then-verify round
  // measured 0.7-0.9x its interleaved scan on small payloads — the
  // two-round split only pays combined with a real filtering round, which
  // is exactly what S-PATCH/V-PATCH are.
  std::string_view name() const override { return "DFC"; }
  std::size_t memory_bytes() const override;

  const DirectFilter2B& initial_filter() const { return df_all_; }
  const DirectFilter2B& short_filter() const { return df_short_; }
  const DirectFilter2B& long_filter() const { return df_long_; }

  // Verifies the hit lanes of one Vector-DFC block at positions base + j:
  // every short-family lane j of short_mask, then every long-family lane of
  // long_mask.  Out of line, so the vector unit compiles no table code.
  void verify_block(util::ByteView data, std::size_t base, std::uint32_t short_mask,
                    std::uint32_t long_mask, MatchSink& sink) const;

 private:
  friend class VectorDfcMatcher;

  // The scalar loop over positions [begin, n - 1) of data (n >= 1), then the
  // last position; Vector-DFC runs it over the positions its vector loop
  // leaves.
  void scan_from(util::ByteView data, std::size_t begin, MatchSink& sink) const;

  DirectFilter2B df_all_;    // first two bytes of every pattern
  DirectFilter2B df_short_;  // patterns of 1..3 bytes
  DirectFilter2B df_long_;   // patterns of >= 4 bytes
  ShortTable short_table_;
  LongTable long_table_;
};

}  // namespace vpm::dfc
