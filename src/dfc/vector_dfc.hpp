// Vector-DFC — "a direct vectorization of DFC done by us" (paper §V).
//
// Vectorizes only DFC's filter probes (AVX2 gather over the merged
// short/long filters) but keeps the original single-pass structure: each
// vector block's hit lanes are verified immediately with scalar code.  The
// resulting scalar/vector mixing is why the paper measures only marginal
// gains for this variant, motivating S-PATCH's two-round redesign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dfc/dfc.hpp"
#include "match/matcher.hpp"

namespace vpm::dfc {

// Vector-DFC's block loop over data (n >= 1): probes 8 positions per block
// through `merged`, hands each block's short and long hit masks to
// dfc.verify_block, and returns the first position it left unprobed.
using VectorDfcLoop = std::size_t (*)(const DfcMatcher& dfc, const std::uint8_t* merged,
                                      util::ByteView data, MatchSink& sink);

// The loop of dfc/vector_dfc_avx2.cpp, the one unit compiled with -mavx2;
// null when the library was compiled without it.
VectorDfcLoop vector_dfc_loop_avx2();

class VectorDfcMatcher final : public Matcher {
 public:
  // Throws std::runtime_error if the host lacks AVX2.
  explicit VectorDfcMatcher(const pattern::PatternSet& set);

  void scan(util::ByteView data, MatchSink& sink) const override;
  std::string_view name() const override { return "Vector-DFC"; }
  std::size_t memory_bytes() const override;

 private:
  DfcMatcher scalar_;
  // df_short_/df_long_ byte-interleaved for one-gather probing.
  const std::vector<std::uint8_t> merged_;
  const VectorDfcLoop loop_;
};

}  // namespace vpm::dfc
