#include "core/matcher_factory.hpp"

#include "ac/ac_compact.hpp"
#include "ac/ac_full.hpp"
#include "core/naive.hpp"
#include "dfc/dfc.hpp"
#include "dfc/vector_dfc.hpp"
#include "simd/cpu_features.hpp"

namespace vpm::core {
namespace {

constexpr Algorithm kAlgorithms[] = {
    Algorithm::naive,  Algorithm::aho_corasick, Algorithm::aho_corasick_compact,
    Algorithm::dfc,    Algorithm::vector_dfc,   Algorithm::spatch,
    Algorithm::vpatch, Algorithm::vpatch_avx2,  Algorithm::vpatch_avx512,
};

}  // namespace

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::naive: return "naive";
    case Algorithm::aho_corasick: return "aho-corasick";
    case Algorithm::aho_corasick_compact: return "aho-corasick-compact";
    case Algorithm::dfc: return "dfc";
    case Algorithm::vector_dfc: return "vector-dfc";
    case Algorithm::spatch: return "s-patch";
    case Algorithm::vpatch: return "v-patch";
    case Algorithm::vpatch_avx2: return "v-patch-avx2";
    case Algorithm::vpatch_avx512: return "v-patch-avx512";
  }
  return "?";
}

std::optional<Algorithm> algorithm_from_name(std::string_view name) {
  for (Algorithm a : kAlgorithms) {
    if (algorithm_name(a) == name) return a;
  }
  return std::nullopt;
}

bool algorithm_available(Algorithm a) {
  switch (a) {
    case Algorithm::vector_dfc:
    case Algorithm::vpatch_avx2:
      return simd::cpu().has_avx2_kernel();
    case Algorithm::vpatch_avx512:
      return simd::cpu().has_avx512_kernel();
    default:
      return true;
  }
}

std::vector<Algorithm> available_algorithms() {
  std::vector<Algorithm> out;
  for (Algorithm a : kAlgorithms) {
    if (algorithm_available(a)) out.push_back(a);
  }
  return out;
}

MatcherPtr make_matcher(Algorithm a, const pattern::PatternSet& set) {
  const auto vpatch_at = [&set](Isa isa) {
    VpatchConfig cfg;
    cfg.isa = isa;
    return std::make_unique<VpatchMatcher>(set, cfg);
  };
  switch (a) {
    case Algorithm::naive:
      return std::make_unique<NaiveMatcher>(set);
    case Algorithm::aho_corasick:
      return std::make_unique<ac::AcFullMatcher>(set);
    case Algorithm::aho_corasick_compact:
      // Always available: the scalar compact scan needs no vector ISA; the
      // lane-parallel scan_batch kernel dispatches through simd::cpu().
      return std::make_unique<ac::AcCompactMatcher>(set);
    case Algorithm::dfc:
      return std::make_unique<dfc::DfcMatcher>(set);
    case Algorithm::vector_dfc:
      return std::make_unique<dfc::VectorDfcMatcher>(set);
    case Algorithm::spatch:
      return vpatch_at(Isa::scalar);
    case Algorithm::vpatch:
      return vpatch_at(Isa::best);
    case Algorithm::vpatch_avx2:
      return vpatch_at(Isa::avx2);
    case Algorithm::vpatch_avx512:
      return vpatch_at(Isa::avx512);
  }
  throw std::runtime_error("unknown algorithm");
}

}  // namespace vpm::core
