// Figure 5c: vectorization speedup as the fraction of matching input grows.
// The paper injects increasing amounts of patterns (drawn from a 2 K ruleset)
// into synthetic input; the vector engine's speculative lanes carry more
// useful work as matches densify, so the relative speedup creeps up.
//
//   fig5c_match_fraction [--mb=N] [--runs=N] [--seed=N] [--quick]
#include <cstdio>

#include "common.hpp"
#include "core/vpatch.hpp"
#include "traffic/match_injector.hpp"
#include "traffic/random_trace.hpp"

namespace vpm::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto full = s2_full_patterns(opt.seed);
  const auto rules = full.random_subset(2000, opt.seed + 5);
  const MatcherPtr spatch = core::make_matcher(core::Algorithm::spatch, rules);
  const core::VpatchMatcher vpatch(rules);

  std::printf("=== Fig 5c: speedup vs fraction of matching input (2K patterns) ===\n");
  const std::vector<int> widths{12, 14, 14, 12, 14};
  print_row({"match-frac", "S-PATCH-Gbps", "V-PATCH-Gbps", "speedup", "matches"}, widths);

  JsonReport json("fig5c_match_fraction", opt);
  for (double frac : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto trace = traffic::generate_random_printable_trace(opt.trace_mb << 20, opt.seed + 20);
    const auto report = traffic::inject_matches(trace, rules, frac, opt.seed + 21);
    const std::vector<Throughput> t = measure_scan({spatch.get(), &vpatch}, trace, opt.runs);
    const Throughput& ts = t[0];
    const Throughput& tv = t[1];
    print_row({fmt(report.achieved_fraction * 100, 0) + "%", fmt(ts.mean_gbps),
               fmt(tv.mean_gbps), fmt(ts.mean_gbps > 0 ? tv.mean_gbps / ts.mean_gbps : 0.0),
               std::to_string(tv.matches)},
              widths);
    json.add({},
             {{"match_fraction", report.achieved_fraction},
              {"spatch_gbps", ts.mean_gbps},
              {"vpatch_gbps", tv.mean_gbps}},
             {{"matches", tv.matches}});
  }
  return json.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
