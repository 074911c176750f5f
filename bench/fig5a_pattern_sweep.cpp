// Figure 5a: S-PATCH vs V-PATCH throughput as the number of patterns grows
// (random subsets of the full 20 K S2-like set), plus the vectorization
// speedup — the paper's observation is that the speedup stays roughly
// constant once the two Fig. 5b trends cancel out.
//
//   fig5a_pattern_sweep [--mb=N] [--runs=N] [--seed=N] [--quick] [--f3=BITS]
//
// --f3 sets log2 of the Filter-3 bit count (default 16 = 8 KB, the paper's
// L1-resident choice; larger values trade cache residency for selectivity,
// since at high pattern counts a fuller Filter 3 passes more candidates to
// verification).
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "core/spatch.hpp"
#include "core/vpatch.hpp"
#include "traffic/trace.hpp"

namespace vpm::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  unsigned f3_bits = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--f3=", 5) == 0) {
      f3_bits = static_cast<unsigned>(std::strtoul(argv[i] + 5, nullptr, 10));
    }
  }
  const auto full = s2_full_patterns(opt.seed);
  const auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day2,
                                             opt.trace_mb << 20, opt.seed + 10);

  std::printf("=== Fig 5a: throughput vs pattern count (full set %zu), %zu MB HTTP trace, "
              "F3 2^%u bits ===\n",
              full.size(), opt.trace_mb, f3_bits);
  const std::vector<int> widths{10, 14, 14, 12, 12};
  print_row({"patterns", "S-PATCH-Gbps", "V-PATCH-Gbps", "speedup", "matches"}, widths);

  JsonReport report("fig5a_pattern_sweep", opt);
  const std::size_t counts[] = {1000, 2500, 5000, 10000, 15000, 20000};
  for (std::size_t n : counts) {
    const auto subset = full.random_subset(n, opt.seed + n);
    core::SpatchConfig scfg;
    scfg.filters.f3_bits_log2 = f3_bits;
    core::VpatchConfig vcfg;
    vcfg.filters.f3_bits_log2 = f3_bits;
    const core::SpatchMatcher spatch(subset, scfg);
    const core::VpatchMatcher vpatch(subset, vcfg);  // widest available kernel
    const Throughput ts = measure_scan(spatch, trace, opt.runs);
    const Throughput tv = measure_scan(vpatch, trace, opt.runs);
    print_row({std::to_string(subset.size()), fmt(ts.mean_gbps), fmt(tv.mean_gbps),
               fmt(ts.mean_gbps > 0 ? tv.mean_gbps / ts.mean_gbps : 0.0),
               std::to_string(tv.matches)},
              widths);
    report.add({},
               {{"spatch_gbps", ts.mean_gbps}, {"vpatch_gbps", tv.mean_gbps}},
               {{"patterns", subset.size()}, {"matches", tv.matches}});
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
