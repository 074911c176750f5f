// Figure 4 (a/b): overall throughput of the five algorithms on the paper's
// four workloads, for the S1-web (~2 K) and S2-web (~9 K) pattern sets, on
// the "Haswell" configuration (V-PATCH with AVX2, W = 8).
//
//   fig4_throughput [--set=s1|s2|both] [--mb=N] [--runs=N] [--seed=N] [--quick]
//
// Each row reports mean Gbps (stddev) and the speedup relative to DFC, the
// number the paper prints above its bars.
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "simd/cpu_features.hpp"

namespace vpm::bench {
namespace {

void run_set(const char* set_name, const pattern::PatternSet& set,
             const std::vector<Workload>& workloads, const Options& opt,
             JsonReport& report) {
  std::printf("\n=== Fig 4 (%s): %zu web patterns, %zu MB/trace, %u runs ===\n",
              set_name, set.size(), opt.trace_mb, opt.runs);
  const std::vector<int> widths{14, 22, 12, 12, 12, 12};
  print_row({"trace", "algorithm", "Gbps", "stddev", "vs-DFC", "matches"}, widths);

  std::vector<core::Algorithm> algos{core::Algorithm::aho_corasick, core::Algorithm::dfc};
  if (core::algorithm_available(core::Algorithm::vector_dfc)) {
    algos.push_back(core::Algorithm::vector_dfc);
  }
  algos.push_back(core::Algorithm::spatch);
  if (core::algorithm_available(core::Algorithm::vpatch_avx2)) {
    algos.push_back(core::Algorithm::vpatch_avx2);
  }

  // Build once per set (construction excluded from scan timing, as in the
  // paper; AC's automaton build dominates otherwise).
  std::vector<MatcherPtr> matchers;
  std::vector<const Matcher*> engines;
  for (core::Algorithm a : algos) {
    matchers.push_back(core::make_matcher(a, set));
    engines.push_back(matchers.back().get());
  }
  const std::size_t dfc = 1;  // algos[1], the "vs-DFC" column's base

  for (const Workload& w : workloads) {
    const std::vector<Throughput> ts = measure_scan(engines, w.trace, opt.runs);
    const double dfc_gbps = ts[dfc].mean_gbps;
    for (std::size_t i = 0; i < matchers.size(); ++i) {
      const Throughput& t = ts[i];
      const std::string speedup =
          dfc_gbps > 0.0 ? fmt(t.mean_gbps / dfc_gbps) : std::string("-");
      print_row({w.name, std::string(matchers[i]->name()), fmt(t.mean_gbps),
                 fmt(t.stddev_gbps, 3), speedup, std::to_string(t.matches)},
                widths);
      report.add({{"set", set_name}, {"workload", w.name},
                  {"algorithm", std::string(matchers[i]->name())}},
                 {{"gbps_mean", t.mean_gbps}, {"gbps_stddev", t.stddev_gbps}},
                 {{"matches", t.matches}});
    }
  }
}

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const char* which = "both";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--set=", 6) == 0) which = argv[i] + 6;
  }

  if (!simd::cpu().has_avx2_kernel()) {
    std::printf("note: AVX2 unavailable; Vector-DFC and V-PATCH rows skipped\n");
  }

  const auto workloads = paper_workloads(opt);
  JsonReport report("fig4_throughput", opt);
  if (std::strcmp(which, "s1") == 0 || std::strcmp(which, "both") == 0) {
    run_set("S1 web, paper Fig4a", s1_web_patterns(opt.seed), workloads, opt, report);
  }
  if (std::strcmp(which, "s2") == 0 || std::strcmp(which, "both") == 0) {
    run_set("S2 web, paper Fig4b", s2_web_patterns(opt.seed + 1), workloads, opt, report);
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
