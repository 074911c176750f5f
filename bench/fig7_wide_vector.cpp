// Figure 7 (a/b): the wide-vector experiment.  The paper runs on Xeon Phi
// (512-bit VPU, W = 16); our stand-in is the AVX-512 kernel on the host,
// which has the same width and the same 32-bit gather semantics.  The
// claim under test is the *scaling shape*: V-PATCH's advantage over the
// scalar engines roughly doubles relative to the W = 8 configuration.
//
//   fig7_wide_vector [--set=s1|s2|both] [--mb=N] [--runs=N] [--seed=N] [--quick]
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "simd/cpu_features.hpp"

namespace vpm::bench {
namespace {

void run_set(const char* set_name, const pattern::PatternSet& set,
             const std::vector<Workload>& workloads, const Options& opt,
             JsonReport& report) {
  std::printf("\n=== Fig 7 (%s): %zu web patterns, W=16 V-PATCH ===\n", set_name, set.size());
  const std::vector<int> widths{14, 22, 12, 12, 12, 12};
  print_row({"trace", "algorithm", "Gbps", "stddev", "vs-DFC", "matches"}, widths);

  std::vector<core::Algorithm> algos{core::Algorithm::aho_corasick, core::Algorithm::dfc};
  if (core::algorithm_available(core::Algorithm::vector_dfc)) {
    algos.push_back(core::Algorithm::vector_dfc);
  }
  algos.push_back(core::Algorithm::spatch);
  algos.push_back(core::Algorithm::vpatch_avx512);

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
      print_row({w.name, std::string(matchers[i]->name()), fmt(t.mean_gbps),
                 fmt(t.stddev_gbps, 3),
                 dfc_gbps > 0.0 ? fmt(t.mean_gbps / dfc_gbps) : std::string("-"),
                 std::to_string(t.matches)},
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
  if (!simd::cpu().has_avx512_kernel()) {
    std::printf("Fig 7 requires AVX-512 (the Xeon-Phi wide-vector stand-in); "
                "not available on this CPU — skipping.\n");
    return 0;
  }
  const char* which = "both";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--set=", 6) == 0) which = argv[i] + 6;
  }
  const auto workloads = paper_workloads(opt);
  JsonReport report("fig7_wide_vector", opt);
  if (std::strcmp(which, "s1") == 0 || std::strcmp(which, "both") == 0) {
    run_set("a: S1 web", s1_web_patterns(opt.seed), workloads, opt, report);
  }
  if (std::strcmp(which, "s2") == 0 || std::strcmp(which, "both") == 0) {
    run_set("b: S2 web", s2_web_patterns(opt.seed + 1), workloads, opt, report);
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
