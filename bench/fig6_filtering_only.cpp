// Figure 6 (a/b/c): the filtering round in isolation — scalar S-PATCH
// filtering vs V-PATCH filtering with candidate stores vs V-PATCH filtering
// with the stores removed, across the three realistic traces and the 2 K /
// 9 K / 20 K pattern sets.  This is where the raw vectorization gain (up to
// ~2.8x in the paper) shows before Amdahl's law dilutes it.
//
//   fig6_filtering_only [--mb=N] [--runs=N] [--seed=N] [--quick]
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/vpatch.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

template <typename F>
double measure_gbps(std::size_t bytes, unsigned runs, F&& body) {
  body();  // warm-up
  util::RunningStats stats;
  for (unsigned r = 0; r < runs; ++r) {
    util::Timer timer;
    body();
    stats.add(util::gbps(bytes, timer.seconds()));
  }
  return stats.mean();
}

void run_set(const char* label, const pattern::PatternSet& set,
             const std::vector<Workload>& workloads, const Options& opt,
             JsonReport& report) {
  std::printf("\n=== Fig 6 (%s): %zu patterns, filtering round only ===\n", label, set.size());
  const std::vector<int> widths{14, 26, 12, 12};
  print_row({"trace", "variant", "Gbps", "vs-scalar"}, widths);

  core::VpatchConfig scalar_cfg;
  scalar_cfg.isa = core::Isa::scalar;  // S-PATCH
  const core::VpatchMatcher spatch(set, scalar_cfg);
  // The paper's Fig. 6 platform is Haswell (W=8); the W=16 rows show the
  // wide-vector scaling on AVX-512 hosts.
  std::vector<std::unique_ptr<core::VpatchMatcher>> vectors;
  if (core::isa_supported(core::Isa::avx2)) {
    core::VpatchConfig cfg;
    cfg.isa = core::Isa::avx2;
    vectors.push_back(std::make_unique<core::VpatchMatcher>(set, cfg));
  }
  if (core::isa_supported(core::Isa::avx512)) {
    core::VpatchConfig cfg;
    cfg.isa = core::Isa::avx512;
    vectors.push_back(std::make_unique<core::VpatchMatcher>(set, cfg));
  }

  // Caller-owned scratch: the measured loops reuse candidate buffers rather
  // than re-allocating them every filter_only call.
  ScanScratch scratch;
  for (const Workload& w : workloads) {
    if (w.name == "random") continue;  // Fig. 6 uses the realistic traces
    volatile std::uint64_t guard = 0;  // keep the no-store variant honest
    const double scalar = measure_gbps(w.trace.size(), opt.runs, [&] {
      const auto r = spatch.filter_only(w.trace, true, scratch);
      guard = guard + r.short_candidates + r.long_candidates;
    });
    print_row({w.name, "S-PATCH-filtering", fmt(scalar), "1.00"}, widths);
    report.add({{"set", label}, {"workload", w.name}, {"variant", "S-PATCH-filtering"}},
               {{"gbps", scalar}});
    for (const auto& vpatch : vectors) {
      const std::string tag(vpatch->name());
      const double vec_stores = measure_gbps(w.trace.size(), opt.runs, [&] {
        const auto r = vpatch->filter_only(w.trace, true, scratch);
        guard = guard + r.short_candidates + r.long_candidates;
      });
      const double vec_nostores = measure_gbps(w.trace.size(), opt.runs, [&] {
        const auto r = vpatch->filter_only(w.trace, false, scratch);
        guard = guard + r.short_candidates + r.long_candidates;
      });
      print_row({w.name, tag + "-filtering+stores", fmt(vec_stores), fmt(vec_stores / scalar)},
                widths);
      print_row({w.name, tag + "-filtering", fmt(vec_nostores), fmt(vec_nostores / scalar)},
                widths);
      report.add({{"set", label}, {"workload", w.name}, {"variant", tag + "-filtering+stores"}},
                 {{"gbps", vec_stores}});
      report.add({{"set", label}, {"workload", w.name}, {"variant", tag + "-filtering"}},
                 {{"gbps", vec_nostores}});
    }
  }
}

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto workloads = paper_workloads(opt);
  JsonReport report("fig6_filtering_only", opt);
  run_set("a: S1 web 2K", s1_web_patterns(opt.seed), workloads, opt, report);
  run_set("b: S2 web 9K", s2_web_patterns(opt.seed + 1), workloads, opt, report);
  run_set("c: full 20K", s2_full_patterns(opt.seed + 1), workloads, opt, report);
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
