// Ablation bench for the V-PATCH design choices that remain settings, each
// against its alternatives:
//   * Filter-3 size (cache residency vs false-positive rate);
//   * chunk size (candidate arrays resident next to the filters);
//   * two-round split (S-PATCH) vs interleaved filtering+verification (DFC).
// The kernel's own choices (2x unroll, merged F1/F2 gather, all-lane
// Filter 3) are fixed; bench/trajectory/README.md records their last
// comparison against the alternatives.
//
//   ablation_design [--mb=N] [--runs=N] [--seed=N] [--quick]
#include <cstdio>

#include "common.hpp"
#include "core/vpatch.hpp"
#include "dfc/dfc.hpp"
#include "simd/cpu_features.hpp"
#include "traffic/trace.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  // The kernel-level choices live in the filtering round, so ablations
  // measure round one in isolation (end-to-end at high pattern counts is
  // verification-bound and would bury the differences in noise).
  const auto set = s1_web_patterns(opt.seed);
  const auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day2,
                                             opt.trace_mb << 20, opt.seed + 10);
  std::printf("=== Ablations (filtering round): %zu patterns, %zu MB HTTP trace ===\n",
              set.size(), opt.trace_mb);
  const std::vector<int> widths{44, 12, 12};
  print_row({"configuration", "filter-Gbps", "vs-base"}, widths);

  if (!simd::cpu().has_avx2_kernel()) {
    std::printf("AVX2 unavailable; vector ablations skipped\n");
    return 0;
  }

  double base = 0.0;
  ScanScratch scratch;  // reused across configurations and runs
  auto row = [&](const std::string& label, const core::VpatchConfig& cfg) {
    const core::VpatchMatcher m(set, cfg);
    volatile std::uint64_t guard = 0;
    m.filter_only(trace, true, scratch);  // warm-up
    util::RunningStats stats;
    for (unsigned r = 0; r < opt.runs; ++r) {
      util::Timer timer;
      const auto res = m.filter_only(trace, true, scratch);
      stats.add(util::gbps(trace.size(), timer.seconds()));
      guard = guard + res.short_candidates + res.long_candidates;
    }
    if (base == 0.0) base = stats.mean();
    print_row({label, fmt(stats.mean()), fmt(stats.mean() / base)}, widths);
  };

  core::VpatchConfig cfg;
  cfg.isa = core::Isa::avx2;  // the paper's Haswell kernel (W=8)
  row("V-PATCH default", cfg);

  for (unsigned bits : {12u, 14u, 16u, 18u, 20u}) {
    auto c = cfg;
    c.filters.f3_bits_log2 = bits;
    row("  F3 size 2^" + std::to_string(bits) + " bits (" +
            std::to_string((1u << bits) / 8192) + " KB)",
        c);
  }
  for (std::size_t chunk : {std::size_t{4} << 10, std::size_t{32} << 10, std::size_t{256} << 10}) {
    auto c = cfg;
    c.chunk_size = chunk;
    row("  chunk " + std::to_string(chunk >> 10) + " KB", c);
  }

  // Two-round split vs interleaved verification: S-PATCH vs DFC (scalar).
  {
    const MatcherPtr spatch = core::make_matcher(core::Algorithm::spatch, set);
    const dfc::DfcMatcher dfcm(set);
    const std::vector<Throughput> t = measure_scan({spatch.get(), &dfcm}, trace, opt.runs);
    const Throughput& ts = t[0];
    const Throughput& td = t[1];
    print_row({"S-PATCH (two rounds, scalar)", fmt(ts.mean_gbps), fmt(ts.mean_gbps / base)},
              widths);
    print_row({"DFC (interleaved, scalar)", fmt(td.mean_gbps), fmt(td.mean_gbps / base)},
              widths);
  }
  return 0;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
