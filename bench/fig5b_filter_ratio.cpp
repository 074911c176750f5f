// Figure 5b: the two opposing trends behind the constant Fig. 5a speedup —
//   (blue line) filtering time as a fraction of total running time falls as
//   pattern count grows (verification eats the budget, Amdahl);
//   (red line)  useful lanes per speculative Filter-3 block rise (more lanes
//   pass Filter 2, so the all-lane evaluation wastes less work).
// The candidate columns count, per trace pass, the positions round one
// stores (short-cand, long-cand) and the short ones that survive round
// two's pre-pass and reach the short table (short-kept).
//
//   fig5b_filter_ratio [--mb=N] [--runs=N] [--seed=N] [--quick] [--json=FILE]
#include <cstdio>

#include "common.hpp"
#include "core/prefilter.hpp"
#include "core/scan_stats.hpp"
#include "core/vpatch.hpp"
#include "traffic/trace.hpp"

namespace vpm::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto full = s2_full_patterns(opt.seed);
  const auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day2,
                                             opt.trace_mb << 20, opt.seed + 10);

  std::printf("=== Fig 5b: filtering/total time %% and useful F3 lanes %% vs patterns ===\n");
  const std::vector<int> widths{10, 16, 18, 14, 14, 14};
  print_row({"patterns", "filter-time-%", "useful-lanes-%", "short-cand", "short-kept",
             "long-cand"},
            widths);

  JsonReport report("fig5b_filter_ratio", opt);
  const std::size_t counts[] = {1000, 2500, 5000, 10000, 15000, 20000};
  // Companion datapoint for the approximate prefilter: per subset size, how
  // many MTU-sized payloads of this trace the q-gram screen would pass, and
  // how many of those passes are false (no true match inside).  Reported in
  // the JSON rows only — the printed figure stays the paper's.
  std::vector<util::ByteView> payloads;
  for (std::size_t off = 0; off + 1500 <= trace.size(); off += 1500) {
    payloads.emplace_back(trace.data() + off, 1500);
  }

  for (std::size_t n : counts) {
    const auto subset = full.random_subset(n, opt.seed + n);
    const core::VpatchMatcher vpatch(subset);
    core::ScanStats stats;
    for (unsigned r = 0; r < opt.runs; ++r) {
      CountingSink sink;
      vpatch.scan_with_stats(trace, sink, stats);
    }

    // Built over the screenable long patterns (>= 8 B, like bench_prefilter's
    // heavy-group gating — the subset's 1-2 byte patterns would null the
    // filter), with ground truth from a matcher over the same gated set so
    // "false pass" means exactly: passed but no screenable pattern inside.
    pattern::PatternSet gated;
    for (const auto& p : subset.patterns()) {
      if (p.bytes.size() >= 8) gated.add(p.bytes, p.nocase, pattern::Group::http);
    }
    double pass_pct = 100.0, fp_pct = 100.0;
    std::uint64_t pf_patterns = 0;
    if (const auto pf = core::build_prefilter(gated)) {
      pf_patterns = gated.size();
      const core::VpatchMatcher gated_vpatch(gated);
      std::uint64_t pass = 0, matching = 0, false_pass = 0;
      for (const util::ByteView p : payloads) {
        const bool hit = pf->screen(p);
        const bool real = gated_vpatch.count_matches(p) > 0;
        pass += hit;
        matching += real;
        false_pass += hit && !real;
      }
      pass_pct = payloads.empty() ? 0.0 : 100.0 * static_cast<double>(pass) /
                                              static_cast<double>(payloads.size());
      fp_pct = payloads.size() > matching
                   ? 100.0 * static_cast<double>(false_pass) /
                         static_cast<double>(payloads.size() - matching)
                   : 0.0;
    }

    print_row({std::to_string(subset.size()), fmt(stats.filter_time_fraction() * 100, 1),
               fmt(stats.f3_lane_utilization() * 100, 1),
               std::to_string(stats.short_candidates / opt.runs),
               std::to_string(stats.short_survivors / opt.runs),
               std::to_string(stats.long_candidates / opt.runs)},
              widths);
    report.add({},
               {{"filter_time_pct", stats.filter_time_fraction() * 100},
                {"useful_lanes_pct", stats.f3_lane_utilization() * 100},
                {"prefilter_pass_pct", pass_pct},
                {"prefilter_fp_pct", fp_pct}},
               {{"patterns", subset.size()},
                {"short_candidates", stats.short_candidates / opt.runs},
                {"short_survivors", stats.short_survivors / opt.runs},
                {"long_candidates", stats.long_candidates / opt.runs},
                {"prefilter_patterns", pf_patterns}});
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
