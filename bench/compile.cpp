// Compile-path latency: how long vpm::compile() takes to turn a rule set
// into an immutable Database, per algorithm and ruleset size, plus the
// compiled footprint (Database::memory_bytes — owned patterns plus each
// distinct per-group working set and signature, counted once).  This is the control-plane cost a hot-swap pays before publishing a
// new generation, so the trajectory tracks it the same way the scan benches
// track data-plane throughput.  The sets are S1-web, the tls_screened
// workload's ruleset (S2-web's patterns of >= 8 B, the generic group; one
// compact-AC automaton of ~150 K states) and, outside --quick, S2-full.
//
//   bench_compile [--seed=N] [--runs=N] [--quick] [--json=FILE]
#include <cstdio>

#include "common.hpp"
#include "core/database.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  struct Set {
    const char* name;
    pattern::PatternSet patterns;
  };
  std::vector<Set> sets;
  sets.push_back({"S1-web", s1_web_patterns(opt.seed)});
  // Seed + 1 as in bench_prefilter: the default --seed=1 gives S2's own seed.
  sets.push_back({"tls_screened", s2_gated_generic_patterns(opt.seed + 1)});
  if (!opt.quick) sets.push_back({"S2-full", s2_full_patterns(opt.seed)});

  std::printf("=== compile(): database build latency and footprint ===\n");
  const std::vector<int> widths{14, 22, 10, 12, 12, 14};
  print_row({"set", "algorithm", "patterns", "compile-ms", "stddev-ms", "db-KB"}, widths);

  JsonReport report("compile", opt);
  const unsigned runs = opt.runs > 0 ? opt.runs : 1;
  for (const Set& s : sets) {
    for (const core::Algorithm algo : core::available_algorithms()) {
      // One warm-up compile (first-touch page faults, allocator growth),
      // then `runs` timed compiles of fresh databases.  engine() is touched
      // inside the timed region: unless one working set holds every pattern
      // the whole-set engine materializes lazily, and this bench reports the
      // full pattern-copy + engine-build cost a Scanner-path reload pays.
      DatabasePtr db = compile(algo, s.patterns);
      db->engine();
      std::vector<double> ms;
      ms.reserve(runs);
      for (unsigned r = 0; r < runs; ++r) {
        util::Timer timer;
        db = compile(algo, s.patterns);
        db->engine();
        ms.push_back(timer.millis());
      }
      const double mean = util::mean_of(ms);
      const double stddev = util::stddev_of(ms);
      print_row({s.name, std::string(core::algorithm_name(algo)),
                 std::to_string(db->pattern_count()), fmt(mean, 2), fmt(stddev, 2),
                 std::to_string(db->memory_bytes() >> 10)},
                widths);
      report.add({{"set", s.name}, {"algorithm", std::string(core::algorithm_name(algo))}},
                 {{"compile_ms_mean", mean}, {"compile_ms_stddev", stddev}},
                 {{"patterns", db->pattern_count()},
                  {"memory_bytes", db->memory_bytes()}});
    }
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
