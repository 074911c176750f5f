// Shared benchmark harness: workload construction, repeated-run throughput
// measurement (the paper reports mean and stddev over independent runs), and
// aligned table output so each bench binary prints rows mirroring its figure.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/matcher_factory.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"
#include "traffic/trace.hpp"
#include "util/bytes.hpp"

namespace vpm::bench {

struct Options {
  std::size_t trace_mb = 16;  // bytes scanned per workload
  unsigned runs = 5;          // independent runs per cell (paper uses 10)
  std::uint64_t seed = 1;
  bool quick = false;      // --quick: 4 MB traces, 2 runs (CI smoke)
  std::string json_path;   // --json=FILE: machine-readable results
};

// Recognizes --mb=N --runs=N --seed=N --quick --json=FILE; ignores unknown
// flags so the binaries can grow figure-specific options.
Options parse_options(int argc, char** argv);

// Machine-readable result collection (the BENCH_*.json perf trajectory).
// Every bench builds one of these alongside its printed table; rows carry
// string dimensions (workload, algorithm, ...) plus numeric metrics, and
// write() emits
//   {"bench": ..., "options": {...}, "rows": [{...}, ...]}
// Write is a no-op returning true when the user did not pass --json.
class JsonReport {
 public:
  JsonReport(std::string bench_name, const Options& opt);

  void add(std::vector<std::pair<std::string, std::string>> dims,
           std::vector<std::pair<std::string, double>> metrics,
           std::vector<std::pair<std::string, std::uint64_t>> counts = {});

  // Writes to opt.json_path if set; returns false (after printing a
  // diagnostic) on I/O failure so mains can propagate a nonzero exit.
  bool write() const;

 private:
  std::string bench_;
  Options opt_;
  std::vector<std::string> rows_;  // pre-rendered JSON objects
};

struct Throughput {
  double mean_gbps = 0.0;
  double stddev_gbps = 0.0;
  std::uint64_t matches = 0;
};

// Scans `data` with every matcher `runs` times, after one untimed warm-up
// each, and reports each one's throughput statistics, in input order.  Each
// run times every matcher once, in an order that rotates from run to run, so
// host drift between runs falls on all of them alike: the matchers a row
// group compares are timed together, and their ratios compare one moment.
std::vector<Throughput> measure_scan(const std::vector<const Matcher*>& matchers,
                                     util::ByteView data, unsigned runs);

// The paper's four evaluation workloads at the configured size.
struct Workload {
  std::string name;
  util::Bytes trace;
};
std::vector<Workload> paper_workloads(const Options& opt);

// The paper's pattern sets: S1-web (~2 K) and S2-web (~9 K), plus S2-full
// (20 K) for Fig. 5/6.
pattern::PatternSet s1_web_patterns(std::uint64_t seed = 1);
pattern::PatternSet s2_web_patterns(std::uint64_t seed = 2);
pattern::PatternSet s2_full_patterns(std::uint64_t seed = 2);
// S2-web's patterns of >= 8 B, re-homed into the generic group: at the
// default seed, the ruleset of sensorbench's tls_screened workload.
pattern::PatternSet s2_gated_generic_patterns(std::uint64_t seed = 2);

// Minimal fixed-width table printer.
void print_row(const std::vector<std::string>& cells, const std::vector<int>& widths);
std::string fmt(double v, int precision = 2);

}  // namespace vpm::bench
