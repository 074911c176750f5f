// Batch-scan fast path vs per-packet scan(): small-packet IDS traffic is
// where per-invocation fixed costs (candidate-buffer allocation, kernel
// setup, cold verification tables) dominate, and where the batch path's
// shared scratch + deferred prefetch-pipelined verification round pays.
// Sweeps payload size x algorithm x batch size over the same trace bytes
// sliced into payloads; reports both paths' throughput and the speedup.
// This is the one engine sweep: full-matrix AC is the paper's baseline (its
// batch path is the generic per-payload loop), and compact AC's batch path
// is the lane kernel (8/16 payloads walk the arena through gathers; batch 1
// falls back to the per-payload path, so that row measures dispatch cost).
// On an AVX-512 host, v-patch is the W=16 kernel and v-patch-avx2 adds the
// W=8 rows.
//
//   bench_batch_scan [--mb=N] [--runs=N] [--seed=N] [--quick] [--json=FILE]
#include <cstdio>
#include <iterator>
#include <vector>

#include "common.hpp"
#include "core/vpatch.hpp"
#include "traffic/trace.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

struct CountingBatchSink final : BatchSink {
  std::uint64_t matches = 0;
  void on_match(std::uint32_t, const Match&) override { ++matches; }
};

std::vector<util::ByteView> slice(const util::Bytes& trace, std::size_t payload) {
  std::vector<util::ByteView> views;
  views.reserve(trace.size() / payload + 1);
  for (std::size_t off = 0; off + payload <= trace.size(); off += payload) {
    views.emplace_back(trace.data() + off, payload);
  }
  return views;
}

int run_set(const char* label, const pattern::PatternSet& set, const util::Bytes& trace,
            const Options& opt, JsonReport& report) {
  std::printf("\n=== Batch scan (%s): %zu patterns, %zu MB ISCX-style trace sliced "
              "into payloads ===\n",
              label, set.size(), opt.trace_mb);
  const std::vector<int> widths{22, 10, 8, 12, 12, 10};
  print_row({"algorithm", "payload", "batch", "scan-Gbps", "batch-Gbps", "speedup"},
            widths);

  std::vector<core::Algorithm> algos{
      core::Algorithm::aho_corasick, core::Algorithm::aho_corasick_compact,
      core::Algorithm::dfc,          core::Algorithm::vector_dfc,
      core::Algorithm::spatch,       core::Algorithm::vpatch};
  // v-patch runs the widest kernel; on an AVX-512 host the AVX2 width gets
  // its own rows, so both vector widths' batch paths are measured.
  if (core::resolve_isa(core::Isa::best) == core::Isa::avx512) {
    algos.push_back(core::Algorithm::vpatch_avx2);
  }
  for (core::Algorithm algo : algos) {
    if (!core::algorithm_available(algo)) continue;
    const auto matcher = core::make_matcher(algo, set);

    for (std::size_t payload : {std::size_t{32}, std::size_t{64}, std::size_t{128},
                                std::size_t{256}, std::size_t{1500}}) {
      const auto views = slice(trace, payload);
      const std::size_t bytes = views.size() * payload;
      const std::size_t batches[] = {1, 8, 32};

      // Interleaved measurement: each run measures the per-packet baseline
      // AND every batch size back to back, so machine-state drift between
      // measurement blocks cancels out of the speedup ratio.
      std::uint64_t scan_matches = 0;
      std::uint64_t batch_matches[std::size(batches)] = {};
      util::RunningStats scan_stats;
      util::RunningStats batch_stats[std::size(batches)];
      ScanScratch scratch;
      for (unsigned r = 0; r <= opt.runs; ++r) {  // run 0 is the warm-up
        {
          CountingSink sink;
          util::Timer timer;
          for (const util::ByteView& v : views) matcher->scan(v, sink);
          const double secs = timer.seconds();
          if (r > 0) {
            scan_stats.add(util::gbps(bytes, secs));
            scan_matches = sink.count();
          }
        }
        for (std::size_t bi = 0; bi < std::size(batches); ++bi) {
          const std::size_t batch = batches[bi];
          CountingBatchSink sink;
          util::Timer timer;
          for (std::size_t begin = 0; begin < views.size(); begin += batch) {
            const std::size_t count = std::min(batch, views.size() - begin);
            matcher->scan_batch({views.data() + begin, count}, sink, scratch);
          }
          const double secs = timer.seconds();
          if (r > 0) {
            batch_stats[bi].add(util::gbps(bytes, secs));
            batch_matches[bi] = sink.matches;
          }
        }
      }

      for (std::size_t bi = 0; bi < std::size(batches); ++bi) {
        if (batch_matches[bi] != scan_matches) {
          std::fprintf(stderr, "batch/scan match mismatch for %s: %llu vs %llu\n",
                       std::string(matcher->name()).c_str(),
                       static_cast<unsigned long long>(batch_matches[bi]),
                       static_cast<unsigned long long>(scan_matches));
          return 1;
        }
        const double speedup =
            scan_stats.mean() > 0 ? batch_stats[bi].mean() / scan_stats.mean() : 0.0;
        print_row({std::string(core::algorithm_name(algo)), std::to_string(payload),
                   std::to_string(batches[bi]), fmt(scan_stats.mean()),
                   fmt(batch_stats[bi].mean()), fmt(speedup)},
                  widths);
        report.add({{"set", label}, {"algorithm", std::string(core::algorithm_name(algo))}},
                   {{"scan_gbps", scan_stats.mean()},
                    {"scan_gbps_stddev", scan_stats.stddev()},
                    {"batch_gbps", batch_stats[bi].mean()},
                    {"batch_gbps_stddev", batch_stats[bi].stddev()},
                    {"speedup", speedup}},
                   {{"payload_bytes", payload},
                    {"batch", batches[bi]},
                    {"matches", batch_matches[bi]}});
      }
    }
  }
  return 0;
}

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day2,
                                             opt.trace_mb << 20, opt.seed + 20);
  JsonReport report("batch_scan", opt);
  // Two ruleset scales: the light web set (filter structures fully
  // cache-resident; the batch win is mostly allocation/setup amortization)
  // and the full 20 K set (verification tables spill; the deferred
  // prefetch-pipelined round adds on top).
  if (run_set("S1-web", s1_web_patterns(opt.seed), trace, opt, report) != 0) return 1;
  if (run_set("S2-full", s2_full_patterns(opt.seed + 1), trace, opt, report) != 0) return 1;
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
