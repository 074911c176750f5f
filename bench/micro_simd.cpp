// google-benchmark micro suite for the SIMD primitives: the per-instruction
// story behind the figure-level results (gather vs scalar probes, shuffle
// window transform, hashing, left-pack stores).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/candidates.hpp"
#include "core/filter_bank.hpp"
#include "core/vpatch.hpp"
#include "core/vpatch_kernels.hpp"
#include "pattern/ruleset_gen.hpp"
#include "simd/cpu_features.hpp"
#include "simd/ops.hpp"
#include "traffic/http_trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace vpm;

util::Bytes make_data(std::size_t n) {
  util::Bytes d(n);
  util::Rng rng(1);
  for (auto& b : d) b = rng.byte();
  return d;
}

// ---- window transform ------------------------------------------------------

void BM_windows2_scalar(benchmark::State& state) {
  const auto data = make_data(1 << 16);
  std::uint32_t out[8];
  for (auto _ : state) {
    for (std::size_t i = 0; i + 16 <= data.size(); i += 8) {
      simd::windows2_scalar(data.data() + i, out, 8);
      benchmark::DoNotOptimize(out[7]);
    }
  }
  state.SetBytesProcessed(state.iterations() * ((1 << 16) - 16));
}
BENCHMARK(BM_windows2_scalar);

void BM_windows2_avx2(benchmark::State& state) {
  if (!simd::avx2_available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const auto data = make_data(1 << 16);
  std::uint32_t out[8];
  for (auto _ : state) {
    for (std::size_t i = 0; i + 16 <= data.size(); i += 8) {
      simd::windows2_avx2(data.data() + i, out);
      benchmark::DoNotOptimize(out[7]);
    }
  }
  state.SetBytesProcessed(state.iterations() * ((1 << 16) - 16));
}
BENCHMARK(BM_windows2_avx2);

// ---- gather vs scalar filter probes ------------------------------------------

void BM_filter_probe_scalar(benchmark::State& state) {
  const auto data = make_data(1 << 16);
  const auto set = pattern::generate_ruleset({.count = 2000, .seed = 2});
  const core::FilterBank bank(set);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < data.size(); ++i) {
      const std::uint32_t w = util::load_u16(data.data() + i);
      hits += bank.test_f1(w) + bank.test_f2(w);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetBytesProcessed(state.iterations() * ((1 << 16) - 1));
}
BENCHMARK(BM_filter_probe_scalar);

// The no-store kernel of one vector width's table (null when not compiled).
void filter_probe_gather(benchmark::State& state, bool available,
                         const core::VpatchKernel* kernel) {
  if (!available || kernel == nullptr) {
    state.SkipWithError("kernel unavailable");
    return;
  }
  const auto data = make_data(1 << 16);
  const auto set = pattern::generate_ruleset({.count = 2000, .seed = 2});
  const core::FilterBank bank(set);
  core::NoStoreCounts counts;
  for (auto _ : state) {
    kernel->filter_nostore(data.data(), 0, data.size() - 1, data.size(), bank, counts);
    benchmark::DoNotOptimize(counts);
  }
  state.SetBytesProcessed(state.iterations() * ((1 << 16) - 1));
}

void BM_filter_probe_gather_avx2(benchmark::State& state) {
  filter_probe_gather(state, simd::avx2_available(), core::vpatch_kernel_avx2());
}
BENCHMARK(BM_filter_probe_gather_avx2);

void BM_filter_probe_gather_avx512(benchmark::State& state) {
  filter_probe_gather(state, simd::avx512_available(), core::vpatch_kernel_avx512());
}
BENCHMARK(BM_filter_probe_gather_avx512);

// ---- hash -----------------------------------------------------------------------

void BM_hash_mul_scalar(benchmark::State& state) {
  std::vector<std::uint32_t> in(4096), out(4096);
  util::Rng rng(3);
  for (auto& v : in) v = static_cast<std::uint32_t>(rng());
  for (auto _ : state) {
    simd::hash_mul_scalar(in.data(), out.data(), 4096, 16);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_hash_mul_scalar);

// ---- left-pack --------------------------------------------------------------------

void BM_leftpack_avx2(benchmark::State& state) {
  if (!simd::avx2_available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  util::Rng rng(4);
  std::vector<std::uint32_t> masks(4096);
  for (auto& m : masks) m = static_cast<std::uint32_t>(rng.below(256));
  std::uint32_t dst[16];
  for (auto _ : state) {
    unsigned total = 0;
    for (std::uint32_t m : masks) total += simd::leftpack_positions_avx2(0, m, dst);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_leftpack_avx2);

// ---- end-to-end filter round on realistic input -------------------------------------

void BM_spatch_filter_http(benchmark::State& state) {
  const auto trace = traffic::generate_http_trace(traffic::iscx_day2_config(1 << 20, 5));
  const auto set = pattern::generate_ruleset({.count = 2000, .seed = 6});
  core::VpatchConfig cfg;
  cfg.isa = core::Isa::scalar;  // S-PATCH
  const core::VpatchMatcher m(set, cfg);
  for (auto _ : state) {
    const auto r = m.filter_only(trace, true);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_spatch_filter_http);

void BM_vpatch_filter_http(benchmark::State& state) {
  if (!simd::avx2_available() && !simd::avx512_available()) {
    state.SkipWithError("no vector kernel");
    return;
  }
  const auto trace = traffic::generate_http_trace(traffic::iscx_day2_config(1 << 20, 5));
  const auto set = pattern::generate_ruleset({.count = 2000, .seed = 6});
  const core::VpatchMatcher m(set);
  for (auto _ : state) {
    const auto r = m.filter_only(trace, true);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_vpatch_filter_http);

}  // namespace
