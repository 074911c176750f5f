// The approximate-prefilter trade: at low match fractions most payloads are
// rejected by the cheap q-gram screen and never reach the exact engine
// (throughput multiplies); at fraction 1.0 the screen is pure overhead and
// `auto` must stand down to keep the regression bounded.  Sweeps ruleset
// scale (S1/S2 heavy groups, gated at >= 8 bytes so the consecutive-window
// threshold is strong) x trace flavor x payload size x planted match
// fraction x mode, and reports measured throughput, pass ratio,
// false-positive rate, and — hard contract — zero false negatives (the
// screened path must find every match the unscreened path finds).
//
// The trace flavor matters more than anything else here: HTTP-heavy text
// shares 4-gram vocabulary with web rulesets, so the screen passes most
// text payloads (and `auto` must notice and stand down), while binary-ish
// traffic (the random trace: encrypted/compressed payloads) rejects almost
// everything and multiplies throughput.
//
//   bench_prefilter [--mb=N] [--runs=N] [--seed=N] [--quick] [--json=FILE]
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "common.hpp"
#include "core/prefilter.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

struct CountingBatchSink final : BatchSink {
  std::uint64_t matches = 0;
  void on_match(std::uint32_t, const Match&) override { ++matches; }
};

// Heavy-group gating: keep only the long patterns (>= min_len bytes) of a
// web ruleset, re-homed into the http group.  Short patterns would clamp the
// screen's consecutive-window threshold to 1 and let almost everything pass;
// real deployments would leave them to the exact engine's short family.
pattern::PatternSet gate_long(const pattern::PatternSet& src, std::size_t min_len) {
  pattern::PatternSet out;
  for (const auto& p : src.patterns()) {
    if (p.bytes.size() >= min_len) out.add(p.bytes, p.nocase, pattern::Group::http);
  }
  return out;
}

struct ModeResult {
  util::RunningStats gbps;
  std::uint64_t matches = 0;
  std::uint64_t pass_payloads = 0;
  std::uint64_t reject_payloads = 0;
};

constexpr std::size_t kBatch = 32;
// The engine's PrefilterMode::automatic policy constants (ids/engine.hpp):
// sample the pass ratio over 64-payload windows; a window passing more than
// half bypasses the screen for the next 31 windows.
constexpr std::uint32_t kAutoSampleWindow = 64;
constexpr std::uint32_t kAutoBypassPayloads = 31 * 64;

// One timed pass over all payloads in `mode`: batches of 32 through the
// screen (per mode policy), survivors to the exact engine's batch path.
void one_pass(const Matcher& matcher, const core::Prefilter& pf,
              core::PrefilterMode mode, std::span<const util::ByteView> views,
              std::size_t bytes, bool record, ScanScratch& scan_scratch,
              std::vector<std::uint8_t>& verdicts,
              std::vector<util::ByteView>& passed, ModeResult& result) {
  CountingBatchSink sink;
  std::uint64_t pass = 0, reject = 0;
  std::uint32_t sampled = 0, sampled_pass = 0, bypass = 0;
  util::Timer timer;
  for (std::size_t begin = 0; begin < views.size(); begin += kBatch) {
    const std::size_t count = std::min(kBatch, views.size() - begin);
    const std::span<const util::ByteView> batch{views.data() + begin, count};
    bool screen = mode != core::PrefilterMode::off;
    if (screen && mode == core::PrefilterMode::automatic && bypass > 0) {
      bypass -= static_cast<std::uint32_t>(std::min<std::size_t>(bypass, batch.size()));
      screen = false;
    }
    if (!screen) {
      matcher.scan_batch(batch, sink, scan_scratch);
      continue;
    }
    pf.screen_batch(batch, verdicts.data());
    passed.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (verdicts[i] != 0) passed.push_back(batch[i]);
    }
    pass += passed.size();
    reject += batch.size() - passed.size();
    if (mode == core::PrefilterMode::automatic) {
      sampled += static_cast<std::uint32_t>(batch.size());
      sampled_pass += static_cast<std::uint32_t>(passed.size());
      if (sampled >= kAutoSampleWindow) {
        if (sampled_pass * 2 > sampled) bypass = kAutoBypassPayloads;
        sampled = 0;
        sampled_pass = 0;
      }
    }
    if (!passed.empty()) matcher.scan_batch(passed, sink, scan_scratch);
  }
  const double secs = timer.seconds();
  if (record) {
    result.gbps.add(util::gbps(bytes, secs));
    result.matches = sink.matches;
    result.pass_payloads = pass;
    result.reject_payloads = reject;
  }
}

int run_set(const char* label, const pattern::PatternSet& rules,
            traffic::TraceKind kind, core::Algorithm algo, const Options& opt,
            JsonReport& report) {
  const auto matcher = core::make_matcher(algo, rules);
  const auto pf = core::build_prefilter(rules);
  if (pf == nullptr) {
    std::fprintf(stderr, "prefilter failed to build for %s\n", label);
    return 1;
  }
  const std::string trace_name(traffic::trace_kind_name(kind));

  std::printf("\n=== Prefilter (%s, %s trace): %zu patterns, q=%u threshold=%u "
              "%zu KB signature, exact engine %s ===\n",
              label, trace_name.c_str(), rules.size(), pf->q(), pf->threshold(),
              pf->memory_bytes() >> 10, std::string(matcher->name()).c_str());
  const std::vector<int> widths{9, 10, 8, 11, 11, 9, 9, 9};
  print_row({"payload", "fraction", "mode", "Gbps", "speedup", "pass-%", "fp-%",
             "matches"},
            widths);

  constexpr core::PrefilterMode kModes[] = {
      core::PrefilterMode::off, core::PrefilterMode::on,
      core::PrefilterMode::automatic};

  for (std::size_t payload : {std::size_t{256}, std::size_t{1500}}) {
    for (double fraction : {0.0, 0.01, 0.1, 1.0}) {
      // A fresh trace per cell (planting mutates it), sliced into payloads;
      // every k-th slice gets a verbatim pattern occurrence planted.
      util::Bytes trace =
          traffic::generate_trace(kind, opt.trace_mb << 20, opt.seed + 30);
      std::vector<util::ByteView> views;
      for (std::size_t off = 0; off + payload <= trace.size(); off += payload) {
        views.emplace_back(trace.data() + off, payload);
      }
      util::Rng rng(opt.seed + payload * 1000 +
                    static_cast<std::uint64_t>(fraction * 100));
      if (fraction > 0.0) {
        const std::size_t stride = static_cast<std::size_t>(1.0 / fraction);
        for (std::size_t i = 0; i < views.size(); i += stride) {
          const auto& pat = rules.patterns()[rng.below(rules.size())];
          if (pat.bytes.size() > payload) continue;
          const std::size_t pos = rng.below(payload - pat.bytes.size() + 1);
          std::copy(pat.bytes.begin(), pat.bytes.end(),
                    trace.begin() + static_cast<std::ptrdiff_t>(i * payload + pos));
        }
      }
      // Ground truth for the false-positive rate: which payloads actually
      // contain a match (planted or natural trace bytes).
      std::uint64_t matching_payloads = 0;
      for (const util::ByteView& v : views) {
        if (matcher->count_matches(v) > 0) ++matching_payloads;
      }

      // Interleaved measurement: every run times all three modes back to
      // back so machine-state drift cancels out of the speedup ratios.
      const std::size_t bytes = views.size() * payload;
      ScanScratch scan_scratch;
      std::vector<std::uint8_t> verdicts(kBatch);
      std::vector<util::ByteView> passed;
      passed.reserve(kBatch);
      ModeResult results[std::size(kModes)];
      for (unsigned r = 0; r <= opt.runs; ++r) {  // run 0 is the warm-up
        for (std::size_t mi = 0; mi < std::size(kModes); ++mi) {
          one_pass(*matcher, *pf, kModes[mi], views, bytes, r > 0, scan_scratch,
                   verdicts, passed, results[mi]);
        }
      }

      const ModeResult& off = results[0];
      for (std::size_t mi = 0; mi < std::size(kModes); ++mi) {
        const ModeResult& res = results[mi];
        const std::string mode(core::prefilter_mode_name(kModes[mi]));
        // The hard exactness contract: the screen may only ever add work
        // (false positives), never hide a match.
        if (res.matches != off.matches) {
          std::fprintf(stderr,
                       "FALSE NEGATIVES: %s %s payload=%zu fraction=%.2f: "
                       "%llu matches vs %llu unscreened\n",
                       label, mode.c_str(), payload, fraction,
                       static_cast<unsigned long long>(res.matches),
                       static_cast<unsigned long long>(off.matches));
          return 1;
        }
        const std::uint64_t screened = res.pass_payloads + res.reject_payloads;
        const double pass_ratio =
            screened > 0 ? static_cast<double>(res.pass_payloads) / screened : 0.0;
        // False positives only exist among screened payloads with no match;
        // with `auto` bypassing, screened true-matchers are not separable
        // from bypassed ones, so fp_rate is reported for full screening only.
        double fp_rate = 0.0;
        if (screened == views.size() && views.size() > matching_payloads) {
          const std::uint64_t fp = res.pass_payloads >= matching_payloads
                                       ? res.pass_payloads - matching_payloads
                                       : 0;
          fp_rate = static_cast<double>(fp) /
                    static_cast<double>(views.size() - matching_payloads);
        }
        const double speedup =
            off.gbps.mean() > 0 ? res.gbps.mean() / off.gbps.mean() : 0.0;
        print_row({std::to_string(payload), fmt(fraction, 2), mode,
                   fmt(res.gbps.mean()), fmt(speedup), fmt(pass_ratio * 100, 1),
                   fmt(fp_rate * 100, 2), std::to_string(res.matches)},
                  widths);
        report.add({{"set", label},
                    {"trace", trace_name},
                    {"mode", mode},
                    {"algorithm", std::string(core::algorithm_name(algo))}},
                   {{"gbps", res.gbps.mean()},
                    {"gbps_stddev", res.gbps.stddev()},
                    {"speedup_vs_off", speedup},
                    {"pass_ratio", pass_ratio},
                    {"fp_rate", fp_rate},
                    {"match_fraction", fraction}},
                   {{"payload_bytes", payload},
                    {"matches", res.matches},
                    {"matching_payloads", matching_payloads},
                    {"payloads", views.size()},
                    {"pass_payloads", res.pass_payloads},
                    {"reject_payloads", res.reject_payloads},
                    {"false_negatives", 0},
                    {"q", pf->q()},
                    {"threshold", pf->threshold()},
                    {"bits_log2", pf->bits_log2()},
                    {"signature_kb", pf->memory_bytes() >> 10}});
      }
    }
  }
  return 0;
}

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  JsonReport report("prefilter", opt);
  const auto s1 = gate_long(s1_web_patterns(opt.seed), 8);
  const auto s2 = gate_long(s2_web_patterns(opt.seed + 1), 8);
  // The exact-engine dimension is the story: screening in front of V-PATCH
  // (whose own direct filter already rejects easy traffic at wire speed)
  // buys little, while screening in front of the compact-AC automaton (the
  // heavy fallback engine for dense groups) multiplies throughput whenever
  // the traffic lets the screen reject.
  for (core::Algorithm algo :
       {core::Algorithm::aho_corasick_compact, core::Algorithm::vpatch}) {
    if (!core::algorithm_available(algo)) continue;
    for (traffic::TraceKind kind :
         {traffic::TraceKind::random, traffic::TraceKind::iscx_day2}) {
      if (run_set("S1-gated", s1, kind, algo, opt, report) != 0) return 1;
      if (run_set("S2-gated", s2, kind, algo, opt, report) != 0) return 1;
    }
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
