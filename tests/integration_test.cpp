// Integration tests: full pipeline runs combining generated rulesets,
// generated traffic, injection, grouped engines and every matcher — the
// "would a downstream user's deployment work" checks.
#include <gtest/gtest.h>

#include "core/matcher_factory.hpp"
#include "core/vpatch.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pattern/snort_rules.hpp"
#include "stream_oracle.hpp"
#include "traffic/match_injector.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace vpm {
namespace {

TEST(Integration, AllEnginesAgreeOnFullPipeline) {
  // Generated S1-like ruleset (web subset), ISCX-like trace with injected
  // attacks — every engine must produce the identical alert multiset.
  pattern::RulesetConfig cfg;
  cfg.count = 600;
  cfg.seed = testutil::case_seed(101);
  const auto ruleset = pattern::generate_ruleset(cfg);
  const auto web = ruleset.web_patterns();
  auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day2, 1 << 18, testutil::case_seed(55));
  traffic::inject_matches(trace, web, 0.005, testutil::case_seed(56));

  std::vector<Match> reference;
  for (core::Algorithm algo : core::available_algorithms()) {
    if (algo == core::Algorithm::naive) continue;
    const MatcherPtr m = core::make_matcher(algo, web);
    const auto got = m->find_matches(trace);
    if (reference.empty()) {
      reference = got;
      EXPECT_GT(reference.size(), 0u) << "injection should guarantee matches";
    } else {
      EXPECT_EQ(got, reference) << m->name() << " (" << testutil::seed_note() << ")";
    }
  }
}

TEST(Integration, RulesFileToEngineRoundTrip) {
  // Generate -> render to Snort syntax -> parse back -> scan: the parsed set
  // must behave identically to the original.
  pattern::RulesetConfig cfg;
  cfg.count = 150;
  cfg.seed = testutil::case_seed(103);
  const auto original = pattern::generate_ruleset(cfg);
  const std::string rules_text = pattern::render_rules(original);
  const auto parsed = pattern::patterns_from_rules(rules_text, pattern::ContentSelection::kAll);
  ASSERT_EQ(parsed.size(), original.size());

  const auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day6, 1 << 16, testutil::case_seed(57));
  const auto a = core::make_matcher(core::Algorithm::vpatch, original)->count_matches(trace);
  const auto b = core::make_matcher(core::Algorithm::vpatch, parsed)->count_matches(trace);
  EXPECT_EQ(a, b) << testutil::seed_note();
}

TEST(Integration, IdsEngineMatchesWholeStreamScan) {
  // Chunked flow inspection through the IDS engine == a naive scan of the
  // whole stream over the http group's patterns.
  pattern::RulesetConfig cfg;
  cfg.count = 200;
  cfg.seed = testutil::case_seed(104);
  const auto ruleset = pattern::generate_ruleset(cfg);
  auto stream = traffic::generate_trace(traffic::TraceKind::iscx_day2, 1 << 16, testutil::case_seed(58));
  traffic::inject_matches(stream, ruleset.web_patterns(), 0.01, testutil::case_seed(59));

  const DatabasePtr db = compile(core::Algorithm::vpatch, ruleset);
  ids::IdsEngine engine(db);
  std::vector<ids::Alert> alerts;
  ids::AlertBuffer sink(alerts);
  util::Rng rng(testutil::case_seed(60));
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t len =
        std::min<std::size_t>(static_cast<std::size_t>(rng.between(1, 4000)),
                              stream.size() - off);
    engine.stage(42, pattern::Group::http, {stream.data() + off, len}, sink);
    engine.flush_batch(sink);
    off += len;
  }

  testutil::StreamOracle oracle(db);
  oracle.append(42, pattern::Group::http, stream);
  const std::vector<ids::Alert> expected = oracle.finish().alerts;
  ASSERT_GT(expected.size(), 0u) << testutil::seed_note();
  std::sort(alerts.begin(), alerts.end());
  EXPECT_EQ(alerts, expected) << testutil::seed_note();
}

TEST(Integration, InjectionFractionDrivesMatchCount) {
  // More injected matches -> more reported matches (Fig. 5c workload knob).
  pattern::PatternSet set;
  set.add("INJECTED-MARKER-A");
  set.add("INJECTED-MARKER-B");
  const MatcherPtr m = core::make_matcher(core::Algorithm::vpatch, set);
  std::uint64_t prev = 0;
  for (double frac : {0.0, 0.05, 0.2, 0.5}) {
    auto trace = traffic::generate_trace(traffic::TraceKind::random, 1 << 17, testutil::case_seed(61));
    traffic::inject_matches(trace, set, frac, testutil::case_seed(62));
    const auto count = m->count_matches(trace);
    EXPECT_GE(count, prev) << "fraction " << frac;
    prev = count;
  }
  EXPECT_GT(prev, 0u);
}

TEST(Integration, MemoryFootprintOrdering) {
  // The architectural claim behind the whole paper family: AC's automaton
  // dwarfs the filter-based engines' cache-resident structures.
  pattern::RulesetConfig cfg;
  cfg.count = 2000;
  cfg.seed = testutil::case_seed(105);
  const auto set = pattern::generate_ruleset(cfg);
  const auto ac = core::make_matcher(core::Algorithm::aho_corasick, set);
  const auto dfc = core::make_matcher(core::Algorithm::dfc, set);
  const auto vp = core::make_matcher(core::Algorithm::vpatch, set);
  EXPECT_GT(ac->memory_bytes(), 10u * dfc->memory_bytes());
  EXPECT_GT(ac->memory_bytes(), 10u * vp->memory_bytes());
}

TEST(Integration, ScanIsReentrantAndStateless) {
  // Two scans of different buffers with the same matcher must not interfere.
  const auto set = testutil::random_set(100, 8, testutil::case_seed(30));
  const MatcherPtr m = core::make_matcher(core::Algorithm::vpatch, set);
  const auto text1 = testutil::random_text(10000, testutil::case_seed(31));
  const auto text2 = testutil::random_text(10000, testutil::case_seed(32));
  const auto first = m->find_matches(text1);
  (void)m->find_matches(text2);
  EXPECT_EQ(m->find_matches(text1), first);
}

TEST(Integration, LargeScaleSmoke) {
  // 4 MB trace, 5K patterns, every non-naive engine agrees on match count.
  pattern::RulesetConfig cfg;
  cfg.count = 5000;
  cfg.seed = testutil::case_seed(106);
  const auto set = pattern::generate_ruleset(cfg).web_patterns();
  const auto trace = traffic::generate_trace(traffic::TraceKind::iscx_day2, 4 << 20, testutil::case_seed(63));

  const auto reference =
      core::make_matcher(core::Algorithm::aho_corasick, set)->count_matches(trace);
  EXPECT_GT(reference, 0u);
  for (core::Algorithm algo :
       {core::Algorithm::dfc, core::Algorithm::spatch, core::Algorithm::vpatch}) {
    EXPECT_EQ(core::make_matcher(algo, set)->count_matches(trace), reference)
        << core::algorithm_name(algo);
  }
}

}  // namespace
}  // namespace vpm
