// Shared test fixtures: small pattern sets, random workloads, and the
// engine-equivalence assertion used across the differential suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/database.hpp"
#include "core/naive.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"
#include "pattern/ruleset_gen.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vpm::testutil {

// ---- deterministic seeding -----------------------------------------------
//
// Every randomized suite derives its util::Rng seeds from one global base
// seed so a run is reproducible end to end.  The base is fixed by default
// (CI always runs the same counterexample space); set VPM_TEST_SEED=<n> to
// explore other universes.  Failure messages print the base seed so any
// counterexample replays with a single env var.

inline std::uint64_t global_seed() {
  static const std::uint64_t s = [] {
    constexpr std::uint64_t kDefault = 20170814;  // the paper's ICPP year
    const char* env = std::getenv("VPM_TEST_SEED");
    if (env == nullptr || *env == '\0') return kDefault;
    char* end = nullptr;
    const auto v = static_cast<std::uint64_t>(std::strtoull(env, &end, 0));
    if (end == env || *end != '\0') {
      // A typo must not silently select universe 0 while the developer
      // believes the universe they named was tested.
      std::fprintf(stderr,
                   "vpm tests: unparseable VPM_TEST_SEED=\"%s\"; "
                   "using default %llu\n",
                   env, static_cast<unsigned long long>(kDefault));
      return kDefault;
    }
    return v;
  }();
  return s;
}

// Stream-splits the base seed: distinct salts give independent Rng streams
// (splitmix64 finalizer, so salt=1/salt=2 do not produce correlated draws).
inline std::uint64_t case_seed(std::uint64_t salt) {
  std::uint64_t z = global_seed() + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Appended to assertion messages: how to replay this exact run.
inline std::string seed_note() {
  return "VPM_TEST_SEED=" + std::to_string(global_seed());
}

// The canonical AC textbook example plus overlap-heavy extras.
inline pattern::PatternSet classic_set() {
  pattern::PatternSet set;
  set.add("he");
  set.add("she");
  set.add("his");
  set.add("hers");
  return set;
}

// Mixed-length, mixed-case set covering every family boundary (1..5 bytes).
inline pattern::PatternSet boundary_set() {
  pattern::PatternSet set;
  set.add("a");                    // 1B
  set.add("ab");                   // 2B
  set.add("abc");                  // 3B short-family max
  set.add("abcd");                 // 4B long-family min
  set.add("abcde");                // 5B
  set.add("GET", true);            // nocase short
  set.add("HTTP/1.1", true);       // nocase long
  set.add(util::Bytes{0x00, 0x01});       // binary incl. NUL
  set.add(util::Bytes{0xFF, 0xFE, 0xFD, 0xFC, 0xFB});
  return set;
}

// sensorbench's tls_screened ruleset: S2-web's patterns of >= 8 B, re-homed
// into the generic group (one compact-AC automaton of ~150 K states).
inline pattern::PatternSet tls_screened_set() {
  pattern::PatternSet set;
  for (const pattern::Pattern& p :
       pattern::generate_ruleset(pattern::s2_config()).web_patterns()) {
    if (p.bytes.size() >= 8) set.add(p.bytes, p.nocase, pattern::Group::generic);
  }
  return set;
}

// FNV-1a over every group's prefilter signature words in group order; a
// group without a signature adds one zero byte.
inline std::uint32_t signature_checksum(const Database& db) {
  util::Bytes bytes;
  for (const core::PrefilterPtr& pf : db.prefilters()) {
    if (pf == nullptr) {
      bytes.push_back(0);
      continue;
    }
    const auto* words = reinterpret_cast<const std::uint8_t*>(pf->words().data());
    bytes.insert(bytes.end(), words, words + pf->words().size() * sizeof(std::uint32_t));
  }
  return util::fnv1a(bytes.data(), bytes.size());
}

// Deterministic random pattern set: lengths in [1, max_len], byte values
// drawn from a narrow alphabet so matches actually occur in random text.
inline pattern::PatternSet random_set(std::size_t count, std::size_t max_len,
                                      std::uint64_t seed, unsigned alphabet = 4) {
  pattern::PatternSet set;
  util::Rng rng(seed);
  std::size_t guard = 0;
  while (set.size() < count && guard++ < count * 50) {
    const std::size_t len = 1 + rng.below(max_len);
    util::Bytes b(len);
    for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(alphabet));
    set.add(std::move(b), rng.chance(0.3));
  }
  return set;
}

// Random text over the same narrow alphabet (plus occasional uppercase).
inline util::Bytes random_text(std::size_t len, std::uint64_t seed, unsigned alphabet = 4) {
  util::Bytes b(len);
  util::Rng rng(seed);
  for (auto& c : b) {
    const char base = rng.chance(0.25) ? 'A' : 'a';
    c = static_cast<std::uint8_t>(base + rng.below(alphabet));
  }
  return b;
}

// Asserts that `matcher` reports exactly the ground-truth match multiset.
inline void expect_matches_naive(const Matcher& matcher, const pattern::PatternSet& set,
                                 util::ByteView data, const std::string& context = {}) {
  const core::NaiveMatcher oracle(set);
  const auto expected = oracle.find_matches(data);
  const auto actual = matcher.find_matches(data);
  ASSERT_EQ(actual.size(), expected.size())
      << context << " [" << matcher.name() << "] match count mismatch (" << seed_note() << ")";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i])
        << context << " [" << matcher.name() << "] first divergence at index " << i
        << " (pattern " << expected[i].pattern_id << " pos " << expected[i].pos << ", "
        << seed_note() << ")";
  }
}

}  // namespace vpm::testutil
