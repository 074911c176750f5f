#include "pattern/ruleset_gen.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "pattern/attack_corpus.hpp"
#include "util/rng.hpp"

namespace vpm::pattern {

namespace {

// Long-pattern length model: a mixture peaking around 8-20 bytes with a tail
// to ~200, loosely following the Snort content-length histogram.
std::size_t draw_long_length(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.45) return static_cast<std::size_t>(rng.between(5, 12));
  if (u < 0.80) return static_cast<std::size_t>(rng.between(13, 32));
  if (u < 0.95) return static_cast<std::size_t>(rng.between(33, 80));
  return static_cast<std::size_t>(rng.between(81, 200));
}

Group draw_group(util::Rng& rng, const RulesetConfig& cfg) {
  const double u = rng.uniform();
  if (u < cfg.http_fraction) return Group::http;
  if (u < cfg.http_fraction + cfg.generic_fraction) return Group::generic;
  const double rest = rng.uniform();
  if (rest < 0.40) return Group::dns;
  if (rest < 0.70) return Group::ftp;
  return Group::smtp;
}

bool is_all_text(const util::Bytes& b) {
  return std::all_of(b.begin(), b.end(),
                     [](std::uint8_t c) { return c >= 0x20 && c < 0x7F; });
}

// Builds a long text pattern by sampling corpus strings and mutating: pick a
// base attack string, then extend/trim/splice until the target length is hit.
// The shared prefixes across derived patterns give the realistic clustering
// of 2-byte prefixes that the direct filters key off.
util::Bytes make_long_text(util::Rng& rng, std::size_t target_len) {
  const auto corpus = attack_strings();
  const auto vocab = http_vocabulary();
  std::string s{rng.pick(corpus)};
  while (s.size() < target_len) {
    switch (rng.below(4)) {
      case 0: s += rng.pick(corpus); break;
      case 1: s += rng.pick(vocab); break;
      case 2: {  // parameter-like filler
        s += rng.chance(0.5) ? "/" : "&";
        const std::size_t n = static_cast<std::size_t>(rng.between(2, 10));
        for (std::size_t i = 0; i < n; ++i) s += rng.alnum();
        break;
      }
      default: {  // numeric suffix (version-like)
        s += std::to_string(rng.below(10000));
        break;
      }
    }
  }
  s.resize(target_len);
  // Unconditional point mutation: signatures describe *attack* payloads, so
  // a truncated benign corpus string must not survive verbatim — otherwise
  // long patterns fire on benign traffic at unrealistic rates (real rules
  // match benign streams almost never; the frequent natural matches come
  // from the SHORT protocol tokens, which is the paper's premise).  The
  // mutation stays clear of the first four bytes: real rulesets share a
  // limited set of content prefixes (paths, verbs, markers), and that prefix
  // clustering is what keeps the direct filters' occupancy low.
  s[4 + rng.below(s.size() - 4)] = rng.alnum();
  return util::to_bytes(s);
}

util::Bytes make_binary(util::Rng& rng, std::size_t target_len) {
  util::Bytes b(target_len);
  // Shellcode-ish: runs of NOP-like bytes plus random payload.
  for (std::size_t i = 0; i < target_len; ++i) {
    b[i] = rng.chance(0.25) ? 0x90 : rng.byte();
  }
  return b;
}

// Short-length model mirroring Snort's content-length histogram within the
// 1-4 byte class: 1-2 byte contents are rare and overwhelmingly binary
// (|00|, |90 90| style); 3-4 byte contents dominate and include the
// protocol tokens (GET, HTTP) the paper highlights.
std::size_t draw_short_length(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.02) return 1;
  if (u < 0.12) return 2;
  if (u < 0.45) return 3;
  return 4;
}

util::Bytes make_short(util::Rng& rng, std::size_t len) {
  if (len <= 2) {
    // Binary markers: NULs, NOP sleds, IAC bytes — strings that essentially
    // never occur in text traffic.
    static constexpr std::uint8_t kMarkers[] = {0x00, 0x90, 0xFF, 0xCC, 0x0B, 0xBE, 0xEF, 0x7F};
    util::Bytes b(len);
    for (auto& c : b) c = kMarkers[rng.below(std::size(kMarkers))];
    return b;
  }
  const auto tokens = short_tokens();
  if (rng.chance(0.55)) {
    const std::string_view t = rng.pick(tokens);
    if (t.size() >= 3 && t.size() <= len) {
      // Use the token as-is when it fits the drawn length class.  Copied by
      // hand: GCC 12 at -O3 reports a false -Wstringop-overflow inside
      // util::to_bytes here.
      util::Bytes b(t.size());
      std::memcpy(b.data(), t.data(), t.size());
      return b;
    }
  }
  util::Bytes b(len);
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.chance(0.8) ? rng.alnum() : rng.byte());
  return b;
}

}  // namespace

RulesetConfig s1_config(std::uint64_t seed) {
  RulesetConfig cfg;
  cfg.count = 2500;
  cfg.seed = seed;
  cfg.http_fraction = 0.55;
  cfg.generic_fraction = 0.25;  // web subset ~80% -> ~2K patterns
  return cfg;
}

RulesetConfig s2_config(std::uint64_t seed) {
  RulesetConfig cfg;
  cfg.count = 20000;
  cfg.seed = seed;
  cfg.http_fraction = 0.25;
  cfg.generic_fraction = 0.20;  // web subset ~45% -> ~9K patterns
  return cfg;
}

PatternSet generate_ruleset(const RulesetConfig& cfg) {
  PatternSet set;
  util::Rng rng(cfg.seed);
  std::size_t attempts = 0;
  const std::size_t max_attempts = cfg.count * 64 + 4096;
  while (set.size() < cfg.count && attempts++ < max_attempts) {
    util::Bytes bytes;
    if (rng.chance(cfg.short_fraction)) {
      bytes = make_short(rng, draw_short_length(rng));
    } else if (rng.chance(cfg.binary_fraction)) {
      bytes = make_binary(rng, draw_long_length(rng));
    } else {
      bytes = make_long_text(rng, draw_long_length(rng));
    }
    const bool nocase = is_all_text(bytes) && rng.chance(cfg.nocase_fraction);
    const std::size_t before = set.size();
    set.add(std::move(bytes), nocase, draw_group(rng, cfg));
    (void)before;  // duplicates simply do not grow the set; loop retries
  }
  return set;
}

}  // namespace vpm::pattern
