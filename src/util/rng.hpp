// Deterministic xoshiro256** generator.
//
// All synthetic workloads (rulesets, traces, injectors) must be reproducible
// from a single seed so that every benchmark result can be regenerated
// bit-for-bit on any host; std::mt19937 distributions are not portable
// across standard libraries, so we ship our own generator and bounded-int
// helpers.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/hash.hpp"

namespace vpm::util {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xC0FFEE) {
    std::uint64_t x = seed;
    for (auto& s : state_) s = mix64(x += 0x9E3779B97F4A7C15ull);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). Lemire's multiply-shift rejection-free
  // approximation is fine here: bias is < 2^-32 for the bounds we use.
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(operator()()) * bound) >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>(operator()() >> 11) * 0x1.0p-53; }

  bool chance(double p) { return uniform() < p; }

  std::uint8_t byte() { return static_cast<std::uint8_t>(below(256)); }

  char printable() {  // ASCII 0x20..0x7E
    return static_cast<char>(0x20 + below(0x5F));
  }

  char lower_alpha() { return static_cast<char>('a' + below(26)); }
  char alnum() {
    static constexpr std::string_view kAlnum =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    return kAlnum[below(kAlnum.size())];
  }

  template <typename Container>
  const auto& pick(const Container& c) {
    return c[below(c.size())];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace vpm::util
