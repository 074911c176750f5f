// Hash functions shared by the filters and the compact verification tables.
//
// The paper's Filter 3 uses a multiplicative hash of a 4-byte input window
// (Knuth's golden-ratio constant); the same function must be cheap to express
// with vpmulld/vpsrld in the vectorized kernels, so it is a single multiply
// followed by a shift.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace vpm::util {

// 2^32 / phi, Knuth's multiplicative-hash constant.
inline constexpr std::uint32_t kGoldenGamma = 0x9E3779B1u;

// Multiplicative ("Fibonacci") hash of a 32-bit key into [0, 2^out_bits).
// Identical scalar formula to the one the vector kernels apply lane-wise.
constexpr std::uint32_t multiplicative_hash(std::uint32_t key, unsigned out_bits) {
  return (key * kGoldenGamma) >> (32u - out_bits);
}

// Little-endian load of n<=4 bytes into the low bytes of a u32.
constexpr std::uint32_t load_le(const std::uint8_t* p, unsigned n) {
  std::uint32_t v = 0;
  for (unsigned i = 0; i < n; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

// The 2- and 4-byte windows of the hot loops, each one fixed-size memcpy:
// a single load, where GCC compiles load_le's byte loop into byte loads in
// the verification tables and S-PATCH's Filter 3 probe.  The windows are
// little-endian values, which the memcpy gives on the little-endian hosts
// the library's kernels target.
static_assert(std::endian::native == std::endian::little);

inline std::uint32_t load_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// FNV-1a, used for bucket hashing in the compact tables (quality matters more
// than vectorizability there — those lookups are scalar in every algorithm).
constexpr std::uint32_t fnv1a(const std::uint8_t* data, std::size_t n,
                              std::uint32_t seed = 0x811C9DC5u) {
  std::uint32_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x01000193u;
  }
  return h;
}

// 64-bit FNV-1a, used for content fingerprints (the compiled-database id
// that survives serialization; collisions must be rare across rule sets).
inline constexpr std::uint64_t kFnv64Seed = 0xCBF29CE484222325ull;
constexpr std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                                std::uint64_t seed = kFnv64Seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x00000100000001B3ull;
  }
  return h;
}

// Folds a 64-bit value into a running fnv1a64 state byte-by-byte (LE).
constexpr std::uint64_t fnv1a64_u64(std::uint64_t v, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x00000100000001B3ull;
  }
  return h;
}

// 64-bit mix (splitmix64 finalizer) for RNG seeding and test fixtures.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace vpm::util
