#include "core/prefilter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "core/prefilter_kernels.hpp"
#include "simd/cpu_features.hpp"
#include "util/hash.hpp"

namespace vpm::core {

namespace {

// The build's fixed choices: a signature of 2^10 to 2^24 bits (128 B to
// 2 MiB), and a run requirement of at most 4 windows.
constexpr unsigned kMinBitsLog2 = 10;
constexpr unsigned kMaxBitsLog2 = 24;
constexpr std::size_t kMaxThreshold = 4;

PrefilterView view_of(const Prefilter& pf) {
  return {pf.words().data(), static_cast<std::uint32_t>(pf.words().size() - 1), pf.q(),
          pf.threshold()};
}

bool screen_scalar(const PrefilterView& v, const std::uint8_t* data, std::size_t len) {
  return prefilter_screen_tail(v, data, len, 0);
}

// LSD radix sort: four stable counting passes, one per key byte.  On the
// 185,189 grams of the tls_screened ruleset it is several times faster than
// std::sort, which costs about as much as hashing them into a set.
void radix_sort(std::vector<std::uint32_t>& keys) {
  std::vector<std::uint32_t> sorted(keys.size());
  for (unsigned shift = 0; shift < 32; shift += 8) {
    std::array<std::size_t, 256> next{};
    for (const std::uint32_t k : keys) ++next[(k >> shift) & 0xFFu];
    std::size_t sum = 0;
    for (std::size_t& n : next) sum += std::exchange(n, sum);
    for (const std::uint32_t k : keys) sorted[next[(k >> shift) & 0xFFu]++] = k;
    keys.swap(sorted);
  }
}

}  // namespace

std::string_view prefilter_mode_name(PrefilterMode mode) {
  switch (mode) {
    case PrefilterMode::off: return "off";
    case PrefilterMode::on: return "on";
    case PrefilterMode::automatic: return "auto";
  }
  return "off";
}

std::optional<PrefilterMode> prefilter_mode_from_name(std::string_view name) {
  if (name == "off") return PrefilterMode::off;
  if (name == "on") return PrefilterMode::on;
  if (name == "auto" || name == "automatic") return PrefilterMode::automatic;
  return std::nullopt;
}

Prefilter::Prefilter(std::vector<std::uint32_t> words, std::uint32_t q,
                     std::uint32_t threshold, std::uint32_t bits_log2,
                     std::uint32_t pattern_count, std::uint32_t gram_count)
    : words_(std::move(words)),
      q_(q),
      threshold_(threshold),
      bits_log2_(bits_log2),
      pattern_count_(pattern_count),
      gram_count_(gram_count) {}

double Prefilter::occupancy() const {
  std::uint64_t set_bits = 0;
  for (const std::uint32_t w : words_) set_bits += std::popcount(w);
  const std::uint64_t total = std::uint64_t{words_.size()} * 32;
  return total == 0 ? 0.0 : static_cast<double>(set_bits) / static_cast<double>(total);
}

bool Prefilter::screen(util::ByteView payload) const {
  return payload.size() >= min_payload() &&
         screen_scalar(view_of(*this), payload.data(), payload.size());
}

void Prefilter::screen_batch(std::span<const util::ByteView> payloads,
                             std::uint8_t* verdicts) const {
  const simd::CpuFeatures& cpu = simd::cpu();
  PrefilterScreen kernel = screen_scalar;
  if (cpu.has_avx512_kernel()) {
    kernel = prefilter_screen_avx512();
  } else if (cpu.has_avx2_kernel()) {
    kernel = prefilter_screen_avx2();
  }
  const PrefilterView v = view_of(*this);
  const std::size_t min_len = min_payload();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const util::ByteView p = payloads[i];
    // Shorter than min_payload: cannot hold any pattern, exact reject.
    verdicts[i] = p.size() >= min_len && kernel(v, p.data(), p.size()) ? 1 : 0;
  }
}

PrefilterPtr build_prefilter(const pattern::PatternSet& set) {
  if (set.empty()) return nullptr;
  std::size_t min_len = SIZE_MAX;
  for (const pattern::Pattern& p : set) min_len = std::min(min_len, p.size());
  // A 1-2 byte pattern defeats any q >= 3 signature: no exact screen exists.
  if (min_len < 3) return nullptr;

  const unsigned q = min_len >= 4 ? 4u : 3u;
  const auto threshold = static_cast<std::uint32_t>(std::min(min_len - q + 1, kMaxThreshold));

  // Distinct case-folded q-grams across all patterns (nocase and exact-case
  // alike fold: the screen also folds the payload, so an exact-case pattern
  // occurrence always produces hitting folded windows — a fold collision can
  // only add false PASSES, never a miss).
  // Collected with repeats, then sorted and deduplicated.
  std::size_t windows = 0;
  for (const pattern::Pattern& p : set) windows += p.size() - q + 1;
  std::vector<std::uint32_t> grams;
  grams.reserve(windows);
  util::Bytes folded;
  for (const pattern::Pattern& p : set) {
    folded.assign(p.bytes.begin(), p.bytes.end());
    for (std::uint8_t& b : folded) b = util::ascii_lower(b);
    for (std::size_t i = 0; i + q <= folded.size(); ++i) {
      grams.push_back(util::load_le(folded.data() + i, q));
    }
  }
  radix_sort(grams);
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());

  // ~16 signature bits per distinct gram (each gram sets <= 2 bits, so
  // occupancy stays near 1/8 and the per-position false-hit rate near
  // occupancy^2 ~ 1.6%), within the size bounds.
  unsigned bits_log2 = kMinBitsLog2;
  while (bits_log2 < kMaxBitsLog2 &&
         (std::uint64_t{1} << bits_log2) < std::uint64_t{grams.size()} * 16) {
    ++bits_log2;
  }

  std::vector<std::uint32_t> words(std::size_t{1} << (bits_log2 - 5), 0);
  const auto word_mask = static_cast<std::uint32_t>(words.size() - 1);
  for (const std::uint32_t gram : grams) {
    const std::uint32_t h = gram * util::kGoldenGamma;
    words[(h >> 10) & word_mask] |= (1u << (h & 31u)) | (1u << ((h >> 5) & 31u));
  }
  return PrefilterPtr(new Prefilter(std::move(words), q, threshold, bits_log2,
                                    static_cast<std::uint32_t>(set.size()),
                                    static_cast<std::uint32_t>(grams.size())));
}

}  // namespace vpm::core
