#include "core/prefilter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/prefilter_kernels.hpp"
#include "simd/cpu_features.hpp"
#include "util/hash.hpp"

namespace vpm::core {

namespace {

constexpr char kSectionMagic[8] = {'V', 'P', 'M', 'P', 'F', '1', 0, 0};

// Field bounds enforced on both build and parse: the probe derives the word
// index from hash bits 10..31, so word_count may use at most 22 of them.
constexpr unsigned kMinBitsLog2 = 10;
constexpr unsigned kMaxBitsLog2 = 27;
constexpr unsigned kMaxThresholdCap = 8;

void put_u32(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void put_u64(util::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

[[noreturn]] void fail(const char* what) {
  throw std::invalid_argument(std::string("prefilter section: ") + what);
}

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

Prefilter::Prefilter(Parts parts)
    : words_(std::move(parts.words)),
      q_(parts.q),
      threshold_(parts.threshold),
      bits_log2_(parts.bits_log2),
      pattern_count_(parts.pattern_count),
      gram_count_(parts.gram_count),
      min_patterns_(parts.min_patterns) {}

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

PrefilterPtr build_prefilter(const pattern::PatternSet& set, const PrefilterConfig& cfg) {
  if (set.empty()) return nullptr;
  std::size_t min_len = SIZE_MAX;
  for (const pattern::Pattern& p : set) min_len = std::min(min_len, p.size());
  // A 1-2 byte pattern defeats any q >= 3 signature: no exact screen exists.
  if (min_len < 3) return nullptr;

  unsigned q = (cfg.q == 3 || cfg.q == 4) ? cfg.q : (min_len >= 4 ? 4u : 3u);
  if (q > min_len) q = 3;
  const unsigned max_threshold =
      std::clamp(cfg.max_threshold, 1u, kMaxThresholdCap);
  const auto threshold = static_cast<std::uint32_t>(
      std::min<std::size_t>(min_len - q + 1, max_threshold));

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

  // Auto-size: ~16 signature bits per distinct gram (each gram sets <= 2
  // bits, so occupancy stays near 1/8 and the per-position false-hit rate
  // near occupancy^2 ~ 1.6%), clamped to the configured ceiling.
  unsigned bits_log2 = cfg.bits_log2;
  const unsigned ceiling = std::clamp(cfg.max_bits_log2, kMinBitsLog2, kMaxBitsLog2);
  if (bits_log2 == 0) {
    const std::uint64_t target = std::max<std::uint64_t>(
        std::uint64_t{grams.size()} * 16, 1ull << kMinBitsLog2);
    bits_log2 = kMinBitsLog2;
    while (bits_log2 < ceiling && (1ull << bits_log2) < target) ++bits_log2;
  }
  bits_log2 = std::clamp(bits_log2, kMinBitsLog2, kMaxBitsLog2);

  Prefilter::Parts parts;
  parts.q = q;
  parts.threshold = threshold;
  parts.bits_log2 = bits_log2;
  parts.pattern_count = static_cast<std::uint32_t>(set.size());
  parts.gram_count = static_cast<std::uint32_t>(grams.size());
  parts.min_patterns = cfg.min_patterns;
  parts.words.assign(std::size_t{1} << (bits_log2 - 5), 0);
  const auto word_mask = static_cast<std::uint32_t>(parts.words.size() - 1);
  for (const std::uint32_t gram : grams) {
    const std::uint32_t h = gram * util::kGoldenGamma;
    parts.words[(h >> 10) & word_mask] |= (1u << (h & 31u)) | (1u << ((h >> 5) & 31u));
  }
  return std::make_shared<Prefilter>(std::move(parts));
}

void append_prefilter_section(util::Bytes& out, const GroupPrefilters& filters,
                              std::uint64_t fingerprint) {
  const std::size_t start = out.size();
  for (const char c : kSectionMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, 1);  // section version
  put_u64(out, fingerprint);
  put_u32(out, static_cast<std::uint32_t>(kPrefilterGroupCount));
  for (const PrefilterPtr& f : filters) {
    if (f == nullptr) {
      out.push_back(0);
      continue;
    }
    out.push_back(1);
    out.push_back(static_cast<std::uint8_t>(f->q()));
    out.push_back(static_cast<std::uint8_t>(f->threshold()));
    out.push_back(static_cast<std::uint8_t>(f->bits_log2()));
    out.push_back(0);  // reserved
    put_u32(out, static_cast<std::uint32_t>(f->pattern_count()));
    put_u32(out, static_cast<std::uint32_t>(f->gram_count()));
    put_u32(out, static_cast<std::uint32_t>(f->words().size()));
    for (const std::uint32_t w : f->words()) put_u32(out, w);
  }
  // Trailing checksum over the whole section: a flipped signature bit would
  // otherwise deserialize into a structurally valid filter that silently
  // drops true matches — the one corruption mode the pattern fingerprint
  // cannot see.
  put_u64(out, util::fnv1a64(out.data() + start, out.size() - start));
}

GroupPrefilters parse_prefilter_section(util::ByteView data,
                                        std::uint64_t expected_fingerprint,
                                        const PrefilterConfig& cfg) {
  std::size_t off = 0;
  // Subtraction-form bounds (off <= data.size() always holds), as in the
  // pattern parser: no length arithmetic can overflow.
  const auto need = [&](std::size_t n) {
    if (data.size() - off < n) fail("truncated");
  };
  need(8 + 4 + 8 + 4);
  if (std::memcmp(data.data(), kSectionMagic, 8) != 0) fail("bad magic");
  off = 8;
  if (get_u32(data.data() + off) != 1) fail("unsupported version");
  off += 4;
  if (get_u64(data.data() + off) != expected_fingerprint) {
    fail("fingerprint mismatch (corrupt payload)");
  }
  off += 8;
  if (get_u32(data.data() + off) != kPrefilterGroupCount) fail("group count mismatch");
  off += 4;

  GroupPrefilters out{};
  for (std::size_t g = 0; g < kPrefilterGroupCount; ++g) {
    need(1);
    const std::uint8_t built = data[off++];
    if (built > 1) fail("bad group flag");
    if (built == 0) continue;
    need(4 + 4 + 4 + 4);
    Prefilter::Parts parts;
    parts.q = data[off];
    parts.threshold = data[off + 1];
    parts.bits_log2 = data[off + 2];
    if (data[off + 3] != 0) fail("bad reserved byte");
    off += 4;
    if (parts.q != 3 && parts.q != 4) fail("bad q");
    if (parts.threshold < 1 || parts.threshold > kMaxThresholdCap) fail("bad threshold");
    if (parts.bits_log2 < kMinBitsLog2 || parts.bits_log2 > kMaxBitsLog2) {
      fail("bad signature size");
    }
    parts.pattern_count = get_u32(data.data() + off);
    parts.gram_count = get_u32(data.data() + off + 4);
    const std::uint32_t word_count = get_u32(data.data() + off + 8);
    off += 12;
    if (word_count != (1u << (parts.bits_log2 - 5))) fail("word count mismatch");
    need(std::size_t{word_count} * 4);
    parts.words.resize(word_count);
    for (std::uint32_t i = 0; i < word_count; ++i) {
      parts.words[i] = get_u32(data.data() + off + std::size_t{i} * 4);
    }
    off += std::size_t{word_count} * 4;
    parts.min_patterns = cfg.min_patterns;
    out[g] = std::make_shared<Prefilter>(std::move(parts));
  }
  need(8);
  if (get_u64(data.data() + off) != util::fnv1a64(data.data(), off)) {
    fail("checksum mismatch (corrupt payload)");
  }
  return out;
}

}  // namespace vpm::core
