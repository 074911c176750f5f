#include "pattern/serialize.hpp"

#include <cstring>
#include <stdexcept>

namespace vpm::pattern {

namespace {

constexpr char kMagicV1[8] = {'V', 'P', 'M', 'D', 'B', '1', 0, 0};
constexpr char kMagicV2[8] = {'V', 'P', 'M', 'D', 'B', '2', 0, 0};
// v2 preamble after the magic: version u32 | hint u8 | reserved u8[3] |
// fingerprint u64 | count u32.
constexpr std::size_t kV2HeaderSize = 8 + 4 + 1 + 3 + 8 + 4;

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

void append_patterns(util::Bytes& out, const PatternSet& set) {
  put_u32(out, static_cast<std::uint32_t>(set.size()));
  for (const Pattern& p : set) {
    put_u32(out, static_cast<std::uint32_t>(p.size()));
    out.push_back(p.nocase ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(p.group));
    out.insert(out.end(), p.bytes.begin(), p.bytes.end());
  }
}

PatternSet parse_patterns(util::ByteView data, std::size_t off, std::uint32_t count) {
  if (off > data.size()) throw std::invalid_argument("pattern db: truncated header");
  // Plausibility gate before trusting `count`: every pattern costs at least
  // 7 bytes (6-byte entry header + 1 payload byte), so a count the remaining
  // bytes cannot possibly hold is a lie — reject it up front instead of
  // letting a crafted header drive a 4-billion-iteration loop (or a
  // proportional reserve) against a 30-byte file.
  if (count > (data.size() - off) / 7) {
    throw std::invalid_argument("pattern db: implausible pattern count");
  }
  PatternSet set;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Subtraction-form bounds: off <= data.size() holds on entry to every
    // iteration, so neither comparison can overflow however `len` lies.
    if (data.size() - off < 6) throw std::invalid_argument("pattern db: truncated header");
    const std::uint32_t len = get_u32(data.data() + off);
    const std::uint8_t flags = data[off + 4];
    const std::uint8_t group = data[off + 5];
    off += 6;
    if (len == 0) throw std::invalid_argument("pattern db: empty pattern");
    if (flags > 1) throw std::invalid_argument("pattern db: unknown flags");
    if (group >= static_cast<std::uint8_t>(Group::count)) {
      throw std::invalid_argument("pattern db: invalid group");
    }
    if (len > data.size() - off) throw std::invalid_argument("pattern db: truncated bytes");
    set.add(util::Bytes(data.begin() + static_cast<long>(off),
                        data.begin() + static_cast<long>(off + len)),
            flags & 1, static_cast<Group>(group));
    off += len;
  }
  return set;
}

}  // namespace

util::Bytes serialize_patterns(const PatternSet& set) {
  util::Bytes out;
  // Byte-wise append: the iterator-range insert of a char[] into the empty
  // vector trips GCC 12's -Wstringop-overflow false positive.
  for (const char c : kMagicV1) out.push_back(static_cast<std::uint8_t>(c));
  append_patterns(out, set);
  return out;
}

util::Bytes serialize_patterns(const PatternSet& set, const DbHeader& header) {
  util::Bytes out;
  for (const char c : kMagicV2) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, 2);
  out.push_back(header.algorithm_hint);
  for (int i = 0; i < 3; ++i) out.push_back(0);  // reserved
  put_u64(out, header.fingerprint);
  append_patterns(out, set);
  return out;
}

PatternSet deserialize_patterns(util::ByteView data, DbHeader* header) {
  if (data.size() >= 8 && std::memcmp(data.data(), kMagicV1, 8) == 0) {
    if (data.size() < 12) throw std::invalid_argument("pattern db: truncated header");
    if (header != nullptr) *header = DbHeader{1, kNoAlgorithmHint, 0};
    return parse_patterns(data, 12, get_u32(data.data() + 8));
  }
  if (data.size() >= 8 && std::memcmp(data.data(), kMagicV2, 8) == 0) {
    if (data.size() < kV2HeaderSize) {
      throw std::invalid_argument("pattern db: truncated header");
    }
    const std::uint32_t version = get_u32(data.data() + 8);
    if (version != 2) throw std::invalid_argument("pattern db: unsupported version");
    if (header != nullptr) {
      header->version = version;
      header->algorithm_hint = data[12];
      header->fingerprint = get_u64(data.data() + 16);
    }
    return parse_patterns(data, kV2HeaderSize, get_u32(data.data() + 24));
  }
  throw std::invalid_argument("pattern db: bad magic");
}

}  // namespace vpm::pattern
