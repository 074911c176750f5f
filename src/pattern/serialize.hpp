// Binary pattern-database format.
//
// Rule sets are distributed and loaded far more often than they change; the
// binary format loads without re-parsing rule text and round-trips every
// pattern attribute (bytes, nocase, group) exactly.  Two layouts
// (little-endian):
//
// v1 (legacy, still read and written by the header-less functions):
//   magic "VPMDB1\0\0" (8 B) | pattern count u32 |
//   per pattern: length u32 | flags u8 (bit0 = nocase) | group u8 | bytes
//
// v2 (the compiled-database interchange format, written when a DbHeader is
// supplied — vpm::Database::save_patterns uses this):
//   magic "VPMDB2\0\0" (8 B) | version u32 (= 2) |
//   algorithm_hint u8 (opaque engine id; kNoAlgorithmHint = absent) |
//   reserved u8[3] (zero) | fingerprint u64 (content hash; 0 = absent) |
//   pattern count u32 | per-pattern records as in v1
//
// Nothing follows the records.  v2 blobs saved by earlier versions carry a
// prefilter-signature section after them; the reader never looks past the
// last record, so those blobs still load.
//
// The pattern layer treats the header fields as opaque payload: the
// algorithm hint is interpreted by the compile layer (core::Algorithm), and
// fingerprint verification happens in Database::from_serialized — which
// REQUIRES a matching nonzero fingerprint in v2 blobs, so writers other
// than Database::save_patterns should fill it via Database::fingerprint_of.
#pragma once

#include "pattern/pattern_set.hpp"

namespace vpm::pattern {

// algorithm_hint value meaning "no engine recorded".
inline constexpr std::uint8_t kNoAlgorithmHint = 0xFF;

// The v2 preamble carried alongside the pattern records.
struct DbHeader {
  std::uint32_t version = 2;
  std::uint8_t algorithm_hint = kNoAlgorithmHint;
  std::uint64_t fingerprint = 0;
};

// Writes the legacy v1 layout (no header) — byte-stable, pinned by the
// golden suite.
util::Bytes serialize_patterns(const PatternSet& set);

// Writes the v2 layout carrying `header` (header.version is forced to 2).
util::Bytes serialize_patterns(const PatternSet& set, const DbHeader& header);

// Reads either layout.  When `header` is non-null it receives the parsed
// preamble (v1 inputs yield {1, kNoAlgorithmHint, 0}).  Throws
// std::invalid_argument on bad magic, unsupported version, truncation, or
// invalid fields.
// Bytes after the last pattern record are not read.
PatternSet deserialize_patterns(util::ByteView data, DbHeader* header = nullptr);

}  // namespace vpm::pattern
