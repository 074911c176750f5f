// Fuzz target: the pattern-database loader — the record parser
// (pattern/serialize.cpp) and the Database::from_serialized checks above it.
//
// Contract under arbitrary bytes: deserialize_patterns either returns a
// valid set or throws std::invalid_argument — never crashes, never trusts a
// crafted count or length field, never over-reads.  Accepted sets must
// round-trip bit-exactly through serialize.  Database::from_serialized
// either returns a database compiled from the blob's patterns or throws
// std::invalid_argument, so its fingerprint and hint checks and compile()
// see arbitrary bytes too.
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/database.hpp"
#include "pattern/serialize.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  try {
    vpm::pattern::DbHeader header;
    const vpm::pattern::PatternSet set =
        vpm::pattern::deserialize_patterns({data, size}, &header);
    (void)vpm::pattern::serialize_patterns(set);
    // The loader runs the same parser first, so only bytes it accepts
    // reach the loader's own checks.
    (void)vpm::Database::from_serialized({data, size}, vpm::core::Algorithm::naive);
  } catch (const std::invalid_argument&) {
    // Structured rejection is the contract.
  }
  return 0;
}
