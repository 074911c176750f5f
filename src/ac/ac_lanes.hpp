// Lane-parallel Aho-Corasick traversal kernels over the compact interleaved
// layout (ac_compact.hpp), compiled in translation units with the matching
// -m flags, each of which exports only its getter below (ISA-split like
// core/vpatch_kernels.hpp).
//
// Model: one BATCH PAYLOAD PER VECTOR LANE.  8 (AVX2) or 16 (AVX-512)
// independent automaton walks advance in lockstep; per input byte each lane
// issues one vpgatherdd word fetch (dense row entry, or sparse chunk word)
// plus one masked gather for sparse lanes (diff target, or root-row
// fallback).  The eight/sixteen dependent load chains of the scalar walk
// overlap, which is where the speedup comes from: scalar AC is bound by the
// latency of one state load per byte, the lane kernel by gather THROUGHPUT.
// When a lane's payload ends, it refills with the next staged payload
// (dynamic refill — ragged payload lengths never strand a lane); payload
// tail bytes shorter than one 4-byte fetch are handled by per-byte masking,
// not scalar drains, so lanes stay in the vector loop to the last byte.
//
// Read contract: the kernels read ONLY from `StagedBatch::folded` (the
// caller's staged, case-folded copy) and the automaton arena — NEVER from
// the original payload buffers.  Input bytes are fetched 4 at a time
// (gather of a u32 at folded + offset + pos, pos <= len - 1), so the staged
// buffer must stay addressable for kStagePad bytes past the last payload
// byte; AcCompactMatcher::scan_batch allocates that slack and zeroes it.
// Hits may be produced at most one per staged payload byte: the caller
// provides `hits` with capacity >= sum of staged lens.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vpm::ac {

// Pad bytes required past the last staged payload byte (a 4-byte input
// fetch at the final position reads 3 bytes of slack).
inline constexpr std::size_t kStagePad = 3;

// POD view of the compact automaton (arena described in ac_compact.hpp).
struct AcCompactView {
  const std::uint32_t* arena = nullptr;
};

// One automaton hit: a lane entered an output state.
struct AcLaneHit {
  std::uint32_t packet = 0;  // payload index within the batch
  std::uint32_t pos = 0;     // END position of the hit within that payload
  std::uint32_t ref = 0;     // the output state's StateRef (kAcOutputFlag set)
};

// Staged batch input: case-folded payload bytes, contiguous, with kStagePad
// addressable slack bytes after the end; per-payload start offsets, lengths
// (all > 0 — empties are skipped at staging), and original batch indices.
struct AcStagedBatch {
  const std::uint8_t* folded = nullptr;
  const std::uint32_t* offsets = nullptr;
  const std::uint32_t* lens = nullptr;
  const std::uint32_t* packets = nullptr;
  std::size_t count = 0;
};

// Walks every staged payload and returns the number of hits appended to
// `hits`.
using AcLanesScan = std::size_t (*)(const AcCompactView& view, const AcStagedBatch& in,
                                    AcLaneHit* hits);

// The lane kernels; null when the library was compiled without the width's
// -m flags.  Call one only when simd::cpu() reports its kernel.
AcLanesScan ac_lanes_avx2();    // 8 payload lanes
AcLanesScan ac_lanes_avx512();  // 16 payload lanes

}  // namespace vpm::ac
