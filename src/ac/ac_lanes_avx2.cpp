// Lane-parallel Aho-Corasick batch kernel, AVX2 (8 payload lanes).
//
// Each lane walks one staged payload through the compact arena
// (ac_compact.hpp).  Per input byte: one vpgatherdd fetches, per lane,
// either the dense-row entry (done) or the sparse chunk word; a second
// masked gather resolves sparse lanes to the diff target or the root-row
// fallback.  Input bytes are fetched four at a time per lane (one gather of
// a u32 from the staged buffer), the last <=3 bytes of a payload handled by
// per-byte liveness masks; finished lanes refill from the staged queue so
// ragged payload lengths never strand a lane.  See ac_lanes.hpp for the
// read and hit-capacity contracts.
#include "ac/ac_lanes.hpp"

#if defined(__AVX2__)

#include <bit>

#include "ac/ac_compact.hpp"
#include "simd/avx2_ops.hpp"

namespace vpm::ac {

namespace {

constexpr int kW = 8;

struct LaneArrays {
  alignas(32) std::uint32_t ref[kW];
  alignas(32) std::uint32_t pos[kW];
  alignas(32) std::uint32_t len[kW];
  alignas(32) std::uint32_t base[kW];
  std::uint32_t pkt[kW];
};

inline __m256i load8(const std::uint32_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store8(std::uint32_t* p, __m256i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}

std::size_t scan(const AcCompactView& view, const AcStagedBatch& in, AcLaneHit* hits) {
  const int* arena = reinterpret_cast<const int*>(view.arena);
  const int* folded = reinterpret_cast<const int*>(in.folded);

  LaneArrays lanes;
  std::uint32_t active = 0;
  std::size_t next = 0;
  for (int l = 0; l < kW; ++l) {
    lanes.ref[l] = kAcRootRef;
    lanes.pos[l] = lanes.len[l] = lanes.base[l] = lanes.pkt[l] = 0;
    if (next < in.count) {
      lanes.base[l] = in.offsets[next];
      lanes.len[l] = in.lens[next];
      lanes.pkt[l] = in.packets[next];
      active |= 1u << l;
      ++next;
    }
  }

  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i three = _mm256_set1_epi32(3);
  const __m256i all_ones = _mm256_set1_epi32(-1);
  const __m256i byte_mask = _mm256_set1_epi32(0xFF);
  const __m256i low24 = _mm256_set1_epi32(0x00FFFFFF);
  const __m256i off_mask = _mm256_set1_epi32(static_cast<int>(kAcOffsetMask));
  const __m256i dense_bit = _mm256_set1_epi32(static_cast<int>(kAcDenseFlag));
  const __m256i chunk_mul = _mm256_set1_epi32(171);
  const __m256i chunk_width = _mm256_set1_epi32(24);
  const __m256i chunk_count = _mm256_set1_epi32(static_cast<int>(kAcSparseChunks));
  const __m256i lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);

  __m256i vref = load8(lanes.ref);
  __m256i vpos = load8(lanes.pos);
  __m256i vlen = load8(lanes.len);
  __m256i vbase = load8(lanes.base);
  __m256i vactive =
      _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(static_cast<int>(active)), lane_bits),
                         lane_bits);

  std::size_t n_hits = 0;
  alignas(32) std::uint32_t tmp_ref[kW];
  alignas(32) std::uint32_t tmp_pos[kW];

  while (active != 0) {
    // Dynamic lane refill: any lane past its payload end takes the next
    // staged payload (or goes inactive when the queue is dry).
    const auto live_bits = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vlen, vpos))));
    std::uint32_t done = active & ~live_bits;
    if (done != 0) {
      // Spill all lanes, rewrite the finished ones, reload.
      store8(lanes.ref, vref);
      store8(lanes.pos, vpos);
      while (done != 0) {
        const int l = std::countr_zero(done);
        done &= done - 1;
        lanes.ref[l] = kAcRootRef;
        lanes.pos[l] = 0;
        if (next < in.count) {
          lanes.base[l] = in.offsets[next];
          lanes.len[l] = in.lens[next];
          lanes.pkt[l] = in.packets[next];
          ++next;
        } else {
          active &= ~(1u << l);
          lanes.base[l] = lanes.len[l] = 0;
        }
      }
      if (active == 0) break;
      vref = load8(lanes.ref);
      vpos = load8(lanes.pos);
      vlen = load8(lanes.len);
      vbase = load8(lanes.base);
      vactive = _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(active)), lane_bits), lane_bits);
    }

    // Fetch the next 4 staged bytes per lane (reads <= 3 bytes of the
    // kStagePad slack at payload/batch ends; never the caller's buffers).
    const __m256i word = _mm256_mask_i32gather_epi32(
        zero, folded, _mm256_add_epi32(vbase, vpos), vactive, 1);

    // Fast path: every lane (so, every lane active) has >= 4 bytes left —
    // no per-byte liveness masks, unmasked gathers, no blend into vref.
    const auto full_bits = static_cast<std::uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(vlen, _mm256_add_epi32(vpos, three)))));
    if (full_bits == 0xFFu) {
      for (int j = 0; j < 4; ++j) {
        const __m256i b = _mm256_and_si256(_mm256_srli_epi32(word, 8 * j), byte_mask);
        const __m256i voff = _mm256_and_si256(vref, off_mask);
        const __m256i dense =
            _mm256_cmpgt_epi32(_mm256_and_si256(vref, dense_bit), zero);
        const __m256i c = _mm256_srli_epi32(_mm256_mullo_epi32(b, chunk_mul), 12);
        const __m256i addr1 = _mm256_add_epi32(voff, _mm256_blendv_epi8(c, b, dense));
        const __m256i g1 = _mm256_i32gather_epi32(arena, addr1, 4);

        __m256i vnext = g1;
        const __m256i sparse = _mm256_xor_si256(dense, all_ones);
        if (_mm256_movemask_ps(_mm256_castsi256_ps(sparse)) != 0) {
          const __m256i r = _mm256_sub_epi32(b, _mm256_mullo_epi32(c, chunk_width));
          const __m256i bits = _mm256_and_si256(g1, low24);
          const __m256i present = _mm256_cmpgt_epi32(
              _mm256_and_si256(_mm256_srlv_epi32(bits, r), one), zero);
          const __m256i prefix =
              _mm256_and_si256(bits, _mm256_sub_epi32(_mm256_sllv_epi32(one, r), one));
          const __m256i rank = _mm256_add_epi32(_mm256_srli_epi32(g1, 24),
                                                simd::avx2::popcount_u32(prefix));
          const __m256i sparse_addr =
              _mm256_add_epi32(_mm256_add_epi32(voff, chunk_count), rank);
          const __m256i addr2 = _mm256_blendv_epi8(b, sparse_addr, present);
          const __m256i g2 = _mm256_mask_i32gather_epi32(zero, arena, addr2, sparse, 4);
          vnext = _mm256_blendv_epi8(g2, g1, dense);
        }
        vref = vnext;

        const auto hit_mask = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(vref)));
        if (hit_mask != 0) {
          store8(tmp_ref, vref);
          store8(tmp_pos, _mm256_add_epi32(vpos, _mm256_set1_epi32(j)));
          std::uint32_t m = hit_mask;
          while (m != 0) {
            const int l = std::countr_zero(m);
            m &= m - 1;
            hits[n_hits++] = {lanes.pkt[l], tmp_pos[l], tmp_ref[l]};
          }
        }
      }
      vpos = _mm256_add_epi32(vpos, _mm256_set1_epi32(4));
      continue;
    }

    for (int j = 0; j < 4; ++j) {
      const __m256i posj = _mm256_add_epi32(vpos, _mm256_set1_epi32(j));
      const __m256i live = _mm256_and_si256(vactive, _mm256_cmpgt_epi32(vlen, posj));
      const auto live_mask = static_cast<std::uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(live)));
      if (live_mask == 0) continue;

      const __m256i b =
          _mm256_and_si256(_mm256_srli_epi32(word, 8 * j), byte_mask);
      const __m256i voff = _mm256_and_si256(vref, off_mask);
      const __m256i dense =
          _mm256_cmpgt_epi32(_mm256_and_si256(vref, dense_bit), zero);

      // Gather 1: dense-row entry (dense lanes) or sparse chunk word.
      const __m256i c = _mm256_srli_epi32(_mm256_mullo_epi32(b, chunk_mul), 12);
      const __m256i addr1 =
          _mm256_add_epi32(voff, _mm256_blendv_epi8(c, b, dense));
      const __m256i g1 = _mm256_mask_i32gather_epi32(zero, arena, addr1, live, 4);

      // Sparse resolve: bitmap presence -> rank-indexed diff target,
      // absence -> root-row fallback (dense row at arena offset 0).  Skipped
      // entirely when every live lane sits in a dense state (root-heavy
      // traffic spends most bytes there): g1 already IS the next ref.
      __m256i vnext = g1;
      const __m256i sparse_live = _mm256_andnot_si256(dense, live);
      if (_mm256_movemask_ps(_mm256_castsi256_ps(sparse_live)) != 0) {
        const __m256i r = _mm256_sub_epi32(b, _mm256_mullo_epi32(c, chunk_width));
        const __m256i bits = _mm256_and_si256(g1, low24);
        const __m256i present =
            _mm256_cmpgt_epi32(_mm256_and_si256(_mm256_srlv_epi32(bits, r), one), zero);
        const __m256i prefix =
            _mm256_and_si256(bits, _mm256_sub_epi32(_mm256_sllv_epi32(one, r), one));
        const __m256i rank =
            _mm256_add_epi32(_mm256_srli_epi32(g1, 24), simd::avx2::popcount_u32(prefix));
        const __m256i sparse_addr =
            _mm256_add_epi32(_mm256_add_epi32(voff, chunk_count), rank);
        const __m256i addr2 = _mm256_blendv_epi8(b, sparse_addr, present);
        const __m256i g2 = _mm256_mask_i32gather_epi32(zero, arena, addr2, sparse_live, 4);
        vnext = _mm256_blendv_epi8(g2, g1, dense);
      }
      vref = _mm256_blendv_epi8(vref, vnext, live);

      // Output flag is the sign bit of the new state ref.
      const auto hit_mask = static_cast<std::uint32_t>(
                                _mm256_movemask_ps(_mm256_castsi256_ps(vref))) &
                            live_mask;
      if (hit_mask != 0) {
        store8(tmp_ref, vref);
        store8(tmp_pos, posj);
        std::uint32_t m = hit_mask;
        while (m != 0) {
          const int l = std::countr_zero(m);
          m &= m - 1;
          hits[n_hits++] = {lanes.pkt[l], tmp_pos[l], tmp_ref[l]};
        }
      }
    }
    vpos = _mm256_add_epi32(vpos, _mm256_set1_epi32(4));
  }
  return n_hits;
}

}  // namespace

AcLanesScan ac_lanes_avx2() { return scan; }

}  // namespace vpm::ac

#else  // !__AVX2__

namespace vpm::ac {
AcLanesScan ac_lanes_avx2() { return nullptr; }
}  // namespace vpm::ac

#endif
