// Lane-parallel Aho-Corasick batch kernel, AVX-512 (16 payload lanes).
//
// Same traversal as ac_lanes_avx2.cpp with native kmask predication: lane
// liveness, the dense/sparse layout split, and the presence test are all
// __mmask16 operations, and masked gathers/blends replace the AVX2
// blendv/movemask sequences.  See ac_lanes.hpp for the contracts.
#include "ac/ac_lanes.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <bit>

#include "ac/ac_compact.hpp"
#include "simd/avx512_ops.hpp"

namespace vpm::ac {

namespace {

constexpr int kW = 16;

struct LaneArrays {
  alignas(64) std::uint32_t ref[kW];
  alignas(64) std::uint32_t pos[kW];
  alignas(64) std::uint32_t len[kW];
  alignas(64) std::uint32_t base[kW];
  std::uint32_t pkt[kW];
};

inline __m512i load16(const std::uint32_t* p) {
  return _mm512_load_si512(reinterpret_cast<const void*>(p));
}
inline void store16(std::uint32_t* p, __m512i v) {
  _mm512_store_si512(reinterpret_cast<void*>(p), v);
}

std::size_t scan(const AcCompactView& view, const AcStagedBatch& in, AcLaneHit* hits) {
  const void* arena = reinterpret_cast<const void*>(view.arena);
  const void* folded = reinterpret_cast<const void*>(in.folded);

  LaneArrays lanes;
  __mmask16 active = 0;
  std::size_t next = 0;
  for (int l = 0; l < kW; ++l) {
    lanes.ref[l] = kAcRootRef;
    lanes.pos[l] = lanes.len[l] = lanes.base[l] = lanes.pkt[l] = 0;
    if (next < in.count) {
      lanes.base[l] = in.offsets[next];
      lanes.len[l] = in.lens[next];
      lanes.pkt[l] = in.packets[next];
      active |= static_cast<__mmask16>(1u << l);
      ++next;
    }
  }

  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i three = _mm512_set1_epi32(3);
  const __m512i byte_mask = _mm512_set1_epi32(0xFF);
  const __m512i low24 = _mm512_set1_epi32(0x00FFFFFF);
  const __m512i off_mask = _mm512_set1_epi32(static_cast<int>(kAcOffsetMask));
  const __m512i dense_bit = _mm512_set1_epi32(static_cast<int>(kAcDenseFlag));
  const __m512i chunk_mul = _mm512_set1_epi32(171);
  const __m512i chunk_width = _mm512_set1_epi32(24);
  const __m512i chunk_count = _mm512_set1_epi32(static_cast<int>(kAcSparseChunks));

  __m512i vref = load16(lanes.ref);
  __m512i vpos = load16(lanes.pos);
  __m512i vlen = load16(lanes.len);
  __m512i vbase = load16(lanes.base);

  std::size_t n_hits = 0;
  alignas(64) std::uint32_t tmp_ref[kW];
  alignas(64) std::uint32_t tmp_pos[kW];

  while (active != 0) {
    const __mmask16 live_now = _mm512_cmpgt_epi32_mask(vlen, vpos);
    std::uint32_t done = active & static_cast<std::uint32_t>(~live_now);
    if (done != 0) {
      store16(lanes.ref, vref);
      store16(lanes.pos, vpos);
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
          active = static_cast<__mmask16>(active & ~(1u << l));
          lanes.base[l] = lanes.len[l] = 0;
        }
      }
      if (active == 0) break;
      vref = load16(lanes.ref);
      vpos = load16(lanes.pos);
      vlen = load16(lanes.len);
      vbase = load16(lanes.base);
    }

    const __m512i word = _mm512_mask_i32gather_epi32(
        zero, active, _mm512_add_epi32(vbase, vpos), folded, 1);

    // Fast path: every lane (so, every lane active) has >= 4 bytes left —
    // no per-byte liveness masks, unmasked gathers, no blend into vref.
    const __mmask16 full =
        _mm512_cmpgt_epi32_mask(vlen, _mm512_add_epi32(vpos, three));
    if (full == 0xFFFFu) {
      for (int j = 0; j < 4; ++j) {
        const __m512i b = _mm512_and_si512(_mm512_srli_epi32(word, 8 * j), byte_mask);
        const __m512i voff = _mm512_and_si512(vref, off_mask);
        const __mmask16 dense = _mm512_test_epi32_mask(vref, dense_bit);
        const __m512i c = _mm512_srli_epi32(_mm512_mullo_epi32(b, chunk_mul), 12);
        const __m512i addr1 =
            _mm512_add_epi32(voff, _mm512_mask_blend_epi32(dense, c, b));
        const __m512i g1 = _mm512_i32gather_epi32(addr1, arena, 4);

        __m512i vnext = g1;
        const auto sparse = static_cast<__mmask16>(~dense);
        if (sparse != 0) {
          const __m512i r = _mm512_sub_epi32(b, _mm512_mullo_epi32(c, chunk_width));
          const __m512i bits = _mm512_and_si512(g1, low24);
          const __mmask16 present =
              _mm512_test_epi32_mask(_mm512_srlv_epi32(bits, r), one);
          const __m512i prefix =
              _mm512_and_si512(bits, _mm512_sub_epi32(_mm512_sllv_epi32(one, r), one));
          const __m512i rank = _mm512_add_epi32(_mm512_srli_epi32(g1, 24),
                                                simd::avx512::popcount_u32(prefix));
          const __m512i sparse_addr =
              _mm512_add_epi32(_mm512_add_epi32(voff, chunk_count), rank);
          const __m512i addr2 = _mm512_mask_blend_epi32(present, b, sparse_addr);
          const __m512i g2 = _mm512_mask_i32gather_epi32(zero, sparse, addr2, arena, 4);
          vnext = _mm512_mask_blend_epi32(dense, g2, g1);
        }
        vref = vnext;

        const std::uint32_t hit_mask = _mm512_cmplt_epi32_mask(vref, zero);
        if (hit_mask != 0) {
          store16(tmp_ref, vref);
          store16(tmp_pos, _mm512_add_epi32(vpos, _mm512_set1_epi32(j)));
          std::uint32_t m = hit_mask;
          while (m != 0) {
            const int l = std::countr_zero(m);
            m &= m - 1;
            hits[n_hits++] = {lanes.pkt[l], tmp_pos[l], tmp_ref[l]};
          }
        }
      }
      vpos = _mm512_add_epi32(vpos, _mm512_set1_epi32(4));
      continue;
    }

    for (int j = 0; j < 4; ++j) {
      const __m512i posj = _mm512_add_epi32(vpos, _mm512_set1_epi32(j));
      const __mmask16 live = active & _mm512_cmpgt_epi32_mask(vlen, posj);
      if (live == 0) continue;

      const __m512i b = _mm512_and_si512(_mm512_srli_epi32(word, 8 * j), byte_mask);
      const __m512i voff = _mm512_and_si512(vref, off_mask);
      const __mmask16 dense = _mm512_test_epi32_mask(vref, dense_bit);

      const __m512i c = _mm512_srli_epi32(_mm512_mullo_epi32(b, chunk_mul), 12);
      const __m512i addr1 =
          _mm512_add_epi32(voff, _mm512_mask_blend_epi32(dense, c, b));
      const __m512i g1 = _mm512_mask_i32gather_epi32(zero, live, addr1, arena, 4);

      // Sparse resolve, skipped when every live lane sits in a dense state
      // (root-heavy traffic spends most bytes there): g1 already IS the ref.
      __m512i vnext = g1;
      const __mmask16 sparse_live = live & static_cast<__mmask16>(~dense);
      if (sparse_live != 0) {
        const __m512i r = _mm512_sub_epi32(b, _mm512_mullo_epi32(c, chunk_width));
        const __m512i bits = _mm512_and_si512(g1, low24);
        const __mmask16 present =
            _mm512_test_epi32_mask(_mm512_srlv_epi32(bits, r), one);
        const __m512i prefix =
            _mm512_and_si512(bits, _mm512_sub_epi32(_mm512_sllv_epi32(one, r), one));
        const __m512i rank =
            _mm512_add_epi32(_mm512_srli_epi32(g1, 24), simd::avx512::popcount_u32(prefix));
        const __m512i sparse_addr =
            _mm512_add_epi32(_mm512_add_epi32(voff, chunk_count), rank);
        const __m512i addr2 = _mm512_mask_blend_epi32(present, b, sparse_addr);
        const __m512i g2 = _mm512_mask_i32gather_epi32(zero, sparse_live, addr2, arena, 4);
        vnext = _mm512_mask_blend_epi32(dense, g2, g1);
      }
      vref = _mm512_mask_blend_epi32(live, vref, vnext);

      const std::uint32_t hit_mask = live & _mm512_cmplt_epi32_mask(vref, zero);
      if (hit_mask != 0) {
        store16(tmp_ref, vref);
        store16(tmp_pos, posj);
        std::uint32_t m = hit_mask;
        while (m != 0) {
          const int l = std::countr_zero(m);
          m &= m - 1;
          hits[n_hits++] = {lanes.pkt[l], tmp_pos[l], tmp_ref[l]};
        }
      }
    }
    vpos = _mm512_add_epi32(vpos, _mm512_set1_epi32(4));
  }
  return n_hits;
}

}  // namespace

AcLanesScan ac_lanes_avx512() { return scan; }

}  // namespace vpm::ac

#else  // !AVX-512

namespace vpm::ac {
AcLanesScan ac_lanes_avx512() { return nullptr; }
}  // namespace vpm::ac

#endif
