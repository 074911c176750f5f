// Runtime CPU feature detection.
//
// The engine picks the widest usable kernel at runtime (AVX-512 W=16,
// AVX2 W=8, scalar) — mirroring the paper's Haswell (256-bit) and Xeon-Phi
// (512-bit) targets. Tests skip ISA-specific cases on machines without them.
#pragma once

namespace vpm::simd {

struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;

  // The AVX2 kernels need AVX2 gathers.
  bool has_avx2_kernel() const { return avx2; }
  // The wide kernel needs F (gather, compress) + BW/VL (byte shuffles, masks).
  bool has_avx512_kernel() const { return avx512f && avx512bw && avx512vl; }
};

// Detected once at first call; cached.
const CpuFeatures& cpu();

}  // namespace vpm::simd
