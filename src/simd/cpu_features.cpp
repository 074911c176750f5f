#include "simd/cpu_features.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vpm::simd {

namespace {

// VPM_FORCE_ISA caps the features dispatch may use, so the vector fallback
// paths are testable on wide hosts:
//   scalar — no vector kernels at all
//   avx2   — mask AVX-512, keep AVX2
//   avx512 / best / unset — no cap
void apply_force_isa(CpuFeatures& f) {
  const char* force = std::getenv("VPM_FORCE_ISA");
  if (force == nullptr || *force == '\0') return;
  if (std::strcmp(force, "scalar") == 0) {
    f = CpuFeatures{};
  } else if (std::strcmp(force, "avx2") == 0) {
    f.avx512f = f.avx512bw = f.avx512vl = false;
  } else if (std::strcmp(force, "avx512") != 0 && std::strcmp(force, "best") != 0) {
    // A typo must not silently yield full vector dispatch: anyone setting
    // this variable believes a cap is active (the scalar-forced CI run
    // would otherwise pass vacuously).
    std::fprintf(stderr,
                 "vpm: ignoring unrecognized VPM_FORCE_ISA=\"%s\" "
                 "(expected scalar, avx2, avx512, or best)\n",
                 force);
  }
}

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512bw = __builtin_cpu_supports("avx512bw");
  f.avx512vl = __builtin_cpu_supports("avx512vl");
#endif
#if !defined(VPM_HAVE_AVX2_BUILD)
  f.avx2 = false;  // compiler could not build the AVX2 TUs
#endif
#if !defined(VPM_HAVE_AVX512_BUILD)
  f.avx512f = f.avx512bw = f.avx512vl = false;
#endif
  apply_force_isa(f);
  return f;
}

}  // namespace

const CpuFeatures& cpu() {
  static const CpuFeatures f = detect();
  return f;
}

}  // namespace vpm::simd
