// Runtime SIMD dispatch for the batch feature kernels.
//
// Every kernel that dispatches here (the integer-domain primitives of
// streaming/batch.h and the damped-lane kernels of streaming/damped_lanes.h)
// gives its scalar reference's bits at every level; the level only changes
// how many values a hardware instruction carries per step. Detection is
// compile-time (x86_64 + !SUPERFE_DISABLE_SIMD) plus a one-time runtime
// probe (__builtin_cpu_supports), and the SUPERFE_NO_SIMD environment
// variable forces the portable scalar path for A/B verification.
#ifndef SUPERFE_STREAMING_SIMD_H_
#define SUPERFE_STREAMING_SIMD_H_

namespace superfe {

enum class SimdLevel {
  kScalar = 0,  // Portable C++ (also the SUPERFE_NO_SIMD / non-x86 path).
  kSse2 = 1,    // x86_64 baseline; no kernel has an SSE2 body of its own.
  kAvx2 = 2,    // One 4-wide double vector per step.
};

// The level the batch kernels dispatch to. Cached after the first call
// (env + cpuid probed once); thread-safe.
SimdLevel ActiveSimdLevel();

// Test hook: pin the dispatch level (clamped to what the build/host
// supports — forcing kAvx2 on a non-AVX2 host stays at the detected level).
// Used by the fallback-parity property test to compare levels in-process.
void ForceSimdLevelForTest(SimdLevel level);

const char* SimdLevelName(SimdLevel level);

}  // namespace superfe

#endif  // SUPERFE_STREAMING_SIMD_H_
