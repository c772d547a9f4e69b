// Damped lanes: the damped states of one group laid out as one
// structure-of-arrays block, and the three kernels that run over it
// (docs/ARCHITECTURE.md, "Damped lanes").
//
// Every damped state of a group sees every sample at the same times, so the
// states that share a λ share the decay factors and each side's weight (one
// window per λ). A block holds, for W windows, L1 one-sided lanes (flow
// granularity's 1D states) and L2 two-sided lanes (2D states, and the
// directional 1D statistics at host, channel and socket):
//
//   w[3][W]             each window's undirected, forward (A) and backward
//                       (B) weight
//   m1[L1], q1[L1]      one-sided lanes: mean and second moment in fixed
//                       point, LS and SS otherwise
//   m[2][L2], q[2][L2]  two-sided lanes, per side A and B, the same pair
//   sr[L2]              two-sided lanes: the decayed residual-product sum
//   clock               the latest sample time; -inf before the first
//
// Lanes come in runs: consecutive lanes of one kind and one input whose
// windows are consecutive, so a run reads its windows' step values in
// place and its input once.
//
// Update advances every window by a sample (one scalar libm exp2 per window,
// rounded per mode, then the side weights and insert flags as one vector
// pass) and then every run's lanes; Stats computes the statistics each run's
// emit ops read. Each is a scalar reference templated on DampedMode plus
// AVX2, chosen by ActiveSimdLevel(). They use only IEEE add, subtract,
// multiply, divide and square root, plus QuantizeFixed's bit-pattern
// rounding, in the same order at every level, and the translation unit is
// built with -ffp-contract=off, so every level gives the same bits.
// DampedStats and DampedStats2D (streaming/damped.h), on their own clocks,
// are the definitional oracle the tests hold the lanes to.
#ifndef SUPERFE_STREAMING_DAMPED_LANES_H_
#define SUPERFE_STREAMING_DAMPED_LANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "streaming/damped.h"

namespace superfe {
namespace damped_lanes {

// The statistics Stats computes. A two-sided lane's side statistics (sum,
// mean, var, std) read the emitting packet's side.
enum Stat : uint8_t { kSum, kMean, kVar, kStd, kMag, kRadius, kCov, kPcc, kStatCount };

// How much of Stats a run needs: sum and mean; also var and std; also the
// 2D statistics (two-sided runs only).
enum Tier : uint8_t { kTierMean = 0, kTierVar = 1, kTierPair = 2 };

inline Tier TierOf(Stat stat) {
  return stat <= kMean ? kTierMean : (stat <= kStd ? kTierVar : kTierPair);
}

struct Run {
  uint32_t lane = 0;    // First lane, in its kind's arrays.
  uint32_t window = 0;  // The first lane's window; lane k reads window + k.
  uint32_t count = 0;
  uint32_t input = 0;   // Index of the run's sample in Update's inputs.
  bool two_sided = false;
  Tier tier = kTierMean;
};

// The lanes of one granularity.
struct Plan {
  std::vector<double> lambdas;  // One per window.
  uint32_t lanes1 = 0;
  uint32_t lanes2 = 0;
  std::vector<Run> runs;

  uint32_t windows() const { return static_cast<uint32_t>(lambdas.size()); }
  uint32_t lanes() const { return lanes1 + lanes2; }
  // The block's size in doubles; 0 without lanes.
  size_t BlockSize() const;
  // Where Stats puts a run's lane k: one-sided lanes first.
  uint32_t StatsLane(const Run& run, uint32_t k) const {
    return (run.two_sided ? lanes1 : 0) + run.lane + k;
  }
};

// Sets up a fresh block: zero state, no sample yet.
void InitBlock(const Plan& plan, double* block);

// Feeds one sample at t_seconds to every lane: run r's lanes take
// inputs[runs[r].input]; `forward` is the sample's side for the two-sided
// lanes.
void Update(DampedMode mode, const Plan& plan, double* block, double t_seconds, bool forward,
            const double* inputs);

// Writes the statistics of each run's tier, for the emitting packet's side
// `forward`, to stats[stat * plan.lanes() + StatsLane(run, k)].
void Stats(DampedMode mode, const Plan& plan, const double* block, bool forward, double* stats);

// Test hook: QuantizeFixed of n values at the active SIMD level (the
// kernels' vector rounding, with the scalar one for the tail).
void QuantizeFixedForTest(const double* in, double* out, size_t n);

// Scratch of n doubles: on the stack up to N, else on the heap.
template <size_t N>
class Scratch {
 public:
  explicit Scratch(size_t n) {
    if (n > N) {
      heap_.resize(n);
    }
  }
  double* data() { return heap_.empty() ? inline_ : heap_.data(); }

 private:
  double inline_[N];
  std::vector<double> heap_;
};

}  // namespace damped_lanes
}  // namespace superfe

#endif  // SUPERFE_STREAMING_DAMPED_LANES_H_
