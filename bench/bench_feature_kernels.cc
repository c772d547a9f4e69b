// Batch-vs-scalar feature-kernel benchmark: for each integer-domain §6.1
// kernel with a bulk form (min/max, HyperLogLog, histogram, the log2
// bucketer, the HLL hash), times the per-element loop against the bulk call
// on the same pre-filled input buffer at batch sizes 16 / 256 / 4096, and
// reports the speedup ratio per kernel and batch size. The double families
// (sum, Welford, moments) fold value by value in every path, so they have
// no bulk form to time.
//
// Emits BENCH_feature_kernels.json with the host CPU count and the active
// SIMD dispatch level (scalar / sse2 / avx2 — see streaming/simd.h), so a
// result is interpretable on its own. Acceptance for the SoA batch path:
// >= 2x over scalar on at least two kernels at batch 4096 on SIMD hosts.
// Set SUPERFE_NO_SIMD=1 to measure the portable scalar fallback.
//
// The damped_lanes row times Kitsune's channel block (15 two-sided lanes:
// weight, size and jitter at five λ, NIC fixed point): one element is one
// cell, its window step and lane update plus the statistics its emit ops
// read, at SimdLevel::kScalar against the detected level.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/policies.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/table.h"
#include "nicsim/exec.h"
#include "policy/compile.h"
#include "streaming/batch.h"
#include "streaming/damped_lanes.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/simd.h"

namespace superfe {
namespace {

// Keeps the value (and everything reachable from it) alive past the
// optimizer without a google-benchmark dependency.
template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

constexpr size_t kBatchSizes[] = {16, 256, 4096};
// Elements per timed round; reps = kElemsPerRound / batch so every batch
// size does the same amount of work per round.
constexpr size_t kElemsPerRound = 1 << 21;
constexpr int kRounds = 5;

struct Measurement {
  std::string kernel;
  size_t batch = 0;
  double scalar_ns_per_elem = 0.0;
  double batch_ns_per_elem = 0.0;
  double speedup = 0.0;
};

double MedianOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Times `fn(reps)` and returns ns per element. The callable runs the kernel
// `reps` times over one `batch`-sized buffer.
template <typename F>
double TimeNsPerElem(F&& fn, size_t batch, size_t reps) {
  const auto t0 = std::chrono::steady_clock::now();
  fn(reps);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(batch * reps);
}

// Runs the scalar and batch paths back to back per round (pairing cancels
// slow drift) and reports the median of the per-round numbers.
template <typename ScalarF, typename BatchF>
Measurement Measure(const char* kernel, size_t batch, ScalarF&& scalar_fn,
                    BatchF&& batch_fn, size_t elems_per_round = kElemsPerRound) {
  const size_t reps = elems_per_round / batch;
  // Warmup: one short round of each, untimed.
  scalar_fn(reps / 8 + 1);
  batch_fn(reps / 8 + 1);
  std::vector<double> scalar_ns, batch_ns, ratios;
  for (int r = 0; r < kRounds; ++r) {
    const double s = TimeNsPerElem(scalar_fn, batch, reps);
    const double b = TimeNsPerElem(batch_fn, batch, reps);
    scalar_ns.push_back(s);
    batch_ns.push_back(b);
    ratios.push_back(s / b);
  }
  Measurement m;
  m.kernel = kernel;
  m.batch = batch;
  m.scalar_ns_per_elem = MedianOf(scalar_ns);
  m.batch_ns_per_elem = MedianOf(batch_ns);
  m.speedup = MedianOf(ratios);
  return m;
}

std::vector<Measurement> RunAll() {
  Rng rng(42);
  std::vector<double> sizes(4096);  // Packet-size-like values.
  std::vector<uint64_t> flows(4096);
  for (size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = rng.UniformDouble(40.0, 1500.0);
    flows[i] = rng.NextU64();
  }
  std::vector<int32_t> buckets(4096);
  std::vector<uint32_t> hashes(4096);

  std::vector<Measurement> out;
  for (const size_t batch : kBatchSizes) {
    const double* v = sizes.data();

    {
      double lo = v[0], hi = v[0];
      out.push_back(Measure(
          "minmax", batch,
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) {
              for (size_t i = 0; i < batch; ++i) {
                if (v[i] < lo) lo = v[i];
                if (v[i] > hi) hi = v[i];
              }
            }
            Keep(lo);
            Keep(hi);
          },
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) batchkern::MinMax(v, batch, &lo, &hi);
            Keep(lo);
            Keep(hi);
          }));
    }
    {
      HyperLogLog a(10), b(10);
      out.push_back(Measure(
          "hll", batch,
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) {
              for (size_t i = 0; i < batch; ++i) a.AddU64(flows[i]);
            }
            Keep(a);
          },
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) b.AddU64Batch(flows.data(), batch);
            Keep(b);
          }));
    }
    {
      FixedHistogram a(100.0, 16), b(100.0, 16);
      out.push_back(Measure(
          "histogram", batch,
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) {
              for (size_t i = 0; i < batch; ++i) a.Add(v[i]);
            }
            Keep(a);
          },
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) b.AddBatch(v, batch);
            Keep(b);
          }));
    }
    {  // ft_percent log2 bucketer, scalar bit-trick vs vectorized batch.
      out.push_back(Measure(
          "log_bucket", batch,
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) {
              for (size_t i = 0; i < batch; ++i) {
                buckets[i] = batchkern::Log2Bucket(v[i]);
              }
              Keep(buckets);
            }
          },
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) {
              batchkern::Log2BucketBatch(v, batch, buckets.data());
              Keep(buckets);
            }
          }));
    }
    {  // The HLL Mix64 hash on its own (feeds AddU64Batch).
      out.push_back(Measure(
          "hash_u64", batch,
          [&](size_t reps) {
            HyperLogLog h(10);
            for (size_t r = 0; r < reps; ++r) {
              for (size_t i = 0; i < batch; ++i) h.AddU64(flows[i] ^ r);
              Keep(h);
            }
          },
          [&](size_t reps) {
            for (size_t r = 0; r < reps; ++r) {
              batchkern::HashU64Batch(flows.data(), batch, hashes.data());
              Keep(hashes);
            }
          }));
    }
  }
  return out;
}

// Kitsune's channel block, cell by cell: the scalar reference against the
// detected SIMD level.
Measurement MeasureDampedLanes() {
  const ExecPlan plan =
      ExecPlan::FromProgram(Compile(KitsunePolicy()).value().nic_program).value();
  const damped_lanes::Plan* lanes = nullptr;
  for (const auto& gp : plan.per_granularity) {
    if (gp.granularity == Granularity::kChannel) {
      lanes = &gp.lanes;
    }
  }
  constexpr size_t kCells = 256;
  Rng rng(7);
  std::vector<double> gaps(kCells);
  std::vector<char> forward(kCells);
  std::vector<double> inputs(kCells * plan.field_count);
  for (size_t i = 0; i < kCells; ++i) {
    gaps[i] = rng.Bernoulli(0.1) ? 0.0 : rng.UniformDouble(0.0, 0.01);
    forward[i] = rng.Bernoulli(0.5);
    for (int f = 0; f < plan.field_count; ++f) {
      inputs[i * plan.field_count + f] = rng.UniformDouble(40.0, 1500.0);
    }
  }
  std::vector<double> block(lanes->BlockSize());
  damped_lanes::InitBlock(*lanes, block.data());
  std::vector<double> stats(damped_lanes::kStatCount * lanes->lanes());
  double now = 1.0;
  const SimdLevel detected = ActiveSimdLevel();
  const auto cells_at = [&](SimdLevel level) {
    return [&, level](size_t reps) {
      ForceSimdLevelForTest(level);
      for (size_t r = 0; r < reps; ++r) {
        for (size_t i = 0; i < kCells; ++i) {
          now += gaps[i];
          damped_lanes::Update(DampedMode::kNicFixedPoint, *lanes, block.data(), now,
                               forward[i] != 0, &inputs[i * plan.field_count]);
          damped_lanes::Stats(DampedMode::kNicFixedPoint, *lanes, block.data(), forward[i] != 0,
                              stats.data());
        }
        Keep(stats);
      }
      ForceSimdLevelForTest(detected);
    };
  };
  return Measure("damped_lanes", kCells, cells_at(SimdLevel::kScalar), cells_at(detected),
                 kElemsPerRound / 64);
}

int Run() {
  std::vector<Measurement> results = RunAll();
  results.push_back(MeasureDampedLanes());
  const char* simd = SimdLevelName(ActiveSimdLevel());
  const unsigned host_cpus = std::thread::hardware_concurrency();

  AsciiTable table({"Kernel", "Batch", "Scalar ns/elem", "Batch ns/elem", "Speedup"});
  for (const auto& m : results) {
    table.AddRow({m.kernel, std::to_string(m.batch),
                  AsciiTable::Num(m.scalar_ns_per_elem, 3),
                  AsciiTable::Num(m.batch_ns_per_elem, 3),
                  AsciiTable::Num(m.speedup, 2) + "x"});
  }
  std::printf("feature kernels: bulk call vs per-element loop "
              "(simd=%s, cpus=%u)\n", simd, host_cpus);
  table.Print();

  std::ofstream out("BENCH_feature_kernels.json");
  JsonWriter w(out);
  w.BeginObject();
  w.FieldStr("bench", "feature_kernels");
  w.FieldUint("host_cpus", host_cpus);
  w.FieldStr("simd_level", simd);
  w.FieldUint("rounds", kRounds);
  w.FieldUint("elems_per_round", kElemsPerRound);
  w.Key("results");
  w.BeginArray();
  for (const auto& m : results) {
    w.BeginObject();
    w.FieldStr("kernel", m.kernel);
    w.FieldUint("batch", m.batch);
    w.FieldDouble("scalar_ns_per_elem", m.scalar_ns_per_elem);
    w.FieldDouble("batch_ns_per_elem", m.batch_ns_per_elem);
    w.FieldDouble("speedup", m.speedup);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  if (!out) {
    std::fprintf(stderr, "failed to write BENCH_feature_kernels.json\n");
    return 1;
  }
  std::printf("wrote BENCH_feature_kernels.json\n");
  return 0;
}

}  // namespace
}  // namespace superfe

int main() { return superfe::Run(); }
