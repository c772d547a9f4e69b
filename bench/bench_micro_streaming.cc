// Microbenchmarks of the streaming algorithms, the MGPV cache hot path and
// the policy front end (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/trace_gen.h"
#include "policy/compile.h"
#include "policy/parser.h"
#include "streaming/damped.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/moments.h"
#include "streaming/welford.h"
#include "switchsim/mgpv.h"

namespace superfe {
namespace {

// Pre-filled input buffer: deriving the next sample from the previous one
// (x += 1.0) puts a loop-carried dependence on the measured path and times
// the chain, not the kernel.
void BM_WelfordAdd(benchmark::State& state) {
  WelfordStats stats;
  Rng rng(1);
  std::vector<double> xs(4096);
  for (double& x : xs) {
    x = rng.UniformDouble(0, 1500);
  }
  size_t i = 0;
  for (auto _ : state) {
    stats.Add(xs[i]);
    i = (i + 1) & (xs.size() - 1);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_WelfordAdd);

void BM_NicWelfordAdd(benchmark::State& state) {
  NicWelfordStats stats;
  int64_t x = 1000;
  for (auto _ : state) {
    stats.Add(x);
    x = (x * 31 + 7) % 1500;
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_NicWelfordAdd);

void BM_DampedAdd(benchmark::State& state) {
  DampedStats stats(1.0, static_cast<DampedMode>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    stats.Add(700.0, t);
    t += 0.0001;
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_DampedAdd)->Arg(0)->Arg(1)->Arg(2);

void BM_HllAdd(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  uint64_t v = 0;
  for (auto _ : state) {
    hll.AddU64(++v);
    benchmark::DoNotOptimize(hll);
  }
}
BENCHMARK(BM_HllAdd)->Arg(6)->Arg(10)->Arg(14);

void BM_HllAddBatch(benchmark::State& state) {
  HyperLogLog hll(10);
  Rng rng(1);
  std::vector<uint64_t> vs(static_cast<size_t>(state.range(0)));
  for (uint64_t& v : vs) {
    v = rng.NextU64();
  }
  for (auto _ : state) {
    hll.AddU64Batch(vs.data(), vs.size());
    benchmark::DoNotOptimize(hll);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HllAddBatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_HistogramAdd(benchmark::State& state) {
  FixedHistogram hist(100.0, static_cast<int>(state.range(0)));
  double v = 0.0;
  for (auto _ : state) {
    hist.Add(v);
    v += 37.0;
    if (v > 100.0 * state.range(0)) {
      v = 0.0;
    }
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_HistogramAdd)->Arg(16)->Arg(100);

void BM_HistogramAddBatch(benchmark::State& state) {
  FixedHistogram hist(100.0, 16);
  Rng rng(1);
  std::vector<double> vs(static_cast<size_t>(state.range(0)));
  for (double& v : vs) {
    v = rng.UniformDouble(0, 1600);
  }
  for (auto _ : state) {
    hist.AddBatch(vs.data(), vs.size());
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramAddBatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_MomentsAdd(benchmark::State& state) {
  StreamingMoments moments;
  double x = 0.0;
  for (auto _ : state) {
    moments.Add(x);
    x += 1.7;
    benchmark::DoNotOptimize(moments);
  }
}
BENCHMARK(BM_MomentsAdd);

void BM_MgpvInsert(benchmark::State& state) {
  class NullSink : public MgpvSink {
   public:
    void OnMgpv(const MgpvReport&) override {}
    void OnFgSync(const FgSyncMessage&) override {}
  };
  NullSink sink;
  MgpvConfig config;
  config.multi_granularity = state.range(0) != 0;
  config.cg = config.multi_granularity ? Granularity::kHost : Granularity::kFlow;
  config.fg = Granularity::kFlow;
  MgpvCache cache(config, &sink);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 100000, 2);
  size_t i = 0;
  for (auto _ : state) {
    cache.Insert(trace.packets()[i]);
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MgpvInsert)->Arg(0)->Arg(1);

void BM_PolicyParse(benchmark::State& state) {
  const std::string source = R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_mean, f_var, f_min, f_max])
  .reduce(ipt, [ft_hist{10000, 100}])
  .collect(flow)
)";
  for (auto _ : state) {
    auto policy = ParsePolicy("bench", source);
    benchmark::DoNotOptimize(policy);
  }
}
BENCHMARK(BM_PolicyParse);

void BM_PolicyCompile(benchmark::State& state) {
  auto policy = ParsePolicy("bench", R"(
pktstream
  .groupby(host, channel, socket)
  .map(ipt, tstamp, f_ipt)
  .reduce(size, [f_mean, f_var])
  .reduce(ipt, [f_mean])
  .collect(pkt)
)");
  for (auto _ : state) {
    auto compiled = Compile(*policy);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_PolicyCompile);

}  // namespace
}  // namespace superfe

BENCHMARK_MAIN();
