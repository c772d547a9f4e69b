// Tests for pipeline latency observability (src/obs/latency.h and the
// runtime wiring): log-bucket quantile accuracy against known
// distributions, snapshot merging, export formats, and the end-to-end
// breakdown contract — per-cause residency counts equal MgpvStats eviction
// counts, end-to-end dominates every single stage, and a smaller aging
// threshold shortens the aging-evicted residency tail.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "net/trace_gen.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "policy/parser.h"
#include "switchsim/evict.h"

namespace superfe {
namespace {

// One log bucket spans a factor of 10^0.2; a bucket-interpolated quantile
// of a distribution away from bucket 0 is exact to within that ratio.
const double kBucketRatio = std::pow(10.0, 0.2);

void ExpectWithinOneBucket(double estimate, double truth, const char* what) {
  EXPECT_GE(estimate, truth / kBucketRatio) << what;
  EXPECT_LE(estimate, truth * kBucketRatio) << what;
}

TEST(LatencyHistogramTest, BucketLayoutAndIndexing) {
  EXPECT_EQ(obs::LatencyHistogram::BoundNs(0), 100u);
  EXPECT_EQ(obs::LatencyHistogram::BoundNs(5), 1000u);
  EXPECT_EQ(obs::LatencyHistogram::BoundNs(20), 1000000u);
  EXPECT_EQ(obs::LatencyHistogram::BoundNs(40), 10000000000u);  // 10 s.

  // Upper bounds are inclusive (matching the fixed-bucket Histogram).
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(100), 0u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(101), 1u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(1000000), 20u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(1000001), 21u);
  // Past the last finite bound: the +Inf bucket.
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(20000000000u),
            obs::LatencyHistogram::kNumBounds);
}

TEST(LatencyHistogramTest, CountSumAndInfClamp) {
  obs::LatencyHistogram h;
  h.Observe(500);
  h.Observe(1500);
  h.Observe(20000000000u);  // +Inf bucket.
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumNs(), 500u + 1500u + 20000000000u);
  EXPECT_EQ(h.BucketCount(obs::LatencyHistogram::kNumBounds), 1u);

  // A quantile landing in the +Inf bucket clamps to the top finite bound.
  const auto snap = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.QuantileNs(1.0),
                   static_cast<double>(obs::LatencyHistogram::BoundNs(
                       obs::LatencyHistogram::kNumBounds - 1)));
  // An empty snapshot yields 0.
  EXPECT_DOUBLE_EQ(obs::LatencyHistogram::Snapshot{}.QuantileNs(0.5), 0.0);
}

TEST(LatencyHistogramTest, QuantileUniform) {
  obs::LatencyHistogram h;
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 1; i <= kN; ++i) {
    h.Observe(i * 10);  // Uniform over {10, 20, ..., 1e6} ns.
  }
  const auto snap = h.TakeSnapshot();
  ExpectWithinOneBucket(snap.QuantileNs(0.50), 500000.0, "uniform p50");
  ExpectWithinOneBucket(snap.QuantileNs(0.99), 990000.0, "uniform p99");
  // Linear interpolation is near-exact for in-bucket-uniform data.
  EXPECT_NEAR(snap.QuantileNs(0.50), 500000.0, 5000.0);
}

TEST(LatencyHistogramTest, QuantileExponential) {
  obs::LatencyHistogram h;
  constexpr uint64_t kN = 100000;
  const double mean_ns = 1e6;
  for (uint64_t i = 0; i < kN; ++i) {
    // Deterministic inverse-CDF sampling.
    const double u = (static_cast<double>(i) + 0.5) / kN;
    h.Observe(static_cast<uint64_t>(-mean_ns * std::log(1.0 - u)));
  }
  const auto snap = h.TakeSnapshot();
  ExpectWithinOneBucket(snap.QuantileNs(0.50), mean_ns * std::log(2.0), "exp p50");
  ExpectWithinOneBucket(snap.QuantileNs(0.99), mean_ns * std::log(100.0), "exp p99");
}

TEST(LatencyHistogramTest, QuantilePointMassAtBucketEdge) {
  obs::LatencyHistogram h;
  const uint64_t edge = obs::LatencyHistogram::BoundNs(20);  // Exactly 1 ms.
  for (int i = 0; i < 1000; ++i) {
    h.Observe(edge);
  }
  const auto snap = h.TakeSnapshot();
  // The whole mass sits in bucket 20 = (BoundNs(19), BoundNs(20)]; the
  // interpolated estimate stays inside that bucket, i.e. within one
  // bucket's relative error of the true (edge) value.
  ExpectWithinOneBucket(snap.QuantileNs(0.50), static_cast<double>(edge), "edge p50");
  ExpectWithinOneBucket(snap.QuantileNs(0.99), static_cast<double>(edge), "edge p99");
  EXPECT_GT(snap.QuantileNs(0.50),
            static_cast<double>(obs::LatencyHistogram::BoundNs(19)));
  EXPECT_LE(snap.QuantileNs(0.99), static_cast<double>(edge));
}

TEST(LatencyHistogramTest, SnapshotMergeAddsExactly) {
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  a.Observe(100);
  a.Observe(10000);
  b.Observe(10000);
  b.Observe(5000000);
  auto merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.sum_ns, 100u + 10000u + 10000u + 5000000u);
  EXPECT_EQ(merged.buckets[obs::LatencyHistogram::BucketIndex(10000)], 2u);
  const obs::LatencyStageSummary s = merged.Summarize();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.MeanNs(), static_cast<double>(merged.sum_ns) / 4.0);
}

TEST(LatencyHistogramTest, ConcurrentObserveIsExact) {
  obs::LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Observe(1000 + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += (1000 + static_cast<uint64_t>(t)) * kPerThread;
  }
  EXPECT_EQ(h.SumNs(), expected_sum);
}

TEST(LatencyHistogramTest, RegistryExportFormats) {
  obs::MetricsRegistry registry;
  obs::LatencyHistogram* h =
      registry.GetLatencyHistogram("lat_ns", {{"stage", "e2e"}}, "test latency");
  ASSERT_NE(h, nullptr);
  // Idempotent get; type clash with another kind yields null.
  EXPECT_EQ(h, registry.GetLatencyHistogram("lat_ns", {{"stage", "e2e"}}));
  EXPECT_EQ(registry.GetCounter("lat_ns"), nullptr);

  h->Observe(150);    // Bucket 1 (le 158).
  h->Observe(150);
  h->Observe(90000);  // le 100000.

  std::ostringstream prom;
  registry.WriteProm(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE lat_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{stage=\"e2e\",le=\"158\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{stage=\"e2e\",le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum{stage=\"e2e\"} 90300\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count{stage=\"e2e\"} 3\n"), std::string::npos);

  std::ostringstream json;
  JsonWriter writer(json, /*indent=*/0);
  registry.WriteJson(writer);
  const std::string jtext = json.str();
  EXPECT_NE(jtext.find("\"sum_ns\":90300"), std::string::npos);
  EXPECT_NE(jtext.find("\"quantiles_ns\""), std::string::npos);
  EXPECT_NE(jtext.find("\"le_ns\":158"), std::string::npos);
}

TEST(TraceClockTest, MonotoneMaxAcrossThreads) {
  obs::TraceClock clock;
  clock.Advance(100);
  clock.Advance(50);  // Never goes backwards.
  EXPECT_EQ(clock.Now(), 100u);
  clock.Advance(250);
  EXPECT_EQ(clock.Now(), 250u);
}

// --- Runtime integration -------------------------------------------------

const char* kPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_sum, f_min, f_max])
  .reduce(ipt, [f_max])
  .collect(flow)
)";

Policy Parse(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(policy).value();
}

RunReport RunWithLatency(const Trace& trace, uint32_t workers, uint64_t aging_ns) {
  RuntimeConfig config;
  config.worker_threads = workers;
  config.obs.latency = true;
  config.mgpv.aging_timeout_ns = aging_ns;
  auto runtime = SuperFeRuntime::Create(Parse(kPolicy), config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  CollectingFeatureSink sink;
  return (*runtime)->Run(trace, &sink);
}

TEST(LatencyRuntimeTest, BreakdownContractWithWorkers) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 60000, 7);
  const RunReport report = RunWithLatency(trace, /*workers=*/4,
                                          /*aging_ns=*/10'000'000);
  ASSERT_TRUE(report.latency.enabled);
  const RunReport::LatencyBreakdown& b = report.latency;

  // (a) Per-cause residency observation counts equal the MgpvStats eviction
  // counts — they are recorded at the same code site.
  uint64_t total_evictions = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.residency_by_cause[i].count, report.mgpv.evictions[i])
        << EvictReasonName(static_cast<EvictReason>(i));
    total_evictions += report.mgpv.evictions[i];
  }
  EXPECT_EQ(b.mgpv_residency.count, total_evictions);
  EXPECT_EQ(b.mgpv_residency.count, report.mgpv.reports_out);
  EXPECT_GT(report.mgpv.evictions[static_cast<int>(EvictReason::kAging)], 0u);

  // Every report is observed once per downstream stage.
  EXPECT_EQ(b.queue_wait.count, report.mgpv.reports_out);
  EXPECT_EQ(b.worker_service.count, report.mgpv.reports_out);
  EXPECT_EQ(b.end_to_end.count, report.mgpv.reports_out);
  ASSERT_EQ(b.queue_wait_by_worker.size(), 4u);

  // (b) End-to-end dominates every single stage: per report,
  // e2e >= residency, queue wait, and service, and all stages share one
  // bucket grid, so the interpolated quantiles inherit the ordering.
  const double stage_max_p50 =
      std::max({b.mgpv_residency.p50_ns, b.queue_wait.p50_ns, b.worker_service.p50_ns});
  EXPECT_GE(b.end_to_end.p50_ns, stage_max_p50);
  const double stage_max_p99 =
      std::max({b.mgpv_residency.p99_ns, b.queue_wait.p99_ns, b.worker_service.p99_ns});
  EXPECT_GE(b.end_to_end.p99_ns, stage_max_p99);

  // Service attribution covers the Table-5 families and sums to 1.
  ASSERT_EQ(b.service_shares.size(), 6u);
  double fraction_sum = 0.0;
  for (const auto& share : b.service_shares) {
    fraction_sum += share.fraction;
  }
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
}

TEST(LatencyRuntimeTest, SmallerAgingThresholdShortensAgingTail) {
  // (c) The aging threshold bounds how long an idle batch lingers, so a
  // smaller threshold must strictly reduce the aging-evicted residency p99.
  const Trace trace = GenerateTrace(EnterpriseProfile(), 60000, 7);
  const RunReport fast = RunWithLatency(trace, /*workers=*/4, /*aging_ns=*/1'000'000);
  const RunReport slow = RunWithLatency(trace, /*workers=*/4, /*aging_ns=*/10'000'000);
  const int aging = static_cast<int>(EvictReason::kAging);
  ASSERT_GT(fast.latency.residency_by_cause[aging].count, 0u);
  ASSERT_GT(slow.latency.residency_by_cause[aging].count, 0u);
  EXPECT_LT(fast.latency.residency_by_cause[aging].p99_ns,
            slow.latency.residency_by_cause[aging].p99_ns);
}

TEST(LatencyRuntimeTest, SerialEndToEndEqualsResidency) {
  // With no cluster there is no queue and the trace clock cannot advance
  // mid-report: queue wait is unobserved, service is 0 trace-time ns, and
  // every end-to-end measurement equals the report's residency exactly.
  const Trace trace = GenerateTrace(CampusProfile(), 20000, 3);
  const RunReport report = RunWithLatency(trace, /*workers=*/0,
                                          /*aging_ns=*/10'000'000);
  ASSERT_TRUE(report.latency.enabled);
  const RunReport::LatencyBreakdown& b = report.latency;
  EXPECT_EQ(b.queue_wait.count, 0u);
  EXPECT_TRUE(b.queue_wait_by_worker.empty());
  EXPECT_EQ(b.worker_service.count, report.mgpv.reports_out);
  EXPECT_EQ(b.worker_service.sum_ns, 0u);
  EXPECT_EQ(b.end_to_end.count, b.mgpv_residency.count);
  EXPECT_EQ(b.end_to_end.sum_ns, b.mgpv_residency.sum_ns);
  EXPECT_DOUBLE_EQ(b.end_to_end.p50_ns, b.mgpv_residency.p50_ns);
  EXPECT_DOUBLE_EQ(b.end_to_end.p99_ns, b.mgpv_residency.p99_ns);
}

TEST(LatencyRuntimeTest, DisabledByDefaultAndExportsGated) {
  RuntimeConfig config;
  config.obs.metrics = true;  // Metrics without latency tracking.
  auto runtime = SuperFeRuntime::Create(Parse(kPolicy), config);
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(CampusProfile(), 5000, 3);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_FALSE(report.latency.enabled);

  std::ostringstream json;
  ASSERT_TRUE((*runtime)->WriteMetricsJson(json));
  EXPECT_EQ(json.str().find("\"latency\""), std::string::npos);
  EXPECT_EQ(json.str().find("superfe_latency_"), std::string::npos);
  // No sampler configured: the metrics JSON carries no series block.
  EXPECT_EQ(json.str().find("\"series\""), std::string::npos);
}

TEST(LatencyRuntimeTest, MetricsJsonCarriesBreakdown) {
  RuntimeConfig config;
  config.worker_threads = 2;
  config.obs.latency = true;
  auto runtime = SuperFeRuntime::Create(Parse(kPolicy), config);
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(CampusProfile(), 20000, 3);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  ASSERT_TRUE(report.latency.enabled);

  std::ostringstream json;
  ASSERT_TRUE((*runtime)->WriteMetricsJson(json));
  const std::string text = json.str();
  EXPECT_NE(text.find("\"latency\""), std::string::npos);
  EXPECT_NE(text.find("\"mgpv_residency_by_cause\""), std::string::npos);
  EXPECT_NE(text.find("\"end_to_end\""), std::string::npos);
  EXPECT_NE(text.find("\"service_shares\""), std::string::npos);
  EXPECT_NE(text.find("superfe_latency_e2e_ns"), std::string::npos);

  std::ostringstream prom;
  ASSERT_TRUE((*runtime)->WriteMetricsProm(prom));
  EXPECT_NE(prom.str().find("superfe_latency_mgpv_residency_ns_bucket{cause=\"aging\""),
            std::string::npos);
  EXPECT_NE(prom.str().find("superfe_latency_e2e_ns_count"), std::string::npos);
}

}  // namespace
}  // namespace superfe
