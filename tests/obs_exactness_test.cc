// Flush-exactness contract tests for the batch-local observability fast
// path (docs/OBSERVABILITY.md, "Hot-path design"): every per-packet obs
// site buffers into a worker-local WorkerObsBlock and folds into the shared
// registry once per batch, yet quiescent totals must equal the RunReport /
// serial-oracle counters at every shard x worker shape — including under
// mid-run member crashes, flush-deadline recovery, and the legacy
// per-packet cadence — and the sampler's final capture must converge to the
// same exact totals. CI runs this binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.h"
#include "fault/fault_plan.h"
#include "net/trace_gen.h"
#include "nicsim/mgpv_recorder.h"
#include "nicsim/nic_cluster.h"
#include "policy/parser.h"
#include "switchsim/fe_switch.h"

namespace superfe {
namespace {

const char* kFlowStatsPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_sum, f_min, f_max])
  .reduce(ipt, [f_max])
  .collect(flow)
)";

const char* kPerPacketPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum])
  .collect(pkt)
)";

Policy ParseSource(const std::string& source) {
  auto policy = ParsePolicy("obs-exact", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(policy).value();
}

// Order-independent comparison key: (group key bytes, timestamp, values).
using VectorKey = std::tuple<int, std::string, uint64_t, std::vector<double>>;

std::vector<VectorKey> SortedMultiset(const std::vector<FeatureVector>& vectors) {
  std::vector<VectorKey> keys;
  keys.reserve(vectors.size());
  for (const auto& v : vectors) {
    keys.emplace_back(static_cast<int>(v.group.granularity),
                      std::string(v.group.bytes.begin(), v.group.bytes.begin() + v.group.length),
                      v.timestamp_ns, v.values);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Exact child value, failing the test if the child does not exist.
double Value(obs::MetricsRegistry* metrics, const std::string& name,
             const obs::LabelSet& labels = {}) {
  auto v = metrics->Value(name, labels);
  EXPECT_TRUE(v.has_value()) << name;
  return v.value_or(-1.0);
}

// Sum over per-shard children (unlabeled when shards == 1).
double ShardSum(obs::MetricsRegistry* metrics, const std::string& name,
                uint32_t shards) {
  if (shards <= 1) {
    return Value(metrics, name);
  }
  double total = 0.0;
  for (uint32_t s = 0; s < shards; ++s) {
    total += Value(metrics, name, {{"shard", std::to_string(s)}});
  }
  return total;
}

double NicSum(obs::MetricsRegistry* metrics, const std::string& name,
              uint32_t members) {
  double total = 0.0;
  for (uint32_t i = 0; i < members; ++i) {
    total += Value(metrics, name, {{"nic", std::to_string(i)}});
  }
  return total;
}

// The contract: after Run(), every batched counter equals its RunReport
// field exactly — the hot tier may defer, never lose or double-count.
void ExpectMetricsMatchReport(obs::MetricsRegistry* metrics, const RunReport& report,
                              uint32_t shards, uint32_t workers,
                              const std::string& label) {
  const uint32_t members = std::max<uint32_t>(workers, 1);
  EXPECT_EQ(Value(metrics, "superfe_replay_packets_total"), report.offered.packets)
      << label;
  EXPECT_EQ(ShardSum(metrics, "superfe_switch_packets_seen_total", shards),
            report.switch_stats.packets_seen)
      << label;
  EXPECT_EQ(ShardSum(metrics, "superfe_switch_packets_batched_total", shards),
            report.switch_stats.packets_batched)
      << label;
  // MGPV counters are one shared family: every shard folds into the same
  // unlabeled children.
  EXPECT_EQ(Value(metrics, "superfe_mgpv_reports_out_total"), report.mgpv.reports_out)
      << label;
  EXPECT_EQ(Value(metrics, "superfe_mgpv_cells_out_total"), report.mgpv.cells_out)
      << label;
  EXPECT_EQ(NicSum(metrics, "superfe_nic_cells_total", members), report.nic.cells)
      << label;
  EXPECT_EQ(NicSum(metrics, "superfe_nic_reports_total", members), report.nic.reports)
      << label;
  EXPECT_EQ(NicSum(metrics, "superfe_nic_vectors_emitted_total", members),
            report.nic.vectors_emitted)
      << label;
  // The batching tier itself must have run and stayed within its cadence.
  EXPECT_GE(Value(metrics, "superfe_obs_flushes_total"), 1.0) << label;
}

struct ObsRun {
  std::unique_ptr<SuperFeRuntime> runtime;
  RunReport report;
  std::vector<FeatureVector> vectors;
};

ObsRun RunFullObs(const Policy& policy, const Trace& trace, uint32_t shards,
                  uint32_t workers, uint32_t batch_packets) {
  RuntimeConfig config;
  config.switch_shards = shards;
  config.worker_threads = workers;
  config.obs.metrics = true;
  config.obs.latency = true;
  config.obs.profile = true;
  config.obs.sample_interval_ms = 1;
  config.obs.batch_packets = batch_packets;
  auto runtime = SuperFeRuntime::Create(policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  ObsRun run;
  run.runtime = std::move(runtime).value();
  CollectingFeatureSink sink;
  run.report = run.runtime->Run(trace, &sink);
  run.vectors = sink.vectors();
  return run;
}

// The acceptance matrix: metrics + latency + cycle profiling + batching all
// on, across shards {1,2,4} x workers {0,1,4}. Totals must equal both the
// RunReport and a no-obs serial oracle's outputs.
TEST(ObsExactnessTest, ExactTotalsAtEveryShardWorkerShape) {
  const Policy policy = ParseSource(kFlowStatsPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 15000, /*seed=*/17);

  // Oracle: serial, observability fully off.
  RunReport oracle_report;
  std::vector<VectorKey> oracle;
  {
    auto runtime = SuperFeRuntime::Create(policy, RuntimeConfig{});
    ASSERT_TRUE(runtime.ok());
    CollectingFeatureSink sink;
    oracle_report = (*runtime)->Run(trace, &sink);
    oracle = SortedMultiset(sink.vectors());
  }
  ASSERT_FALSE(oracle.empty());

  for (uint32_t shards : {1u, 2u, 4u}) {
    for (uint32_t workers : {0u, 1u, 4u}) {
      const std::string label =
          "shards=" + std::to_string(shards) + " workers=" + std::to_string(workers);
      ObsRun run = RunFullObs(policy, trace, shards, workers, /*batch_packets=*/4096);
      obs::MetricsRegistry* metrics = run.runtime->metrics();
      ASSERT_NE(metrics, nullptr) << label;

      // Observability must not perturb the pipeline's outputs.
      EXPECT_EQ(oracle, SortedMultiset(run.vectors)) << label;
      EXPECT_EQ(oracle_report.nic.cells, run.report.nic.cells) << label;

      ExpectMetricsMatchReport(metrics, run.report, shards, workers, label);

      // Cycle profiling ran: the stages this shape exercises accumulated.
      EXPECT_GT(Value(metrics, "superfe_cycles_total", {{"stage", "mgpv"}}), 0.0)
          << label;
      EXPECT_GT(Value(metrics, "superfe_cycles_total", {{"stage", "feature_kernels"}}),
                0.0)
          << label;
      if (workers > 0) {
        EXPECT_GT(Value(metrics, "superfe_cycles_total", {{"stage", "dequeue"}}), 0.0)
            << label;
      }
      ASSERT_EQ(run.report.latency.measured_cycle_shares.size(), 4u) << label;
      double fraction_sum = 0.0;
      for (const auto& s : run.report.latency.measured_cycle_shares) {
        fraction_sum += s.fraction;
      }
      EXPECT_NEAR(fraction_sum, 1.0, 1e-9) << label;
    }
  }
}

// The legacy per-packet cadence (batch_packets = 1) is just the smallest
// batch: totals stay exact and identical to the default cadence's.
TEST(ObsExactnessTest, LegacyPerPacketCadenceStaysExact) {
  const Policy policy = ParseSource(kFlowStatsPolicy);
  const Trace trace = GenerateTrace(CampusProfile(), 8000, /*seed=*/23);

  ObsRun batched = RunFullObs(policy, trace, 2, 2, /*batch_packets=*/4096);
  ObsRun legacy = RunFullObs(policy, trace, 2, 2, /*batch_packets=*/1);
  ExpectMetricsMatchReport(batched.runtime->metrics(), batched.report, 2, 2, "batched");
  ExpectMetricsMatchReport(legacy.runtime->metrics(), legacy.report, 2, 2, "legacy");
  EXPECT_EQ(SortedMultiset(batched.vectors), SortedMultiset(legacy.vectors));
  // Per-packet cadence flushes (far) more often for the same totals.
  EXPECT_GT(Value(legacy.runtime->metrics(), "superfe_obs_flushes_total"),
            Value(batched.runtime->metrics(), "superfe_obs_flushes_total"));
}

// A member crash mid-run exercises the failover fences: the dead member's
// buffered deltas must fold at AbandonState(), and the surviving members'
// totals must still reconcile exactly against the fault accounting.
TEST(ObsExactnessTest, ExactUnderMidRunMemberCrash) {
  const Policy policy = ParseSource(kFlowStatsPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, /*seed=*/29);
  auto plan = FaultPlan::Parse("crash member=1 at_packet=5000 detect_ms=2\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  for (uint32_t shards : {1u, 2u}) {
    const std::string label = "crash shards=" + std::to_string(shards);
    RuntimeConfig config;
    config.switch_shards = shards;
    config.worker_threads = 4;
    config.obs.metrics = true;
    config.obs.latency = true;
    config.obs.profile = true;
    config.obs.batch_packets = 4096;
    config.fault.plan = *plan;
    auto runtime = SuperFeRuntime::Create(policy, config);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    CollectingFeatureSink sink;
    const RunReport report = (*runtime)->Run(trace, &sink);
    obs::MetricsRegistry* metrics = (*runtime)->metrics();

    ASSERT_TRUE(report.fault.enabled) << label;
    EXPECT_TRUE(report.fault.reconciled) << label;
    EXPECT_GE(report.fault.stats.members_crashed, 1u) << label;
    ExpectMetricsMatchReport(metrics, report, shards, 4, label);
  }
}

// Captures the switch output once so every cluster sees the same stream.
MgpvRecorder RecordStream(const CompiledPolicy& compiled, const Trace& trace) {
  MgpvRecorder recorder;
  FeSwitch fe(compiled, &recorder);
  for (const auto& pkt : trace.packets()) {
    fe.OnPacket(pkt);
  }
  fe.Flush();
  return recorder;
}

// A sink the test can block, to wedge a worker deterministically.
class GatedSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&&) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    arrived_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
  }

  void WaitForFirst() {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_cv_.wait(lock, [&] { return arrived_ > 0; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable arrived_cv_;
  std::condition_variable open_cv_;
  bool open_ = false;
  int arrived_ = 0;
};

// Flush-deadline path: a missed barrier abandons the wait but the worker
// keeps draining; once the retry barrier completes, the batched counters
// must have caught up to the exact aggregate — the kFlush block flush
// happens before the barrier is released.
TEST(ObsExactnessTest, FlushDeadlineRecoveryStaysExact) {
  auto compiled = Compile(ParseSource(kPerPacketPolicy));
  ASSERT_TRUE(compiled.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 2000, /*seed=*/61);
  const MgpvRecorder stream = RecordStream(*compiled, trace);

  obs::MetricsRegistry metrics;
  GatedSink gate;
  NicClusterOptions options;
  options.parallel = true;
  options.metrics = &metrics;
  options.queue_capacity = 1 << 16;  // Producer never blocks.
  options.obs_batch_packets = 4096;
  auto cluster =
      std::move(NicCluster::Create(*compiled, FeNicConfig{}, 1, &gate, options)).value();

  stream.DeliverTo(*cluster);
  gate.WaitForFirst();  // Worker is wedged mid-report at the gate.
  const Status status = cluster->FlushWithDeadline(50);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);

  gate.Open();  // Un-wedge: the abandoned barrier drains in the background.
  const Status retry = cluster->FlushWithDeadline(0);
  ASSERT_TRUE(retry.ok()) << retry.ToString();

  const FeNicStats stats = cluster->AggregateStats();
  EXPECT_EQ(Value(&metrics, "superfe_nic_cells_total", {{"nic", "0"}}), stats.cells);
  EXPECT_EQ(Value(&metrics, "superfe_nic_reports_total", {{"nic", "0"}}), stats.reports);
  EXPECT_EQ(Value(&metrics, "superfe_nic_vectors_emitted_total", {{"nic", "0"}}),
            stats.vectors_emitted);
  EXPECT_GE(Value(&metrics, "superfe_obs_flushes_total"), 1.0);
}

// Sampler staleness (the batching hazard): the final capture happens after
// every flush fence, so the last point of each sampled series equals the
// exact total even though mid-run points lag by up to one batch.
TEST(ObsSamplerTest, SampledSeriesConvergeToExactTotals) {
  const Policy policy = ParseSource(kFlowStatsPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 12000, /*seed=*/31);
  ObsRun run = RunFullObs(policy, trace, 2, 2, /*batch_packets=*/4096);
  ASSERT_GE(run.report.obs.samples_captured, 1u);

  // The registry's current value IS the converged total (asserted above),
  // so it suffices to check the last sample captured those same values.
  // Search only the metrics JSON's "series" object, which follows the
  // "metrics" array.
  std::ostringstream json;
  ASSERT_TRUE(run.runtime->WriteMetricsJson(json));
  const size_t series_begin = json.str().find("\"series\":");
  ASSERT_NE(series_begin, std::string::npos);
  const std::string out = json.str().substr(series_begin);

  const auto expect_final = [&](const std::string& key, uint64_t want) {
    // The series is ordered; the exact total must appear as a sample value
    // of the key's series (the final capture), formatted as an integer.
    const size_t series_pos = out.find("\"" + key + "\"");
    ASSERT_NE(series_pos, std::string::npos) << key;
    std::ostringstream want_str;
    want_str << "\"" << key << "\": " << static_cast<double>(want);
    EXPECT_NE(out.find(want_str.str(), series_pos), std::string::npos)
        << key << " never reached " << want << " in sampled series";
  };
  expect_final("superfe_replay_packets_total", run.report.offered.packets);

  // The cluster queue-depth gauges were refreshed by the pre-sample hook
  // and read 0 after the flush barrier.
  EXPECT_EQ(Value(run.runtime->metrics(), "superfe_cluster_queue_depth",
                  {{"worker", "0"}}),
            0.0);

  // Max flush lag never exceeded the configured cadence for packet-cadence
  // blocks (worker blocks flush per dequeued batch and report their own
  // batch sizes).
  for (uint32_t s = 0; s < 2; ++s) {
    const auto lag = run.runtime->metrics()->Value(
        "superfe_obs_max_flush_lag_packets", {{"block", "switch-shard-" + std::to_string(s)}});
    ASSERT_TRUE(lag.has_value()) << s;
    EXPECT_LE(*lag, 4096.0) << s;
  }
}

}  // namespace
}  // namespace superfe
