// Chaos tests for the deterministic fault-injection framework
// (docs/ROBUSTNESS.md): the full fault-kind x shards x workers matrix with
// exact multiset reconciliation, per-group order across degraded-mode
// failover, watchdog stall detection, flush deadlines, bounded push
// timeouts, MGPV graceful overload, and bit-reproducibility of seeded
// plans. CI runs this binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/runtime.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "nicsim/mgpv_recorder.h"
#include "nicsim/nic_cluster.h"
#include "net/trace_gen.h"
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

// Per-packet emission: every cell produces a vector, so the sink sees the
// exact per-group processing order.
const char* kPerPacketPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum])
  .collect(pkt)
)";

CompiledPolicy CompileSource(const std::string& source) {
  auto policy = ParsePolicy("fault", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  auto compiled = Compile(*policy);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
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

RunReport RunWithPlan(const RuntimeConfig& config, const Trace& trace,
                      CollectingFeatureSink* sink) {
  auto policy = ParsePolicy("fault-rt", kFlowStatsPolicy);
  EXPECT_TRUE(policy.ok());
  auto runtime = SuperFeRuntime::Create(*policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return (*runtime)->Run(trace, sink);
}

// The reconciliation invariant every chaos run must satisfy exactly.
void ExpectReconciled(const RunReport& report, const std::string& label) {
  ASSERT_TRUE(report.fault.enabled) << label;
  const FaultStats& fs = report.fault.stats;
  EXPECT_TRUE(report.fault.reconciled)
      << label << ": offered " << fs.cells_offered << " != processed "
      << report.fault.cells_processed << " + shed " << fs.cells_shed << " + lost "
      << fs.cells_lost_to_failover << " + overflow " << report.fault.overflow_cells_dropped;
}

TEST(FaultPlanTest, ParseRoundTrips) {
  const char* text = R"(
# chaos plan
crash member=1 at_packet=5000 detect_ms=2
stall member=0 at_ms=10 wall_ms=50
queue_sat member=2 at_packet=2000 dur_ms=5
pool_exhaust shard=0 at_ms=1 dur_ms=5
clock_skew shard=1 at_ms=0 skew_us=300
)";
  auto plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->size(), 5u);
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*plan, *reparsed);
}

TEST(FaultPlanTest, BadPlansRejected) {
  EXPECT_FALSE(FaultPlan::Parse("explode member=0").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash bogus_key=1").ok());
  auto empty = FaultPlan::Parse("# only comments\n\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministic) {
  const FaultPlan a = FaultPlan::Random(42, 4, 2, 50'000'000, 6);
  const FaultPlan b = FaultPlan::Random(42, 4, 2, 50'000'000, 6);
  const FaultPlan c = FaultPlan::Random(43, 4, 2, 50'000'000, 6);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.size(), 6u);
}

// The tentpole matrix: every fault kind x shards {1,2,4} x workers {0,1,4}.
// Every combination must complete and reconcile exactly.
class ChaosMatrixTest
    : public ::testing::TestWithParam<std::tuple<FaultKind, uint32_t, uint32_t>> {};

TEST_P(ChaosMatrixTest, CompletesAndReconciles) {
  const auto [kind, shards, workers] = GetParam();
  const std::string label = std::string(FaultKindName(kind)) + "/shards=" +
                            std::to_string(shards) + "/workers=" + std::to_string(workers);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 7);
  const uint32_t members = std::max<uint32_t>(workers, 1);

  FaultEvent event;
  event.kind = kind;
  switch (kind) {
    case FaultKind::kMemberCrash:
      event.target = members > 1 ? 1 : 0;
      event.at_packet = 5000;
      event.detect_ns = 2'000'000;
      break;
    case FaultKind::kWorkerStall:
      event.target = 0;
      event.at_ns = 0;
      event.stall_wall_ms = 5;
      break;
    case FaultKind::kQueueSaturation:
      event.target = 0;
      event.at_packet = 10000;
      event.duration_ns = 0;  // Open-ended: guaranteed to bite.
      break;
    case FaultKind::kPoolExhaustion:
      event.target = 0;
      event.at_ns = 0;
      event.duration_ns = 0;  // Open-ended.
      break;
    case FaultKind::kClockSkew:
      event.target = 0;
      event.at_ns = 0;
      event.skew_ns = 250'000;
      break;
  }

  RuntimeConfig config;
  config.worker_threads = workers;
  config.switch_shards = shards;
  config.fault.plan.Add(event);
  CollectingFeatureSink sink;
  const RunReport report = RunWithPlan(config, trace, &sink);
  ExpectReconciled(report, label);
  // Cluster cost describes worker threads; the inline member of a serial
  // run reports none, with or without a fault plan.
  EXPECT_EQ(report.cluster_cost.enabled, workers > 0) << label;
  EXPECT_EQ(report.cluster_cost.members, workers) << label;
  const FaultStats& fs = report.fault.stats;
  switch (kind) {
    case FaultKind::kMemberCrash:
      EXPECT_EQ(fs.members_crashed, 1u) << label;
      EXPECT_GT(fs.cells_shed + fs.cells_failed_over + fs.cells_lost_to_failover, 0u)
          << label;
      EXPECT_TRUE(report.fault.degraded) << label;
      break;
    case FaultKind::kWorkerStall:
      // Stalls only fire on queued (parallel) workers with traffic.
      if (workers > 0) {
        EXPECT_EQ(fs.stalls_injected, 1u) << label;
      }
      break;
    case FaultKind::kQueueSaturation:
      EXPECT_GT(fs.saturated_pushes, 0u) << label;
      EXPECT_GT(fs.cells_shed, 0u) << label;
      EXPECT_TRUE(report.fault.degraded) << label;
      break;
    case FaultKind::kPoolExhaustion:
      EXPECT_GT(fs.injected_pool_exhaustions, 0u) << label;
      EXPECT_EQ(report.mgpv.injected_pool_failures, fs.injected_pool_exhaustions) << label;
      EXPECT_TRUE(report.fault.degraded) << label;
      break;
    case FaultKind::kClockSkew:
      // Skew perturbs only the measurement clock: nothing shed or lost.
      EXPECT_EQ(fs.cells_shed, 0u) << label;
      EXPECT_EQ(fs.cells_lost_to_failover, 0u) << label;
      EXPECT_FALSE(report.fault.degraded) << label;
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ChaosMatrixTest,
    ::testing::Combine(::testing::Values(FaultKind::kMemberCrash, FaultKind::kWorkerStall,
                                         FaultKind::kQueueSaturation,
                                         FaultKind::kPoolExhaustion, FaultKind::kClockSkew),
                       ::testing::Values(1u, 2u, 4u), ::testing::Values(0u, 1u, 4u)),
    [](const auto& info) {
      return std::string(FaultKindName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

TEST(FaultDeterminismTest, SeededPlanIsBitReproducible) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 15000, 11);
  const FaultPlan plan = FaultPlan::Random(5, 4, 2, 50'000'000, 5);

  auto run_once = [&](FaultStats* stats, std::vector<VectorKey>* vectors) {
    RuntimeConfig config;
    config.worker_threads = 4;
    config.switch_shards = 2;
    config.fault.plan = plan;
    CollectingFeatureSink sink;
    const RunReport report = RunWithPlan(config, trace, &sink);
    ExpectReconciled(report, "seeded");
    *stats = report.fault.stats;
    *vectors = SortedMultiset(sink.vectors());
  };

  FaultStats first, second;
  std::vector<VectorKey> first_vectors, second_vectors;
  run_once(&first, &first_vectors);
  run_once(&second, &second_vectors);

  // The determinism contract: all reconciliation fields and the surviving
  // feature multiset are identical across repeats (wall-clock diagnostics
  // like watchdog_stall_events are explicitly exempt).
  EXPECT_EQ(first.reports_offered, second.reports_offered);
  EXPECT_EQ(first.cells_offered, second.cells_offered);
  EXPECT_EQ(first.reports_shed, second.reports_shed);
  EXPECT_EQ(first.cells_shed, second.cells_shed);
  EXPECT_EQ(first.reports_lost_to_failover, second.reports_lost_to_failover);
  EXPECT_EQ(first.cells_lost_to_failover, second.cells_lost_to_failover);
  EXPECT_EQ(first.reports_failed_over, second.reports_failed_over);
  EXPECT_EQ(first.cells_failed_over, second.cells_failed_over);
  EXPECT_EQ(first.groups_lost_in_flight, second.groups_lost_in_flight);
  EXPECT_EQ(first.groups_failed_over, second.groups_failed_over);
  EXPECT_EQ(first.groups_abandoned, second.groups_abandoned);
  EXPECT_EQ(first.members_crashed, second.members_crashed);
  EXPECT_EQ(first.injected_pool_exhaustions, second.injected_pool_exhaustions);
  EXPECT_EQ(first.saturated_pushes, second.saturated_pushes);
  EXPECT_EQ(first_vectors, second_vectors);
}

TEST(FaultDeterminismTest, EmptyPlanMatchesBaselineExactly) {
  // Zero-overhead-when-disabled: an empty plan creates no injector, so the
  // run must be identical to one with no fault config at all — even with
  // the flush/watchdog knobs armed.
  const Trace trace = GenerateTrace(EnterpriseProfile(), 15000, 23);
  auto policy = ParsePolicy("fault-base", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());

  RuntimeConfig baseline_config;
  baseline_config.worker_threads = 2;
  auto baseline_rt = SuperFeRuntime::Create(*policy, baseline_config);
  ASSERT_TRUE(baseline_rt.ok());
  CollectingFeatureSink baseline_sink;
  const RunReport baseline = (*baseline_rt)->Run(trace, &baseline_sink);

  RuntimeConfig armed_config;
  armed_config.worker_threads = 2;
  armed_config.fault.flush_timeout_ms = 5000;
  armed_config.fault.watchdog_interval_ms = 10;
  auto armed_rt = SuperFeRuntime::Create(*policy, armed_config);
  ASSERT_TRUE(armed_rt.ok());
  EXPECT_EQ((*armed_rt)->fault_injector(), nullptr);
  CollectingFeatureSink armed_sink;
  const RunReport armed = (*armed_rt)->Run(trace, &armed_sink);

  EXPECT_FALSE(armed.fault.enabled);
  EXPECT_EQ(SortedMultiset(baseline_sink.vectors()), SortedMultiset(armed_sink.vectors()));
  EXPECT_EQ(baseline.nic.cells, armed.nic.cells);
  EXPECT_EQ(baseline.nic.vectors_emitted, armed.nic.vectors_emitted);
  EXPECT_EQ(baseline.mgpv.reports_out, armed.mgpv.reports_out);
  EXPECT_EQ(baseline.mgpv.evictions[0], armed.mgpv.evictions[0]);
}

TEST(FaultChaosTest, RandomPlansAlwaysReconcile) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 12000, 31);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RuntimeConfig config;
    config.worker_threads = 4;
    config.switch_shards = 2;
    config.fault.plan = FaultPlan::Random(seed, 4, 2, 50'000'000, 4);
    CollectingFeatureSink sink;
    const RunReport report = RunWithPlan(config, trace, &sink);
    ExpectReconciled(report, "seed=" + std::to_string(seed));
  }
}

// --- Direct NicCluster tests: failover ordering, watchdog, deadlines ---

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

TEST(FaultFailoverTest, PerGroupOrderPreservedAcrossFailover) {
  const CompiledPolicy compiled = CompileSource(kPerPacketPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 41);
  const MgpvRecorder stream = RecordStream(compiled, trace);

  // Crash member 0 at the median eviction time with a short detection
  // window: a healthy mix of primary, lost-in-flight, and failed-over
  // reports.
  std::vector<uint64_t> evict_times;
  for (const auto& msg : stream.messages()) {
    if (msg.kind == MgpvRecorder::Message::Kind::kReport) {
      evict_times.push_back(msg.report.evict_ns);
    }
  }
  ASSERT_GT(evict_times.size(), 100u);
  std::sort(evict_times.begin(), evict_times.end());
  const uint64_t crash_ns = evict_times[evict_times.size() / 2];

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kMemberCrash;
  crash.target = 0;
  crash.at_ns = crash_ns;
  crash.detect_ns = 500'000;
  plan.Add(crash);
  FaultInjector injector(plan);
  injector.BeginRun(3);

  CollectingFeatureSink sink;
  NicClusterOptions options;
  options.parallel = true;
  options.injector = &injector;
  auto cluster =
      std::move(NicCluster::Create(compiled, FeNicConfig{}, 3, &sink, options)).value();
  stream.DeliverTo(*cluster);
  cluster->Flush();

  const FaultStats fs = injector.Snapshot();
  EXPECT_EQ(fs.members_crashed, 1u);
  EXPECT_GT(fs.reports_failed_over, 0u);
  EXPECT_GT(fs.failover_fences, 0u);
  // Exact reconciliation with the cluster's processed cells (lossless
  // queues: no overflow bucket).
  EXPECT_EQ(fs.cells_offered, cluster->AggregateStats().cells + fs.cells_shed +
                                  fs.cells_lost_to_failover);

  // Per-group order: the serialized sink sees each group's vectors in
  // processing order, and per-packet timestamps are produced in
  // non-decreasing order per group — any overtaking across the handoff
  // would show up as a timestamp regression.
  std::unordered_map<std::string, uint64_t> last_ts;
  size_t checked = 0;
  for (const auto& v : sink.vectors()) {
    std::string key(v.group.bytes.begin(), v.group.bytes.begin() + v.group.length);
    auto [it, inserted] = last_ts.emplace(std::move(key), v.timestamp_ns);
    if (!inserted) {
      EXPECT_GE(v.timestamp_ns, it->second) << "group order violated after failover";
      it->second = v.timestamp_ns;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(FaultWatchdogTest, DetectsInjectedStall) {
  const CompiledPolicy compiled = CompileSource(kPerPacketPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 8000, 51);
  const MgpvRecorder stream = RecordStream(compiled, trace);

  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 0;
  stall.at_ns = 0;  // First report.
  stall.stall_wall_ms = 200;
  plan.Add(stall);
  FaultInjector injector(plan);
  injector.BeginRun(1);

  CollectingFeatureSink sink;
  NicClusterOptions options;
  options.parallel = true;
  options.injector = &injector;
  options.enqueue_batch = 1;  // Keep the queue visibly non-empty.
  options.watchdog_interval_ms = 5;
  options.watchdog_timeout_ms = 20;
  auto cluster =
      std::move(NicCluster::Create(compiled, FeNicConfig{}, 1, &sink, options)).value();
  stream.DeliverTo(*cluster);
  cluster->Flush();

  const FaultStats fs = injector.Snapshot();
  EXPECT_EQ(fs.stalls_injected, 1u);
  // The worker slept 200 ms with a loaded queue; the 20 ms watchdog must
  // have latched at least one stall event.
  EXPECT_GE(fs.watchdog_stall_events, 1u);
  // The stall delayed but lost nothing.
  EXPECT_EQ(fs.cells_offered, cluster->AggregateStats().cells);
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

TEST(FaultDeadlineTest, FlushDeadlineExceededThenRecovers) {
  const CompiledPolicy compiled = CompileSource(kPerPacketPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 2000, 61);
  const MgpvRecorder stream = RecordStream(compiled, trace);

  FaultInjector injector{FaultPlan{}};  // Empty plan: accounting only.
  injector.BeginRun(1);
  GatedSink gate;
  NicClusterOptions options;
  options.parallel = true;
  options.injector = &injector;
  options.queue_capacity = 1 << 16;  // Producer never blocks.
  auto cluster =
      std::move(NicCluster::Create(compiled, FeNicConfig{}, 1, &gate, options)).value();

  stream.DeliverTo(*cluster);
  gate.WaitForFirst();  // Worker is wedged mid-report at the gate.
  const Status status = cluster->FlushWithDeadline(50);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(injector.Snapshot().flush_deadline_exceeded, 1u);

  gate.Open();  // Un-wedge: the abandoned barrier drains in the background.
  const Status retry = cluster->FlushWithDeadline(0);
  EXPECT_TRUE(retry.ok()) << retry.ToString();
}

TEST(FaultDeadlineTest, BoundedPushTimesOutInsteadOfBlockingForever) {
  const CompiledPolicy compiled = CompileSource(kPerPacketPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 3000, 71);
  const MgpvRecorder stream = RecordStream(compiled, trace);

  GatedSink gate;
  NicClusterOptions options;
  options.parallel = true;
  options.queue_capacity = 2;
  options.enqueue_batch = 1;
  options.push_timeout_ms = 20;  // Without this the delivery would deadlock.
  auto cluster =
      std::move(NicCluster::Create(compiled, FeNicConfig{}, 1, &gate, options)).value();
  stream.DeliverTo(*cluster);  // Completes only because pushes time out.
  const NicWorkerStats mid = cluster->worker_stats(0);
  EXPECT_GT(mid.reports_dropped, 0u);
  EXPECT_GT(mid.cells_dropped, 0u);
  gate.Open();
  cluster->Flush();
}

TEST(FaultMgpvTest, GracefulOverloadShedsPressureInsteadOfFailing) {
  // Starve the long-buffer pool: with graceful overload the cache evicts
  // the stalest long holder under pressure; without it, allocs just fail.
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 81);

  auto run_cache = [&](bool graceful) {
    MgpvConfig config;
    config.short_size = 1;
    config.long_buffers = 2;
    config.aging_timeout_ns = 0;  // Isolate the pressure path.
    config.graceful_overload = graceful;
    MgpvRecorder sink;
    MgpvCache cache(config, &sink);
    for (const auto& pkt : trace.packets()) {
      cache.Insert(pkt);
    }
    cache.Flush();
    return cache.stats();
  };

  const MgpvStats hard = run_cache(false);
  const MgpvStats graceful = run_cache(true);
  EXPECT_GT(hard.long_alloc_failures, 0u);
  EXPECT_EQ(hard.pressure_evictions, 0u);
  EXPECT_GT(graceful.pressure_evictions, 0u);
  EXPECT_LT(graceful.long_alloc_failures, hard.long_alloc_failures);
}

TEST(FaultObsTest, CountersExportedToMetricsRegistry) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 10000, 91);
  auto policy = ParsePolicy("fault-obs", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());

  RuntimeConfig config;
  config.worker_threads = 2;
  config.obs.metrics = true;
  FaultEvent crash;
  crash.kind = FaultKind::kMemberCrash;
  crash.target = 1;
  crash.at_packet = 2000;
  crash.detect_ns = 1'000'000;
  config.fault.plan.Add(crash);
  auto runtime = SuperFeRuntime::Create(*policy, config);
  ASSERT_TRUE(runtime.ok());
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  ExpectReconciled(report, "obs");

  std::ostringstream prom;
  ASSERT_TRUE((*runtime)->WriteMetricsProm(prom));
  EXPECT_NE(prom.str().find("superfe_fault_"), std::string::npos);
}

}  // namespace
}  // namespace superfe
