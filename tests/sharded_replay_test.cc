// Tests for the sharded FE-Switch + parallel replay driver: serial-vs-sharded
// feature-multiset equivalence, per-group order preservation under the
// CG-hash partition, queue fast-path/fallback behavior under saturation,
// exact ReplayReport aggregation across shard threads, and metrics-totals
// merging. CI runs this binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/runtime.h"
#include "net/replay.h"
#include "net/trace_gen.h"
#include "nicsim/mpsc_queue.h"
#include "policy/parser.h"
#include "switchsim/group_key.h"

namespace superfe {
namespace {

// CG == FG == flow: every granularity's state is fully nested inside the
// CG-hash partition, so sharding preserves each group's update sequence and
// the per-packet feature stream is bit-identical to the serial reference.
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

Result<Policy> ParseFlowPolicy() { return ParsePolicy("sharded", kFlowStatsPolicy); }

// Host CG over a multi-granularity chain with 2D sibling features at
// channel: the case that diverged under sharding before host/channel keys
// were initiator-oriented (both directions of one flow now share every key,
// so the chain nests inside the CG partition).
const char* kHostCgPolicy = R"(
pktstream
  .groupby(host, channel, socket)
  .map(one, _, f_one)
  .reduce(one, [f_sum], host)
  .reduce(size, [f_mean, f_mag, f_pcc], channel)
  .reduce(size, [f_sum, f_min, f_max], socket)
  .collect(pkt)
)";

// Channel CG: the ordered (initiator, responder) pair partitions the trace.
const char* kChannelCgPolicy = R"(
pktstream
  .groupby(channel, flow)
  .reduce(size, [f_mag, f_pcc], channel)
  .reduce(size, [f_sum, f_mean], flow)
  .collect(flow)
)";

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

// Runs one shape; with `prom`, turns metrics on and exports them there.
std::vector<FeatureVector> RunPipeline(const Policy& policy, const Trace& trace,
                                       uint32_t shards, uint32_t workers,
                                       RunReport* report_out = nullptr, bool pin_threads = false,
                                       std::string* prom = nullptr) {
  RuntimeConfig config;
  config.switch_shards = shards;
  config.worker_threads = workers;
  config.pin_threads = pin_threads;
  config.obs.metrics = prom != nullptr;
  auto runtime = SuperFeRuntime::Create(policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  CollectingFeatureSink sink;
  RunReport report = (*runtime)->Run(trace, &sink);
  if (report_out != nullptr) {
    *report_out = report;
  }
  if (prom != nullptr) {
    std::ostringstream out;
    EXPECT_TRUE((*runtime)->WriteMetricsProm(out));
    *prom = out.str();
  }
  return sink.vectors();
}

std::string ExampleSource(const std::string& name) {
  std::ifstream in(std::string(SUPERFE_SOURCE_DIR) + "/examples/policies/" + name + ".sfe");
  std::stringstream source;
  source << in.rdbuf();
  return source.str();
}

TEST(ShardedReplayTest, FeatureMultisetMatchesSerialReference) {
  auto policy = ParseFlowPolicy();
  ASSERT_TRUE(policy.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 12000, /*seed=*/7);

  RunReport serial_report;
  const auto oracle = SortedMultiset(RunPipeline(*policy, trace, 1, 0, &serial_report));
  ASSERT_FALSE(oracle.empty());

  for (uint32_t shards : {1u, 2u, 4u}) {
    for (uint32_t workers : {0u, 1u, 4u}) {
      RunReport report;
      const auto got = SortedMultiset(RunPipeline(*policy, trace, shards, workers, &report));
      EXPECT_EQ(oracle, got) << "shards=" << shards << " workers=" << workers;
      // Offered-load accounting must aggregate exactly across shard threads.
      EXPECT_EQ(serial_report.offered.packets, report.offered.packets);
      EXPECT_EQ(serial_report.offered.bytes, report.offered.bytes);
      EXPECT_EQ(serial_report.offered.span_min_ns, report.offered.span_min_ns);
      EXPECT_EQ(serial_report.offered.span_max_ns, report.offered.span_max_ns);
      EXPECT_DOUBLE_EQ(serial_report.offered.offered_gbps, report.offered.offered_gbps);
      // Switch/MGPV totals are integer sums over shards of the same stream.
      EXPECT_EQ(serial_report.switch_stats.packets_seen, report.switch_stats.packets_seen);
      EXPECT_EQ(serial_report.switch_stats.packets_batched,
                report.switch_stats.packets_batched);
      EXPECT_EQ(serial_report.mgpv.packets_in, report.mgpv.packets_in);
      EXPECT_EQ(serial_report.mgpv.cells_out, report.mgpv.cells_out);
      EXPECT_EQ(serial_report.nic.cells, report.nic.cells);
      EXPECT_EQ(serial_report.nic.vectors_emitted, report.nic.vectors_emitted);
    }
  }
}

// CSV lines exactly as tools/superfe_run's CsvSink writes them (default
// ostream double formatting), sorted — the byte-level comparison the CI
// export-smoke diff performs.
std::vector<std::string> SortedCsvLines(const std::vector<FeatureVector>& vectors) {
  std::vector<std::string> lines;
  lines.reserve(vectors.size());
  for (const auto& v : vectors) {
    std::ostringstream line;
    line << v.group.ToString() << "," << v.timestamp_ns;
    for (double value : v.values) {
      line << "," << value;
    }
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The acceptance-criteria matrix: a bidirectional trace replayed through
// every shard/worker shape must match the serial oracle byte-for-byte
// (after sort) for host-, channel-, and flow-CG policies. No granularity
// exemptions: initiator-oriented keys make the whole chain nest inside the
// CG partition. The shipped example policies of each CG granularity run the
// same matrix over superfe_run's default ENTERPRISE trace (20k packets,
// seed 1), plus a 4 x 4 shape with pinned threads; the 4 x 4 shapes export
// metrics, whose switch counters carry a {shard=...} label.
TEST(ShardedReplayTest, BidirectionalTraceExactForEveryCgGranularity) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 6000, /*seed=*/13);
  const Trace example_trace = GenerateTrace(EnterpriseProfile(), 20000, /*seed=*/1);
  // The profile generates request/response traffic on the same sockets;
  // make sure both directions are actually present.
  for (const Trace* t : {&trace, &example_trace}) {
    uint64_t backward = 0;
    for (const auto& pkt : t->packets()) {
      backward += pkt.direction == Direction::kBackward ? 1 : 0;
    }
    ASSERT_GT(backward, 0u);
    ASSERT_LT(backward, t->size());
  }

  const std::string basic_stats = ExampleSource("basic_stats");
  const std::string channel_stats = ExampleSource("channel_stats");
  const std::string multi_granularity = ExampleSource("multi_granularity");
  const struct {
    const char* name;
    const char* source;
    const Trace* trace;
    bool pinned;  // Also run the pinned-threads 4 x 4 shape.
  } policies[] = {{"host-cg", kHostCgPolicy, &trace, false},
                  {"channel-cg", kChannelCgPolicy, &trace, false},
                  {"flow-cg", kFlowStatsPolicy, &trace, false},
                  {"basic_stats", basic_stats.c_str(), &example_trace, true},
                  {"channel_stats", channel_stats.c_str(), &example_trace, true},
                  {"multi_granularity", multi_granularity.c_str(), &example_trace, true}};
  for (const auto& p : policies) {
    auto policy = ParsePolicy(p.name, p.source);
    ASSERT_TRUE(policy.ok()) << p.name << ": " << policy.status().ToString();

    const auto oracle_vectors = RunPipeline(*policy, *p.trace, 1, 0);
    ASSERT_FALSE(oracle_vectors.empty()) << p.name;
    const auto oracle_multiset = SortedMultiset(oracle_vectors);
    const auto oracle_csv = SortedCsvLines(oracle_vectors);

    for (uint32_t shards : {1u, 2u, 4u}) {
      for (uint32_t workers : {0u, 1u, 4u}) {
        for (bool pinned : {false, true}) {
          if (pinned && !(p.pinned && shards == 4 && workers == 4)) {
            continue;
          }
          std::string prom;
          const bool export_metrics = shards == 4 && workers == 4;
          const auto got = RunPipeline(*policy, *p.trace, shards, workers, nullptr, pinned,
                                       export_metrics ? &prom : nullptr);
          const std::string shape = std::string(p.name) + " shards=" + std::to_string(shards) +
                                    " workers=" + std::to_string(workers) +
                                    (pinned ? " pinned" : "");
          EXPECT_EQ(oracle_multiset, SortedMultiset(got)) << shape;
          EXPECT_EQ(oracle_csv, SortedCsvLines(got)) << shape;
          if (export_metrics) {
            EXPECT_NE(prom.find("\nsuperfe_switch_packets_seen_total{shard="), std::string::npos)
                << shape;
          }
        }
      }
    }
  }
}

// Key symmetry at the routing layer: the forward and backward packets of a
// flow select the same shard for every shard count and every granularity.
TEST(ShardedReplayTest, BothDirectionsSelectTheSameShard) {
  PacketRecord fwd;
  fwd.tuple = {MakeIp(172, 16, 4, 9), MakeIp(10, 9, 8, 7), 50123, 443, kProtoTcp};
  fwd.direction = Direction::kForward;
  PacketRecord bwd;
  bwd.tuple = fwd.tuple.Reversed();
  bwd.direction = Direction::kBackward;

  for (Granularity g : {Granularity::kHost, Granularity::kChannel, Granularity::kSocket,
                        Granularity::kFlow}) {
    const uint32_t fwd_hash = InitiatorKey::Of(fwd).Hash(g);
    const uint32_t bwd_hash = InitiatorKey::Of(bwd).Hash(g);
    EXPECT_EQ(fwd_hash, bwd_hash) << GranularityName(g);
    for (uint32_t shards : {2u, 3u, 4u, 7u}) {
      EXPECT_EQ(fwd_hash % shards, bwd_hash % shards)
          << GranularityName(g) << " shards=" << shards;
    }
  }
}

// Failover routing keys on the CG hash, so after a member crash both
// directions of a flow make identical routing decisions — the group fails
// over as a unit instead of splitting across survivors.
TEST(ShardedReplayTest, FailoverRoutesBothDirectionsTogether) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kMemberCrash;
  crash.target = 1;
  crash.at_ns = 1'000'000;
  crash.detect_ns = 0;  // Detected immediately: reroutes, no in-flight loss.
  plan.Add(crash);
  FaultInjector injector(plan);
  const uint32_t kMembers = 4;
  injector.BeginRun(kMembers);

  PacketRecord fwd;
  fwd.direction = Direction::kForward;
  PacketRecord bwd;
  bwd.direction = Direction::kBackward;
  int rerouted = 0;
  for (uint32_t host = 0; host < 64; ++host) {
    fwd.tuple = {MakeIp(10, 0, 0, 1) + host, MakeIp(192, 168, 1, 1) + host, 1000, 80,
                 kProtoTcp};
    bwd.tuple = fwd.tuple.Reversed();
    for (Granularity g : {Granularity::kHost, Granularity::kChannel}) {
      const uint32_t fwd_hash = InitiatorKey::Of(fwd).Hash(g);
      const uint32_t bwd_hash = InitiatorKey::Of(bwd).Hash(g);
      ASSERT_EQ(fwd_hash, bwd_hash) << GranularityName(g);
      const auto f =
          injector.RouteFor(fwd_hash % kMembers, fwd_hash, /*evict_ns=*/2'000'000, kMembers);
      const auto b =
          injector.RouteFor(bwd_hash % kMembers, bwd_hash, /*evict_ns=*/2'000'000, kMembers);
      EXPECT_EQ(static_cast<int>(f.action), static_cast<int>(b.action));
      EXPECT_EQ(f.target, b.target);
      if (f.action == FaultInjector::RouteDecision::Action::kReroute) {
        ++rerouted;
        EXPECT_NE(f.target, 1u);  // Never to the dead member.
      }
    }
  }
  EXPECT_GT(rerouted, 0);  // The crashed member's hash range actually moved.
}

TEST(ShardedReplayTest, AmplifiedReplayStaysEquivalent) {
  auto policy = ParseFlowPolicy();
  ASSERT_TRUE(policy.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 4000, /*seed=*/11);

  const auto run = [&](uint32_t shards, uint32_t workers) {
    RuntimeConfig config;
    config.switch_shards = shards;
    config.worker_threads = workers;
    config.replay.amplification = 3;
    auto runtime = SuperFeRuntime::Create(*policy, config);
    EXPECT_TRUE(runtime.ok());
    CollectingFeatureSink sink;
    (*runtime)->Run(trace, &sink);
    return SortedMultiset(sink.vectors());
  };
  const auto oracle = run(1, 0);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(oracle, run(4, 0));
  EXPECT_EQ(oracle, run(2, 2));
}

// ---------------------------------------------------------------------------
// ParallelReplay: partition and ordering.

class RecordingSink : public PacketSink {
 public:
  void OnPacket(const PacketRecord& packet) override { packets_.push_back(packet); }
  const std::vector<PacketRecord>& packets() const { return packets_; }

 private:
  std::vector<PacketRecord> packets_;
};

std::string CgKeyOf(const PacketRecord& pkt) {
  const GroupKey key = GroupKey::Of(InitiatorKey::Of(pkt), Granularity::kFlow);
  return std::string(key.bytes.begin(), key.bytes.begin() + key.length);
}

TEST(ShardedReplayTest, PerGroupOrderPreservedUnderSharding) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 6000, /*seed=*/3);
  ReplayOptions options;
  options.amplification = 2;

  RecordingSink serial;
  const ReplayReport serial_report = Replay(trace, options, serial);

  const uint32_t kShards = 4;
  std::vector<RecordingSink> shard_sinks(kShards);
  std::vector<PacketSink*> sinks;
  for (auto& s : shard_sinks) {
    sinks.push_back(&s);
  }
  const auto shard_of = [](const PacketRecord& pkt) {
    return InitiatorKey::Of(pkt).Hash(Granularity::kFlow) % 4;
  };
  const ReplayReport sharded_report =
      ParallelReplay(trace, options, sinks, /*shard_obs=*/{}, shard_of);

  EXPECT_EQ(serial_report.packets, sharded_report.packets);
  EXPECT_EQ(serial_report.bytes, sharded_report.bytes);
  EXPECT_EQ(serial_report.span_min_ns, sharded_report.span_min_ns);
  EXPECT_EQ(serial_report.span_max_ns, sharded_report.span_max_ns);

  // Serial per-group subsequences (timestamps identify packets: replicas and
  // packets are interleaved deterministically by the replayer).
  std::map<std::string, std::vector<uint64_t>> serial_by_group;
  for (const auto& pkt : serial.packets()) {
    serial_by_group[CgKeyOf(pkt)].push_back(pkt.timestamp_ns);
  }
  std::map<std::string, std::vector<uint64_t>> sharded_by_group;
  std::map<std::string, uint32_t> owner;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (const auto& pkt : shard_sinks[s].packets()) {
      const std::string key = CgKeyOf(pkt);
      const auto [it, inserted] = owner.emplace(key, s);
      // A group never spans shards.
      EXPECT_EQ(it->second, s) << "group split across shards";
      sharded_by_group[key].push_back(pkt.timestamp_ns);
    }
  }
  EXPECT_EQ(serial_by_group, sharded_by_group);
}

TEST(ShardedReplayTest, ReplayReportMergeIsExact) {
  ReplayReport total;
  ReplayReport a;
  a.packets = 3;
  a.bytes = 300;
  a.span_min_ns = 50;
  a.span_max_ns = 2'000'000'050;
  ReplayReport b;
  b.packets = 5;
  b.bytes = 700;
  b.span_min_ns = 10;
  b.span_max_ns = 1'000'000'000;
  total.MergeFrom(a);
  total.MergeFrom(b);
  total.FinalizeRates();
  EXPECT_EQ(total.packets, 8u);
  EXPECT_EQ(total.bytes, 1000u);
  EXPECT_EQ(total.span_min_ns, 10u);
  EXPECT_EQ(total.span_max_ns, 2'000'000'050u);
  EXPECT_DOUBLE_EQ(total.duration_s, 2.00000004);
  EXPECT_GT(total.offered_mpps, 0.0);

  ReplayReport empty;
  empty.FinalizeRates();
  EXPECT_EQ(empty.duration_s, 0.0);
  EXPECT_EQ(empty.offered_gbps, 0.0);
}

// ---------------------------------------------------------------------------
// BoundedMpscQueue: lock-free fast path, saturation fallback, control barrier.

TEST(BoundedMpscQueueTest, SpscFastPathDeliversInOrder) {
  BoundedMpscQueue<int> queue(64);
  constexpr int kItems = 10000;
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_EQ(queue.Pop(), i);  // SPSC ring is FIFO.
    }
  });
  for (int i = 0; i < kItems; ++i) {
    queue.PushBlocking(int(i));
  }
  consumer.join();
  EXPECT_EQ(queue.fast_pushes() + queue.blocked_pushes(), static_cast<uint64_t>(kItems));
}

TEST(BoundedMpscQueueTest, SaturationFallbackIsLossless) {
  BoundedMpscQueue<int> queue(4);  // Tiny ring: forces the mutex fallback.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.PushBlocking(p * kPerProducer + i);
      }
    });
  }
  std::vector<int> received;
  received.reserve(kProducers * kPerProducer);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    received.push_back(queue.Pop());
  }
  for (auto& t : producers) {
    t.join();
  }
  std::sort(received.begin(), received.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(received[i], i);  // Every value exactly once: lossless.
  }
  EXPECT_EQ(queue.fast_pushes() + queue.blocked_pushes(),
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_GE(queue.high_watermark(), queue.capacity());
}

TEST(BoundedMpscQueueTest, TryPushRespectsCapacityBound) {
  BoundedMpscQueue<int> queue(4);
  ASSERT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.TryPush(int(i)));
  }
  EXPECT_FALSE(queue.TryPush(99));  // Ring full, no consumer.
  EXPECT_EQ(queue.Pop(), 0);
  EXPECT_TRUE(queue.TryPush(4));  // Freed slot is reusable.
  EXPECT_EQ(queue.size(), 4u);
}

TEST(BoundedMpscQueueTest, ControlBypassesBoundAndOrdersAfterOwnData) {
  BoundedMpscQueue<int> queue(8);
  // Fill the ring, then push control messages: they must not block and must
  // be delivered only after all data pushed before them.
  for (int i = 0; i < 8; ++i) {
    queue.PushBlocking(int(i));
  }
  queue.PushUnbounded(1000);
  queue.PushUnbounded(1001);
  EXPECT_EQ(queue.size(), 10u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(queue.Pop(), i);
  }
  EXPECT_EQ(queue.Pop(), 1000);
  EXPECT_EQ(queue.Pop(), 1001);
  // A control pushed with an empty ring is deliverable immediately, and
  // data pushed *after* it comes later.
  queue.PushUnbounded(2000);
  queue.PushBlocking(42);
  EXPECT_EQ(queue.Pop(), 2000);
  EXPECT_EQ(queue.Pop(), 42);
}

TEST(BoundedMpscQueueTest, ControlBarrierHoldsUnderConcurrency) {
  // One producer streams data then a control sentinel, while the consumer
  // runs concurrently: the sentinel must arrive after every data item the
  // producer pushed before it, across many rounds.
  BoundedMpscQueue<int> queue(8);
  constexpr int kRounds = 200;
  constexpr int kPerRound = 37;
  std::thread producer([&] {
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kPerRound; ++i) {
        queue.PushBlocking(r * kPerRound + i);
      }
      queue.PushUnbounded(-(r + 1));  // Control sentinel for round r.
    }
  });
  int max_data_seen = -1;
  int controls_seen = 0;
  for (int n = 0; n < kRounds * (kPerRound + 1); ++n) {
    const int v = queue.Pop();
    if (v < 0) {
      const int round = -v - 1;
      EXPECT_EQ(round, controls_seen);  // Controls in order.
      // Every data item of this round precedes its control sentinel.
      EXPECT_GE(max_data_seen, (round + 1) * kPerRound - 1);
      ++controls_seen;
    } else {
      max_data_seen = std::max(max_data_seen, v);
    }
  }
  producer.join();
  EXPECT_EQ(controls_seen, kRounds);
}

// ---------------------------------------------------------------------------
// Observability merging.

TEST(ShardedReplayTest, ShardedMetricsTotalsMatchUnsharded) {
  auto policy = ParseFlowPolicy();
  ASSERT_TRUE(policy.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 8000, /*seed=*/5);

  const auto run = [&](uint32_t shards, uint32_t workers, RunReport* report,
                       std::unique_ptr<SuperFeRuntime>* runtime_out) {
    RuntimeConfig config;
    config.switch_shards = shards;
    config.worker_threads = workers;
    config.obs.metrics = true;
    config.obs.latency = true;
    auto runtime = SuperFeRuntime::Create(*policy, config);
    ASSERT_TRUE(runtime.ok());
    CollectingFeatureSink sink;
    *report = (*runtime)->Run(trace, &sink);
    *runtime_out = std::move(runtime).value();
  };

  RunReport serial_report;
  std::unique_ptr<SuperFeRuntime> serial_rt;
  run(1, 0, &serial_report, &serial_rt);
  RunReport sharded_report;
  std::unique_ptr<SuperFeRuntime> sharded_rt;
  run(4, 2, &sharded_report, &sharded_rt);

  const obs::MetricsRegistry& serial_reg = *serial_rt->metrics();
  const obs::MetricsRegistry& sharded_reg = *sharded_rt->metrics();

  // Shared counters (one family, all shard threads increment the same
  // handles): totals equal the unsharded run's exactly.
  for (const char* name :
       {"superfe_mgpv_packets_in_total", "superfe_mgpv_cells_out_total",
        "superfe_replay_packets_total", "superfe_replay_bytes_total"}) {
    const auto serial_v = serial_reg.Value(name);
    const auto sharded_v = sharded_reg.Value(name);
    ASSERT_TRUE(serial_v.has_value()) << name;
    ASSERT_TRUE(sharded_v.has_value()) << name;
    EXPECT_EQ(*serial_v, *sharded_v) << name;
  }

  // Per-shard labeled switch counters sum to the unsharded (unlabeled) total.
  const auto serial_seen = serial_reg.Value("superfe_switch_packets_seen_total");
  ASSERT_TRUE(serial_seen.has_value());
  double sharded_seen = 0.0;
  for (int s = 0; s < 4; ++s) {
    const auto v = sharded_reg.Value("superfe_switch_packets_seen_total",
                                     {{"shard", std::to_string(s)}});
    ASSERT_TRUE(v.has_value()) << "shard " << s;
    sharded_seen += *v;
  }
  EXPECT_EQ(*serial_seen, sharded_seen);

  // Latency lanes merge consistently: residency is observed once per MGPV
  // eviction and end-to-end once per report, across all shard lanes. (Batch
  // *boundaries* may legally differ from the serial run — each shard runs
  // its own aging scan and long-buffer pool — so only conservation laws are
  // compared across runs, not per-batch populations.)
  uint64_t sharded_evictions = 0;
  for (int i = 0; i < 5; ++i) {
    sharded_evictions += sharded_report.mgpv.evictions[i];
  }
  EXPECT_EQ(sharded_report.latency.mgpv_residency.count, sharded_evictions);
  EXPECT_EQ(sharded_report.latency.end_to_end.count, sharded_report.nic.reports);
  EXPECT_TRUE(sharded_report.latency.enabled);

  // Cluster cost reporting is populated for the cluster run only.
  EXPECT_FALSE(serial_report.cluster_cost.enabled);
  ASSERT_TRUE(sharded_report.cluster_cost.enabled);
  EXPECT_EQ(sharded_report.cluster_cost.members, 2u);
  EXPECT_EQ(sharded_report.cluster_cost.per_member.size(), 2u);
  uint64_t member_cells = 0;
  double share_sum = 0.0;
  for (const auto& m : sharded_report.cluster_cost.per_member) {
    member_cells += m.cells;
    share_sum += m.cells_share;
  }
  EXPECT_EQ(member_cells, sharded_report.nic.cells);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_GE(sharded_report.cluster_cost.load_imbalance, 1.0);
}

}  // namespace
}  // namespace superfe
