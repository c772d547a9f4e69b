// perfbench: the repository benchmark.
//
// Runs one named workload through the product entry points
// (ParsePolicy / AppPolicyByName -> SuperFeRuntime::Create -> Run or
// RunDaemon) over a trace generated from --seed, checks every timed rep's
// output against a reference run of a different shape, and prints one JSON
// result line last:
//
//   --trace 0  end-to-end metrics: mpps, setup_s, peak_mem_mb
//   --trace 1  per-layer metrics from a separate traced run, with the
//              closure (overhead and unattributed time) of that trace
//
// perfbench/README.md documents every metric and the per-workload
// predictions; perfbench/run.py builds this binary and runs it.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/policies.h"
#include "common/json_writer.h"
#include "core/runtime.h"
#include "digest.h"
#include "host.h"
#include "net/ingest.h"
#include "net/trace_gen.h"
#include "nicsim/fe_nic.h"
#include "policy/compile.h"
#include "policy/parser.h"
#include "spans.h"
#include "switchsim/fe_switch.h"

namespace perfbench {
namespace {

using superfe::DaemonConfig;
using superfe::DaemonEpoch;
using superfe::DaemonReport;
using superfe::FeatureVector;
using superfe::PacketRecord;
using superfe::PacketSource;
using superfe::Policy;
using superfe::RunReport;
using superfe::RuntimeConfig;
using superfe::SuperFeRuntime;
using superfe::Trace;

struct Workload {
  const char* name;
  superfe::TraceProfile (*profile)();
  const char* policy_file;  // Relative to the repository root; null = app.
  const char* app;          // Table 3 application (AppPolicyByName).
  uint32_t shards;          // Timed shape: switch shards x NIC workers.
  uint32_t workers;
  bool daemon;              // Timed through RunDaemon, else Run.
  size_t trace_packets;     // GenerateTrace target.
  uint64_t epoch_packets;   // Epoch length of every daemon-shape run.
};

// Why each workload exists, and what it predicts, is in perfbench/README.md.
const Workload kWorkloads[] = {
    {"flowstats-mawi", superfe::MawiIxpProfile, "examples/policies/basic_stats.sfe", nullptr,
     1, 0, false, 600000, 65536},
    {"kitsune-campus", superfe::CampusProfile, nullptr, "Kitsune", 1, 0, false, 80000, 8192},
    {"daemon-enterprise", superfe::EnterpriseProfile, "examples/policies/basic_stats.sfe",
     nullptr, 2, 2, true, 1000000, 65536},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string source_digest = "unknown";
  std::string spans_dir;  // Empty = do not write spans.
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        Die("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      Die("unknown flag '" + flag + "'");
    }
  }
  if (args.workload == nullptr || args.seconds <= 0.0) {
    Die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--root DIR]");
  }
  return args;
}

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Set-up: policy text -> runtime ready for packets.

superfe::Result<Policy> LoadPolicy(const Workload& w, const std::string& text) {
  if (w.app != nullptr) {
    auto app = superfe::AppPolicyByName(w.app);
    if (!app.ok()) {
      return app.status();
    }
    return std::move(app).value().policy;
  }
  return superfe::ParsePolicy(w.name, text);
}

struct Setup {
  std::unique_ptr<SuperFeRuntime> runtime;
  double seconds = 0.0;
};

Setup MakeRuntime(const Workload& w, const std::string& text, uint32_t shards,
                  uint32_t workers) {
  const uint64_t start = NowNs();
  auto policy = LoadPolicy(w, text);
  if (!policy.ok()) {
    Die("policy: " + policy.status().ToString());
  }
  RuntimeConfig config;
  config.switch_shards = shards;
  config.worker_threads = workers;
  auto runtime = SuperFeRuntime::Create(policy.value(), config);
  if (!runtime.ok()) {
    Die("SuperFeRuntime::Create: " + runtime.status().ToString());
  }
  Setup s;
  s.runtime = std::move(runtime).value();
  s.seconds = SecondsSince(start);
  return s;
}

// ---------------------------------------------------------------------------
// Output checks shared by every run shape.

// Empty when the run lost nothing and its digest matches `want`.
std::string CheckRun(const RunReport& r, const SuperFeRuntime& rt, uint64_t expected_packets,
                     const Digest& got, const Digest& want) {
  if (got != want) {
    return "digest " + got.ToString() + " != reference " + want.ToString();
  }
  if (r.offered.packets != expected_packets || r.switch_stats.packets_seen != expected_packets) {
    return "replayed " + std::to_string(r.offered.packets) + " of " +
           std::to_string(expected_packets) + " packets";
  }
  if (r.mgpv.cells_out != r.nic.cells) {
    return "MGPV evicted " + std::to_string(r.mgpv.cells_out) + " cells, NIC processed " +
           std::to_string(r.nic.cells);
  }
  if (r.nic.vectors_emitted != got.vectors) {
    return "NIC emitted " + std::to_string(r.nic.vectors_emitted) + " vectors, sink saw " +
           std::to_string(got.vectors);
  }
  if (const superfe::NicCluster* cluster = rt.cluster()) {
    for (size_t i = 0; i < cluster->size(); ++i) {
      const superfe::NicWorkerStats ws = cluster->worker_stats(i);
      if (ws.cells_dropped != 0 || ws.reports_dropped != 0) {
        return "worker " + std::to_string(i) + " overflowed " + std::to_string(ws.cells_dropped) +
               " cells";
      }
    }
  }
  return "";
}

std::string CheckDaemon(const DaemonReport& dr) {
  if (!dr.drained) {
    return "flush or drain barrier did not return OK";
  }
  if (!dr.all_epochs_reconciled) {
    return "unreconciled epoch";
  }
  if (dr.packets_shed_ingest != 0) {
    return std::to_string(dr.packets_shed_ingest) + " packets shed at ingest";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Daemon ingest probe: wraps the PacketSource and on_epoch, the only
// ingest-thread boundaries visible from outside RunDaemon.

class ProbedSource : public PacketSource {
 public:
  // `rec` null = probe epoch-close latency only (the untraced runs).
  ProbedSource(PacketSource* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  Next NextChunk(std::vector<PacketRecord>* out, size_t max_packets) override {
    const uint64_t call = NowNs();
    if (rec_ != nullptr && last_return_ns_ != 0) {
      // Ingest-thread time since the previous chunk: partition + enqueue
      // (blocked on full queues), or an epoch close when one fired.
      rec_->Add(epoch_ns_ != 0 ? kEpochClose : kFeed, last_return_ns_, call);
    }
    const Next next = inner_->NextChunk(out, max_packets);
    last_return_ns_ = NowNs();
    epoch_ns_ = 0;
    if (rec_ != nullptr) {
      rec_->Add(kIngest, call, last_return_ns_);
    }
    return next;
  }
  const superfe::IngestStats& stats() const override { return inner_->stats(); }
  void RequestStop() override { inner_->RequestStop(); }

  // DaemonConfig::on_epoch, on the ingest thread.
  void OnEpoch(const DaemonEpoch& epoch) {
    const uint64_t now = NowNs();
    if (epoch.final_epoch) {
      if (rec_ != nullptr) {
        rec_->Add(kDaemonFlush, last_return_ns_, now);
      }
      return;
    }
    epoch_ns_ = now;
    close_ms_.push_back(static_cast<double>(now - last_return_ns_) / 1e6);
  }
  const std::vector<double>& close_ms() const { return close_ms_; }

 private:
  PacketSource* inner_;
  SpanRecorder* rec_;
  uint64_t last_return_ns_ = 0;
  uint64_t epoch_ns_ = 0;  // When on_epoch fired since the last chunk (0 = not yet).
  std::vector<double> close_ms_;
};

// Times the consumer inside a daemon run, where it is called from worker
// threads (serialized by the cluster) rather than the ingest thread.
class CountingTimedSink : public superfe::FeatureSink {
 public:
  explicit CountingTimedSink(superfe::FeatureSink* inner) : inner_(inner) {}
  void OnFeatureVector(FeatureVector&& vector) override {
    const uint64_t start = NowNs();
    inner_->OnFeatureVector(std::move(vector));
    ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t ns() const { return ns_.load(); }
  uint64_t calls() const { return calls_.load(); }

 private:
  superfe::FeatureSink* inner_;
  std::atomic<uint64_t> ns_{0};
  std::atomic<uint64_t> calls_{0};
};

// ---------------------------------------------------------------------------
// One run of the workload's timed shape.

// Daemon-shape runs replay the trace once through a LoopedTraceSource: the
// ENTERPRISE trace is sized for ~10^5 groups, and a second pass would only
// revisit them. LoopedTraceSource::Materialize of one pass is the trace
// itself, so every shape replays the same packet stream.
constexpr uint64_t kDaemonPasses = 1;

struct Context {
  const Workload& w;
  std::string policy_text;
  Trace trace;
  Digest reference;
  size_t expected_vectors = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  uint64_t packets = 0;
  std::string failure;
  std::vector<double> epoch_close_ms;
  RunReport report;
  // Public stats read from the runtime before it is destroyed.
  std::vector<superfe::GroupTableStats> tables;
  std::vector<superfe::NicWorkerStats> workers;
  double load_imbalance = 0.0;
  uint64_t model_cells = 0;
  uint64_t model_effective_cycles = 0;
};

void ReadPublicStats(const SuperFeRuntime& rt, RepResult* out) {
  const superfe::NicCluster* cluster = rt.cluster();
  const size_t members = cluster != nullptr ? cluster->size() : 1;
  for (size_t i = 0; i < members; ++i) {
    const superfe::FeNic& nic = cluster != nullptr ? cluster->nic(i) : rt.nic();
    const auto stats = nic.TableStats();
    if (out->tables.size() < stats.size()) {
      out->tables.resize(stats.size());
    }
    for (size_t g = 0; g < stats.size(); ++g) {
      out->tables[g].lookups += stats[g].lookups;
      out->tables[g].inserts += stats[g].inserts;
      out->tables[g].dram_lookups += stats[g].dram_lookups;
    }
  }
  if (cluster != nullptr) {
    for (size_t i = 0; i < cluster->size(); ++i) {
      out->workers.push_back(cluster->worker_stats(i));
    }
    out->load_imbalance = cluster->LoadImbalance();
  }
  const superfe::NicPerfModel perf = cluster != nullptr ? cluster->MergedPerf() : rt.nic().perf();
  out->model_cells = perf.cells();
  out->model_effective_cycles = perf.EffectiveCycles();
}

// Set-up, then one Run/RunDaemon of the workload's timed shape, then the
// output check. `digest_sink` null = collect the vectors and digest them
// after the timed region; otherwise that sink digests on arrival and keeps
// nothing (the memory-measuring rep). A non-null `rotation` pins set-up and
// run to the next CPU (serial shapes only).
RepResult TimedRep(const Context& ctx, DigestSink* digest_sink, CpuRotation* rotation) {
  const Workload& w = ctx.w;
  RepResult rep;
  if (rotation != nullptr) {
    rotation->Next();
  }
  Setup setup = MakeRuntime(w, ctx.policy_text, w.shards, w.workers);
  rep.setup_s = setup.seconds;
  SuperFeRuntime& rt = *setup.runtime;
  CollectSink collect;
  superfe::FeatureSink* sink = &collect;
  if (digest_sink != nullptr) {
    sink = digest_sink;
  } else {
    collect.Reserve(ctx.expected_vectors);
  }
  DaemonReport dr;
  if (w.daemon) {
    superfe::LoopedTraceSource looped(&ctx.trace, kDaemonPasses);
    ProbedSource source(&looped, nullptr);
    DaemonConfig config;
    config.epoch_packets = w.epoch_packets;
    config.on_epoch = [&source](const DaemonEpoch& e) { source.OnEpoch(e); };
    const uint64_t start = NowNs();
    dr = rt.RunDaemon(source, sink, config);
    rep.wall_s = SecondsSince(start);
    rep.report = dr.run;
    rep.epoch_close_ms = source.close_ms();
  } else {
    const uint64_t start = NowNs();
    rep.report = rt.Run(ctx.trace, sink);
    rep.wall_s = SecondsSince(start);
  }
  rep.packets = rep.report.offered.packets;
  if (rotation != nullptr) {
    rotation->Release();  // The digest below uses every CPU.
  }
  const Digest got = digest_sink != nullptr ? digest_sink->digest() : collect.TakeDigest();
  // A digesting sink's run is compared by the caller once the reference
  // exists; here it is only checked against itself for losses.
  rep.failure = CheckRun(rep.report, rt, ctx.trace.size(), got,
                         digest_sink != nullptr ? got : ctx.reference);
  if (rep.failure.empty() && w.daemon) {
    rep.failure = CheckDaemon(dr);
  }
  ReadPublicStats(rt, &rep);
  return rep;
}

// The reference: a different shape over the same packet stream, untimed.
// Serial workloads compare against 2 shards x 2 workers; the daemon
// workload against a serial one-shot Run of the stream its source replays.
// Then shows the digest catches a changed value and a dropped vector.
std::string RunReference(Context& ctx, bool* defects_detected) {
  const Workload& w = ctx.w;
  const uint32_t shards = w.daemon ? 1 : 2;
  const uint32_t workers = w.daemon ? 0 : 2;
  Setup setup = MakeRuntime(w, ctx.policy_text, shards, workers);
  CollectSink sink;
  const RunReport report = setup.runtime->Run(ctx.trace, &sink);
  ctx.reference = DigestOf(sink.vectors());
  ctx.expected_vectors = sink.vectors().size();
  std::string detail;
  *defects_detected = DigestDetectsDefects(sink.vectors(), ctx.reference, &detail);
  std::ostringstream line;
  superfe::JsonWriter j(line, 0);
  j.BeginObject();
  j.Key("reference");
  j.BeginObject();
  j.FieldStr("shape", std::to_string(shards) + "x" + std::to_string(workers) + " Run");
  j.FieldStr("digest", ctx.reference.ToString());
  j.FieldStr("defect_check", detail);
  j.EndObject();
  j.EndObject();
  std::printf("%s\n", line.str().c_str());
  return CheckRun(report, *setup.runtime, ctx.trace.size(), ctx.reference, ctx.reference);
}

// ---------------------------------------------------------------------------
// Traced passes.

// Pass A: the serial shape built from the layers' public classes, exactly as
// SuperFeRuntime wires it (Compile -> FeNic::Create -> FeSwitch -> Replay ->
// FeSwitch::Flush -> FeNic::Flush), with timing decorators on the three
// sink boundaries. Replays the workload's whole stream on one thread.
struct LayeredPass {
  double wall_s = 0.0;
  SpanRecorder::Totals totals;
  uint64_t packets = 0;
  uint64_t cells = 0;
  std::string failure;
};

LayeredPass RunLayered(const Context& ctx, SpanRecorder* rec) {
  auto policy = LoadPolicy(ctx.w, ctx.policy_text);
  if (!policy.ok()) {
    Die("policy: " + policy.status().ToString());
  }
  auto compiled = superfe::Compile(policy.value());
  if (!compiled.ok()) {
    Die("Compile: " + compiled.status().ToString());
  }
  const RuntimeConfig defaults;  // The runtime's serial-path configuration.
  CollectSink collect;
  collect.Reserve(ctx.expected_vectors);
  TimedFeatureSink timed_sink(&collect, rec);
  auto nic = superfe::FeNic::Create(compiled.value(), defaults.nic, &timed_sink);
  if (!nic.ok()) {
    Die("FeNic::Create: " + nic.status().ToString());
  }
  TimedMgpvSink timed_nic(nic.value().get(), rec);
  superfe::FeSwitch fe_switch(compiled.value(), &timed_nic, defaults.mgpv);
  TimedPacketSink timed_switch(&fe_switch, rec);

  LayeredPass pass;
  const uint64_t start = NowNs();
  uint32_t id = rec->Begin(kReplay);
  const superfe::ReplayReport offered =
      superfe::Replay(ctx.trace, defaults.replay, timed_switch);
  rec->End(id);
  id = rec->Begin(kSwitchFlush);
  fe_switch.Flush();
  rec->End(id);
  id = rec->Begin(kNicFlush);
  nic.value()->Flush();
  rec->End(id);
  pass.wall_s = SecondsSince(start);

  pass.totals = rec->Summarize();
  pass.packets = offered.packets;
  pass.cells = nic.value()->stats().cells;
  const Digest got = collect.TakeDigest();
  if (got != ctx.reference) {
    pass.failure = "traced digest " + got.ToString() + " != reference " + ctx.reference.ToString();
  } else if (offered.packets != ctx.trace.size() ||
             fe_switch.cache().stats().cells_out != pass.cells) {
    pass.failure = "traced run lost packets or cells";
  }
  return pass;
}

// Pass B: RunDaemon in the 2 shards x 2 workers shape (StreamingReplay
// partitioning, ShardedFeSwitch, NicCluster queues, epoch fences) with the
// ingest probe recording spans on the ingest thread. Every workload runs it,
// so the daemon and cluster layers are measured on each workload's traffic.
constexpr uint32_t kDaemonShards = 2;
constexpr uint32_t kDaemonWorkers = 2;

struct DaemonPass {
  double wall_s = 0.0;
  SpanRecorder::Totals totals;
  uint64_t packets = 0;
  uint64_t epochs = 0;
  uint64_t chunks = 0;
  uint64_t sink_ns = 0;
  uint64_t sink_calls = 0;
  std::vector<double> epoch_close_ms;
  RepResult stats;  // Cluster and table stats of the daemon's runtime.
  std::string failure;
};

DaemonPass RunDaemonPass(const Context& ctx, SpanRecorder* rec) {
  const Workload& w = ctx.w;
  Setup setup = MakeRuntime(w, ctx.policy_text, kDaemonShards, kDaemonWorkers);
  CollectSink collect;
  collect.Reserve(ctx.expected_vectors);
  CountingTimedSink sink(&collect);
  superfe::LoopedTraceSource looped(&ctx.trace, kDaemonPasses);
  ProbedSource source(&looped, rec);
  DaemonConfig config;
  config.epoch_packets = w.epoch_packets;
  config.on_epoch = [&source](const DaemonEpoch& e) { source.OnEpoch(e); };
  DaemonPass pass;
  const uint64_t start = NowNs();
  const DaemonReport dr = setup.runtime->RunDaemon(source, &sink, config);
  pass.wall_s = SecondsSince(start);
  pass.totals = rec->Summarize();
  pass.packets = dr.run.offered.packets;
  pass.epochs = dr.epochs.size();
  pass.chunks = dr.ingest.chunks;
  pass.sink_ns = sink.ns();
  pass.sink_calls = sink.calls();
  pass.epoch_close_ms = source.close_ms();
  ReadPublicStats(*setup.runtime, &pass.stats);
  pass.failure = CheckRun(dr.run, *setup.runtime, ctx.trace.size(), collect.TakeDigest(),
                          ctx.reference);
  if (pass.failure.empty()) {
    pass.failure = CheckDaemon(dr);
  }
  return pass;
}

// Set-up layers timed one call at a time: policy load, Compile, FeNic
// construction (ILP placement, group tables) and FeSwitch construction
// (MGPV buffers). Medians over `reps`.
std::vector<Metric> SetupLayers(const Context& ctx, int reps) {
  std::vector<double> parse, compile, nic, sw;
  const RuntimeConfig defaults;
  CollectSink sink;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    auto policy = LoadPolicy(ctx.w, ctx.policy_text);
    const uint64_t t1 = NowNs();
    auto compiled = superfe::Compile(policy.value());
    const uint64_t t2 = NowNs();
    auto fe_nic = superfe::FeNic::Create(compiled.value(), defaults.nic, &sink);
    const uint64_t t3 = NowNs();
    auto fe_switch = std::make_unique<superfe::FeSwitch>(compiled.value(), fe_nic.value().get(),
                                                         defaults.mgpv);
    const uint64_t t4 = NowNs();
    parse.push_back(static_cast<double>(t1 - t0) / 1e6);
    compile.push_back(static_cast<double>(t2 - t1) / 1e6);
    nic.push_back(static_cast<double>(t3 - t2) / 1e6);
    sw.push_back(static_cast<double>(t4 - t3) / 1e6);
  }
  return {{"setup.parse_ms", Median(parse), "ms"},
          {"setup.compile_ms", Median(compile), "ms"},
          {"setup.nic_ms", Median(nic), "ms"},
          {"setup.switch_ms", Median(sw), "ms"}};
}

// ---------------------------------------------------------------------------
// Output lines.

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  superfe::JsonWriter j(out, 0);
  j.BeginObject();
  j.FieldBool("correct", correct);
  j.FieldUint("attempted", attempted);
  j.FieldUint("failed", failed);
  j.Key("metrics");
  j.BeginObject();
  for (const Metric& m : metrics) {
    j.Key(m.name);
    j.BeginObject();
    j.FieldDouble("value", m.value);
    j.FieldStr("unit", m.unit);
    j.EndObject();
  }
  j.EndObject();
  j.EndObject();
  std::printf("%s\n", out.str().c_str());
}

// An informational line: {"<key>": {"<name>": value, ...}}.
void PrintInfo(const std::string& key, const std::vector<Metric>& values) {
  std::ostringstream out;
  superfe::JsonWriter j(out, 0);
  j.BeginObject();
  j.Key(key);
  j.BeginObject();
  for (const Metric& m : values) {
    j.FieldDouble(m.name, m.value);
  }
  j.EndObject();
  j.EndObject();
  std::printf("%s\n", out.str().c_str());
}

// Counts from the public stats of the workload's timed shape (`rep`) and of
// the daemon pass (`daemon`, the cluster counts), plus the NFP cost model's
// figures (modeled, never mixed into measured time).
std::vector<Metric> CountMetrics(const RepResult& rep, const RepResult& daemon) {
  const RunReport& r = rep.report;
  const superfe::MgpvStats& m = r.mgpv;
  uint64_t lookups = 0, inserts = 0, dram = 0;
  for (const auto& t : rep.tables) {
    lookups += t.lookups;
    inserts += t.inserts;
    dram += t.dram_lookups;
  }
  uint64_t waits = 0, hwm = 0, batches = 0, reports = 0, dropped = 0;
  for (const auto& ws : daemon.workers) {
    waits += ws.backpressure_waits;
    hwm = std::max(hwm, ws.queue_high_watermark);
    batches += ws.batches_enqueued;
    reports += ws.reports_enqueued;
    dropped += ws.cells_dropped;
  }
  const auto evict = [&m](superfe::EvictReason reason) {
    return static_cast<double>(m.evictions[static_cast<int>(reason)]);
  };
  const double nic_cells = static_cast<double>(r.nic.cells);
  return {
      {"switch.filtered_share",
       Ratio(static_cast<double>(r.switch_stats.packets_filtered),
             static_cast<double>(r.switch_stats.packets_seen)),
       "ratio"},
      {"mgpv.msg_ratio", m.MessageRatio(), "ratio"},
      {"mgpv.byte_ratio", m.ByteRatio(), "ratio"},
      {"mgpv.cells_per_report",
       Ratio(static_cast<double>(m.cells_out), static_cast<double>(m.reports_out)),
       "cells/report"},
      {"mgpv.evict.collision", evict(superfe::EvictReason::kCollision), "count"},
      {"mgpv.evict.short_full", evict(superfe::EvictReason::kShortFull), "count"},
      {"mgpv.evict.long_full", evict(superfe::EvictReason::kLongFull), "count"},
      {"mgpv.evict.aging", evict(superfe::EvictReason::kAging), "count"},
      {"mgpv.evict.flush", evict(superfe::EvictReason::kFlush), "count"},
      {"mgpv.fg_syncs", static_cast<double>(m.fg_syncs), "count"},
      {"mgpv.long_alloc_failures", static_cast<double>(m.long_alloc_failures), "count"},
      {"nic.cells", nic_cells, "count"},
      {"nic.vectors", static_cast<double>(r.nic.vectors_emitted), "count"},
      {"nic.inserts_per_cell", Ratio(static_cast<double>(inserts), nic_cells), "inserts/cell"},
      {"nic.dram_detour_ratio",
       Ratio(static_cast<double>(dram), static_cast<double>(lookups)), "ratio"},
      {"cluster.backpressure_waits", static_cast<double>(waits), "count"},
      {"cluster.queue_hwm", static_cast<double>(hwm), "count"},
      {"cluster.reports_per_batch",
       Ratio(static_cast<double>(reports), static_cast<double>(batches)), "reports/batch"},
      {"cluster.load_imbalance", daemon.load_imbalance, "ratio"},
      {"cluster.cells_dropped", static_cast<double>(dropped), "count"},
      {"model.nic_cycles_per_cell",
       Ratio(static_cast<double>(rep.model_effective_cycles),
             static_cast<double>(rep.model_cells)),
       "cycles/cell"},
      {"model.sustainable_gbps", r.sustainable_gbps, "Gbps"},
  };
}

void WriteSpans(const Args& args, const char* pass, const SpanRecorder& rec) {
  if (args.spans_dir.empty()) {
    return;
  }
  const std::string path = args.spans_dir + "/" + args.workload->name + "." + pass + ".tsv";
  if (!rec.WriteTsv(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  std::printf("{\"fingerprint\":%s}\n", FingerprintJson(args.source_digest).c_str());

  Context ctx{w, "", {}, {}, 0};
  if (w.policy_file != nullptr) {
    const std::string path = args.root + "/" + w.policy_file;
    std::ifstream in(path);
    if (!in) {
      Die("cannot read " + path);
    }
    std::stringstream text;
    text << in.rdbuf();
    ctx.policy_text = text.str();
  }
  // Trace generation sits outside all timing.
  ctx.trace = superfe::GenerateTrace(w.profile(), w.trace_packets, args.seed);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  const auto check = [&](const char* what, const std::string& failure) {
    if (!failure.empty()) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what, failure.c_str());
      correct = false;
    }
    return failure.empty();
  };

  // Peak memory over the baseline before set-up, measured first so no
  // earlier run's freed heap hides growth: the trace is resident, and this
  // untimed rep keeps no output. It doubles as the first warm-up (the first
  // rep in a process runs slower); its digest is checked once the reference
  // exists.
  double peak_mem_mb = 0.0;
  DigestSink warm_digest;
  RepResult warm;
  {
    malloc_trim(0);
    const double base_mb = ResidentMb();
    const bool reset = ResetPeakResident();
    warm = TimedRep(ctx, &warm_digest, nullptr);
    peak_mem_mb = PeakResidentMb() - base_mb;
    if (!reset) {
      std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_mem_mb includes trace generation\n");
    }
  }

  bool defects_detected = false;
  check("reference run", RunReference(ctx, &defects_detected));
  check("defect check", defects_detected ? "" : "the digest missed an injected defect");
  check("warm-up rep", warm_digest.digest() != ctx.reference
                           ? "digest " + warm_digest.digest().ToString() + " != reference " +
                                 ctx.reference.ToString()
                           : warm.failure);
  // A second warm-up of exactly the timed kind (collecting sink).
  check("warm-up rep", TimedRep(ctx, nullptr, nullptr).failure);

  // Timed reps. Under --trace 1 they are only the untraced baseline for the
  // trace overhead (and the daemon's epoch-close samples), so they get part
  // of the budget.
  const double rep_budget = args.trace ? 0.4 * args.seconds : args.seconds;
  std::vector<double> mpps, setup_s, wall_s, epoch_close_ms;
  RepResult last;
  CpuRotation rotation;
  const uint64_t loop_start = NowNs();
  while (mpps.size() < 3 || SecondsSince(loop_start) < rep_budget ||
         (args.trace && w.daemon && epoch_close_ms.size() < 100 &&
          SecondsSince(loop_start) < 0.8 * args.seconds)) {
    // Serial Run creates no threads, so its reps can rotate; see CpuRotation.
    RepResult rep = TimedRep(ctx, nullptr, w.daemon ? nullptr : &rotation);
    ++attempted;
    if (!check("timed rep", rep.failure)) {
      ++failed;
    }
    mpps.push_back(static_cast<double>(rep.packets) / rep.wall_s / 1e6);
    wall_s.push_back(rep.wall_s);
    setup_s.push_back(rep.setup_s);
    epoch_close_ms.insert(epoch_close_ms.end(), rep.epoch_close_ms.begin(),
                          rep.epoch_close_ms.end());
    last = std::move(rep);
  }
  const double model_cycles = Ratio(static_cast<double>(last.model_effective_cycles),
                                    static_cast<double>(last.model_cells));

  if (!args.trace) {
    PrintInfo("summary",
              {{"fail_ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempted)), ""},
               {"reps", static_cast<double>(mpps.size()), ""},
               {"packets_per_rep", static_cast<double>(last.packets), ""},
               {"setup_samples", static_cast<double>(setup_s.size()), ""},
               {"mpps_min", *std::min_element(mpps.begin(), mpps.end()), ""},
               {"mpps_max", *std::max_element(mpps.begin(), mpps.end()), ""}});
    // Modeled NFP figures beside the measured host rate; never combined.
    PrintInfo("model_vs_measured", {{"measured_mpps", Median(mpps), ""},
                                    {"model.sustainable_gbps", last.report.sustainable_gbps, ""},
                                    {"model.nic_cycles_per_cell", model_cycles, ""}});
    if (w.daemon) {
      PrintInfo("epoch_close", {{"p50_ms", Median(epoch_close_ms), ""},
                                {"p90_ms", Percentile(epoch_close_ms, 0.9), ""},
                                {"samples", static_cast<double>(epoch_close_ms.size()), ""}});
    }
    PrintResult(correct && failed == 0, attempted, failed,
                {{"mpps", Median(mpps), "Mpps"},
                 {"setup_s", Median(setup_s), "s"},
                 {"peak_mem_mb", peak_mem_mb, "MiB"}});
    return 0;
  }

  // ---- Traced run (--trace 1). ----
  std::vector<Metric> metrics = SetupLayers(ctx, 15);
  const size_t span_capacity = 3 * ctx.trace.size() + 4096;

  // Pass A: layered serial shape. Per-layer values are medians over passes.
  std::map<std::string, std::vector<double>> a;
  std::unique_ptr<SpanRecorder> a_spans;
  const uint64_t a_start = NowNs();
  do {
    auto rec = std::make_unique<SpanRecorder>(span_capacity);
    rotation.Next();  // Single-threaded, so it rotates like the serial reps.
    const LayeredPass p = RunLayered(ctx, rec.get());
    rotation.Release();
    ++attempted;
    if (!check("traced layered pass", p.failure)) {
      ++failed;
    }
    const auto& t = p.totals;
    const double pkts = static_cast<double>(p.packets);
    const double cells = static_cast<double>(p.cells);
    const double nic_self = static_cast<double>(t.self_ns[kNicCell] + t.self_ns[kNicSync]);
    const double wall_ns = p.wall_s * 1e9;
    a["wall_s"].push_back(p.wall_s);
    a["replay.self_ns_per_pkt"].push_back(Ratio(static_cast<double>(t.self_ns[kReplay]), pkts));
    a["switch.self_ns_per_pkt"].push_back(Ratio(static_cast<double>(t.self_ns[kSwitch]), pkts));
    a["switch.flush_ms"].push_back(static_cast<double>(t.self_ns[kSwitchFlush]) / 1e6);
    a["nic.self_ns_per_cell"].push_back(Ratio(nic_self, cells));
    a["nic.sync_share_pct"].push_back(
        100.0 * Ratio(static_cast<double>(t.self_ns[kNicSync]), nic_self));
    a["nic.flush_ms"].push_back(static_cast<double>(t.self_ns[kNicFlush]) / 1e6);
    a["sink.ns_per_vector"].push_back(Ratio(static_cast<double>(t.self_ns[kSink]),
                                            static_cast<double>(t.spans[kSink])));
    a["unattributed_pct"].push_back(100.0 * (wall_ns - static_cast<double>(t.root_ns)) / wall_ns);
    a_spans = std::move(rec);
  } while (SecondsSince(a_start) < 0.3 * args.seconds);
  WriteSpans(args, "layered", *a_spans);
  a_spans.reset();

  // Pass B: daemon shape with the ingest probe.
  std::map<std::string, std::vector<double>> b;
  std::vector<double> b_close_ms;
  std::unique_ptr<SpanRecorder> b_spans;
  DaemonPass b_last;
  const uint64_t b_start = NowNs();
  do {
    auto rec = std::make_unique<SpanRecorder>(1024 + 4 * ctx.trace.size() / 8192);
    DaemonPass p = RunDaemonPass(ctx, rec.get());
    ++attempted;
    if (!check("traced daemon pass", p.failure)) {
      ++failed;
    }
    const auto& t = p.totals;
    const double pkts = static_cast<double>(p.packets);
    const double wall_ns = p.wall_s * 1e9;
    b["wall_s"].push_back(p.wall_s);
    b["ingest.ns_per_pkt"].push_back(Ratio(static_cast<double>(t.self_ns[kIngest]), pkts));
    b["daemon.feed_ns_per_pkt"].push_back(Ratio(static_cast<double>(t.self_ns[kFeed]), pkts));
    b["daemon.flush_ms"].push_back(static_cast<double>(t.self_ns[kDaemonFlush]) / 1e6);
    b["epoch.close_share"].push_back(Ratio(static_cast<double>(t.self_ns[kEpochClose]), wall_ns));
    b["sink.ns_per_vector"].push_back(
        Ratio(static_cast<double>(p.sink_ns), static_cast<double>(p.sink_calls)));
    b["unattributed_pct"].push_back(100.0 * (wall_ns - static_cast<double>(t.root_ns)) / wall_ns);
    b_close_ms.insert(b_close_ms.end(), p.epoch_close_ms.begin(), p.epoch_close_ms.end());
    b_spans = std::move(rec);
    b_last = std::move(p);
  } while (SecondsSince(b_start) < 0.3 * args.seconds);
  WriteSpans(args, "daemon", *b_spans);

  // The timed shape is the primary trace: its closure and overhead are the
  // trace.* metrics. Serial workloads time the layered shape; the daemon
  // workload times the daemon shape.
  const auto& primary = w.daemon ? b : a;
  const double untraced_s = Median(wall_s);
  const std::vector<double>& close_ms = w.daemon ? epoch_close_ms : b_close_ms;
  const char* const kLayered[] = {"replay.self_ns_per_pkt", "switch.self_ns_per_pkt",
                                  "switch.flush_ms",        "nic.self_ns_per_cell",
                                  "nic.sync_share_pct",     "nic.flush_ms"};
  const char* const kUnits[] = {"ns/pkt", "ns/pkt", "ms", "ns/cell", "%", "ms"};
  for (size_t i = 0; i < std::size(kLayered); ++i) {
    metrics.push_back({kLayered[i], Median(a[kLayered[i]]), kUnits[i]});
  }
  metrics.push_back({"sink.ns_per_vector", Median(primary.at("sink.ns_per_vector")), "ns/vector"});
  metrics.push_back({"ingest.ns_per_pkt", Median(b["ingest.ns_per_pkt"]), "ns/pkt"});
  metrics.push_back({"daemon.feed_ns_per_pkt", Median(b["daemon.feed_ns_per_pkt"]), "ns/pkt"});
  metrics.push_back({"daemon.flush_ms", Median(b["daemon.flush_ms"]), "ms"});
  metrics.push_back({"epoch.close_share", Median(b["epoch.close_share"]), "ratio"});
  metrics.push_back({"epoch.close_p50_ms", Median(close_ms), "ms"});
  metrics.push_back({"epoch.close_p90_ms", Percentile(close_ms, 0.9), "ms"});
  metrics.push_back({"epoch.close_samples", static_cast<double>(close_ms.size()), "count"});
  metrics.push_back({"epoch.count", static_cast<double>(b_last.epochs), "count"});
  metrics.push_back({"ingest.chunks", static_cast<double>(b_last.chunks), "count"});
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (Median(primary.at("wall_s")) - untraced_s) / untraced_s, "%"});
  metrics.push_back({"trace.unattributed_pct", Median(primary.at("unattributed_pct")), "%"});
  for (Metric& m : CountMetrics(last, b_last.stats)) {
    metrics.push_back(std::move(m));
  }
  PrintResult(correct && failed == 0, attempted, failed, metrics);
  return 0;
}
}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
