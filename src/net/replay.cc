#include "net/replay.h"

#include <algorithm>
#include <thread>

#include "common/affinity.h"
#include "net/trace_gen.h"

namespace superfe {

ReplayObs ReplayObs::Create(obs::MetricsRegistry* registry, obs::TraceRecorder* trace,
                            uint32_t trace_lane) {
  ReplayObs o;
  o.trace = trace;
  o.trace_lane = trace_lane;
  if (registry == nullptr) {
    return o;
  }
  o.packets = registry->GetCounter("superfe_replay_packets_total", {},
                                   "Packets replayed into the switch");
  o.bytes =
      registry->GetCounter("superfe_replay_bytes_total", {}, "Wire bytes replayed");
  o.trace_now = registry->GetGauge(
      "superfe_replay_trace_now_ns", {{"shard", std::to_string(trace_lane)}},
      "Trace-time replay position of this shard (post-speedup ns)");
  return o;
}

void ReplayReport::MergeFrom(const ReplayReport& other) {
  packets += other.packets;
  bytes += other.bytes;
  span_min_ns = std::min(span_min_ns, other.span_min_ns);
  span_max_ns = std::max(span_max_ns, other.span_max_ns);
}

void ReplayReport::FinalizeRates() {
  if (packets == 0 || span_min_ns > span_max_ns) {
    duration_s = 0.0;
    offered_gbps = 0.0;
    offered_mpps = 0.0;
    return;
  }
  duration_s = static_cast<double>(span_max_ns - span_min_ns) * 1e-9;
  if (duration_s > 0.0) {
    offered_gbps = static_cast<double>(bytes) * 8.0 / duration_s * 1e-9;
    offered_mpps = static_cast<double>(packets) / duration_s * 1e-6;
  } else {
    offered_gbps = 0.0;
    offered_mpps = 0.0;
  }
}

namespace {

// Per-chunk replay accounting: batches counter adds and closes one trace
// span per `span_packets` replayed packets.
class ReplayChunkObs {
 public:
  explicit ReplayChunkObs(const ReplayObs* obs) : obs_(obs) {
    if (Active()) {
      Open();
    }
  }
  ~ReplayChunkObs() {
    if (Active() && chunk_packets_ > 0) {
      Close();
    }
  }

  void OnPacket(uint64_t wire_bytes, uint64_t timestamp_ns) {
    if (!Active()) {
      return;
    }
    ++chunk_packets_;
    chunk_bytes_ += wire_bytes;
    last_timestamp_ns_ = timestamp_ns;
    if (chunk_packets_ >= std::max<uint32_t>(obs_->span_packets, 1)) {
      Close();
      Open();
    }
  }

 private:
  bool Active() const { return obs_ != nullptr; }
  void Open() {
    chunk_packets_ = 0;
    chunk_bytes_ = 0;
    if (obs_->trace != nullptr) {
      chunk_start_ns_ = obs_->trace->NowNs();
    }
  }
  void Close() {
    obs::Inc(obs_->packets, chunk_packets_);
    obs::Inc(obs_->bytes, chunk_bytes_);
    obs::Set(obs_->trace_now, static_cast<double>(last_timestamp_ns_));
    if (obs_->trace != nullptr) {
      obs::TraceRecorder::Event e;
      e.phase = obs::TraceRecorder::Event::Phase::kSpan;
      e.category = "replay";
      e.name = "batch";
      e.ts_ns = chunk_start_ns_;
      e.dur_ns = obs_->trace->NowNs() - chunk_start_ns_;
      e.arg_name = "packets";
      e.arg_value = chunk_packets_;
      obs_->trace->Emit(obs_->trace_lane, e);
    }
  }

  const ReplayObs* obs_;
  uint64_t chunk_packets_ = 0;
  uint64_t chunk_bytes_ = 0;
  uint64_t chunk_start_ns_ = 0;
  uint64_t last_timestamp_ns_ = 0;
};

// Builds replica `replica` of `original` exactly as the serial replayer
// always has; serial and parallel paths share this so their emitted records
// are bit-identical.
PacketRecord MakeReplica(const PacketRecord& original, uint32_t replica,
                         uint64_t base_ts, double speedup) {
  PacketRecord pkt = original;
  if (replica != 0) {
    // Offset into a disjoint address block per replica so replicated
    // packets form distinct flows, as the switch-based amplifier does.
    const uint32_t offset = replica << 20;
    pkt.tuple.src_ip += offset;
    pkt.tuple.dst_ip += offset;
    pkt.src_mac = MacForIp(pkt.tuple.src_ip);
    pkt.dst_mac = MacForIp(pkt.tuple.dst_ip);
  }
  const uint64_t scaled =
      static_cast<uint64_t>(static_cast<double>(original.timestamp_ns - base_ts) / speedup);
  // Replicas are interleaved a few ns apart, preserving per-flow order.
  pkt.timestamp_ns = scaled + replica * 8;
  return pkt;
}

// Delivers one finished replica record: accounting, clock publish, sink.
void DeliverReplica(const PacketRecord& pkt, const ReplayObs* obs, PacketSink& sink,
                    ReplayChunkObs& chunk_obs, ReplayReport& report) {
  report.packets++;
  report.bytes += pkt.wire_bytes;
  report.span_min_ns = std::min(report.span_min_ns, pkt.timestamp_ns);
  report.span_max_ns = std::max(report.span_max_ns, pkt.timestamp_ns);
  if (obs != nullptr && obs->clock != nullptr) {
    uint64_t clock_ns = pkt.timestamp_ns;
    if (obs->injector != nullptr) {
      // Skew only the latency-measurement clock lane, never the packet
      // record: features stay bit-identical under injected clock skew.
      const int64_t skew = obs->injector->ClockSkewNs(obs->fault_shard, pkt.timestamp_ns);
      if (skew >= 0) {
        clock_ns += static_cast<uint64_t>(skew);
      } else {
        const uint64_t back = static_cast<uint64_t>(-skew);
        clock_ns = clock_ns > back ? clock_ns - back : 0;
      }
    }
    obs->clock->AdvanceLane(obs->clock_lane, clock_ns);
  }
  sink.OnPacket(pkt);
  chunk_obs.OnPacket(pkt.wire_bytes, pkt.timestamp_ns);
}

}  // namespace

ReplayReport Replay(const Trace& trace, const ReplayOptions& options, PacketSink& sink) {
  ReplayReport report;
  if (trace.empty()) {
    return report;
  }
  const uint32_t amp = std::max<uint32_t>(options.amplification, 1);
  const double speedup = options.speedup > 0.0 ? options.speedup : 1.0;
  const uint64_t base_ts = trace.packets().front().timestamp_ns;
  ReplayChunkObs chunk_obs(options.obs);

  for (const auto& original : trace.packets()) {
    for (uint32_t replica = 0; replica < amp; ++replica) {
      const PacketRecord pkt = MakeReplica(original, replica, base_ts, speedup);
      DeliverReplica(pkt, options.obs, sink, chunk_obs, report);
    }
  }
  report.FinalizeRates();
  return report;
}

StreamingReplay::StreamingReplay(const ReplayOptions& options,
                                 std::vector<PacketSink*> sinks,
                                 std::vector<const ReplayObs*> shard_obs,
                                 std::function<uint32_t(const PacketRecord&)> shard_of,
                                 size_t max_chunks_in_flight)
    : options_(options),
      sinks_(std::move(sinks)),
      shard_obs_(std::move(shard_obs)),
      shard_of_(std::move(shard_of)),
      max_queue_(std::max<size_t>(max_chunks_in_flight, 1)),
      amp_(std::max<uint32_t>(options.amplification, 1)),
      speedup_(options.speedup > 0.0 ? options.speedup : 1.0),
      queues_(sinks_.size()),
      shard_reports_(sinks_.size()) {
  threads_.reserve(sinks_.size());
  for (size_t s = 0; s < sinks_.size(); ++s) {
    threads_.emplace_back([this, s] { ShardLoop(s); });
  }
}

StreamingReplay::~StreamingReplay() { Close(); }

void StreamingReplay::Feed(std::vector<PacketRecord> chunk) {
  if (chunk.empty() || sinks_.empty()) {
    return;
  }
  if (!base_ts_set_) {
    base_ts_ = chunk.front().timestamp_ns;
    base_ts_set_ = true;
  }
  // Partition on the feeder thread: route each replica on its rewritten
  // tuple — the same tuple the switch shard will hash — so amplification
  // cannot alias groups across shards. Ids are chunk-local; the chunk's
  // packets travel with them via shared_ptr so shards never index into
  // feeder-owned storage.
  const size_t shards = sinks_.size();
  std::vector<std::vector<uint64_t>> ids(shards);
  for (size_t index = 0; index < chunk.size(); ++index) {
    for (uint32_t replica = 0; replica < amp_; ++replica) {
      const PacketRecord pkt = MakeReplica(chunk[index], replica, base_ts_, speedup_);
      const uint32_t target = shard_of_(pkt) % static_cast<uint32_t>(shards);
      ids[target].push_back(static_cast<uint64_t>(index) * amp_ + replica);
    }
  }
  auto shared =
      std::make_shared<const std::vector<PacketRecord>>(std::move(chunk));
  std::unique_lock<std::mutex> lock(mu_);
  packets_fed_ += shared->size() * amp_;
  for (size_t s = 0; s < shards; ++s) {
    if (ids[s].empty()) {
      continue;
    }
    space_cv_.wait(lock, [&] { return queues_[s].size() < max_queue_; });
    queues_[s].push_back(Work{shared, std::move(ids[s])});
    ++in_flight_;
    work_cv_.notify_all();
  }
}

void StreamingReplay::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  space_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void StreamingReplay::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    closed_ = true;
    closing_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

ReplayReport StreamingReplay::Report() const {
  ReplayReport report;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard_report : shard_reports_) {
    report.MergeFrom(shard_report);
  }
  report.FinalizeRates();
  return report;
}

uint64_t StreamingReplay::packets_fed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return packets_fed_;
}

size_t StreamingReplay::Backlog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

void StreamingReplay::ShardLoop(size_t s) {
  if (options_.pin_threads) {
    PinCurrentThreadToCpu(static_cast<uint32_t>(s));
  }
  const ReplayObs* obs = s < shard_obs_.size() ? shard_obs_[s] : nullptr;
  // One chunk-obs for the thread's lifetime, so counter flush cadence spans
  // work items exactly as the one-shot per-shard loop did.
  ReplayChunkObs chunk_obs(obs);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return !queues_[s].empty() || closing_; });
    if (queues_[s].empty()) {
      return;  // closing_ and fully drained (the predicate admits work first).
    }
    Work work = std::move(queues_[s].front());
    queues_[s].pop_front();
    space_cv_.notify_all();
    lock.unlock();
    const auto& packets = *work.chunk;
    for (const uint64_t id : work.ids) {
      const PacketRecord pkt = MakeReplica(
          packets[id / amp_], static_cast<uint32_t>(id % amp_), base_ts_, speedup_);
      DeliverReplica(pkt, obs, *sinks_[s], chunk_obs, shard_reports_[s]);
    }
    lock.lock();
    --in_flight_;
    space_cv_.notify_all();
  }
}

ReplayReport ParallelReplay(const Trace& trace, const ReplayOptions& options,
                            const std::vector<PacketSink*>& sinks,
                            const std::vector<const ReplayObs*>& shard_obs,
                            const std::function<uint32_t(const PacketRecord&)>& shard_of) {
  ReplayReport report;
  if (trace.empty() || sinks.empty()) {
    return report;
  }
  if (sinks.size() == 1) {
    // One shard is the serial loop on the caller's thread: no shard thread,
    // chunk copy or partition.
    ReplayOptions serial = options;
    serial.obs = shard_obs.empty() ? nullptr : shard_obs[0];
    return Replay(trace, serial, *sinks[0]);
  }
  // One-shot wrapper over the streaming pipeline: feed fixed-size chunks so
  // partitioning overlaps replay and peak partition state is bounded, instead
  // of the historical full-trace id-list scan (a serial prefix on huge
  // traces). Record bytes and per-group order are unchanged — same replica
  // constructor, same base timestamp, same per-shard FIFO order.
  StreamingReplay stream(options, sinks, shard_obs, shard_of);
  constexpr size_t kChunkPackets = 16384;
  const auto& packets = trace.packets();
  for (size_t begin = 0; begin < packets.size(); begin += kChunkPackets) {
    const size_t end = std::min(packets.size(), begin + kChunkPackets);
    stream.Feed(std::vector<PacketRecord>(packets.begin() + static_cast<ptrdiff_t>(begin),
                                          packets.begin() + static_cast<ptrdiff_t>(end)));
  }
  stream.Close();
  return stream.Report();
}

}  // namespace superfe
