// In-memory spans for the traced run.
//
// The benchmark times its own calls into each layer's public interface:
// decorators sit on the PacketSink (FE-Switch), MgpvSink (FE-NIC) and
// FeatureSink (consumer) boundaries, and the benchmark brackets Replay and the
// two Flush calls. Spans nest on one thread; a layer's self time is its
// span minus the spans nested inside it, so the self times of one span tree
// add up to the root's duration exactly. Spans are kept in memory and
// written out once, after the run.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/feature_vector.h"
#include "host.h"
#include "net/replay.h"
#include "switchsim/evict.h"

namespace perfbench {

enum Layer : uint8_t {
  kReplay,       // net: Replay() minus nested switch calls.
  kSwitch,       // switchsim: FeSwitch::OnPacket minus nested NIC calls.
  kSwitchFlush,  // switchsim: FeSwitch::Flush minus nested NIC calls.
  kNicCell,      // nicsim: FeNic::OnMgpv minus nested sink calls.
  kNicSync,      // nicsim: FeNic::OnFgSync.
  kNicFlush,     // nicsim: FeNic::Flush minus nested sink calls.
  kSink,         // The benchmark's own FeatureSink.
  kIngest,       // net: PacketSource::NextChunk (daemon ingest thread).
  kFeed,         // core: daemon time between chunks (partition, enqueue).
  kEpochClose,   // core: chunk completing an epoch -> on_epoch returns.
  kDaemonFlush,  // core: end-of-input -> final epoch (flush barrier).
  kLayerCount,
};

const char* LayerName(Layer layer);

class SpanRecorder {
 public:
  struct Span {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = kNoParent;
    Layer layer = kReplay;
  };
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit SpanRecorder(size_t expected_spans) { spans_.reserve(expected_spans); }

  // Opens a span nested in the innermost open one; returns its id.
  uint32_t Begin(Layer layer) {
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back({NowNs(), 0, open_.empty() ? kNoParent : open_.back(), layer});
    open_.push_back(id);
    return id;
  }
  void End(uint32_t id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }
  // A span whose bounds were measured by the caller (daemon ingest thread).
  void Add(Layer layer, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back({start_ns, end_ns, kNoParent, layer});
  }

  struct Totals {
    uint64_t self_ns[kLayerCount] = {};
    uint64_t spans[kLayerCount] = {};
    uint64_t root_ns = 0;  // Sum of root-span durations.
  };
  // Self time per layer: each span's duration minus its children's.
  Totals Summarize() const;

  // One "layer start_ns end_ns parent" line per span, start times relative
  // to the first span.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// FE-Switch boundary: every replayed packet is one kSwitch span.
class TimedPacketSink : public superfe::PacketSink {
 public:
  TimedPacketSink(superfe::PacketSink* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}
  void OnPacket(const superfe::PacketRecord& packet) override {
    const uint32_t id = rec_->Begin(kSwitch);
    inner_->OnPacket(packet);
    rec_->End(id);
  }

 private:
  superfe::PacketSink* inner_;
  SpanRecorder* rec_;
};

// FE-NIC boundary: one span per evicted MGPV report or FG-key sync.
class TimedMgpvSink : public superfe::MgpvSink {
 public:
  TimedMgpvSink(superfe::MgpvSink* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}
  void OnMgpv(const superfe::MgpvReport& report) override {
    const uint32_t id = rec_->Begin(kNicCell);
    inner_->OnMgpv(report);
    rec_->End(id);
  }
  void OnFgSync(const superfe::FgSyncMessage& sync) override {
    const uint32_t id = rec_->Begin(kNicSync);
    inner_->OnFgSync(sync);
    rec_->End(id);
  }

 private:
  superfe::MgpvSink* inner_;
  SpanRecorder* rec_;
};

// Consumer boundary: one span per feature vector.
class TimedFeatureSink : public superfe::FeatureSink {
 public:
  TimedFeatureSink(superfe::FeatureSink* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}
  void OnFeatureVector(superfe::FeatureVector&& vector) override {
    const uint32_t id = rec_->Begin(kSink);
    inner_->OnFeatureVector(std::move(vector));
    rec_->End(id);
  }

 private:
  superfe::FeatureSink* inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
