#include "spans.h"

#include <cstdio>
#include <memory>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kReplay: return "replay";
    case kSwitch: return "switch";
    case kSwitchFlush: return "switch.flush";
    case kNicCell: return "nic.cell";
    case kNicSync: return "nic.sync";
    case kNicFlush: return "nic.flush";
    case kSink: return "sink";
    case kIngest: return "ingest";
    case kFeed: return "daemon.feed";
    case kEpochClose: return "epoch.close";
    case kDaemonFlush: return "daemon.flush";
    case kLayerCount: break;
  }
  return "?";
}

SpanRecorder::Totals SpanRecorder::Summarize() const {
  Totals t;
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  // Children are recorded after their parent, so one reverse pass sees
  // every child's duration before its parent's.
  for (size_t i = spans_.size(); i-- > 0;) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    t.self_ns[s.layer] += dur - child_ns[i];
    ++t.spans[s.layer];
    if (s.parent == kNoParent) {
      t.root_ns += dur;
    } else {
      child_ns[s.parent] += dur;
    }
  }
  return t;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) {
    return false;
  }
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f.get(), "layer\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_) {
    std::fprintf(f.get(), "%s\t%llu\t%llu\t%lld\n", LayerName(s.layer),
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.end_ns - base),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  return std::fflush(f.get()) == 0;
}

}  // namespace perfbench
