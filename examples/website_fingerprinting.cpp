// Website fingerprinting (closed world): extract CUMUL-style cumulative
// traces with SuperFE and classify visited sites with k-NN (CUMUL pairs
// these features with a kernel classifier; k-NN keeps the example small).
// DF/TF-style raw direction sequences are also available via DfPolicy() but
// need a sequence model to shine.
//
//   ./website_fingerprinting
#include <cstdio>
#include <map>

#include "apps/policies.h"
#include "core/runtime.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "net/attack_gen.h"

using namespace superfe;

int main() {
  constexpr int kSites = 12;
  constexpr int kSessionsPerSite = 24;

  // 1. Synthetic closed-world sessions: each site has a stable page-load
  //    direction/size pattern; sessions are noisy replays.
  const LabeledFlowSet sessions = GenerateWebsiteSessions(kSites, kSessionsPerSite, 99);

  // 2. Assemble one trace; remember each flow's label by its socket key.
  Trace trace("wfp");
  std::map<std::string, int> label_of;
  for (size_t i = 0; i < sessions.size(); ++i) {
    for (const auto& pkt : sessions.flows[i]) {
      trace.Add(pkt);
    }
    if (!sessions.flows[i].empty()) {
      const GroupKey key =
          GroupKey::Of(InitiatorKey::Of(sessions.flows[i][0]), Granularity::kFlow);
      label_of[std::string(reinterpret_cast<const char*>(key.bytes.data()), key.length)] =
          sessions.labels[i];
    }
  }
  trace.SortByTime();

  // 3. Extract 104-dim CUMUL features through the full pipeline.
  auto runtime = SuperFeRuntime::Create(CumulPolicy(), RuntimeConfig{});
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return 1;
  }
  CollectingFeatureSink sink;
  (*runtime)->Run(trace, &sink);
  std::printf("Extracted %zu CUMUL vectors (dim %zu)\n", sink.vectors().size(),
              sink.vectors().empty() ? 0 : sink.vectors()[0].values.size());

  // 4. Closed-world k-NN: alternate sessions into train/test.
  std::vector<std::vector<double>> train_x;
  std::vector<int> train_y;
  std::vector<std::vector<double>> test_x;
  std::vector<int> test_y;
  size_t index = 0;
  for (const auto& v : sink.vectors()) {
    const std::string key(reinterpret_cast<const char*>(v.group.bytes.data()), v.group.length);
    const auto it = label_of.find(key);
    if (it == label_of.end()) {
      continue;
    }
    if (index++ % 2 == 0) {
      train_x.push_back(v.values);
      train_y.push_back(it->second);
    } else {
      test_x.push_back(v.values);
      test_y.push_back(it->second);
    }
  }

  KnnClassifier knn(3);
  knn.Fit(train_x, train_y);
  const std::vector<int> predictions = knn.PredictBatch(test_x);
  const double accuracy = MulticlassAccuracy(test_y, predictions);
  std::printf("Closed-world accuracy over %d sites: %.1f%% (random guess: %.1f%%)\n", kSites,
              accuracy * 100.0, 100.0 / kSites);
  return accuracy > 2.0 / kSites ? 0 : 1;
}
