// Covert-channel detection: extract NPOD-style inter-arrival and size
// distributions per flow with SuperFE, then separate timing covert channels
// from benign flows with a decision tree (the NPOD application study).
//
//   ./covert_channel
#include <cstdio>
#include <map>

#include "apps/policies.h"
#include "core/runtime.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "net/attack_gen.h"

using namespace superfe;

int main() {
  // 1. Flows: label 1 encodes bits in bimodal inter-packet delays; label 0
  //    has benign exponential gaps at the same average rate.
  const LabeledFlowSet flows = GenerateCovertTimingFlows(/*flows_per_class=*/120,
                                                         /*packets_per_flow=*/250, 555);
  Trace trace("covert");
  std::map<std::string, int> label_of;
  for (size_t i = 0; i < flows.size(); ++i) {
    for (const auto& pkt : flows.flows[i]) {
      trace.Add(pkt);
    }
    const GroupKey key = GroupKey::Of(InitiatorKey::Of(flows.flows[i][0]), Granularity::kFlow);
    label_of[std::string(reinterpret_cast<const char*>(key.bytes.data()), key.length)] =
        flows.labels[i];
  }
  trace.SortByTime();

  // 2. Extract the NPOD feature vector (37 dims: count, ipt/size histograms
  //    and moments) through the full SuperFE pipeline.
  auto runtime = SuperFeRuntime::Create(NpodPolicy(), RuntimeConfig{});
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return 1;
  }
  CollectingFeatureSink sink;
  (*runtime)->Run(trace, &sink);

  // 3. Train/test split and a CART decision tree (NPOD's detector family).
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
  DecisionTree tree(DecisionTreeConfig{8, 4});
  tree.Fit(train_x, train_y);
  const BinaryMetrics metrics = EvaluateBinary(test_y, tree.PredictBatch(test_x));

  std::printf("Covert-channel detection over %zu test flows:\n", test_y.size());
  std::printf("  accuracy  %.1f%%\n", metrics.Accuracy() * 100.0);
  std::printf("  precision %.3f  recall %.3f  F1 %.3f\n", metrics.Precision(),
              metrics.Recall(), metrics.F1());
  return metrics.Accuracy() > 0.8 ? 0 : 1;
}
