// Botnet detection: extract PeerShark-style conversation features per IP
// pair with SuperFE and separate P2P bot keep-alive chatter from normal
// client-server conversations with a decision tree.
//
//   ./botnet_detection
#include <cstdio>
#include <map>

#include "apps/policies.h"
#include "core/runtime.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "net/attack_gen.h"

using namespace superfe;

int main() {
  // 1. Conversations: label 1 = long-lived periodic small-packet P2P
  //    chatter; label 0 = ordinary short web conversations.
  const LabeledFlowSet conversations = GenerateP2PConversations(150, 777);
  Trace trace("botnet");
  std::map<std::string, int> label_of;
  for (size_t i = 0; i < conversations.size(); ++i) {
    for (const auto& pkt : conversations.flows[i]) {
      trace.Add(pkt);
    }
    const GroupKey key =
        GroupKey::Of(InitiatorKey::Of(conversations.flows[i][0]), Granularity::kChannel);
    label_of[std::string(reinterpret_cast<const char*>(key.bytes.data()), key.length)] =
        conversations.labels[i];
  }
  trace.SortByTime();

  // 2. PeerShark features per IP-pair conversation (4 dims: packet count,
  //    mean size, mean and max inter-arrival).
  auto runtime = SuperFeRuntime::Create(PeerSharkPolicy(), RuntimeConfig{});
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return 1;
  }
  CollectingFeatureSink sink;
  (*runtime)->Run(trace, &sink);
  std::printf("Extracted %zu conversation feature vectors\n", sink.vectors().size());

  // 3. Decision tree over a train/test split.
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
  DecisionTree tree;
  tree.Fit(train_x, train_y);
  const BinaryMetrics metrics = EvaluateBinary(test_y, tree.PredictBatch(test_x));

  std::printf("P2P bot-conversation detection over %zu test conversations:\n", test_y.size());
  std::printf("  accuracy  %.1f%%\n", metrics.Accuracy() * 100.0);
  std::printf("  precision %.3f  recall %.3f  F1 %.3f\n", metrics.Precision(),
              metrics.Recall(), metrics.F1());
  return metrics.Accuracy() > 0.85 ? 0 : 1;
}
