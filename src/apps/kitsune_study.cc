#include "apps/kitsune_study.h"

#include <algorithm>
#include <cmath>

#include "apps/policies.h"
#include "core/runtime.h"
#include "core/software_extractor.h"
#include "ml/kitnet.h"
#include "ml/metrics.h"
#include "switchsim/group_key.h"

namespace superfe {
namespace {

std::string KeyString(const GroupKey& key) {
  return std::string(reinterpret_cast<const char*>(key.bytes.data()), key.length);
}

}  // namespace

PacketLabelOracle::PacketLabelOracle(const LabeledTrace& trace) {
  for (size_t i = 0; i < trace.trace.size(); ++i) {
    const PacketRecord& pkt = trace.trace.packets()[i];
    const GroupKey fg = GroupKey::Of(InitiatorKey::Of(pkt), Granularity::kSocket);
    labels_[KeyString(fg)].push_back(trace.labels[i]);
  }
}

int PacketLabelOracle::NextLabel(const GroupKey& fg_key) {
  const std::string key = KeyString(fg_key);
  const auto it = labels_.find(key);
  if (it == labels_.end()) {
    return 0;
  }
  size_t& cursor = cursor_[key];
  if (cursor >= it->second.size()) {
    return it->second.empty() ? 0 : it->second.back();
  }
  return it->second[cursor++];
}

Result<LabeledFeatures> ExtractKitsuneFeatures(const LabeledTrace& trace, bool use_superfe) {
  const Policy policy = KitsunePolicy();

  struct LabelingSink : public FeatureSink {
    PacketLabelOracle* oracle = nullptr;
    LabeledFeatures out;
    void OnFeatureVector(FeatureVector&& vector) override {
      out.features.push_back(std::move(vector.values));
      out.labels.push_back(oracle->NextLabel(vector.group));
      out.timestamps.push_back(vector.timestamp_ns);
    }
  };

  PacketLabelOracle oracle(trace);
  LabelingSink sink;
  sink.oracle = &oracle;

  if (use_superfe) {
    auto runtime = SuperFeRuntime::Create(policy, RuntimeConfig{});
    if (!runtime.ok()) {
      return runtime.status();
    }
    (*runtime)->Run(trace.trace, &sink);
  } else {
    auto compiled = Compile(policy);
    if (!compiled.ok()) {
      return compiled.status();
    }
    auto extractor = SoftwareExtractor::Create(*compiled);
    if (!extractor.ok()) {
      return extractor.status();
    }
    (*extractor)->Run(trace.trace, &sink, SoftwareDeployment{});
  }

  // Vectors arrive in MGPV-eviction order; restore timeline order so the
  // detector trains on the clean prefix.
  std::vector<size_t> order(sink.out.features.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sink.out.timestamps[a] < sink.out.timestamps[b];
  });
  LabeledFeatures sorted;
  sorted.features.reserve(order.size());
  sorted.labels.reserve(order.size());
  sorted.timestamps.reserve(order.size());
  for (size_t idx : order) {
    sorted.features.push_back(std::move(sink.out.features[idx]));
    sorted.labels.push_back(sink.out.labels[idx]);
    sorted.timestamps.push_back(sink.out.timestamps[idx]);
  }
  return sorted;
}

Result<DetectionResult> RunKitsuneDetection(AttackType attack,
                                            const KitsuneStudyConfig& config) {
  AttackConfig attack_config;
  attack_config.type = attack;
  attack_config.attack_packets = config.attack_packets;
  attack_config.start_fraction = 0.5;
  const LabeledTrace trace = GenerateAttackTrace(attack_config, EnterpriseProfile(),
                                                 config.background_packets, config.seed);

  auto features = ExtractKitsuneFeatures(trace, config.use_superfe);
  if (!features.ok()) {
    return features.status();
  }
  const size_t total = features->features.size();
  if (total < 100) {
    return Status::Internal("too few feature vectors for a detection study");
  }
  const size_t train_end = static_cast<size_t>(config.train_fraction * total);

  DetectionResult result;
  result.attack = AttackTypeName(attack);
  result.train_vectors = train_end;
  result.test_vectors = total - train_end;

  KitNetConfig net_config;
  net_config.feature_map_samples = static_cast<int>(std::min<size_t>(2000, train_end / 2));
  net_config.max_cluster_size = 10;
  net_config.learning_rate = 0.1;
  KitNet net(static_cast<int>(features->features.front().size()), net_config);

  // Phase 1: train on the (clean) prefix. Two passes: the synthetic traces
  // are far shorter than Kitsune's original captures, so a second epoch
  // substitutes for the missing stream length. Training scores from the
  // final pass calibrate the detection threshold.
  std::vector<double> train_scores;
  for (int epoch = 0; epoch < 2; ++epoch) {
    train_scores.clear();
    for (size_t i = 0; i < train_end; ++i) {
      const double score = net.Train(features->features[i]);
      if (net.mapped() && score > 0.0) {
        train_scores.push_back(score);
      }
    }
  }
  double mean = 0.0;
  for (double s : train_scores) {
    mean += s;
  }
  mean /= std::max<size_t>(train_scores.size(), 1);
  double var = 0.0;
  for (double s : train_scores) {
    var += (s - mean) * (s - mean);
  }
  var /= std::max<size_t>(train_scores.size(), 1);
  // Threshold on |rmse - train_mean|: the p99.5 deviation of the training
  // phase (train scores are heavy-tailed; a Gaussian 3-sigma rule both
  // over- and under-shoots depending on the trace).
  std::vector<double> deviations;
  deviations.reserve(train_scores.size());
  for (double s : train_scores) {
    deviations.push_back(std::fabs(s - mean));
  }
  std::sort(deviations.begin(), deviations.end());
  result.threshold = deviations.empty()
                         ? 0.0
                         : deviations[static_cast<size_t>(0.995 * (deviations.size() - 1))];

  // Phase 2: score the remainder. The anomaly score is the *deviation* of
  // the reconstruction RMSE from the trained profile: attack traffic can
  // reconstruct either worse (novel patterns) or suspiciously better
  // (degenerate patterns like single-SYN spoofed flows) than benign.
  std::vector<int> truth;
  std::vector<double> scores;
  std::vector<int> predicted;
  for (size_t i = train_end; i < total; ++i) {
    const double rmse = net.Score(features->features[i]);
    const double deviation = std::fabs(rmse - mean);
    truth.push_back(features->labels[i]);
    scores.push_back(deviation);
    predicted.push_back(deviation > result.threshold ? 1 : 0);
  }
  result.auc = RocAuc(truth, scores);
  const BinaryMetrics metrics = EvaluateBinary(truth, predicted);
  result.accuracy = metrics.Accuracy();
  result.f1 = metrics.F1();
  return result;
}

}  // namespace superfe
