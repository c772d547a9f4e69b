#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/autoencoder.h"
#include "ml/decision_tree.h"
#include "ml/kitnet.h"
#include "ml/knn.h"
#include "ml/metrics.h"

namespace superfe {
namespace {

TEST(MetricsTest, ConfusionCounts) {
  const std::vector<int> truth = {1, 1, 0, 0, 1};
  const std::vector<int> pred = {1, 0, 0, 1, 1};
  const BinaryMetrics m = EvaluateBinary(truth, pred);
  EXPECT_EQ(m.tp, 2u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.tn, 1u);
  EXPECT_NEAR(m.Accuracy(), 0.6, 1e-9);
  EXPECT_NEAR(m.Precision(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.Recall(), 2.0 / 3.0, 1e-9);
}

TEST(MetricsTest, PerfectAuc) {
  const std::vector<int> truth = {0, 0, 1, 1};
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  EXPECT_NEAR(RocAuc(truth, scores), 1.0, 1e-9);
}

TEST(MetricsTest, RandomAucIsHalf) {
  Rng rng(1);
  std::vector<int> truth(10000);
  std::vector<double> scores(10000);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.Bernoulli(0.3) ? 1 : 0;
    scores[i] = rng.UniformDouble();
  }
  EXPECT_NEAR(RocAuc(truth, scores), 0.5, 0.02);
}

TEST(MetricsTest, AucHandlesTies) {
  const std::vector<int> truth = {0, 1, 0, 1};
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  EXPECT_NEAR(RocAuc(truth, scores), 0.5, 1e-9);
}

TEST(MetricsTest, InvertedScoresGiveZero) {
  const std::vector<int> truth = {1, 1, 0, 0};
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  EXPECT_NEAR(RocAuc(truth, scores), 0.0, 1e-9);
}

TEST(AutoencoderTest, LearnsToReconstruct) {
  Autoencoder ae(4, 3, 0.2, 1);
  Rng rng(2);
  // Low-dimensional structure: x = (a, a, b, b).
  auto sample = [&]() {
    const double a = rng.UniformDouble();
    const double b = rng.UniformDouble();
    return std::vector<double>{a, a, b, b};
  };
  double early = 0.0;
  for (int i = 0; i < 200; ++i) {
    early += ae.Train(sample());
  }
  for (int i = 0; i < 5000; ++i) {
    ae.Train(sample());
  }
  double late = 0.0;
  for (int i = 0; i < 200; ++i) {
    late += ae.Score(sample());
  }
  EXPECT_LT(late, early);
}

TEST(AutoencoderTest, AnomalyScoresHigherThanNormal) {
  Autoencoder ae(4, 2, 0.2, 3);
  Rng rng(4);
  auto normal = [&]() {
    const double a = rng.UniformDouble();
    return std::vector<double>{a, a, 1.0 - a, 1.0 - a};
  };
  for (int i = 0; i < 8000; ++i) {
    ae.Train(normal());
  }
  double normal_score = 0.0;
  double anomaly_score = 0.0;
  for (int i = 0; i < 100; ++i) {
    normal_score += ae.Score(normal());
    const double a = rng.UniformDouble();
    const double b = rng.UniformDouble();
    anomaly_score += ae.Score({a, b, a, b});  // Breaks the structure.
  }
  EXPECT_GT(anomaly_score, normal_score * 1.3);
}

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  std::vector<std::vector<double>> samples;
  std::vector<int> labels;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.UniformDouble(0, 10);
    samples.push_back({x, rng.UniformDouble()});
    labels.push_back(x > 5.0 ? 1 : 0);
  }
  DecisionTree tree;
  tree.Fit(samples, labels);
  EXPECT_EQ(tree.Predict({7.0, 0.5}), 1);
  EXPECT_EQ(tree.Predict({2.0, 0.5}), 0);
}

TEST(DecisionTreeTest, LearnsXor) {
  std::vector<std::vector<double>> samples;
  std::vector<int> labels;
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    const double y = rng.UniformDouble();
    samples.push_back({x, y});
    labels.push_back((x > 0.5) != (y > 0.5) ? 1 : 0);
  }
  DecisionTree tree(DecisionTreeConfig{6, 2});
  tree.Fit(samples, labels);
  const auto preds = tree.PredictBatch(samples);
  EXPECT_GT(MulticlassAccuracy(labels, preds), 0.95);
}

TEST(DecisionTreeTest, RespectsDepthLimit) {
  std::vector<std::vector<double>> samples;
  std::vector<int> labels;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    samples.push_back({rng.UniformDouble()});
    labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);  // Pure noise.
  }
  DecisionTree tree(DecisionTreeConfig{3, 2});
  tree.Fit(samples, labels);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTreeTest, EmptyFitPredictsZero) {
  DecisionTree tree;
  tree.Fit({}, {});
  EXPECT_EQ(tree.Predict({1.0}), 0);
}

TEST(KnnTest, MajorityVote) {
  KnnClassifier knn(3);
  knn.Fit({{0.0}, {0.1}, {0.2}, {10.0}, {10.1}}, {0, 0, 0, 1, 1});
  EXPECT_EQ(knn.Predict({0.05}), 0);
  EXPECT_EQ(knn.Predict({10.05}), 1);
}

TEST(KnnTest, SeparatedClusters) {
  Rng rng(8);
  std::vector<std::vector<double>> train;
  std::vector<int> labels;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 50; ++i) {
      train.push_back({c * 10.0 + rng.Normal(0, 1), c * 10.0 + rng.Normal(0, 1)});
      labels.push_back(c);
    }
  }
  KnnClassifier knn(5);
  knn.Fit(train, labels);
  int correct = 0;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 20; ++i) {
      const std::vector<double> q = {c * 10.0 + rng.Normal(0, 1), c * 10.0 + rng.Normal(0, 1)};
      if (knn.Predict(q) == c) {
        ++correct;
      }
    }
  }
  EXPECT_GT(correct, 72);  // > 90%.
}

TEST(KitNetTest, BuildsClustersAfterFmPhase) {
  KitNetConfig config;
  config.feature_map_samples = 200;
  config.max_cluster_size = 3;
  KitNet net(9, config);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    // Three correlated triples.
    const double a = rng.UniformDouble();
    const double b = rng.UniformDouble();
    const double c = rng.UniformDouble();
    net.Train({a, a * 2, a * 3, b, b + 1, b * 2, c, c * c, c + 2});
  }
  ASSERT_TRUE(net.mapped());
  EXPECT_GE(net.num_clusters(), 3);
  for (const auto& cluster : net.clusters()) {
    EXPECT_LE(cluster.size(), 3u);
  }
}

TEST(KitNetTest, DetectsDistributionShift) {
  KitNetConfig config;
  config.feature_map_samples = 300;
  config.learning_rate = 0.2;
  KitNet net(6, config);
  Rng rng(10);
  auto normal = [&]() {
    const double a = rng.UniformDouble();
    const double b = rng.UniformDouble();
    return std::vector<double>{a, a, a, b, b, b};
  };
  for (int i = 0; i < 6000; ++i) {
    net.Train(normal());
  }
  double normal_score = 0.0;
  double anomaly_score = 0.0;
  for (int i = 0; i < 200; ++i) {
    normal_score += net.Score(normal());
    std::vector<double> odd(6);
    for (auto& v : odd) {
      v = rng.UniformDouble();  // Uncorrelated: breaks learned structure.
    }
    anomaly_score += net.Score(odd);
  }
  EXPECT_GT(anomaly_score, normal_score * 1.2);
}

}  // namespace
}  // namespace superfe
