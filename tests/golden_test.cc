// Pins every shipped policy's output. The ten Table 3 apps and the five
// examples/policies run over the three paper profiles (20k packets, seed 1)
// in four shapes: serial, serial with the SIMD kernels forced to their
// portable scalar level, 2 switch shards x 2 NIC workers, and the serial
// daemon (RunDaemon over a one-loop LoopedTraceSource with 4096-packet
// epochs). Each case digests the sorted CSV rows (group key, timestamp,
// values at the CSV's 6 significant digits) and compares the digest with the
// recorded one below. Every shape keeps each group's arrival order and every
// kernel gives the scalar fold's bits for any split of a group's run, so
// each (policy, profile) has one digest that every shape must match.
//
// A rewrite of the NIC executor (state layout, hashing, emission) must leave
// every digest unchanged. A deliberate output change updates the table and
// records each changed row in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/policies.h"
#include "core/runtime.h"
#include "net/ingest.h"
#include "net/trace_gen.h"
#include "policy/parser.h"
#include "streaming/simd.h"

namespace superfe {
namespace {

struct Golden {
  const char* policy;
  const char* profile;
  const char* digest;  // FNV-1a of the sorted rows, "/" row count.
};

// One line per (policy, profile). CHANGES.md records every deliberate
// change to these digests with the rows it moved.
constexpr Golden kGolden[] = {
#include "golden_digests.inc"
};

constexpr const char* kExamples[] = {"basic_stats", "channel_stats", "direction_seq",
                                     "frequency", "multi_granularity"};

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * kFnvPrime;
  }
  return h;
}

// One CSV row as superfe_run writes it: ostream's default double format is
// printf("%g") at precision 6, which to_chars(general, 6) reproduces.
std::string Row(const FeatureVector& vector) {
  std::string row = vector.group.ToString() + "," + std::to_string(vector.timestamp_ns);
  char buf[32];
  for (double v : vector.values) {
    const auto res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6);
    row += ',';
    row.append(buf, res.ptr);
  }
  return row;
}

// Collects row hashes; cluster workers call it concurrently.
class RowDigestSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&& vector) override {
    const std::string row = Row(vector);
    const uint64_t h = Fnv(kFnvOffset, row.data(), row.size());
    std::lock_guard<std::mutex> lock(mu_);
    hashes_.push_back(h);
  }

  std::string Digest() {
    std::sort(hashes_.begin(), hashes_.end());
    uint64_t h = kFnvOffset;
    for (uint64_t row : hashes_) {
      h = Fnv(h, reinterpret_cast<const char*>(&row), sizeof(row));
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%016llx/%zu", static_cast<unsigned long long>(h),
                  hashes_.size());
    return buf;
  }

 private:
  std::mutex mu_;
  std::vector<uint64_t> hashes_;
};

struct NamedPolicy {
  std::string name;
  Policy policy;
};

std::vector<NamedPolicy> AllPolicies() {
  std::vector<NamedPolicy> out;
  for (auto& app : AllAppPolicies()) {
    out.push_back({app.name, std::move(app.policy)});
  }
  for (const char* example : kExamples) {
    const std::string path =
        std::string(SUPERFE_SOURCE_DIR) + "/examples/policies/" + example + ".sfe";
    std::ifstream in(path);
    std::stringstream source;
    source << in.rdbuf();
    auto policy = ParsePolicy(path, source.str());
    EXPECT_TRUE(policy.ok()) << path << ": " << policy.status().ToString();
    if (policy.ok()) {
      out.push_back({example, std::move(policy).value()});
    }
  }
  return out;
}

TraceProfile ProfileByName(const std::string& name) {
  if (name == "mawi") {
    return MawiIxpProfile();
  }
  if (name == "campus") {
    return CampusProfile();
  }
  return EnterpriseProfile();
}

RuntimeConfig ShapeConfig(const std::string& shape) {
  RuntimeConfig config;
  if (shape == "2x2") {
    config.switch_shards = 2;
    config.worker_threads = 2;
  }
  return config;
}

const Golden* FindGolden(const std::string& policy, const std::string& profile) {
  for (const Golden& g : kGolden) {
    if (policy == g.policy && profile == g.profile) {
      return &g;
    }
  }
  return nullptr;
}

// std::string parameters, not const char*: gtest lists a const char* parameter
// with its address, which would give the test a different name in every build.
class GoldenOutputTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(GoldenOutputTest, SortedRowsMatchRecordedDigest) {
  const std::string profile = std::get<0>(GetParam());
  const std::string shape = std::get<1>(GetParam());
  const Trace trace = GenerateTrace(ProfileByName(profile), 20000, /*seed=*/1);
  const std::vector<NamedPolicy> policies = AllPolicies();
  ASSERT_EQ(policies.size(), 15u);
  const bool daemon = shape == "daemon";
  // The "scalar" shape pins the portable scalar bodies of every SIMD kernel;
  // the detected level comes back however the test ends.
  struct RestoreSimdLevel {
    SimdLevel level = ActiveSimdLevel();
    ~RestoreSimdLevel() { ForceSimdLevelForTest(level); }
  } restore;
  if (shape == "scalar") {
    ForceSimdLevelForTest(SimdLevel::kScalar);
  }
  for (const NamedPolicy& p : policies) {
    auto runtime = SuperFeRuntime::Create(p.policy, ShapeConfig(shape));
    ASSERT_TRUE(runtime.ok()) << p.name << ": " << runtime.status().ToString();
    RowDigestSink sink;
    if (daemon) {
      LoopedTraceSource source(&trace, 1);
      DaemonConfig config;
      config.chunk_packets = 4096;
      config.epoch_packets = 4096;
      const DaemonReport report = runtime.value()->RunDaemon(source, &sink, config);
      EXPECT_TRUE(report.drained) << p.name;
      EXPECT_TRUE(report.all_epochs_reconciled) << p.name;
      EXPECT_GT(report.epochs.size(), 1u) << p.name;
    } else {
      runtime.value()->Run(trace, &sink);
    }
    const std::string digest = sink.Digest();
    const Golden* golden = FindGolden(p.name, profile);
    // The failure message is the table line to record.
    EXPECT_TRUE(golden != nullptr && digest == golden->digest)
        << "{\"" << p.name << "\", \"" << profile << "\", \"" << digest
        << "\"},  // recorded: " << (golden != nullptr ? golden->digest : "none") << " ("
        << shape << " shape)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, GoldenOutputTest,
    ::testing::Combine(::testing::Values("mawi", "enterprise", "campus"),
                       ::testing::Values("batch", "scalar", "2x2", "daemon")),
    [](const ::testing::TestParamInfo<GoldenOutputTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" +
             (std::get<1>(info.param) == "2x2" ? "sharded" : std::get<1>(info.param));
    });

}  // namespace
}  // namespace superfe
