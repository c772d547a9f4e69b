#include <gtest/gtest.h>

#include <bit>
#include <map>

#include "common/stats.h"
#include "core/runtime.h"
#include "core/software_extractor.h"
#include "net/trace_gen.h"
#include "policy/parser.h"

namespace superfe {
namespace {

Policy Parse(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(policy).value();
}

const char* kFlowStatsPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_sum, f_min, f_max])
  .reduce(ipt, [f_max])
  .collect(flow)
)";

TEST(RuntimeTest, EndToEndProducesVectors) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 5);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);

  EXPECT_EQ(report.switch_stats.packets_seen, trace.size());
  EXPECT_EQ(report.nic.cells, trace.size());
  const uint64_t flows = trace.ComputeStats().flow_count;
  EXPECT_EQ(sink.vectors().size(), flows);
  EXPECT_GT(report.sustainable_gbps, 0.0);
}

TEST(RuntimeTest, ExactFeaturesMatchSoftwareBaseline) {
  // Every exact-mode feature must have the same bits whether computed
  // through MGPV batching + FE-NIC (group runs) or directly in software (one
  // row per packet): batching must not lose or duplicate packets, per-group
  // order is preserved, and the double families fold in arrival order.
  auto policy = Parse(R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .map(speed, size, f_speed)
  .reduce(one, [f_sum])
  .reduce(size, [f_sum, f_min, f_max, f_mean, f_var, f_skew, f_kur])
  .reduce(ipt, [f_max, f_mean, f_var, f_skew, f_kur])
  .reduce(speed, [f_sum, f_mean, f_var])
  .collect(flow)
)");
  RuntimeConfig config;
  config.nic.exec.nic_arithmetic = false;  // Exact arithmetic on both sides.
  auto runtime = SuperFeRuntime::Create(policy, config);
  ASSERT_TRUE(runtime.ok());

  const Trace trace = GenerateTrace(CampusProfile(), 30000, 6);
  CollectingFeatureSink superfe_sink;
  (*runtime)->Run(trace, &superfe_sink);

  auto compiled = Compile(policy);
  ASSERT_TRUE(compiled.ok());
  auto software = SoftwareExtractor::Create(*compiled);
  ASSERT_TRUE(software.ok());
  CollectingFeatureSink software_sink;
  (*software)->Run(trace, &software_sink, SoftwareDeployment{});

  ASSERT_EQ(superfe_sink.vectors().size(), software_sink.vectors().size());

  // Index software vectors by group key bytes.
  auto key_of = [](const FeatureVector& v) {
    return std::string(reinterpret_cast<const char*>(v.group.bytes.data()), v.group.length);
  };
  std::map<std::string, std::vector<double>> expected;
  for (const auto& v : software_sink.vectors()) {
    expected[key_of(v)] = v.values;
  }
  for (const auto& v : superfe_sink.vectors()) {
    auto it = expected.find(key_of(v));
    ASSERT_NE(it, expected.end());
    ASSERT_EQ(v.values.size(), it->second.size());
    for (size_t i = 0; i < v.values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(v.values[i]), std::bit_cast<uint64_t>(it->second[i]))
          << "feature " << i << ": " << v.values[i] << " vs " << it->second[i];
    }
  }
}

TEST(RuntimeTest, SuperFeFasterThanSoftwareByOrders) {
  auto policy = Parse(kFlowStatsPolicy);
  auto runtime = SuperFeRuntime::Create(policy, RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());

  const Trace trace = GenerateTrace(MawiIxpProfile(), 50000, 7);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);

  auto compiled = Compile(policy);
  ASSERT_TRUE(compiled.ok());
  auto software = SoftwareExtractor::Create(*compiled);
  ASSERT_TRUE(software.ok());
  const SoftwareRunReport sw = (*software)->Run(trace, nullptr, SoftwareDeployment{});

  // The headline Fig 9 property: SuperFE sustains far more than the
  // original software deployment (we require > 10x here; the bench reports
  // the full ~100x with the paper's deployment parameters).
  EXPECT_GT(report.sustainable_gbps, 10.0 * sw.deployed_gbps);
}

TEST(RuntimeTest, CoreSweepMonotone) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 8);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  double prev = 0.0;
  for (uint32_t cores : {1u, 2u, 8u, 30u, 60u, 120u}) {
    const double gbps = (*runtime)->SustainableGbps(report, cores);
    EXPECT_GE(gbps, prev);
    prev = gbps;
  }
}

TEST(RuntimeTest, ReportsBottleneck) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 10000, 9);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_TRUE(std::string(report.bottleneck) == "nic-compute" ||
              std::string(report.bottleneck) == "switch-nic-link" ||
              std::string(report.bottleneck) == "switch-capacity");
  EXPECT_LE(report.sustainable_gbps, 3300.0);
}

TEST(RuntimeTest, SwitchResourcesAvailable) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const SwitchResourceUsage usage = (*runtime)->SwitchResources();
  EXPECT_GT(usage.salus, 0u);
  EXPECT_GT((*runtime)->NicMemoryUtilization(), 0.0);
}

TEST(SoftwareExtractorTest, MeasuresRealTime) {
  auto compiled = Compile(Parse(kFlowStatsPolicy));
  ASSERT_TRUE(compiled.ok());
  auto software = SoftwareExtractor::Create(*compiled);
  ASSERT_TRUE(software.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 10);
  const SoftwareRunReport report = (*software)->Run(trace, nullptr, SoftwareDeployment{});
  EXPECT_EQ(report.packets, trace.size());
  EXPECT_GT(report.measured_ns_per_packet, 0.0);
  EXPECT_GT(report.deployed_gbps, 0.0);
  EXPECT_GT(report.cpp_gbps, report.deployed_gbps);  // Interpreter slowdown.
}

TEST(RuntimeTest, FilteredPolicyOnlyProcessesMatching) {
  auto runtime = SuperFeRuntime::Create(Parse(R"(
pktstream
  .filter(udp.exist)
  .groupby(flow)
  .reduce(size, [f_sum])
  .collect(flow)
)"),
                                        RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(CampusProfile(), 20000, 11);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_LT(report.filter_pass_fraction, 1.0);
  EXPECT_GT(report.filter_pass_fraction, 0.0);
  EXPECT_EQ(report.nic.cells, report.switch_stats.packets_batched);
}

}  // namespace
}  // namespace superfe
