#include <gtest/gtest.h>

#include "policy/parser.h"

namespace superfe {
namespace {

TEST(ParserTest, ParsesFig3StyleBasicStats) {
  auto policy = ParsePolicy("basic", R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum])
  .map(ipt, tstamp, f_ipt)
  .reduce(size, [f_mean, f_var, f_min, f_max])
  .collect(flow)
  .reduce(ipt, [f_mean, f_var, f_min, f_max])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->name, "basic");
  EXPECT_EQ(policy->ops.size(), 9u);
}

TEST(ParserTest, ParsesFig4Histograms) {
  auto policy = ParsePolicy("freq", R"(
pktstream
  .groupby(flow)
  .map(ipt, tstamp, f_ipt)
  .reduce(ipt, [ft_hist{10000, 100}])
  .reduce(size, [ft_hist{100, 16}])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* reduce = std::get_if<ReduceOp>(&policy->ops[2]);
  ASSERT_NE(reduce, nullptr);
  ASSERT_EQ(reduce->specs.size(), 1u);
  EXPECT_EQ(reduce->specs[0].fn, ReduceFn::kHist);
  EXPECT_DOUBLE_EQ(reduce->specs[0].param0, 10000.0);
  EXPECT_DOUBLE_EQ(reduce->specs[0].param1, 100.0);
}

TEST(ParserTest, ParsesFig5DirectionSequences) {
  auto policy = ParsePolicy("wfp", R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(one, _, f_one)
  .map(direction, one, f_direction)
  .reduce(direction, [f_array])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
}

TEST(ParserTest, NamedParameters) {
  auto policy = ParsePolicy("named", R"(
pktstream
  .groupby(host)
  .reduce(size, [f_mean{decay=0.5}, f_array{limit=128}])
  .collect(host)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* reduce = std::get_if<ReduceOp>(&policy->ops[1]);
  ASSERT_NE(reduce, nullptr);
  EXPECT_DOUBLE_EQ(reduce->specs[0].decay_lambda, 0.5);
  EXPECT_EQ(reduce->specs[1].array_limit, 128u);
}

TEST(ParserTest, GranularityRestrictedReduce) {
  auto policy = ParsePolicy("restricted", R"(
pktstream
  .groupby(host, channel)
  .reduce(size, [f_mean], host)
  .reduce(size, [f_var], channel)
  .collect(pkt)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* r0 = std::get_if<ReduceOp>(&policy->ops[1]);
  ASSERT_NE(r0, nullptr);
  ASSERT_TRUE(r0->at.has_value());
  EXPECT_EQ(*r0->at, Granularity::kHost);
}

TEST(ParserTest, NormalizesGranularityChain) {
  auto policy = ParsePolicy("chain", R"(
pktstream
  .groupby(socket, host, channel)
  .reduce(size, [f_sum])
  .collect(socket)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* groupby = std::get_if<GroupByOp>(&policy->ops[0]);
  ASSERT_NE(groupby, nullptr);
  ASSERT_EQ(groupby->chain.size(), 3u);
  EXPECT_EQ(groupby->chain[0], Granularity::kHost);
  EXPECT_EQ(groupby->chain[2], Granularity::kSocket);
}

TEST(ParserTest, ComparisonPredicates) {
  auto policy = ParsePolicy("pred", R"(
pktstream
  .filter(dst_port == 443 && size > 100)
  .groupby(flow)
  .reduce(size, [f_sum])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* filter = std::get_if<FilterOp>(&policy->ops[0]);
  ASSERT_NE(filter, nullptr);
  ASSERT_EQ(filter->expr.conjuncts.size(), 2u);
  EXPECT_EQ(filter->expr.conjuncts[0].field, PredField::kDstPort);
  EXPECT_EQ(filter->expr.conjuncts[1].op, PredOp::kGt);
}

TEST(ParserTest, CommentsAndBlankLines) {
  auto policy = ParsePolicy("comments", R"(
# A comment line.
pktstream
  .groupby(flow)   # trailing comment
  .reduce(size, [f_sum])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
}

TEST(ParserTest, SynthesizeWithQualifiedSource) {
  auto policy = ParsePolicy("synth", R"(
pktstream
  .groupby(flow)
  .map(dirsize, size, f_direction)
  .reduce(dirsize, [f_array{100}])
  .synthesize(f_norm(dirsize.f_array))
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
}

struct BadPolicyCase {
  const char* name;
  const char* source;
};

// Without a printer gtest dumps the struct's raw bytes, i.e. two pointers
// whose values change with every run under ASLR, and the dump ends up in the
// ctest names that gtest_discover_tests records. Print the case name instead.
void PrintTo(const BadPolicyCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadPolicyCase> {};

TEST_P(ParserErrorTest, Rejects) {
  auto policy = ParsePolicy(GetParam().name, GetParam().source);
  EXPECT_FALSE(policy.ok()) << "expected failure for " << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    BadPolicies, ParserErrorTest,
    ::testing::Values(
        BadPolicyCase{"no_pktstream", ".groupby(flow).collect(flow)"},
        BadPolicyCase{"unknown_op", "pktstream.frobnicate(flow)"},
        BadPolicyCase{"unknown_granularity", "pktstream.groupby(flowz).collect(flowz)"},
        BadPolicyCase{"no_groupby",
                      "pktstream.reduce(size, [f_sum]).collect(flow)"},
        BadPolicyCase{"no_collect", "pktstream.groupby(flow).reduce(size, [f_sum])"},
        BadPolicyCase{"filter_after_groupby",
                      "pktstream.groupby(flow).filter(tcp.exist).reduce(size, "
                      "[f_sum]).collect(flow)"},
        BadPolicyCase{"reduce_unknown_field",
                      "pktstream.groupby(flow).reduce(nosuch, [f_sum]).collect(flow)"},
        BadPolicyCase{"unknown_reduce_fn",
                      "pktstream.groupby(flow).reduce(size, [f_wat]).collect(flow)"},
        BadPolicyCase{"hist_missing_params",
                      "pktstream.groupby(flow).reduce(size, [ft_hist]).collect(flow)"},
        BadPolicyCase{"bad_percent_range",
                      "pktstream.groupby(flow).reduce(size, "
                      "[ft_percent{1.5}]).collect(flow)"},
        BadPolicyCase{"synth_without_reduce",
                      "pktstream.groupby(flow).synthesize(f_norm(size)).collect(flow)"},
        BadPolicyCase{"collect_before_compute",
                      "pktstream.groupby(flow).collect(flow)"},
        BadPolicyCase{"collect_unit_not_in_chain",
                      "pktstream.groupby(flow).reduce(size, [f_sum]).collect(host)"},
        BadPolicyCase{"broken_chain",
                      "pktstream.groupby(socket, flow).reduce(size, "
                      "[f_sum]).collect(flow)"},
        BadPolicyCase{"reduce_at_not_in_chain",
                      "pktstream.groupby(flow).reduce(size, [f_sum], host).collect(flow)"},
        BadPolicyCase{"mixed_collect_units",
                      "pktstream.groupby(host, channel).reduce(size, "
                      "[f_sum]).collect(host).reduce(size, [f_mean]).collect(channel)"},
        // Widths that would wrap a uint32_t, or write gigabytes per vector.
        BadPolicyCase{"hist_bins_too_wide",
                      "pktstream.groupby(flow).reduce(size, [ft_hist{1, 1e12}]).collect(flow)"},
        BadPolicyCase{"array_limit_too_wide",
                      "pktstream.groupby(flow).reduce(size, [f_array{1e10}]).collect(flow)"},
        BadPolicyCase{"sample_length_too_wide",
                      "pktstream.groupby(flow).reduce(size, [f_array])"
                      ".synthesize(ft_sample(size.f_array, 1e12)).collect(flow)"},
        BadPolicyCase{"bins_on_mean",
                      "pktstream.groupby(flow).reduce(size, [f_mean{bins=1e12}]).collect(flow)"},
        BadPolicyCase{"positional_on_sum",
                      "pktstream.groupby(flow).reduce(size, [f_sum{0, -2}]).collect(flow)"},
        BadPolicyCase{"bins_on_percent",
                      "pktstream.groupby(flow).reduce(size, [ft_percent{0.5, 1e12}])"
                      ".collect(flow)"},
        BadPolicyCase{"hist_bins_fractional",
                      "pktstream.groupby(flow).reduce(size, [ft_hist{10, 2.5}]).collect(flow)"},
        BadPolicyCase{"array_limit_zero",
                      "pktstream.groupby(flow).reduce(size, [f_array{limit=0}]).collect(flow)"},
        BadPolicyCase{"decay_not_finite",
                      "pktstream.groupby(flow).reduce(size, [f_mean{decay=1e999}]).collect(flow)"},
        BadPolicyCase{"trailing_garbage",
                      "pktstream.groupby(flow).reduce(size, [f_sum]).collect(flow) extra"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(PolicyTest, LinesOfCodeCountsNonEmpty) {
  Policy policy;
  policy.source_text = "pktstream\n\n  .groupby(flow)\n# comment\n  .collect(flow)\n";
  EXPECT_EQ(policy.LinesOfCode(), 3);
}

TEST(PolicyTest, ToStringRoundTripsThroughParser) {
  auto policy = ParsePolicy("rt", R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(ipt, tstamp, f_ipt)
  .reduce(ipt, [ft_hist{10000, 100}])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok());
  const std::string printed = policy->ToString();
  auto reparsed = ParsePolicy("rt2", printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << printed;
  EXPECT_EQ(reparsed->ops.size(), policy->ops.size());
}

TEST(PredicateTest, MatchesFields) {
  PacketRecord pkt;
  pkt.tuple = {1, 2, 100, 443, kProtoTcp};
  pkt.wire_bytes = 1000;
  const FilterExpr tcp_only{{Predicate{PredField::kProtocol, PredOp::kEq, kProtoTcp}}};
  const FilterExpr udp_only{{Predicate{PredField::kProtocol, PredOp::kEq, kProtoUdp}}};
  EXPECT_TRUE(tcp_only.Matches(pkt));
  EXPECT_FALSE(udp_only.Matches(pkt));
  FilterExpr expr{{Predicate{PredField::kDstPort, PredOp::kEq, 443},
                   Predicate{PredField::kSize, PredOp::kGe, 1000}}};
  EXPECT_TRUE(expr.Matches(pkt));
  pkt.wire_bytes = 999;
  EXPECT_FALSE(expr.Matches(pkt));
}

TEST(PredicateTest, EmptyFilterAcceptsAll) {
  FilterExpr expr;
  PacketRecord pkt;
  EXPECT_TRUE(expr.Matches(pkt));
}

}  // namespace
}  // namespace superfe
