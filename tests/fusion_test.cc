// State-fusion tests: ExecPlan's owner table gives the collected features of
// one statistic family a single shared state (docs/ARCHITECTURE.md,
// "Per-statistic group state"). Emission from the fused states must equal
// one standalone Reducer per slot, bit for bit, on both update paths and
// under every arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/policies.h"
#include "common/rng.h"
#include "nicsim/exec.h"
#include "policy/compile.h"
#include "policy/parser.h"

namespace superfe {
namespace {

ExecPlan PlanFor(const Policy& policy) {
  auto compiled = Compile(policy);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto plan = ExecPlan::FromProgram(compiled->nic_program);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

ExecPlan PlanFor(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return PlanFor(*policy);
}

// Every reducing function, several members per family, and neighbours that
// must not share: another λ, another bucket width or count, another array
// limit, another source field. The synthesized f_array{6} shares its state
// with the plain one.
std::string EveryFunctionPolicy(const std::string& g) {
  return R"(
pktstream
  .groupby()" + g + R"()
  .map(one, _, f_one)
  .map(dsize, size, f_direction)
  .reduce(dsize, [f_array{6}])
  .synthesize(f_norm(dsize.f_array))
  .collect()" + g + R"()
  .reduce(one, [f_sum, f_sum{decay=1}, f_sum{decay=0.1}])
  .reduce(size, [f_sum, f_mean, f_var, f_std, f_min, f_max, f_skew, f_kur])
  .reduce(size, [f_mean{decay=1}, f_var{decay=1}, f_std{decay=1}, f_sum{decay=1}])
  .reduce(size, [f_mag{decay=1}, f_radius{decay=1}, f_cov{decay=1}, f_pcc{decay=1}])
  .reduce(size, [f_mean{decay=0.1}, f_mag{decay=0.1}, f_mag, f_pcc])
  .reduce(size, [ft_hist{100, 8}, f_pdf{100, 8}, f_cdf{100, 8}])
  .reduce(size, [ft_hist{50, 8}, f_cdf{100, 4}])
  .reduce(size, [ft_percent{0.5}, ft_percent{0.9}, f_card])
  .reduce(dsize, [f_array{9}, f_array{6}, f_mean, f_max, f_min, f_skew])
  .reduce(dsize, [f_mean{decay=1}, f_std{decay=1}, f_cov{decay=1}])
  .collect()" + g + R"()
)";
}

// One group's cells: several flows of one initiator host, mixed directions,
// timestamp ties and late (out-of-order) samples.
std::vector<MgpvCell> GroupCells(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<MgpvCell> cells;
  uint64_t ts = 1000000000;
  for (size_t i = 0; i < n; ++i) {
    MgpvCell cell;
    const bool tie = rng.Bernoulli(0.05);
    const bool late = rng.Bernoulli(0.05);
    if (!tie) {
      ts += 1000 + rng.UniformU64(50000000);
    }
    cell.full_timestamp_ns = late ? ts - rng.UniformU64(1000000) : ts;
    cell.tstamp = static_cast<uint32_t>(cell.full_timestamp_ns);
    cell.size = static_cast<uint16_t>(40 + rng.UniformU64(1461));
    cell.direction = rng.Bernoulli(0.5) ? Direction::kForward : Direction::kBackward;
    cell.fg_tuple = {0x0a000001, 0xac100001, static_cast<uint16_t>(1000 + rng.UniformU64(3)), 80,
                     kProtoTcp};
    cells.push_back(cell);
  }
  return cells;
}

// The value of a test policy's source field for one packet.
double FieldValue(const std::string& field, double size, double dir_sign) {
  if (field == "one") {
    return 1.0;
  }
  if (field == "dsize") {
    return size * dir_sign;
  }
  return size;
}

// The pre-fusion layout: one standalone Reducer per slot.
struct PerSlotReducers {
  PerSlotReducers(const ExecPlan::GranularityPlan& gp, const ExecOptions& options) : gp(gp) {
    for (const auto& slot : gp.slots) {
      reducers.emplace_back(slot.spec, options, gp.granularity != Granularity::kFlow);
    }
  }

  void Update(const MgpvCell& cell) {
    const double dir_sign = cell.direction == Direction::kForward ? 1.0 : -1.0;
    const double t_seconds = static_cast<double>(cell.full_timestamp_ns) * 1e-9;
    for (size_t i = 0; i < reducers.size(); ++i) {
      reducers[i].Update(FieldValue(gp.slots[i].field, cell.size, dir_sign), t_seconds,
                         cell.direction);
    }
    last_direction = cell.direction;
  }

  void UpdateBatch(const PacketBatchSoA& soa) {
    const size_t n = soa.rows();
    std::vector<double> column(n);
    std::vector<uint64_t> scratch;
    for (size_t i = 0; i < reducers.size(); ++i) {
      for (size_t r = 0; r < n; ++r) {
        column[r] = FieldValue(gp.slots[i].field, soa.pkt_size[r], soa.dir_sign[r]);
      }
      reducers[i].UpdateBatch(column.data(), soa.t_seconds.data(), soa.dir_sign.data(), n,
                              scratch);
    }
    last_direction = soa.direction[n - 1];
  }

  std::vector<double> Emit() const {
    std::vector<double> out;
    for (size_t i = 0; i < reducers.size(); ++i) {
      std::vector<double> block;
      reducers[i].Emit(block, last_direction);
      for (const auto& step : gp.slots[i].synths) {
        block = ApplySynth(step, std::move(block));
      }
      block.resize(gp.slots[i].Width(), 0.0);
      out.insert(out.end(), block.begin(), block.end());
    }
    return out;
  }

  const ExecPlan::GranularityPlan& gp;
  std::vector<Reducer> reducers;
  Direction last_direction = Direction::kForward;
};

void ExpectBitIdentical(const std::vector<double>& fused, const std::vector<double>& oracle,
                        const ExecPlan::GranularityPlan& gp, const std::string& where) {
  ASSERT_EQ(fused.size(), oracle.size()) << where;
  ASSERT_EQ(fused.size(), gp.width) << where;
  size_t offset = 0;
  for (const auto& slot : gp.slots) {
    for (uint32_t k = 0; k < slot.Width(); ++k, ++offset) {
      EXPECT_EQ(std::bit_cast<uint64_t>(fused[offset]), std::bit_cast<uint64_t>(oracle[offset]))
          << where << " " << slot.Name() << "[" << k << "] " << slot.spec.ToString()
          << ": fused " << fused[offset] << " vs per-slot " << oracle[offset];
    }
  }
}

ExecOptions OptionsNamed(const std::string& name) {
  ExecOptions options;
  options.nic_arithmetic = name == "nic";
  if (name == "float32") {
    options.damped_mode = DampedMode::kFloat32;
  }
  return options;
}

// std::string parameters, not const char*: gtest lists a const char* parameter
// with its address, which would give the test a different name in every build.
class FusionTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string, bool>> {};

TEST_P(FusionTest, FusedEmissionMatchesPerSlotReducers) {
  const std::string granularity = std::get<0>(GetParam());
  const ExecOptions options = OptionsNamed(std::get<1>(GetParam()));
  const bool batch = std::get<2>(GetParam());

  const ExecPlan plan = PlanFor(EveryFunctionPolicy(granularity));
  ASSERT_EQ(plan.per_granularity.size(), 1u);
  const auto& gp = plan.per_granularity[0];
  ASSERT_LT(gp.owners.size(), gp.slots.size());

  GroupState fused = GroupState::Make(plan, 0, options);
  ASSERT_EQ(fused.reducers.size(), gp.owners.size());
  PerSlotReducers oracle(gp, options);

  // Reports of varying length; the state is compared after every one.
  const std::vector<MgpvCell> cells = GroupCells(17, 600);
  Rng rng(5);
  size_t begin = 0;
  int report_index = 0;
  while (begin < cells.size()) {
    const size_t end = std::min(cells.size(), begin + 1 + rng.UniformU64(60));
    MgpvReport report;
    report.cells.assign(cells.begin() + begin, cells.begin() + end);
    if (batch) {
      PacketBatchSoA soa;
      soa.Assemble(&report, 1);
      soa.SortByPrefix(PacketBatchSoA::KeyPrefixBytes(gp.granularity));
      UpdateGroupBatch(plan, 0, fused, soa, 0, soa.rows());
      oracle.UpdateBatch(soa);
    } else {
      for (const auto& cell : report.cells) {
        UpdateGroup(plan, 0, fused, cell);
        oracle.Update(cell);
      }
    }
    std::vector<double> out;
    EmitGroupFeatures(plan, 0, fused, out);
    ExpectBitIdentical(out, oracle.Emit(), gp, "report " + std::to_string(report_index));
    begin = end;
    ++report_index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryFunction, FusionTest,
    ::testing::Combine(::testing::Values("flow", "host"),
                       ::testing::Values("nic", "exact", "float32"), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FusionTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
             (std::get<2>(info.param) ? "_batch" : "_scalar");
    });

// Cells with distinct per-direction sizes, ending on a backward packet.
std::vector<MgpvCell> TwoSidedCells() {
  std::vector<MgpvCell> cells;
  for (int i = 0; i < 40; ++i) {
    MgpvCell cell;
    cell.full_timestamp_ns = 1000000000 + static_cast<uint64_t>(i) * 10000000;
    cell.direction = i % 2 == 0 ? Direction::kForward : Direction::kBackward;
    cell.size = cell.direction == Direction::kForward ? 1400 : 100;
    cell.fg_tuple = {0x0a000001, 0xac100001, 1000, 80, kProtoTcp};
    cells.push_back(cell);
  }
  return cells;
}

TEST(FusionOwnerTest, DirectionalMeanOwnedByMagFollowsEmittedSpec) {
  // At host granularity f_mean{decay} joins the f_mag state, which it does
  // not own: emission must still report the last packet's side.
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(host)
  .reduce(size, [f_mag{decay=1}, f_mean{decay=1}, f_sum{decay=1}])
  .collect(host)
)");
  const auto& gp = plan.per_granularity[0];
  ASSERT_EQ(gp.owners.size(), 1u);
  EXPECT_EQ(gp.owners[0].spec.fn, ReduceFn::kMag);

  const ExecOptions options;
  GroupState group = GroupState::Make(plan, 0, options);
  Reducer mean(gp.slots[1].spec, options, /*directional=*/true);
  for (const auto& cell : TwoSidedCells()) {
    UpdateGroup(plan, 0, group, cell);
    mean.Update(cell.size, static_cast<double>(cell.full_timestamp_ns) * 1e-9, cell.direction);
  }
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ASSERT_EQ(out.size(), 3u);
  std::vector<double> backward, forward;
  mean.Emit(backward, Direction::kBackward);
  mean.Emit(forward, Direction::kForward);
  EXPECT_EQ(out[1], backward[0]);
  EXPECT_NE(out[1], forward[0]);
  EXPECT_NEAR(out[1], 100.0, 1.0);  // The backward side's sizes.
}

TEST(FusionOwnerTest, FlowDampedMeanAndMagKeepSeparateStates) {
  // flow records no direction: f_mean{decay} is a one-sided state there,
  // while f_mag{decay} needs the two-sided one.
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .reduce(size, [f_mean{decay=1}, f_mag{decay=1}, f_std{decay=1}])
  .collect(flow)
)");
  const auto& gp = plan.per_granularity[0];
  ASSERT_EQ(gp.owners.size(), 2u);
  std::vector<uint32_t> owner_of(gp.slots.size());
  for (const auto* ops : {&gp.emit_ops, &gp.synthesized_ops}) {
    for (const EmitOp& op : *ops) {
      owner_of[op.slot] = op.owner;
    }
  }
  EXPECT_EQ(owner_of, (std::vector<uint32_t>{0, 1, 0}));

  const ExecOptions options;
  GroupState group = GroupState::Make(plan, 0, options);
  PerSlotReducers oracle(gp, options);
  for (const auto& cell : TwoSidedCells()) {
    UpdateGroup(plan, 0, group, cell);
    oracle.Update(cell);
  }
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ExpectBitIdentical(out, oracle.Emit(), gp, "flow");
  EXPECT_GT(out[0], 500.0);  // The mean covers both directions.
}

std::pair<size_t, size_t> OwnersAndSlots(const ExecPlan& plan) {
  size_t owners = 0, slots = 0;
  for (const auto& gp : plan.per_granularity) {
    owners += gp.owners.size();
    slots += gp.slots.size();
  }
  return {owners, slots};
}

TEST(FusionOwnerTest, ShippedPoliciesOwnerCounts) {
  using Counts = std::pair<size_t, size_t>;
  EXPECT_EQ(OwnersAndSlots(PlanFor(KitsunePolicy())), Counts(40, 115));
  EXPECT_EQ(OwnersAndSlots(PlanFor(HeladPolicy())), Counts(35, 100));
  EXPECT_EQ(OwnersAndSlots(PlanFor(NBaiotPolicy())), Counts(25, 65));
  EXPECT_EQ(OwnersAndSlots(PlanFor(MptdPolicy())), Counts(14, 40));

  std::ifstream in(std::string(SUPERFE_SOURCE_DIR) + "/examples/policies/basic_stats.sfe");
  std::stringstream source;
  source << in.rdbuf();
  EXPECT_EQ(OwnersAndSlots(PlanFor(source.str())), Counts(5, 9));
}

// Damped windows and the damped states they hold, over all granularities.
std::pair<size_t, size_t> WindowsAndStates(const ExecPlan& plan) {
  size_t windows = 0, states = 0;
  for (const auto& gp : plan.per_granularity) {
    windows += gp.windows.size();
    for (const auto& window : gp.windows) {
      states += window.owners.size();
    }
  }
  return {windows, states};
}

TEST(FusionWindowTest, ShippedPoliciesWindowCounts) {
  // Kitsune: five λ at each of host, channel and socket; 40 damped states.
  using Counts = std::pair<size_t, size_t>;
  EXPECT_EQ(WindowsAndStates(PlanFor(KitsunePolicy())), Counts(15, 40));
  EXPECT_EQ(WindowsAndStates(PlanFor(HeladPolicy())), Counts(15, 35));
  EXPECT_EQ(WindowsAndStates(PlanFor(NBaiotPolicy())), Counts(10, 25));
  EXPECT_EQ(WindowsAndStates(PlanFor(MptdPolicy())), Counts(0, 0));
}

TEST(FusionWindowTest, WindowsKeyOnLambdaAndHoldBothSides) {
  // At flow, f_mean{decay=1} is a 1D state and f_mag{decay=1} a 2D one: one
  // window holds both, with the undirected and both directed weights. The
  // undamped f_mag/f_pcc state is a window of its own (λ = 0).
  const ExecPlan plan = PlanFor(EveryFunctionPolicy("flow"));
  const auto& gp = plan.per_granularity[0];
  std::vector<double> lambdas;
  for (const auto& window : gp.windows) {
    lambdas.push_back(window.lambda);
    for (uint32_t owner : window.owners) {
      EXPECT_EQ(gp.owners[owner].spec.decay_lambda, window.lambda);
    }
  }
  EXPECT_EQ(lambdas, (std::vector<double>{1.0, 0.1, 0.0}));
  const auto& one = gp.windows[0];
  EXPECT_TRUE(one.one_sided);
  EXPECT_TRUE(one.two_sided);
  std::set<StateFamily> families;
  for (uint32_t owner : one.owners) {
    families.insert(Reducer::Family(gp.owners[owner].spec, /*directional=*/false));
  }
  EXPECT_EQ(families, (std::set<StateFamily>{StateFamily::kDamped1D, StateFamily::kDamped2D}));
  // Every other owner is updated outside the windows.
  EXPECT_EQ(WindowsAndStates(plan).second + gp.undamped.size(), gp.owners.size());
}

}  // namespace
}  // namespace superfe
