// State-fusion tests: ExecPlan's owner table gives the collected features of
// one statistic family a single shared state (docs/ARCHITECTURE.md,
// "Per-statistic group state"). Emission from the fused states must equal
// one standalone Reducer per slot, bit for bit, whether a report's cells
// arrive as one run or as one-row runs, and under every arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <optional>
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

// Feeds one cell to the group at granularity index `gi` as a one-row run,
// the way per-packet collection does.
void Feed(const ExecPlan& plan, size_t gi, GroupState& group, const MgpvCell& cell) {
  MgpvReport report;
  report.cells = {cell};
  PacketBatchSoA batch;
  batch.Assemble(&report, 1);
  UpdateGroupBatch(plan, gi, group, batch, 0, 1);
}

// Every reducing function, several members per family, and neighbours that
// must not share: another λ, another bucket width or count, another array
// limit, another source field. The synthesized f_array{6} shares its state
// with the plain one; the synthesized damped f_std reads a lane.
std::string EveryFunctionPolicy(const std::string& g) {
  return R"(
pktstream
  .groupby()" + g + R"()
  .map(one, _, f_one)
  .map(dsize, size, f_direction)
  .reduce(dsize, [f_array{6}])
  .synthesize(f_norm(dsize.f_array))
  .reduce(size, [f_std{decay=1}])
  .synthesize(ft_sample(size.f_std, 3))
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
    cell.fg_key = InitiatorKey::Pack(
        {0x0a000001, 0xac100001, static_cast<uint16_t>(1000 + rng.UniformU64(3)), 80, kProtoTcp});
    cells.push_back(cell);
  }
  return cells;
}

// The value of a test policy's source field for one packet; ipt is the
// packet's gap to the last packet of its direction in the group.
double FieldValue(const std::string& field, double size, double dir_sign, double ipt) {
  if (field == "one") {
    return 1.0;
  }
  if (field == "dsize") {
    return size * dir_sign;
  }
  if (field == "ipt") {
    return ipt;
  }
  return size;
}

// The pre-fusion layout: one standalone state per slot — a Reducer for an
// undamped slot, DampedStats or DampedStats2D on its own clock for a damped
// one (the definitional oracle of the damped lanes).
struct PerSlotReducers {
  PerSlotReducers(const ExecPlan::GranularityPlan& gp, const ExecOptions& options) : gp(gp) {
    const bool directional = gp.granularity != Granularity::kFlow;
    const DampedMode mode = options.EffectiveDampedMode();
    for (const auto& slot : gp.slots) {
      State state;
      switch (Reducer::Family(slot.spec, directional)) {
        case StateFamily::kDamped1D:
          state.one_sided.emplace(slot.spec.decay_lambda, mode);
          break;
        case StateFamily::kDamped2D:
          state.two_sided.emplace(slot.spec.decay_lambda, mode);
          break;
        default:
          state.reducer.emplace(slot.spec, options, directional);
          break;
      }
      states.push_back(std::move(state));
    }
  }

  // One packet: the slots' samples, then the per-direction ipt recurrence.
  void Add(double size, double t_ns, Direction dir) {
    const double dir_sign = dir == Direction::kForward ? 1.0 : -1.0;
    double& last_ts = last_tstamp_ns[static_cast<int>(dir)];
    const double ipt = last_ts < 0.0 ? 0.0 : t_ns - last_ts;
    const double t_seconds = t_ns * 1e-9;
    for (size_t i = 0; i < states.size(); ++i) {
      State& state = states[i];
      const double value = FieldValue(gp.slots[i].field, size, dir_sign, ipt);
      if (state.one_sided) {
        state.one_sided->Add(value, t_seconds);
      } else if (state.two_sided) {
        if (dir == Direction::kForward) {
          state.two_sided->AddA(value, t_seconds);
        } else {
          state.two_sided->AddB(value, t_seconds);
        }
      } else {
        state.reducer->Update(value);
      }
    }
    last_ts = t_ns;
    last_direction = dir;
  }

  void Update(const MgpvCell& cell) {
    Add(cell.size, static_cast<double>(cell.full_timestamp_ns), cell.direction);
  }

  // The batch rows in order: each undamped slot takes its column as one
  // bulk call, like UpdateGroupBatch; the damped states take the rows one by
  // one.
  void UpdateBatch(const PacketBatchSoA& soa) {
    const size_t n = soa.rows();
    std::vector<double> ipt(n);
    for (size_t r = 0; r < n; ++r) {
      double& last_ts = last_tstamp_ns[static_cast<int>(soa.direction[r])];
      ipt[r] = last_ts < 0.0 ? 0.0 : soa.tstamp_ns[r] - last_ts;
      last_ts = soa.tstamp_ns[r];
    }
    std::vector<double> column(n);
    for (size_t i = 0; i < states.size(); ++i) {
      State& state = states[i];
      for (size_t r = 0; r < n; ++r) {
        column[r] = FieldValue(gp.slots[i].field, soa.pkt_size[r], soa.dir_sign[r], ipt[r]);
      }
      if (state.reducer) {
        state.reducer->UpdateBatch(column.data(), n);
        continue;
      }
      for (size_t r = 0; r < n; ++r) {
        if (state.one_sided) {
          state.one_sided->Add(column[r], soa.t_seconds[r]);
        } else if (soa.direction[r] == Direction::kForward) {
          state.two_sided->AddA(column[r], soa.t_seconds[r]);
        } else {
          state.two_sided->AddB(column[r], soa.t_seconds[r]);
        }
      }
    }
    last_direction = soa.direction[n - 1];
  }

  std::vector<double> Emit() const {
    std::vector<double> out;
    for (size_t i = 0; i < states.size(); ++i) {
      const FeatureSlot& slot = gp.slots[i];
      std::vector<double> block;
      if (states[i].reducer) {
        states[i].reducer->EmitAs(slot.spec, block);
      } else {
        block.push_back(DampedValue(states[i], slot.spec.fn));
      }
      for (const auto& step : slot.synths) {
        block = ApplySynth(step, std::move(block));
      }
      block.resize(slot.Width(), 0.0);
      out.insert(out.end(), block.begin(), block.end());
    }
    return out;
  }

  struct State {
    std::optional<Reducer> reducer;
    std::optional<DampedStats> one_sided;
    std::optional<DampedStats2D> two_sided;
  };

  // A damped slot's value: the side statistics of a two-sided state read the
  // last packet's side.
  double DampedValue(const State& state, ReduceFn fn) const {
    const DampedStats& side =
        state.one_sided ? *state.one_sided
                        : (last_direction == Direction::kForward ? state.two_sided->a()
                                                                  : state.two_sided->b());
    switch (fn) {
      case ReduceFn::kSum:
        return side.linear_sum();
      case ReduceFn::kMean:
        return side.mean();
      case ReduceFn::kVar:
        return side.variance();
      case ReduceFn::kStd:
        return std::sqrt(side.variance());
      case ReduceFn::kMag:
        return state.two_sided->Magnitude();
      case ReduceFn::kRadius:
        return state.two_sided->Radius();
      case ReduceFn::kCov:
        return state.two_sided->Covariance();
      default:
        return state.two_sided->CorrelationCoefficient();
    }
  }

  const ExecPlan::GranularityPlan& gp;
  std::vector<State> states;
  double last_tstamp_ns[2] = {-1.0, -1.0};
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

// Feeds `cells` to one fused group and one per-slot oracle per granularity
// of `plan`, in reports of varying length, and compares their emission bit
// for bit after every report. `batch` feeds each report as one run per
// granularity; otherwise each cell is a one-row run.
void ExpectFusedMatchesPerSlot(const ExecPlan& plan, const ExecOptions& options, bool batch,
                               const std::vector<MgpvCell>& cells) {
  std::vector<GroupState> fused;
  std::vector<PerSlotReducers> oracles;
  for (size_t gi = 0; gi < plan.per_granularity.size(); ++gi) {
    fused.push_back(GroupState::Make(plan, gi, options));
    oracles.emplace_back(plan.per_granularity[gi], options);
  }
  Rng rng(5);
  size_t begin = 0;
  int report_index = 0;
  while (begin < cells.size()) {
    const size_t end = std::min(cells.size(), begin + 1 + rng.UniformU64(60));
    MgpvReport report;
    report.cells.assign(cells.begin() + begin, cells.begin() + end);
    for (size_t gi = 0; gi < plan.per_granularity.size(); ++gi) {
      const auto& gp = plan.per_granularity[gi];
      if (batch) {
        PacketBatchSoA soa;
        soa.Assemble(&report, 1);
        soa.SortByPrefix(InitiatorKey::PrefixBytes(gp.granularity));
        UpdateGroupBatch(plan, gi, fused[gi], soa, 0, soa.rows());
        oracles[gi].UpdateBatch(soa);
      } else {
        for (const auto& cell : report.cells) {
          Feed(plan, gi, fused[gi], cell);
          oracles[gi].Update(cell);
        }
      }
      std::vector<double> out;
      EmitGroupFeatures(plan, gi, fused[gi], out);
      ExpectBitIdentical(out, oracles[gi].Emit(), gp,
                         "granularity " + std::to_string(gi) + ", report " +
                             std::to_string(report_index));
    }
    begin = end;
    ++report_index;
  }
}

TEST_P(FusionTest, FusedEmissionMatchesPerSlotReducers) {
  const std::string granularity = std::get<0>(GetParam());
  const ExecOptions options = OptionsNamed(std::get<1>(GetParam()));
  const bool batch = std::get<2>(GetParam());

  const ExecPlan plan = PlanFor(EveryFunctionPolicy(granularity));
  ASSERT_EQ(plan.per_granularity.size(), 1u);
  const auto& gp = plan.per_granularity[0];
  ASSERT_LT(gp.owners.size(), gp.slots.size());
  ASSERT_EQ(GroupState::Make(plan, 0, options).reducers.size(), gp.undamped.size());
  ExpectFusedMatchesPerSlot(plan, options, batch, GroupCells(17, 600));
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
    cell.fg_key = InitiatorKey::Pack({0x0a000001, 0xac100001, 1000, 80, kProtoTcp});
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
  DampedStats2D mean(gp.slots[1].spec.decay_lambda, options.EffectiveDampedMode());
  for (const auto& cell : TwoSidedCells()) {
    Feed(plan, 0, group, cell);
    const double t_seconds = static_cast<double>(cell.full_timestamp_ns) * 1e-9;
    if (cell.direction == Direction::kForward) {
      mean.AddA(cell.size, t_seconds);
    } else {
      mean.AddB(cell.size, t_seconds);
    }
  }
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], mean.b().mean());
  EXPECT_NE(out[1], mean.a().mean());
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
  // The lane each slot reads (one-sided lanes first).
  ASSERT_EQ(gp.lane_ops.size(), gp.slots.size());
  std::vector<uint32_t> lane_of(gp.slots.size());
  for (const LaneOp& op : gp.lane_ops) {
    lane_of[op.offset] = op.stat % gp.lanes.lanes();
  }
  EXPECT_EQ(lane_of, (std::vector<uint32_t>{0, 1, 0}));

  const ExecOptions options;
  GroupState group = GroupState::Make(plan, 0, options);
  PerSlotReducers oracle(gp, options);
  for (const auto& cell : TwoSidedCells()) {
    Feed(plan, 0, group, cell);
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

// Damped windows and the damped states (lanes) they hold, over all
// granularities.
std::pair<size_t, size_t> WindowsAndStates(const ExecPlan& plan) {
  size_t windows = 0, states = 0;
  for (const auto& gp : plan.per_granularity) {
    windows += gp.lanes.windows();
    states += gp.lanes.lanes();
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
  EXPECT_EQ(gp.lanes.lambdas, (std::vector<double>{1.0, 0.1, 0.0}));
  // Each lane's owner, by its place in the statistics.
  std::vector<const ExecPlan::ReduceStep*> owner_of(gp.lanes.lanes(), nullptr);
  for (const auto& owner : gp.owners) {
    if (owner.damped) {
      owner_of[owner.state] = &owner;
    }
  }
  std::set<StateFamily> families;
  for (const damped_lanes::Run& run : gp.lanes.runs) {
    for (uint32_t k = 0; k < run.count; ++k) {
      const ExecPlan::ReduceStep* owner = owner_of[gp.lanes.StatsLane(run, k)];
      ASSERT_NE(owner, nullptr);
      EXPECT_EQ(owner->spec.decay_lambda, gp.lanes.lambdas[run.window + k]);
      EXPECT_EQ(owner->src, static_cast<int>(run.input));
      if (run.window + k == 0) {
        families.insert(Reducer::Family(owner->spec, /*directional=*/false));
      }
    }
  }
  EXPECT_EQ(families, (std::set<StateFamily>{StateFamily::kDamped1D, StateFamily::kDamped2D}));
  // Every other owner is updated outside the windows.
  EXPECT_EQ(WindowsAndStates(plan).second + gp.undamped.size(), gp.owners.size());
}

// Damped lanes against the per-slot oracle on many windows: (mode, batch).
class FusionWindowTest : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(FusionWindowTest, KitsuneShapedLanesMatchPerSlotStates) {
  // Five λ at host, channel and socket; runs of five two-sided lanes.
  const ExecPlan plan = PlanFor(KitsunePolicy());
  ASSERT_EQ(plan.per_granularity.size(), 3u);
  for (const auto& gp : plan.per_granularity) {
    EXPECT_EQ(gp.lanes.windows(), 5u);
    EXPECT_EQ(gp.lanes.lanes1, 0u);
  }
  ExpectFusedMatchesPerSlot(plan, OptionsNamed(std::get<0>(GetParam())),
                            std::get<1>(GetParam()), GroupCells(23, 600));
}

TEST_P(FusionWindowTest, FlowMixesOneAndTwoSidedLanes) {
  // At flow the damped 1D statistics are one-sided lanes and the 2D ones
  // two-sided, over five λ; ipt skips two of them, so its runs split.
  std::string source = "\npktstream\n  .groupby(flow)\n  .map(one, _, f_one)\n"
                       "  .map(ipt, tstamp, f_ipt)\n";
  for (const char* l : {"5", "3", "1", "0.1", "0.01"}) {
    const std::string d = std::string("{decay=") + l + "}";
    source += "  .reduce(one, [f_sum" + d + "])\n";
    source += "  .reduce(size, [f_mean" + d + ", f_std" + d + ", f_mag" + d + ", f_radius" + d +
              ", f_cov" + d + ", f_pcc" + d + "])\n";
    if (std::string(l) != "3" && std::string(l) != "0.01") {
      source += "  .reduce(ipt, [f_var" + d + ", f_sum" + d + "])\n";
    }
  }
  source += "  .collect(flow)\n";
  const ExecPlan plan = PlanFor(source);
  ASSERT_EQ(plan.per_granularity.size(), 1u);
  const auto& lanes = plan.per_granularity[0].lanes;
  EXPECT_EQ(lanes.windows(), 5u);
  EXPECT_EQ(lanes.lanes1, 13u);
  EXPECT_EQ(lanes.lanes2, 5u);
  EXPECT_EQ(lanes.runs.size(), 5u);  // one, size, ipt {5}, ipt {1, 0.1}; size 2D.
  ExpectFusedMatchesPerSlot(plan, OptionsNamed(std::get<0>(GetParam())),
                            std::get<1>(GetParam()), GroupCells(29, 600));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FusionWindowTest,
    ::testing::Combine(::testing::Values("nic", "exact", "float32"), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FusionWindowTest::ParamType>& info) {
      return std::get<0>(info.param) + (std::get<1>(info.param) ? "_batch" : "_scalar");
    });

}  // namespace
}  // namespace superfe
