// Appendix A (Table 5): the full function library — per-function NIC state
// footprint, modeled per-sample cost, and measured host-side update rate.
#include <chrono>
#include <cstdio>

#include "common/rng.h"
#include "common/table.h"
#include "nicsim/exec.h"
#include "policy/compile.h"
#include "policy/functions.h"
#include "policy/parser.h"

namespace superfe {
namespace {

const ExecOptions kNicOptions = [] {
  ExecOptions o;
  o.nic_arithmetic = true;
  return o;
}();

constexpr int kSamples = 200000;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

double MeasureUpdateNs(const ReduceSpec& spec) {
  Reducer reducer(spec, kNicOptions, /*directional=*/false);
  Rng rng(1);
  std::vector<double> values(1024);
  for (auto& v : values) {
    v = rng.UniformDouble(0, 1500);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSamples; ++i) {
    reducer.Update(values[i & 1023]);
  }
  return ElapsedNs(start) / kSamples;
}

// A damped function is a lane of its group's damped block: times one one-row
// UpdateGroupBatch of a flow plan that holds only that function (window step
// and lane update), directions alternating, over a batch assembled up front.
double MeasureLaneUpdateNs(const char* label) {
  const std::string source = std::string("pktstream\n  .groupby(flow)\n  .reduce(size, [") +
                             label + "])\n  .collect(flow)\n";
  const ExecPlan plan =
      ExecPlan::FromProgram(Compile(ParsePolicy("table5", source).value()).value().nic_program)
          .value();
  GroupState group = GroupState::Make(plan, 0, kNicOptions);
  Rng rng(1);
  MgpvReport report;
  report.cells.resize(kSamples);
  for (size_t i = 0; i < report.cells.size(); ++i) {
    MgpvCell& cell = report.cells[i];
    cell.size = static_cast<uint16_t>(rng.UniformU64(1501));
    cell.direction = i % 2 == 0 ? Direction::kForward : Direction::kBackward;
    cell.full_timestamp_ns = static_cast<uint64_t>(i) * 100000;  // 0.1 ms apart.
  }
  PacketBatchSoA batch;
  batch.Assemble(&report, 1);
  const auto start = std::chrono::steady_clock::now();
  for (size_t row = 0; row < batch.rows(); ++row) {
    UpdateGroupBatch(plan, 0, group, batch, row, row + 1);
  }
  return ElapsedNs(start) / kSamples;
}

void Run() {
  std::printf("== Table 5 function library: state, modeled NIC cost, measured rate ==\n\n");

  struct Entry {
    const char* label;
    ReduceSpec spec;
  };
  std::vector<Entry> entries = {
      {"f_sum", {ReduceFn::kSum}},
      {"f_sum{decay=1}", {ReduceFn::kSum, 0, 0, 0, 1.0}},
      {"f_mean", {ReduceFn::kMean}},
      {"f_mean{decay=1}", {ReduceFn::kMean, 0, 0, 0, 1.0}},
      {"f_var", {ReduceFn::kVar}},
      {"f_std", {ReduceFn::kStd}},
      {"f_min", {ReduceFn::kMin}},
      {"f_max", {ReduceFn::kMax}},
      {"f_skew", {ReduceFn::kSkew}},
      {"f_kur", {ReduceFn::kKur}},
      {"f_mag{decay=1}", {ReduceFn::kMag, 0, 0, 0, 1.0}},
      {"f_radius{decay=1}", {ReduceFn::kRadius, 0, 0, 0, 1.0}},
      {"f_cov{decay=1}", {ReduceFn::kCov, 0, 0, 0, 1.0}},
      {"f_pcc{decay=1}", {ReduceFn::kPcc, 0, 0, 0, 1.0}},
      {"f_card", {ReduceFn::kCard}},
      {"f_array{1000}", {ReduceFn::kArray, 0, 0, 1000}},
      {"ft_hist{100,16}", {ReduceFn::kHist, 100, 16}},
      {"f_pdf{100,16}", {ReduceFn::kPdf, 100, 16}},
      {"f_cdf{100,16}", {ReduceFn::kCdf, 100, 16}},
      {"ft_percent{0.9}", {ReduceFn::kPercent, 0.9}},
  };

  AsciiTable table({"Function", "State bytes/group", "ALU ops", "Divider", "Mem words",
                    "Measured update"});
  for (const auto& entry : entries) {
    const ReduceCost cost = CostOfReduce(entry.spec);
    const StateFamily family = Reducer::Family(entry.spec, /*directional=*/false);
    const bool damped = family == StateFamily::kDamped1D || family == StateFamily::kDamped2D;
    table.AddRow({entry.label, std::to_string(cost.state_bytes),
                  std::to_string(cost.alu_ops), std::to_string(cost.divisions),
                  std::to_string(cost.mem_words),
                  AsciiTable::Num(damped ? MeasureLaneUpdateNs(entry.label)
                                         : MeasureUpdateNs(entry.spec),
                                  1) +
                      " ns"});
  }
  table.Print();
  std::printf(
      "\nState bytes feed the ILP placement; ALU/divider/memory counts feed the cycle\n"
      "model; the measured column is this host's C++ update rate (simulation speed):\n"
      "one Reducer::Update, or for a damped function one one-row UpdateGroupBatch of a\n"
      "flow plan holding only it (its window step and lane update).\n");
}

}  // namespace
}  // namespace superfe

int main() {
  superfe::Run();
  return 0;
}
