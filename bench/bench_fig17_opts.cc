// Fig 17: ablation of the FE-NIC optimizations (§6.2) on the Kitsune
// policy — switch-hash reuse, thread-level latency hiding, and division
// elimination, enabled incrementally.
#include <cstdio>

#include "apps/policies.h"
#include "common/table.h"
#include "core/runtime.h"
#include "net/trace_gen.h"

namespace superfe {
namespace {

class NullSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&&) override {}
};

double ThroughputWith(const Policy& policy, const Trace& trace, NicOptimizations opts) {
  RuntimeConfig config;
  config.nic.optimizations = opts;
  auto runtime = SuperFeRuntime::Create(policy, config);
  NullSink sink;
  (*runtime)->Run(trace, &sink);
  return (*runtime)->nic().perf().ThroughputPps(120) * 1e-6;
}

void Run() {
  std::printf("== Fig 17: FE-NIC optimization ablation (Kitsune policy, 120 cores) ==\n\n");

  auto app = AppPolicyByName("Kitsune");
  const Trace trace = GenerateTrace(MawiIxpProfile(), 150000, 0xf17);

  NicOptimizations none = NicOptimizations::None();
  NicOptimizations with_hash = none;
  with_hash.reuse_switch_hash = true;
  NicOptimizations with_threads = with_hash;
  with_threads.multithreading = true;
  NicOptimizations all = with_threads;
  all.eliminate_division = true;

  const double base = ThroughputWith(app->policy, trace, none);
  const double hash = ThroughputWith(app->policy, trace, with_hash);
  const double threads = ThroughputWith(app->policy, trace, with_threads);
  const double full = ThroughputWith(app->policy, trace, all);

  AsciiTable table({"Configuration", "Throughput (Mpps)", "Speedup vs baseline"});
  table.AddRow({"baseline (no optimizations)", AsciiTable::Num(base, 2), "1.00x"});
  table.AddRow({"+ reuse switch hash", AsciiTable::Num(hash, 2),
                AsciiTable::Num(hash / base, 2) + "x"});
  table.AddRow({"+ thread latency hiding", AsciiTable::Num(threads, 2),
                AsciiTable::Num(threads / base, 2) + "x"});
  table.AddRow({"+ division elimination (all)", AsciiTable::Num(full, 2),
                AsciiTable::Num(full / base, 2) + "x"});
  table.Print();

  // The paper reports ~4x for all optimizations together; 3x-5x counts as
  // agreement. Above it is the deviation EXPERIMENTS.md records: the modeled
  // Kitsune program pays more divider cycles than the paper's, so removing
  // them gains more.
  const double total = full / base;
  const char* total_verdict = total < 3.0   ? "FAIL: below the 3x-5x band"
                              : total > 5.0 ? "DEVIATION: above the 3x-5x band, see "
                                              "EXPERIMENTS.md"
                                            : "PASS";
  std::printf(
      "\nShape check: all optimizations together reach %.2fx against the paper's ~4x\n"
      "(%s);\ndivision elimination contributes the largest single step (%s).\n",
      total, total_verdict,
      (full / threads) > (hash / base) && (full / threads) > (threads / hash) ? "PASS"
                                                                              : "FAIL");
}

}  // namespace
}  // namespace superfe

int main() {
  superfe::Run();
  return 0;
}
