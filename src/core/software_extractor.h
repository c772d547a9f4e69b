// Software-baseline feature extractor: the "mainstream" deployment the paper
// compares against (§2.2, Fig 9) — port mirroring into servers that run the
// original applications' feature extraction code.
//
// The extraction pipeline itself runs for real (same ExecPlan as FE-NIC,
// exact arithmetic), so the features are usable as the Fig 10 reference and
// the per-packet processing time is *measured*, not modeled. Deployment
// throughput then applies the documented overheads of the original stacks:
// kernel capture cost per mirrored packet and the interpreter slowdown of
// the original (Python/NumPy) implementations.
#ifndef SUPERFE_CORE_SOFTWARE_EXTRACTOR_H_
#define SUPERFE_CORE_SOFTWARE_EXTRACTOR_H_

#include <memory>

#include "core/feature_vector.h"
#include "nicsim/exec.h"
#include "nicsim/group_table.h"
#include "policy/compile.h"
#include "net/trace.h"

namespace superfe {

struct SoftwareDeployment {
  // Kernel/libpcap capture + mirroring overhead per packet.
  double capture_ns_per_packet = 1800.0;
  // Slowdown of the original implementation relative to our measured C++
  // pipeline (Kitsune's AfterImage, CUMUL's feature scripts and the WF
  // pipelines are Python/NumPy; 30x is charitable).
  double interpreter_factor = 30.0;
  // Server cores dedicated to extraction and their parallel efficiency.
  uint32_t cores = 16;
  double parallel_efficiency = 0.8;
};

struct SoftwareRunReport {
  uint64_t packets = 0;
  uint64_t vectors = 0;
  double measured_seconds = 0.0;     // Wall clock of the C++ pipeline.
  double measured_ns_per_packet = 0.0;

  // Deployment-model throughput of the original software stack.
  double deployed_pps = 0.0;
  double deployed_gbps = 0.0;

  // Throughput if the extractor were our C++ pipeline (upper bound for any
  // software implementation on this host).
  double cpp_pps = 0.0;
  double cpp_gbps = 0.0;
};

// Exact double-precision execution options (the software baseline).
inline ExecOptions ExactExecOptions() {
  ExecOptions options;
  options.nic_arithmetic = false;
  return options;
}

// Runs the compiled policy's NIC pipeline directly over raw packets (no
// switch batching), with exact double-precision arithmetic.
class SoftwareExtractor {
 public:
  // `options` defaults to exact double-precision arithmetic (the standard
  // feature definitions); pass damped_mode = kFloat32 to reproduce the
  // original Kitsune implementation's arithmetic (Fig 10).
  static Result<std::unique_ptr<SoftwareExtractor>> Create(
      const CompiledPolicy& compiled, const ExecOptions& options = ExactExecOptions());

  // Processes the trace; emits vectors per the policy's collect unit.
  SoftwareRunReport Run(const Trace& trace, FeatureSink* sink,
                        const SoftwareDeployment& deployment = {});

 private:
  SoftwareExtractor(const CompiledPolicy& compiled, ExecPlan plan, const ExecOptions& options);

  void ProcessPacket(const PacketRecord& pkt, FeatureSink* sink);
  void Flush(FeatureSink* sink);

  CompiledPolicy compiled_;
  ExecPlan plan_;
  ExecOptions options_;
  GroupTables tables_;
  // The current packet as a one-cell report, and its one-row batch view:
  // the NIC's update kernel runs one row per packet.
  MgpvReport packet_;
  PacketBatchSoA batch_;
  uint64_t vectors_ = 0;
};

}  // namespace superfe

#endif  // SUPERFE_CORE_SOFTWARE_EXTRACTOR_H_
