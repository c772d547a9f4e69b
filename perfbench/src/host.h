// Host and build fingerprint, resident-memory probes, and the wall clock
// every perfbench timing uses.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One JSON object stamping a result with where and how it was produced:
// CPUs online and usable, CPU model, batch-kernel SIMD level, compiler,
// build type, git SHA, version, and the digest of the sources the
// benchmark was built from (the SHA is "unknown" outside a git checkout).
std::string FingerprintJson(const std::string& source_digest);

// CPU rotation for single-threaded reps: a rep stuck on one core measures
// that core's neighbours as much as the code, so serial reps run pinned to
// each usable CPU in turn. Threads inherit the mask, so multi-threaded
// shapes must not be rotated.
class CpuRotation {
 public:
  CpuRotation();   // Captures the usable CPU set.
  ~CpuRotation();  // Restores it.
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread to the next usable CPU.
  void Next();
  // Lifts the pin (back to every usable CPU).
  void Release();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Resident set size and its high-water mark, in MiB (/proc/self/status).
double ResidentMb();
double PeakResidentMb();
// Resets the high-water mark to the current resident size (writes "5" to
// /proc/self/clear_refs). False when the kernel refuses.
bool ResetPeakResident();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
