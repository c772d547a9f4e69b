#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "common/build_info.h"
#include "common/json_writer.h"
#include "streaming/simd.h"

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return CPU_COUNT(&set);
}

void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  // Best effort: an unpinned rep is still a valid measurement.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// "VmRSS:   123456 kB" -> MiB.
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

std::string FingerprintJson(const std::string& source_digest) {
  std::ostringstream out;
  superfe::JsonWriter w(out, 0);
  w.BeginObject();
  w.Key("nproc");
  w.Uint(std::thread::hardware_concurrency());
  w.Key("usable_cpus");
  w.Int(UsableCpus());
  w.Key("cpu_model");
  w.String(CpuModel());
  w.Key("simd");
  w.String(superfe::SimdLevelName(superfe::ActiveSimdLevel()));
  w.Key("compiler");
  w.String(superfe::BuildCompiler());
  w.Key("build_type");
  w.String(PERFBENCH_BUILD_TYPE);
  w.Key("git_sha");
  w.String(superfe::BuildGitSha());
  w.Key("version");
  w.String(superfe::BuildVersion());
  w.Key("source_digest");
  w.String(source_digest);
  w.EndObject();
  return out.str();
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() { Release(); }

void CpuRotation::Next() {
  if (cpus_.size() > 1) {
    SetAffinity({cpus_[next_++ % cpus_.size()]});
  }
}

void CpuRotation::Release() {
  if (!cpus_.empty()) {
    SetAffinity(cpus_);
  }
}

double ResidentMb() { return StatusFieldMb("VmRSS"); }

double PeakResidentMb() { return StatusFieldMb("VmHWM"); }

bool ResetPeakResident() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
