#include "machine.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "trace.h"

namespace perfbench {
namespace {

std::string FirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

MachineRecord ReadMachine(std::uint64_t seed) {
  MachineRecord m;
  m.seed = seed;
  m.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    m.affinity_cpus = CPU_COUNT(&set);
  }
  m.cpu_max = FirstLine("/sys/fs/cgroup/cpu.max");
  if (m.cpu_max.empty()) {
    const std::string quota = FirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    const std::string period =
        FirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    m.cpu_max = quota.empty() ? "unavailable" : quota + " " + period;
  }
  m.compiler = __VERSION__;
  m.build_type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const std::size_t at = flags.find("-fsanitize");
  m.sanitizer = at == std::string::npos
                    ? "none"
                    : flags.substr(at, flags.find(' ', at) - at);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (m.sanitizer == "none") m.sanitizer = "compiler-defined";
#endif
#ifdef __OPTIMIZE__
  m.optimized = true;
#endif
#ifdef NDEBUG
  m.ndebug = true;
#endif
  return m;
}

bool MachineRecord::TimingsTrustworthy(std::string* why) const {
  if (sanitizer != "none") {
    *why = "sanitizer build (" + sanitizer + ")";
    return false;
  }
  if (!optimized) {
    *why = "unoptimised build (__OPTIMIZE__ undefined)";
    return false;
  }
  if (!ndebug) {
    *why = "assertions enabled (NDEBUG undefined)";
    return false;
  }
  return true;
}

std::string MachineRecord::ToJson() const {
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"nproc\": %ld, \"affinity_cpus\": %ld, \"cpu_max\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"sanitizer\": \"%s\", "
      "\"optimize\": %s, \"ndebug\": %s, \"seed\": %llu}",
      nproc, affinity_cpus, JsonEscape(cpu_max).c_str(),
      JsonEscape(compiler).c_str(), JsonEscape(build_type).c_str(),
      JsonEscape(sanitizer).c_str(), optimized ? "true" : "false",
      ndebug ? "true" : "false", static_cast<unsigned long long>(seed));
  return buffer;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ReferenceLoopSeconds() {
  // An LCG-fed floating-point recurrence: dependent, branch-free, and held
  // in registers, so it tracks the core's speed and not the memory system.
  const std::int64_t start = NowNs();
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  double acc = 0.0;
  for (int i = 0; i < 4000000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    acc = acc * 0.999999 + static_cast<double>(state >> 40) * 1e-9;
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  if (acc < 0.0) std::printf("%f\n", acc);  // keeps the loop live
  return seconds;
}

}  // namespace perfbench
