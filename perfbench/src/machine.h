#ifndef PERFBENCH_MACHINE_H_
#define PERFBENCH_MACHINE_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// What the numbers were measured on, printed with every run.
struct MachineRecord {
  long nproc = 0;           ///< Online CPUs.
  long affinity_cpus = 0;   ///< CPUs this process may run on.
  std::string cpu_max;      ///< cgroup v2 cpu.max ("max 100000" = no quota).
  std::string compiler;
  std::string build_type;   ///< CMAKE_BUILD_TYPE the benchmark was built with.
  std::string sanitizer;    ///< "none", or the -fsanitize flags found.
  bool optimized = false;   ///< __OPTIMIZE__ as seen by the compiler.
  bool ndebug = false;      ///< NDEBUG as seen by the compiler.
  std::uint64_t seed = 0;   ///< Workload seed.

  /// Timings from a sanitizer or unoptimised build are not reported; `why`
  /// says what is wrong.
  bool TimingsTrustworthy(std::string* why) const;
  /// One JSON object.
  std::string ToJson() const;
};

MachineRecord ReadMachine(std::uint64_t seed);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// Seconds one pass of a fixed CPU-bound reference loop takes: a host-speed
/// probe timed before each repetition, by which the reported times are
/// scaled, so a slow host is not read as slow code.
double ReferenceLoopSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_MACHINE_H_
