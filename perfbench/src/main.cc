// The GMR benchmark binary. Usage:
//   gmr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans PATH]
// Prints the machine record, diagnostics, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits non-zero
// without a result on bad arguments or on a build whose timings would not
// mean anything (sanitizer or unoptimised).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "machine.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gmr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n");
  return 2;
}

/// Whole non-negative number, or -1.
long long ParseCount(const char* text) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  return end != text && *end == '\0' && value >= 0 ? value : -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  long long seconds = -1;
  long long trace = -1;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = ParseCount(value);
    } else if (flag == "--seconds") {
      seconds = ParseCount(value);
    } else if (flag == "--trace") {
      trace = ParseCount(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (argc % 2 == 0 || seed < 0 || seconds < 1 || (trace != 0 && trace != 1) ||
      std::find(names.begin(), names.end(), workload) == names.end()) {
    return Usage();
  }

  const perfbench::MachineRecord machine =
      perfbench::ReadMachine(static_cast<std::uint64_t>(seed));
  std::printf("machine: %s\n", machine.ToJson().c_str());
  std::string why;
  if (!machine.TimingsTrustworthy(&why)) {
    std::fprintf(stderr, "perfbench: refusing to report timings: %s\n",
                 why.c_str());
    return 3;
  }
  std::fflush(stdout);

  const perfbench::RunReport report = perfbench::RunBenchmark(
      workload, static_cast<std::uint64_t>(seed),
      static_cast<double>(seconds), trace == 1, perfbench::Budget{});
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  if (trace == 1 && !spans_path.empty() &&
      !perfbench::WriteSpans(report.spans, spans_path)) {
    std::printf("note: could not write spans to %s\n", spans_path.c_str());
  }
  std::printf("%s\n", perfbench::ToJsonLine(report).c_str());
  return 0;
}
