#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// How much work one repetition does. The defaults are the benchmark's;
/// tests shrink them to smoke-run every workload in seconds.
struct Budget {
  /// Independent GMR searches (restarts) per repetition of a revise
  /// workload; each has its own engine and RNG stream.
  int plankton_restarts = 20;
  int transport_restarts = 48;
  int plankton_generations = 5;
  int transport_generations = 5;
  std::size_t sceua_budget = 1200;
  std::size_t lbfgs_budget = 600;
  int ensemble_lanes = 256;  ///< Multiple of the lane width 8.
  /// Repetitions per run: the run's --seconds divided by the workload's
  /// nominal repetition time, at least min_reps. A fixed function of
  /// --seconds, so every commit measures the same work.
  int min_reps = 3;
};

/// A named metric value with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one cold repetition produced.
struct RepOutcome {
  double setup_s = 0.0;  ///< Dataset generation + knowledge build.
  double run_s = 0.0;    ///< The workload's timed phase.
  /// The timed phase split into its jobs (GMR restarts; calibrator,
  /// ensemble and accuracy steps), in a fixed order.
  std::vector<double> job_s;
  double train_rmse = 0.0;
  double test_rmse = 0.0;
  /// Counters that must repeat exactly across repetitions (EvalStats,
  /// calibrator evaluation counts, bit patterns of the best objective).
  std::vector<std::uint64_t> fingerprint;
  /// Counters that may differ between repetitions without any result
  /// changing (reported, never failed on).
  std::vector<std::uint64_t> scheduling_counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Work done, printed as a diagnostic: day-steps integrated by the
  /// searches, or objective calls of the calibrators.
  std::uint64_t work = 0;
};

/// One benchmark workload. Every Repeat builds its inputs from the seed
/// again and runs with a fresh engine, RNG and calibrator state.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Seconds one repetition takes on the reference host (sets the
  /// repetition count from --seconds).
  virtual double nominal_rep_seconds() const = 0;

  /// One cold repetition; spans and per-call counters go to `tracer` when
  /// it is non-null (the traced mode), otherwise nothing is wrapped.
  virtual RepOutcome Repeat(Tracer* tracer, int run_id) = 0;

  /// Output checks on the most recent repetition's product. Returns false
  /// and says why when a check fails. Each check counts as one attempted
  /// operation (`*checks`).
  virtual bool Check(std::string* why, std::uint64_t* checks) = 0;

  /// Per-layer metrics of traced repetition `run_id`, from the spans;
  /// remarks on how a value was derived go to `notes`.
  virtual std::vector<Metric> LayerMetrics(
      const Tracer& tracer, int run_id,
      std::vector<std::string>* notes) const = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const Budget& budget);

/// Metric catalogue: name and unit of every end-to-end and per-layer
/// metric, in BENCHMARK.json order.
const std::vector<Metric>& EndToEndMetrics();
const std::vector<Metric>& PerLayerMetrics();

/// One benchmark run, as printed on the last line of standard output.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (diagnostics, why a
  /// per-layer metric is absent on this workload, check failures).
  std::vector<std::string> notes;
  /// The traced mode's spans, written out at exit.
  std::vector<Span> spans;
};

/// Runs `workload` for about `seconds`: cold repetitions reporting the
/// fastest, then the output checks. `trace` selects the per-layer run.
RunReport RunBenchmark(const std::string& workload, std::uint64_t seed,
                       double seconds, bool trace, const Budget& budget);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ToJsonLine(const RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
