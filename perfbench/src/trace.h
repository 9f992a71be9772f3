#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Hot per-call counters, bumped from any thread by the decorators and
/// aggregated into the enclosing span when it closes (one span per call
/// would cost more than the calls it times).
enum Counter : int {
  kBeginCalls,
  kBeginNs,
  kStepCalls,
  kStepNs,
  kRolloutCalls,
  kRolloutNs,
  kGradientCalls,
  kGradientNs,
  kNumCounters,
};

/// Counter name as it appears on spans and in metric names ("river.step_s").
const char* CounterName(Counter counter);

/// One closed span. Times are seconds since the tracer started; `counters`
/// hold the hot counters' deltas over the span (times in seconds) plus any
/// values the benchmark attached.
struct Span {
  int id = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at the root.
  int run_id = 0;   ///< Repetition the span belongs to (0 = whole process).
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;

  double duration() const { return end_s - start_s; }
  /// Value of counter `name`, 0 when absent.
  double Get(const std::string& name) const;
};

/// In-memory span recorder. Spans open and close on the coordinating
/// thread only (workload, repetition, generation, calibrator and ensemble
/// boundaries); the hot counters may be bumped from any thread. Each
/// thread owns one counter slot, so the hot path never shares a cache line.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span nested in the innermost open one; returns its id.
  int Open(const std::string& name, int run_id);
  /// Closes span `id` (must be the innermost open one), attaching the hot
  /// counters' deltas since it opened.
  void Close(int id);
  /// Attaches a named value to an open or closed span.
  void Attach(int id, const std::string& name, double value);

  /// Adds `value` to `counter` in the calling thread's slot.
  static void Add(Counter counter, std::uint64_t value);
  /// Sum of `counter` over every thread's slot.
  static std::uint64_t Total(Counter counter);

  /// Seconds since the tracer was constructed.
  double Now() const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct OpenSpan {
    int id;
    std::uint64_t at_open[kNumCounters];
  };
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int run_id)
      : tracer_(tracer), id_(tracer ? tracer->Open(name, run_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Writes spans as JSON lines; false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
