#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// A tail percentile chosen by the reporting rule: the highest quantile,
/// at most `cap`, that leaves at least `beyond` samples strictly above its
/// nearest-rank position. Falls back to the median (quantile 0.5) when the
/// sample is too small for any quantile above it to qualify.
struct TailPercentile {
  double quantile = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
};
TailPercentile Tail(std::vector<double> values, double cap = 0.90,
                    std::size_t beyond = 10);

/// Nearest-rank quantile q in (0, 1] of `values` (0 when empty).
double NearestRank(std::vector<double> values, double q);

/// Self time of span `id`: its duration minus the part its direct child
/// spans cover, minus the aggregated per-call time counters named in
/// `aggregated` (calls recorded as counters instead of spans).
double SelfTime(const std::vector<Span>& spans, int id,
                const std::vector<std::string>& aggregated);

/// Sum of counter `name` over every span called `span_name` whose run id is
/// `run_id`.
double SumOver(const std::vector<Span>& spans, const std::string& span_name,
               int run_id, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
