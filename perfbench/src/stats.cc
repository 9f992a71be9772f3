#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * n - 1e-9)));
  return values[std::min(rank, values.size()) - 1];
}

TailPercentile Tail(std::vector<double> values, double cap,
                    std::size_t beyond) {
  TailPercentile tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  // Nearest rank ceil(q n) leaves n - ceil(q n) samples above it, which is
  // at least `beyond` exactly when q <= (n - beyond) / n.
  double q = n > static_cast<double>(beyond)
                 ? (n - static_cast<double>(beyond)) / n
                 : 0.0;
  q = std::min(cap, q);
  tail.quantile = q < 0.5 ? 0.5 : q;
  tail.value = NearestRank(std::move(values), tail.quantile);
  return tail;
}

double SelfTime(const std::vector<Span>& spans, int id,
                const std::vector<std::string>& aggregated) {
  const Span& span = spans[static_cast<std::size_t>(id)];
  double self = span.duration();
  for (const Span& child : spans) {
    if (child.parent == id) self -= child.duration();
  }
  for (const std::string& name : aggregated) self -= span.Get(name);
  return self;
}

double SumOver(const std::vector<Span>& spans, const std::string& span_name,
               int run_id, const std::string& name) {
  double sum = 0.0;
  for (const Span& span : spans) {
    if (span.name == span_name && span.run_id == run_id) sum += span.Get(name);
  }
  return sum;
}

}  // namespace perfbench
