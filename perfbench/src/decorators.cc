#include "decorators.h"

#include <utility>

#include "trace.h"

namespace perfbench {
namespace {

class TracedEvaluation : public gmr::gp::SequentialEvaluation {
 public:
  explicit TracedEvaluation(std::unique_ptr<gmr::gp::SequentialEvaluation> inner)
      : inner_(std::move(inner)) {}

  bool Step() override {
    const std::int64_t start = NowNs();
    const bool more = inner_->Step();
    Tracer::Add(kStepNs, static_cast<std::uint64_t>(NowNs() - start));
    Tracer::Add(kStepCalls, 1);
    return more;
  }
  double CurrentFitness() const override { return inner_->CurrentFitness(); }
  std::size_t steps_taken() const override { return inner_->steps_taken(); }
  gmr::EvalOutcome outcome() const override { return inner_->outcome(); }

 private:
  std::unique_ptr<gmr::gp::SequentialEvaluation> inner_;
};

}  // namespace

std::unique_ptr<gmr::gp::SequentialEvaluation> TracedFitness::Begin(
    const std::vector<gmr::expr::ExprPtr>& equations,
    const std::vector<double>& parameters, bool use_compiled_backend) const {
  const std::int64_t start = NowNs();
  std::unique_ptr<gmr::gp::SequentialEvaluation> inner =
      inner_->Begin(equations, parameters, use_compiled_backend);
  Tracer::Add(kBeginNs, static_cast<std::uint64_t>(NowNs() - start));
  Tracer::Add(kBeginCalls, 1);
  return std::make_unique<TracedEvaluation>(std::move(inner));
}

gmr::calibrate::Objective TraceRollouts(gmr::calibrate::Objective inner) {
  return [inner = std::move(inner)](const std::vector<double>& x) {
    const std::int64_t start = NowNs();
    const double value = inner(x);
    Tracer::Add(kRolloutNs, static_cast<std::uint64_t>(NowNs() - start));
    Tracer::Add(kRolloutCalls, 1);
    return value;
  };
}

gmr::calibrate::GradientObjective TraceGradients(
    gmr::calibrate::GradientObjective inner) {
  return [inner = std::move(inner)](const std::vector<double>& x,
                                    std::vector<double>* gradient) {
    const std::int64_t start = NowNs();
    const double value = inner(x, gradient);
    Tracer::Add(kGradientNs, static_cast<std::uint64_t>(NowNs() - start));
    Tracer::Add(kGradientCalls, 1);
    return value;
  };
}

}  // namespace perfbench
