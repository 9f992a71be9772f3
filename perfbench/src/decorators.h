#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "calibrate/calibrator.h"
#include "gp/fitness.h"

namespace perfbench {

/// Transparent gp::SequentialFitness decorator: forwards every call to the
/// wrapped fitness and times Begin (per-candidate setup, including the
/// expression compile) and each evaluation's Step into the tracer's hot
/// counters. Thread-safe whenever the wrapped fitness is.
class TracedFitness : public gmr::gp::SequentialFitness {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  explicit TracedFitness(const gmr::gp::SequentialFitness* inner)
      : inner_(inner) {}

  std::size_t num_cases() const override { return inner_->num_cases(); }
  std::size_t num_parameters() const override {
    return inner_->num_parameters();
  }
  std::size_t num_states() const override { return inner_->num_states(); }

  std::unique_ptr<gmr::gp::SequentialEvaluation> Begin(
      const std::vector<gmr::expr::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const override;

  bool WantsBatchPreparation() const override {
    return inner_->WantsBatchPreparation();
  }
  void PrepareBatch(
      const std::vector<std::vector<gmr::expr::ExprPtr>>& phenotypes)
      const override {
    inner_->PrepareBatch(phenotypes);
  }

 private:
  const gmr::gp::SequentialFitness* inner_;
};

/// Objective wrappers counting and timing each call (one full-window
/// rollout) into the tracer's rollout / gradient counters.
gmr::calibrate::Objective TraceRollouts(gmr::calibrate::Objective inner);
gmr::calibrate::GradientObjective TraceGradients(
    gmr::calibrate::GradientObjective inner);

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
