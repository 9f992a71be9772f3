#include "river/simulate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "river/variables.h"

namespace gmr::river {

ConfigError ValidateSimulation(const SimulationConfig& config,
                               const ConstituentSet& constituents,
                               std::size_t num_equations) {
  ConfigError err = constituents.Validate();
  if (!err.ok()) return err;
  if (config.num_species < 1 ||
      static_cast<std::size_t>(config.num_species) != constituents.size()) {
    return ConfigError::Error(
        ConfigErrorCode::kSpeciesCountMismatch,
        "config.num_species=" + std::to_string(config.num_species) +
            " but constituent set '" + constituents.preset() + "' declares " +
            std::to_string(constituents.size()) + " species");
  }
  if (num_equations != constituents.size()) {
    return ConfigError::Error(
        ConfigErrorCode::kSpeciesCountMismatch,
        "phenotype has " + std::to_string(num_equations) +
            " process equations for " + std::to_string(constituents.size()) +
            " constituents");
  }
  return ConfigError::Ok();
}

ConfigError ValidateObservations(const ConstituentSet& constituents,
                                 const RiverDataset& dataset) {
  for (const Constituent& c : constituents.constituents()) {
    if (c.observed_series >= dataset.NumObservedSeries()) {
      return ConfigError::Error(
          ConfigErrorCode::kBadObservedSeries,
          "constituent " + c.name + " observes series " +
              std::to_string(c.observed_series) + " but the dataset has " +
              std::to_string(dataset.NumObservedSeries()));
    }
  }
  return ConfigError::Ok();
}

ConfigError ValidateBatchLanes(
    const std::vector<std::vector<double>>& parameter_lanes) {
  if (parameter_lanes.empty()) return ConfigError::Ok();
  const std::size_t n = parameter_lanes[0].size();
  for (std::size_t l = 1; l < parameter_lanes.size(); ++l) {
    if (parameter_lanes[l].size() != n) {
      return ConfigError::Error(
          ConfigErrorCode::kParameterLaneMismatch,
          "batch lane " + std::to_string(l) + " carries " +
              std::to_string(parameter_lanes[l].size()) +
              " parameters but lane 0 carries " + std::to_string(n));
    }
  }
  return ConfigError::Ok();
}

namespace {

/// Sign-aware clamp: -Inf (and NaN with the sign bit set) pins to the
/// biological floor, +Inf/NaN to the ceiling — a huge negative update means
/// the population crashed, not exploded. Pinning at the ceiling sets
/// *saturated_high (when non-null); the floor is ordinary die-off and is
/// never reported.
double ClampState(double value, const SimulationConfig& config,
                  bool* saturated_high = nullptr) {
  if (!std::isfinite(value)) {
    if (std::signbit(value)) return config.state_min;
    if (saturated_high != nullptr) *saturated_high = true;
    return config.state_max;
  }
  if (value < config.state_min) return config.state_min;
  if (value > config.state_max) {
    if (saturated_high != nullptr) *saturated_high = true;
    return config.state_max;
  }
  return value;
}

/// The derivative runner of every forward rollout. Evaluates the process
/// equations through the configured backend: interpreted tree walking,
/// the compiled system program (expr/compile.h), native JIT ("runtime
/// compilation"), or generation-JIT symbols. The interpreter and the native
/// JIT read one lane in AoS order, which is the SoA layout at width 1, so
/// they serve width-1 blocks only; the other backends serve any width.
class ProcessRunner final : public DerivativeSource {
 public:
  /// When `compiled` and the config selects kNativeJit, each equation is
  /// JIT-compiled (subject to the circuit breaker); under kBatchJit, the
  /// session compiles the system's symbols. Every equation without a JIT
  /// entry point runs on one system program, recorded in jit_fallback()
  /// when a JIT compile was asked for and failed.
  ProcessRunner(const std::vector<expr::ExprPtr>& equations, bool compiled,
                const SimulationConfig& config)
      : equations_(equations), compiled_(compiled) {
    GMR_CHECK(!equations_.empty());
    if (!compiled_) return;
    std::vector<const expr::Expr*> roots;
    roots.reserve(equations_.size());
    for (const auto& eq : equations_) roots.push_back(eq.get());
    const CompiledBackend backend = config.compiled_backend;
    if (backend == CompiledBackend::kBatchJit) {
      expr::BatchJitSession* session =
          config.batch_jit_session != nullptr
              ? config.batch_jit_session
              : expr::BatchJitSession::Default();
      // Pure cache hits when the evaluator's PrepareBatch already compiled
      // this generation; a miss compiles a (small) TU for this system.
      batch_fns_ = session->CompileBatch(roots);
      for (std::size_t e = 0; e < roots.size(); ++e) {
        if (batch_fns_[e] == nullptr) {
          jit_fallback_ = true;
        } else {
          roots[e] = nullptr;
        }
      }
    } else if (backend == CompiledBackend::kNativeJit) {
      expr::JitCircuitBreaker* breaker =
          config.jit_breaker != nullptr ? config.jit_breaker
                                        : expr::JitCircuitBreaker::Default();
      jit_programs_.resize(equations_.size());
      for (std::size_t e = 0; e < equations_.size(); ++e) {
        if (!breaker->allowed()) {
          jit_fallback_ = true;
          continue;
        }
        std::string error;
        jit_programs_[e] = expr::JitProgram::Compile(*equations_[e], &error);
        if (jit_programs_[e] != nullptr) {
          breaker->RecordSuccess();
          roots[e] = nullptr;
        } else {
          breaker->RecordFailure(error);
          jit_fallback_ = true;
        }
      }
    }
    // One equation per constituent state (ValidateSimulation), so the
    // state slots are [0, equations.size()).
    if (std::any_of(roots.begin(), roots.end(),
                    [](const expr::Expr* root) { return root != nullptr; })) {
      program_ = expr::CompileSystem(roots, equations_.size());
    }
  }

  void BeginDay(const double* variables, std::size_t num_variables,
                const double* parameters, std::size_t num_parameters,
                std::size_t width) override {
    if (program_.empty()) return;
    program_.RunDay(
        {variables, num_variables, parameters, num_parameters, width});
  }

  void Derivatives(const double* variables, std::size_t num_variables,
                   const double* parameters, std::size_t num_parameters,
                   std::size_t width, double* derivatives) override {
    const std::size_t n = equations_.size();
    if (FaultInjected(FaultPoint::kDerivativeNan)) {
      std::fill_n(derivatives, n * width,
                  std::numeric_limits<double>::quiet_NaN());
      return;
    }
    if (!compiled_) {
      const expr::EvalContext ctx{variables, num_variables, parameters,
                                  num_parameters};
      for (std::size_t e = 0; e < n; ++e) {
        derivatives[e] = expr::EvalExpr(*equations_[e], ctx);
      }
      return;
    }
    if (!program_.empty()) {
      program_.RunStage(
          {variables, num_variables, parameters, num_parameters, width},
          derivatives);
    }
    for (std::size_t e = 0; e < batch_fns_.size(); ++e) {
      if (batch_fns_[e] != nullptr) {
        batch_fns_[e](variables, parameters, derivatives + e * width,
                      static_cast<long>(width));
      }
    }
    if (!jit_programs_.empty()) {
      const expr::EvalContext ctx{variables, num_variables, parameters,
                                  num_parameters};
      for (std::size_t e = 0; e < n; ++e) {
        if (jit_programs_[e] != nullptr) {
          derivatives[e] = jit_programs_[e]->Run(ctx);
        }
      }
    }
  }

  bool jit_fallback() const override { return jit_fallback_; }

 private:
  std::vector<expr::ExprPtr> equations_;
  bool compiled_;
  /// Every compiled equation without a JIT entry point; empty when the
  /// interpreter runs or every equation has one.
  expr::SystemProgram program_;
  /// Parallel to equations_ under kNativeJit; null entries run on
  /// program_.
  std::vector<std::unique_ptr<expr::JitProgram>> jit_programs_;
  /// Parallel to equations_ under kBatchJit; null entries run on program_.
  std::vector<expr::BatchJitSession::BatchFn> batch_fns_;
  bool jit_fallback_ = false;
};

}  // namespace

LaneIntegrator::LaneIntegrator(DerivativeSource* source,
                               const RiverDataset* dataset,
                               std::vector<double> parameters,
                               std::size_t width,
                               const std::vector<double>& initial_state,
                               const SimulationConfig& config)
    : source_(source),
      dataset_(dataset),
      config_(config),
      width_(width),
      num_species_(initial_state.size()),
      num_variables_(initial_state.size() +
                     static_cast<std::size_t>(kNumDriverVariables)),
      num_parameters_(width == 0 ? 0 : parameters.size() / width),
      dt_(1.0 / static_cast<double>(config.substeps)),
      params_(std::move(parameters)),
      lanes_(width),
      states_(num_species_ * width),
      vars_(num_variables_ * width),
      k_((config.method == IntegrationMethod::kRk4 ? 4 : 1) * num_species_ *
         width),
      raw_(num_species_ * width) {
  GMR_CHECK(source_ != nullptr);
  GMR_CHECK_GT(width_, 0u);
  GMR_CHECK_EQ(num_parameters_ * width_, params_.size());
  SetState(initial_state);
}

void LaneIntegrator::SetState(const std::vector<double>& state) {
  GMR_CHECK_EQ(state.size(), num_species_);
  for (std::size_t s = 0; s < num_species_; ++s) {
    std::fill_n(&states_[s * width_], width_, ClampState(state[s], config_));
  }
}

bool LaneIntegrator::BeginDay(std::size_t t) {
  bool any_live = false;
  for (Lane& lane : lanes_) {
    ++lane.days_simulated;
    any_live = any_live || !lane.aborted;
  }
  if (!any_live) return false;
  double* drivers = vars_.data() + num_species_ * width_;
  for (int k = 0; k < kNumDriverVariables; ++k) {
    const double v = dataset_->drivers[static_cast<std::size_t>(kVlgt + k)][t];
    for (std::size_t l = 0; l < width_; ++l) {
      drivers[static_cast<std::size_t>(k) * width_ + l] = v;
    }
  }
  source_->BeginDay(vars_.data(), num_variables_, params_.data(),
                    num_parameters_, width_);
  return true;
}

void LaneIntegrator::AdvanceDay(std::size_t t) {
  if (!BeginDay(t)) return;
  for (int step = 0; step < config_.substeps; ++step) {
    if (!Substep()) break;
  }
}

bool LaneIntegrator::Substep() {
  // Every scalar rollout runs at width 1; handing the compiler that width
  // as a constant collapses the lane loops of the same code.
  return width_ == 1 ? SubstepAt<1>() : SubstepAt<0>();
}

template <std::size_t kWidth>
bool LaneIntegrator::SubstepAt() {
  const std::size_t width = kWidth != 0 ? kWidth : width_;
  Lane* lanes = lanes_.data();
  bool any_live = false;
  for (std::size_t l = 0; l < width; ++l) {
    Lane& lane = lanes[l];
    lane.live = false;
    if (lane.aborted) continue;
    if (config_.substep_budget > 0 &&
        lane.substeps_used >= config_.substep_budget) {
      Abort(lane, EvalOutcome::kBudgetExceeded);
      continue;
    }
    ++lane.substeps_used;
    lane.live = true;
    any_live = true;
  }
  if (!any_live) return false;

  const std::size_t n = num_species_ * width;
  const double dt = dt_;
  double* vars = vars_.data();
  double* states = states_.data();
  const int num_stages = config_.method == IntegrationMethod::kRk4 ? 4 : 1;
  for (int stage = 0; stage < num_stages; ++stage) {
    double* k = k_.data() + static_cast<std::size_t>(stage) * n;
    if (stage == 0) {
      for (std::size_t i = 0; i < n; ++i) vars[i] = states[i];
    } else {
      const double o = kRk4StageOffsets[stage];
      const double* k_prev = k - n;
      for (std::size_t i = 0; i < n; ++i) {
        vars[i] = states[i] + o * dt * k_prev[i];
      }
    }
    source_->Derivatives(vars, num_variables_, params_.data(),
                         num_parameters_, width, k);
    // One non-finite count per Derivatives call and lane, whichever species
    // went non-finite. A lane that aborts here skips the later stages'
    // bookkeeping and the commit: the scalar rollout's early return.
    bool stage_live = false;
    for (std::size_t l = 0; l < width; ++l) {
      Lane& lane = lanes[l];
      if (!lane.live) continue;
      bool all_finite = true;
      for (std::size_t s = 0; s < num_species_; ++s) {
        all_finite = all_finite && std::isfinite(k[s * width + l]);
      }
      if (!all_finite) {
        ++lane.nonfinite_derivatives;
        if (config_.max_nonfinite_derivatives > 0 &&
            lane.nonfinite_derivatives >=
                static_cast<std::size_t>(config_.max_nonfinite_derivatives)) {
          Abort(lane, EvalOutcome::kNonFiniteDerivative);
          lane.live = false;
          continue;
        }
      }
      stage_live = true;
    }
    if (!stage_live) return true;
  }

  double* raw = raw_.data();
  const double* k0 = k_.data();
  if (num_stages == 1) {
    for (std::size_t i = 0; i < n; ++i) raw[i] = states[i] + dt * k0[i];
  } else {
    const double* k1 = k0 + n;
    const double* k2 = k1 + n;
    const double* k3 = k2 + n;
    for (std::size_t i = 0; i < n; ++i) {
      raw[i] = states[i] +
               dt / 6.0 * (k0[i] + 2.0 * k1[i] + 2.0 * k2[i] + k3[i]);
    }
  }
  // Clamp and commit every live lane, counting consecutive ceiling
  // saturations (ORed across species) for the divergence watchdog.
  for (std::size_t l = 0; l < width; ++l) {
    Lane& lane = lanes[l];
    if (!lane.live) continue;
    bool saturated = false;
    for (std::size_t s = 0; s < num_species_; ++s) {
      states[s * width + l] =
          ClampState(raw[s * width + l], config_, &saturated);
    }
    if (!saturated) {
      lane.consecutive_saturated = 0;
      continue;
    }
    ++lane.clamp_saturations;
    ++lane.consecutive_saturated;
    if (config_.max_saturated_substeps > 0 &&
        lane.consecutive_saturated >=
            static_cast<std::size_t>(config_.max_saturated_substeps)) {
      Abort(lane, EvalOutcome::kClampSaturated);
    }
  }
  return true;
}

EvalOutcome LaneIntegrator::outcome(std::size_t lane) const {
  if (lanes_[lane].aborted) return lanes_[lane].abort_outcome;
  if (source_->jit_fallback()) return EvalOutcome::kJitCompileFailed;
  return EvalOutcome::kOk;
}

void LaneIntegrator::FillReport(std::size_t lane_index,
                                SimulationReport* report) const {
  const Lane& lane = lanes_[lane_index];
  report->outcome = outcome(lane_index);
  report->aborted = lane.aborted;
  report->jit_fallback = source_->jit_fallback();
  report->substeps_used = lane.substeps_used;
  report->days_simulated = lane.days_simulated;
  report->days_before_abort =
      lane.aborted ? lane.days_before_abort : lane.days_simulated;
  report->nonfinite_derivatives = lane.nonfinite_derivatives;
  report->clamp_saturations = lane.clamp_saturations;
}

void LaneIntegrator::Abort(Lane& lane, EvalOutcome outcome) {
  lane.aborted = true;
  lane.abort_outcome = outcome;
  // The current day did not complete; it and all later days predict the
  // penalty value.
  lane.days_before_abort = lane.days_simulated - 1;
}

std::vector<ObservationBinding> BindObservations(
    const ConstituentSet& constituents) {
  std::vector<ObservationBinding> observations;
  for (std::size_t i = 0; i < constituents.size(); ++i) {
    const Constituent& c = constituents.at(i);
    if (c.observed_series >= 0) {
      observations.push_back(ObservationBinding{i, c.observed_series});
    }
  }
  if (observations.empty()) {
    observations.push_back(ObservationBinding{
        static_cast<std::size_t>(constituents.PrimaryObserved()), 0});
  }
  return observations;
}

namespace {

class RiverEvaluation : public gp::SequentialEvaluation {
 public:
  RiverEvaluation(const std::vector<expr::ExprPtr>& equations,
                  const std::vector<double>& parameters, bool compiled,
                  const RiverDataset* dataset, std::size_t t_begin,
                  std::size_t t_end,
                  const std::vector<double>& initial_state,
                  std::vector<ObservationBinding> observations,
                  const SimulationConfig& config)
      : runner_(equations, compiled, config),
        integrator_(&runner_, dataset, parameters, 1, initial_state, config),
        dataset_(dataset),
        observations_(std::move(observations)),
        t_(t_begin),
        t_end_(t_end) {}
  // integrator_ points at runner_, so the evaluation stays where it was
  // built.
  RiverEvaluation(const RiverEvaluation&) = delete;
  RiverEvaluation& operator=(const RiverEvaluation&) = delete;

  bool Step() override {
    GMR_CHECK_LT(t_, t_end_);
    integrator_.AdvanceDay(t_);
    for (const ObservationBinding& binding : observations_) {
      const double predicted = integrator_.StateOrPenalty(binding.species, 0);
      const double observed = dataset_->ObservedSeries(binding.series)[t_];
      const double error = predicted - observed;
      sse_ += error * error;
    }
    ++steps_;
    ++t_;
    return t_ < t_end_;
  }

  double CurrentFitness() const override {
    if (steps_ == 0) return 0.0;
    // RMSE over days x observed constituents; with a single observed
    // series this is exactly the historical sqrt(sse / steps).
    return std::sqrt(
        sse_ / static_cast<double>(steps_ * observations_.size()));
  }

  std::size_t steps_taken() const override { return steps_; }

  EvalOutcome outcome() const override { return integrator_.outcome(0); }

 private:
  ProcessRunner runner_;
  LaneIntegrator integrator_;
  const RiverDataset* dataset_;
  std::vector<ObservationBinding> observations_;
  std::size_t t_;
  std::size_t t_end_;
  double sse_ = 0.0;
  std::size_t steps_ = 0;
};

/// The legacy plankton preset with the initial conditions `dataset` carries.
ConstituentSet LegacyConstituents(const RiverDataset& dataset) {
  return ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
}

}  // namespace

SimulationTrajectory Simulate(const std::vector<expr::ExprPtr>& equations,
                              const std::vector<double>& parameters,
                              const RiverDataset& dataset,
                              std::size_t t_begin, std::size_t t_end,
                              const ConstituentSet& constituents,
                              const std::vector<double>& initial_state,
                              const SimulationConfig& config, bool compiled,
                              SimulationReport* report) {
  GMR_CHECK_LE(t_end, dataset.num_days);
  GMR_CHECK_LE(t_begin, t_end);
  const ConfigError err =
      ValidateSimulation(config, constituents, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  GMR_CHECK_EQ(initial_state.size(), constituents.size());
  ProcessRunner runner(equations, compiled, config);
  LaneIntegrator integrator(&runner, &dataset, parameters, 1, initial_state,
                            config);
  SimulationTrajectory trajectory;
  trajectory.series.resize(constituents.size());
  for (auto& series : trajectory.series) series.reserve(t_end - t_begin);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    integrator.AdvanceDay(t);
    for (std::size_t s = 0; s < constituents.size(); ++s) {
      trajectory.series[s].push_back(integrator.StateOrPenalty(s, 0));
    }
  }
  if (report != nullptr) integrator.FillReport(0, report);
  return trajectory;
}

BatchSimulationResult BatchSimulate(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<std::vector<double>>& parameter_lanes,
    const RiverDataset& dataset, std::size_t t_begin, std::size_t t_end,
    const ConstituentSet& constituents,
    const std::vector<double>& initial_state,
    const SimulationConfig& config) {
  GMR_CHECK_LE(t_end, dataset.num_days);
  GMR_CHECK_LE(t_begin, t_end);
  ConfigError err = ValidateSimulation(config, constituents, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  err = ValidateBatchLanes(parameter_lanes);
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  GMR_CHECK_EQ(initial_state.size(), constituents.size());
  BatchSimulationResult result;
  result.width = parameter_lanes.size();
  result.num_species = constituents.size();
  result.predicted.resize(result.width);
  result.reports.resize(result.width);
  if (result.width == 0) return result;
  // Lane blocks run on the system program, or on generation-JIT symbols
  // when the config asks for them (the native JIT is scalar only).
  SimulationConfig lane_config = config;
  if (lane_config.compiled_backend != CompiledBackend::kBatchJit) {
    lane_config.compiled_backend = CompiledBackend::kBatchVm;
  }
  ProcessRunner runner(equations, /*compiled=*/true, lane_config);
  const std::size_t num_parameters = parameter_lanes[0].size();
  std::vector<double> parameters(num_parameters * result.width);
  for (std::size_t l = 0; l < result.width; ++l) {
    for (std::size_t p = 0; p < num_parameters; ++p) {
      parameters[p * result.width + l] = parameter_lanes[l][p];
    }
  }
  LaneIntegrator integrator(&runner, &dataset, std::move(parameters),
                            result.width, initial_state, config);
  const auto primary = static_cast<std::size_t>(constituents.PrimaryObserved());
  for (auto& lane : result.predicted) lane.reserve(t_end - t_begin);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    integrator.AdvanceDay(t);
    for (std::size_t l = 0; l < result.width; ++l) {
      result.predicted[l].push_back(integrator.StateOrPenalty(primary, l));
    }
  }
  for (std::size_t l = 0; l < result.width; ++l) {
    integrator.FillReport(l, &result.reports[l]);
  }
  return result;
}

RiverFitness::RiverFitness(const RiverDataset* dataset, std::size_t t_begin,
                           std::size_t t_end, ConstituentSet constituents,
                           std::vector<double> initial_state,
                           SimulationConfig config)
    : dataset_(dataset),
      t_begin_(t_begin),
      t_end_(t_end),
      constituents_(std::move(constituents)),
      initial_state_(std::move(initial_state)),
      config_(config) {
  GMR_CHECK(dataset_ != nullptr);
  GMR_CHECK_LT(t_begin_, t_end_);
  GMR_CHECK_LE(t_end_, dataset_->num_days);
  ConfigError err =
      ValidateSimulation(config_, constituents_, constituents_.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  err = ValidateObservations(constituents_, *dataset_);
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  GMR_CHECK_EQ(initial_state_.size(), constituents_.size());
}

RiverFitness RiverFitness::ForTraining(const RiverDataset* dataset,
                                       SimulationConfig config) {
  return ForTrainingWith(dataset, LegacyConstituents(*dataset), config);
}

RiverFitness RiverFitness::ForTest(const RiverDataset* dataset,
                                   SimulationConfig config) {
  return ForTestWith(dataset, LegacyConstituents(*dataset), config);
}

RiverFitness RiverFitness::ForTrainingWith(const RiverDataset* dataset,
                                           const ConstituentSet& constituents,
                                           SimulationConfig config) {
  config.num_species = static_cast<int>(constituents.size());
  return RiverFitness(dataset, 0, dataset->train_end, constituents,
                      constituents.InitialStates(), config);
}

RiverFitness RiverFitness::ForTestWith(const RiverDataset* dataset,
                                       const ConstituentSet& constituents,
                                       SimulationConfig config) {
  config.num_species = static_cast<int>(constituents.size());
  return RiverFitness(dataset, dataset->train_end, dataset->num_days,
                      constituents, constituents.TestInitialStates(), config);
}

std::size_t RiverFitness::num_parameters() const {
  return constituents_.num_parameters();
}

bool RiverFitness::WantsBatchPreparation() const {
  return config_.compiled_backend == CompiledBackend::kBatchJit;
}

void RiverFitness::PrepareBatch(
    const std::vector<std::vector<expr::ExprPtr>>& phenotypes) const {
  expr::BatchJitSession* session =
      config_.batch_jit_session != nullptr ? config_.batch_jit_session
                                           : expr::BatchJitSession::Default();
  std::vector<const expr::Expr*> roots;
  roots.reserve(constituents_.size() * phenotypes.size());
  for (const auto& equations : phenotypes) {
    for (const auto& eq : equations) roots.push_back(eq.get());
  }
  if (!roots.empty()) session->CompileBatch(roots);
}

std::unique_ptr<gp::SequentialEvaluation> RiverFitness::Begin(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters,
    bool use_compiled_backend) const {
  const ConfigError err =
      ValidateSimulation(config_, constituents_, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  return std::make_unique<RiverEvaluation>(
      equations, parameters, use_compiled_backend, dataset_, t_begin_,
      t_end_, initial_state_, BindObservations(constituents_), config_);
}

}  // namespace gmr::river
