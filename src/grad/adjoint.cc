#include "grad/adjoint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <utility>

#include "common/check.h"
#include "expr/eval.h"
#include "grad/tape.h"
#include "river/variables.h"

namespace gmr::grad {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// The rollout config of the objective and the gradient's forward sweep:
/// the compiled system program whatever backend `config` names. It is
/// bit-identical to the tree interpreter (which the gradient tapes replay),
/// where a JIT backend only promises a few ULPs and would invoke the C
/// compiler on every objective call.
river::SimulationConfig ForwardConfig(river::SimulationConfig config) {
  config.compiled_backend = river::CompiledBackend::kBytecodeVm;
  return config;
}

/// The fitness evaluator's RMSE of a rollout: squared errors summed day by
/// day over the observation bindings in RiverEvaluation's order, so the
/// value is bit-identical to the evaluator's running RMSE.
double TrajectoryRmse(const river::SimulationTrajectory& trajectory,
                      const river::RiverDataset& dataset, std::size_t t_begin,
                      const std::vector<river::ObservationBinding>& bindings) {
  const std::size_t steps = trajectory.series[0].size();
  if (steps == 0) return 0.0;
  double sse = 0.0;
  for (std::size_t d = 0; d < steps; ++d) {
    for (const auto& [species, series] : bindings) {
      const double error = trajectory.series[species][d] -
                           dataset.ObservedSeries(series)[t_begin + d];
      sse += error * error;
    }
  }
  return std::sqrt(sse / static_cast<double>(steps * bindings.size()));
}

/// Sound pruning env for the rollout: parameters pinned to θ (the tape is
/// rebuilt per gradient query), drivers spanning the window's data hull,
/// and states spanning the commit clamp (Euler feeds equations committed
/// states only) or unbounded with the NaN bit (RK4 stage inputs are
/// unclamped sums that can overflow or go NaN).
analysis::DomainEnv RolloutEnv(const std::vector<double>& parameters,
                               const river::RiverDataset& dataset,
                               std::size_t t_begin, std::size_t t_end,
                               std::size_t num_species,
                               const river::SimulationConfig& config) {
  analysis::DomainEnv env;
  analysis::Interval state_interval;
  if (config.method == river::IntegrationMethod::kEuler) {
    state_interval = analysis::Interval::Of(config.state_min,
                                            config.state_max);
  } else {
    state_interval = analysis::Interval::All();
    state_interval.maybe_nan = true;
  }
  env.variables.assign(num_species, state_interval);
  for (int k = 0; k < river::kNumDriverVariables; ++k) {
    const std::vector<double>& series =
        dataset.drivers[static_cast<std::size_t>(river::kVlgt + k)];
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    bool clean = t_begin < t_end;
    for (std::size_t t = t_begin; t < t_end && clean; ++t) {
      clean = std::isfinite(series[t]);
      lo = std::min(lo, series[t]);
      hi = std::max(hi, series[t]);
    }
    env.variables.push_back(clean ? analysis::Interval::Of(lo, hi)
                                  : analysis::Interval::All());
  }
  env.parameters.reserve(parameters.size());
  for (const double p : parameters) {
    env.parameters.push_back(analysis::Interval::Point(p));
  }
  return env;
}

/// Derivative source of the reverse sweep's replay: evaluates each
/// equation's tape at width 1 (values bit-identical to the interpreter)
/// and keeps every tape value buffer of the day. A replayed day never
/// aborts, so call c of the day is substep c / stages, stage c % stages.
class TapeRecorder final : public river::DerivativeSource {
 public:
  TapeRecorder(const std::vector<Tape>* tapes, std::size_t calls_per_day)
      : tapes_(tapes) {
    for (const Tape& tape : *tapes_) {
      offsets_.push_back(total_nodes_);
      total_nodes_ += tape.size();
    }
    values_.assign(calls_per_day * total_nodes_, 0.0);
  }

  void Rewind() { call_ = 0; }

  /// Tape values of equation `e` at call `call` of the day.
  const double* values(std::size_t call, std::size_t e) const {
    return values_.data() + call * total_nodes_ + offsets_[e];
  }

  void Derivatives(const double* variables, std::size_t num_variables,
                   const double* parameters, std::size_t num_parameters,
                   std::size_t /*width*/, double* derivatives) override {
    const expr::EvalContext ctx{variables, num_variables, parameters,
                                num_parameters};
    double* values = values_.data() + call_++ * total_nodes_;
    for (std::size_t e = 0; e < tapes_->size(); ++e) {
      derivatives[e] = (*tapes_)[e].Forward(ctx, values + offsets_[e]);
    }
  }

 private:
  const std::vector<Tape>* tapes_;
  std::vector<std::size_t> offsets_;
  std::size_t total_nodes_ = 0;
  std::vector<double> values_;
  std::size_t call_ = 0;
};

}  // namespace

GradientResult RmseGradient(const std::vector<expr::ExprPtr>& equations,
                            const std::vector<double>& parameters,
                            const river::RiverDataset& dataset,
                            std::size_t t_begin, std::size_t t_end,
                            const river::ConstituentSet& constituents,
                            const std::vector<double>& initial_state,
                            const river::SimulationConfig& config,
                            bool prune) {
  GradientResult result;
  const std::size_t num_species = constituents.size();
  const std::size_t steps = t_end - t_begin;
  result.gradient.assign(parameters.size(), 0.0);

  // Forward sweep: the ordinary compiled rollout (bit-identical to the
  // tree interpreter the tapes replay), whose trajectory doubles as the
  // begin-of-day state checkpoints of the reverse sweep.
  const river::SimulationTrajectory trajectory =
      river::Simulate(equations, parameters, dataset, t_begin, t_end,
                      constituents, initial_state, ForwardConfig(config),
                      /*compiled=*/true, &result.report);
  const std::vector<river::ObservationBinding> bindings =
      river::BindObservations(constituents);
  result.rmse = TrajectoryRmse(trajectory, dataset, t_begin, bindings);
  if (steps == 0) {
    result.gradient_valid = true;
    return result;
  }

  // One tape per equation, activity-pruned over the rollout env.
  analysis::DomainEnv env;
  if (prune) {
    env = RolloutEnv(parameters, dataset, t_begin, t_end, num_species,
                     config);
  }
  std::vector<Tape> tapes;
  tapes.reserve(equations.size());
  std::size_t max_tape = 0;
  try {
    for (const expr::ExprPtr& eq : equations) {
      tapes.emplace_back(*eq, static_cast<int>(parameters.size()),
                         static_cast<int>(num_species),
                         prune ? &env : nullptr);
      max_tape = std::max(max_tape, tapes.back().size());
      result.tape_nodes += tapes.back().size();
      result.pruned_nodes += tapes.back().pruned_nodes();
    }
  } catch (const std::bad_alloc&) {
    // `tape_alloc` fault or a genuine allocation failure: the value is
    // still good; the gradient is not. Consumers degrade.
    result.gradient_valid = false;
    return result;
  }

  // Days at or after the abort point predict the constant penalty state:
  // zero gradient by construction, so the reverse sweep skips them.
  const std::size_t good_days =
      result.report.aborted ? result.report.days_before_abort : steps;
  if (result.rmse == 0.0) {
    // RMSE is non-differentiable at exactly 0; report the zero subgradient.
    result.gradient_valid = true;
    return result;
  }

  const auto substeps = static_cast<std::size_t>(config.substeps);
  const double dt = 1.0 / static_cast<double>(config.substeps);
  const bool rk4 = config.method == river::IntegrationMethod::kRk4;
  const std::size_t num_stages = rk4 ? 4 : 1;

  // The reverse sweep replays each day through the rollout kernel itself,
  // with the watchdogs off: every replayed day completed in the forward
  // sweep, and the replay's counters, which accumulate over all replayed
  // days, must not abort it.
  river::SimulationConfig replay_config = config;
  replay_config.max_nonfinite_derivatives = 0;
  replay_config.max_saturated_substeps = 0;
  replay_config.substep_budget = 0;
  TapeRecorder recorder(&tapes, substeps * num_stages);
  river::LaneIntegrator replay(&recorder, &dataset, parameters, 1,
                               initial_state, replay_config);

  std::vector<double> lambda(num_species, 0.0);   // dSSE/d(end-of-day state)
  std::vector<double> param_adjoint(parameters.size(), 0.0);
  std::vector<double> lambda_raw(num_species, 0.0);
  std::vector<double> lambda_next(num_species, 0.0);
  std::vector<double> stage_adjoint(num_species, 0.0);
  std::vector<double> gk(4 * num_species, 0.0);
  std::vector<double> cotangents(max_tape, 0.0);
  std::vector<double> checkpoint(num_species, 0.0);
  // Per substep and species: did the commit clamp pass the raw state
  // through (unit derivative)? Pinned or non-finite raw states are locally
  // constant, so their cotangent is dropped exactly.
  std::vector<char> clamp_passes(substeps * num_species, 0);

  for (std::size_t d = good_days; d-- > 0;) {
    // Seed with this day's residuals: d(SSE)/d(prediction) = 2 * error.
    for (const auto& [species, series] : bindings) {
      const double error = trajectory.series[species][d] -
                           dataset.ObservedSeries(series)[t_begin + d];
      lambda[species] += 2.0 * error;
    }
    // Recompute the day's substeps from the begin-of-day checkpoint through
    // the same substep code as the forward sweep (same kernels, same
    // operation order), so the committed states match it bitwise.
    if (d == 0) {
      replay.SetState(initial_state);
    } else {
      for (std::size_t s = 0; s < num_species; ++s) {
        checkpoint[s] = trajectory.series[s][d - 1];
      }
      replay.SetState(checkpoint);
    }
    recorder.Rewind();
    replay.BeginDay(t_begin + d);
    for (std::size_t step = 0; step < substeps; ++step) {
      replay.Substep();
      for (std::size_t s = 0; s < num_species; ++s) {
        // The clamp is the identity exactly where it left the raw state
        // unchanged.
        clamp_passes[step * num_species + s] =
            replay.raw()[s] == replay.StateOrPenalty(s, 0);
      }
    }
    // Reverse the substeps: through the commit clamp, the RK4 stage
    // chain, and each equation's tape.
    for (std::size_t step = substeps; step-- > 0;) {
      for (std::size_t s = 0; s < num_species; ++s) {
        lambda_raw[s] =
            clamp_passes[step * num_species + s] != 0 ? lambda[s] : 0.0;
        lambda_next[s] = lambda_raw[s];  // raw = state + ... (identity term)
      }
      if (rk4) {
        for (std::size_t s = 0; s < num_species; ++s) {
          gk[0 * num_species + s] = lambda_raw[s] * (dt / 6.0);
          gk[1 * num_species + s] = lambda_raw[s] * (dt / 3.0);
          gk[2 * num_species + s] = lambda_raw[s] * (dt / 3.0);
          gk[3 * num_species + s] = lambda_raw[s] * (dt / 6.0);
        }
      } else {
        for (std::size_t s = 0; s < num_species; ++s) {
          gk[s] = lambda_raw[s] * dt;
        }
      }
      for (std::size_t stage = num_stages; stage-- > 0;) {
        std::fill(stage_adjoint.begin(), stage_adjoint.end(), 0.0);
        for (std::size_t e = 0; e < tapes.size(); ++e) {
          const double seed = gk[stage * num_species + e];
          if (seed == 0.0) continue;
          tapes[e].Reverse(recorder.values(step * num_stages + stage, e),
                           seed, param_adjoint.data(), stage_adjoint.data(),
                           cotangents.data());
        }
        // Stage input x = state + o * dt * k_prev: the identity part feeds
        // the substep's state cotangent, the k_prev part the previous
        // stage's slope cotangent.
        for (std::size_t s = 0; s < num_species; ++s) {
          lambda_next[s] += stage_adjoint[s];
        }
        if (stage > 0) {
          const double o = river::kRk4StageOffsets[stage];
          for (std::size_t s = 0; s < num_species; ++s) {
            gk[(stage - 1) * num_species + s] += o * dt * stage_adjoint[s];
          }
        }
      }
      lambda = lambda_next;
    }
  }

  // dRMSE/dθ = dSSE/dθ / (2 * RMSE * days * observations).
  const double scale =
      1.0 / (2.0 * result.rmse * static_cast<double>(steps) *
             static_cast<double>(bindings.size()));
  bool valid = true;
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    result.gradient[i] = param_adjoint[i] == 0.0 ? 0.0
                                                 : param_adjoint[i] * scale;
    valid = valid && std::isfinite(result.gradient[i]);
  }
  result.gradient_valid = valid;
  return result;
}

RiverGradientFitness::RiverGradientFitness(
    const river::RiverDataset* dataset, std::size_t t_begin,
    std::size_t t_end, river::ConstituentSet constituents,
    std::vector<double> initial_state, river::SimulationConfig config)
    : dataset_(dataset),
      t_begin_(t_begin),
      t_end_(t_end),
      constituents_(std::move(constituents)),
      initial_state_(std::move(initial_state)),
      config_(config) {
  GMR_CHECK(dataset_ != nullptr);
  config_.num_species = static_cast<int>(constituents_.size());
}

RiverGradientFitness RiverGradientFitness::ForTraining(
    const river::RiverDataset* dataset,
    const river::ConstituentSet& constituents,
    river::SimulationConfig config) {
  return RiverGradientFitness(dataset, 0, dataset->train_end, constituents,
                              constituents.InitialStates(), config);
}

bool RiverGradientFitness::EvaluateGradient(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters, double* value,
    std::vector<double>* gradient, GradientStats* stats) const {
  const GradientResult result =
      RmseGradient(equations, parameters, *dataset_, t_begin_, t_end_,
                   constituents_, initial_state_, config_);
  *value = result.rmse;
  *gradient = result.gradient;
  if (stats != nullptr) {
    stats->tape_nodes = result.tape_nodes;
    stats->pruned_nodes = result.pruned_nodes;
  }
  return result.gradient_valid;
}

namespace {

/// Shared capture of the calibration adapters.
struct RolloutProblem {
  std::vector<expr::ExprPtr> equations;
  const river::RiverDataset* dataset;
  std::size_t t_begin;
  std::size_t t_end;
  river::ConstituentSet constituents;
  std::vector<double> initial_state;
  river::SimulationConfig config;
};

std::shared_ptr<RolloutProblem> MakeRolloutProblem(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config) {
  auto problem = std::make_shared<RolloutProblem>();
  problem->equations = std::move(equations);
  problem->dataset = dataset;
  problem->t_begin = t_begin;
  problem->t_end = t_end;
  problem->constituents = std::move(constituents);
  problem->initial_state = std::move(initial_state);
  problem->config = config;
  problem->config.num_species =
      static_cast<int>(problem->constituents.size());
  return problem;
}

}  // namespace

calibrate::Objective MakeRmseObjective(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config) {
  auto problem = MakeRolloutProblem(std::move(equations), dataset, t_begin,
                                    t_end, std::move(constituents),
                                    std::move(initial_state), config);
  return [problem](const std::vector<double>& x) {
    const river::SimulationTrajectory trajectory = river::Simulate(
        problem->equations, x, *problem->dataset, problem->t_begin,
        problem->t_end, problem->constituents, problem->initial_state,
        ForwardConfig(problem->config), /*compiled=*/true);
    return TrajectoryRmse(trajectory, *problem->dataset, problem->t_begin,
                          river::BindObservations(problem->constituents));
  };
}

calibrate::GradientObjective MakeRmseGradientObjective(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config) {
  auto problem = MakeRolloutProblem(std::move(equations), dataset, t_begin,
                                    t_end, std::move(constituents),
                                    std::move(initial_state), config);
  return [problem](const std::vector<double>& x, std::vector<double>* g) {
    const GradientResult result = RmseGradient(
        problem->equations, x, *problem->dataset, problem->t_begin,
        problem->t_end, problem->constituents, problem->initial_state,
        problem->config);
    if (result.gradient_valid) {
      *g = result.gradient;
    } else {
      g->assign(x.size(), kNan);
    }
    return result.rmse;
  };
}

}  // namespace gmr::grad
