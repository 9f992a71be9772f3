#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "calibrate/calibrator.h"
#include "calibrate/methods.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "core/transport_grammar.h"
#include "decorators.h"
#include "expr/simplify.h"
#include "grad/adjoint.h"
#include "gp/tag3p.h"
#include "machine.h"
#include "river/biology.h"
#include "river/constituents.h"
#include "river/domains.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "stats.h"
#include "tag/derivation.h"

namespace perfbench {
namespace {

using namespace gmr;

/// SplitMix64 of (seed, salt): independent input streams per workload part.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

double Since(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Relative agreement used by the interpreter cross-check. The tree
/// interpreter and the bytecode VM are pinned 0 ULP apart, so any drift at
/// all beyond rounding in the RMSE sum is a defect.
constexpr double kCheckTolerance = 1e-9;

bool Close(double a, double b) {
  return std::abs(a - b) <= kCheckTolerance * std::max(1.0, std::abs(b));
}

std::string Describe(const char* what, double got, double want) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s: %.17g vs %.17g", what, got, want);
  return buffer;
}

/// The synthetic Nakdong-like study design: 8 years of daily data, the
/// first 6 for training. The river is held fixed (the bench harness's data
/// seed 7) and the workload seed drives the stochastic parts of each job:
/// search and calibrator RNG streams and ensemble perturbations. Different
/// synthetic rivers shift the attainable RMSE by tens of percent, which
/// would swamp the run-to-run comparison the benchmark exists for.
river::SyntheticConfig SynthConfig() {
  river::SyntheticConfig config;
  config.years = 8;
  config.train_years = 6;
  config.seed = 7;
  return config;
}

struct Accuracy {
  double train = 0.0;
  double test = 0.0;
};

/// Train/test RMSE recomputed through the tree interpreter
/// (Simulate with compiled=false), mirroring core::EvaluateAccuracy.
Accuracy InterpreterAccuracy(const std::vector<expr::ExprPtr>& equations,
                             const std::vector<double>& parameters,
                             const river::RiverDataset& dataset,
                             river::SimulationConfig config,
                             const river::ConstituentSet& constituents) {
  config.num_species = static_cast<int>(constituents.size());
  const int primary = constituents.PrimaryObserved();
  const int mapped =
      constituents.at(static_cast<std::size_t>(primary)).observed_series;
  const std::vector<double>& observed =
      dataset.ObservedSeries(mapped >= 0 ? mapped : 0);
  const std::size_t p = static_cast<std::size_t>(primary);
  const auto split = observed.begin() +
                     static_cast<std::ptrdiff_t>(dataset.train_end);
  Accuracy accuracy;
  accuracy.train = Rmse(
      river::Simulate(equations, parameters, dataset, 0, dataset.train_end,
                      constituents, constituents.InitialStates(), config,
                      /*compiled=*/false)
          .series[p],
      std::vector<double>(observed.begin(), split));
  accuracy.test = Rmse(
      river::Simulate(equations, parameters, dataset, dataset.train_end,
                      dataset.num_days, constituents,
                      constituents.TestInitialStates(), config,
                      /*compiled=*/false)
          .series[p],
      std::vector<double>(split, observed.end()));
  return accuracy;
}

river::ConstituentSet PlanktonSet(const river::RiverDataset& dataset) {
  return river::ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
}

/// Spans of one repetition by name (first match), or null.
const Span* Find(const std::vector<Span>& spans, int run_id,
                 const std::string& name) {
  for (const Span& span : spans) {
    if (span.run_id == run_id && span.name == name) return &span;
  }
  return nullptr;
}

/// Summed duration of the spans called `name` in one repetition.
double DurationOf(const std::vector<Span>& spans, int run_id,
                  const std::string& name) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.run_id == run_id && span.name == name) total += span.duration();
  }
  return total;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Set-up is short (~20 ms), so each repetition times it several times and
/// keeps the fastest; only the last build is used.
constexpr int kSetupSamples = 3;

/// Reference-loop passes before each repetition, and the loop's time on the
/// 4-vCPU host the bounds were tuned on (it read 9.4-11.4 ms there).
constexpr int kRefSamples = 5;
constexpr double kReferenceSeconds = 0.010;

// ---------------------------------------------------------------------------
// revise_plankton / revise_transport: core::RunGmr.

class ReviseWorkload final : public Workload {
 public:
  ReviseWorkload(bool transport, std::uint64_t seed, const Budget& budget)
      : transport_(transport), seed_(seed), budget_(budget) {}

  double nominal_rep_seconds() const override {
    return transport_ ? 7.5 : 11.5;
  }

  RepOutcome Repeat(Tracer* tracer, int run_id) override {
    ScopedSpan repetition(tracer, "repetition", run_id);
    RepOutcome out;
    std::unique_ptr<Inputs> inputs;
    for (int i = 0; i < kSetupSamples; ++i) {
      const std::int64_t start = NowNs();
      inputs = Setup(i + 1 == kSetupSamples ? tracer : nullptr, run_id);
      out.setup_s = i == 0 ? Since(start) : std::min(out.setup_s, Since(start));
    }

    const std::int64_t start = NowNs();
    std::vector<core::GmrRunResult> results;
    {
      ScopedSpan run(tracer, "run", run_id);
      for (int r = 0; r < restarts(); ++r) {
        inputs->config.tag3p.seed = RestartSeed(r);
        const std::int64_t job = NowNs();
        results.push_back(
            tracer != nullptr
                ? TracedRunGmr(*inputs, tracer, run_id)
                : core::RunGmr(inputs->config, inputs->Problem(), {}));
        out.job_s.push_back(Since(job));
      }
    }
    out.run_s = Since(start);

    // The median restart: robust to the occasional restart whose model
    // blows up on the test window (RMSE in the thousands).
    std::vector<double> train;
    std::vector<double> test;
    for (const core::GmrRunResult& result : results) {
      train.push_back(result.train_rmse);
      test.push_back(result.test_rmse);
    }
    out.train_rmse = Median(train);
    out.test_rmse = Median(test);
    for (const core::GmrRunResult& result : results) {
      const gp::EvalStats& s = result.search.eval_stats;
      out.fingerprint.insert(
          out.fingerprint.end(),
          {s.cache_lookups, s.static_rejects, s.verdict_cache_lookups,
           s.verdict_cache_hits, Bits(result.best.fitness),
           Bits(result.train_rmse), Bits(result.test_rmse),
           result.search.history.size()});
      // Which of two identical candidates in one batch hits the tree cache
      // depends on thread timing once evaluation runs on two lanes.
      std::vector<std::uint64_t>& hit_miss =
          transport_ ? out.scheduling_counters : out.fingerprint;
      hit_miss.insert(hit_miss.end(),
                      {s.individuals_evaluated, s.cache_hits,
                       s.full_evaluations, s.short_circuited,
                       s.time_steps_evaluated});
      for (std::size_t o = 0; o < kNumEvalOutcomes; ++o) {
        hit_miss.push_back(s.outcomes[o]);
      }
      const std::size_t task_failed =
          s.outcomes[static_cast<std::size_t>(EvalOutcome::kTaskFailed)];
      out.attempted += s.individuals_evaluated + s.cache_hits + task_failed;
      out.failed += task_failed;
      out.work += s.time_steps_evaluated;
    }
    last_inputs_ = std::move(inputs);
    last_results_ = std::move(results);
    return out;
  }

  bool Check(std::string* why, std::uint64_t* checks) override {
    const Inputs& in = *last_inputs_;
    const river::ConstituentSet constituents =
        in.constituents ? *in.constituents : PlanktonSet(in.dataset);
    for (const core::GmrRunResult& result : last_results_) {
      const Accuracy interp = InterpreterAccuracy(
          result.best_equations, result.best.parameters, in.dataset,
          in.config.simulation, constituents);
      *checks += 2;
      if (!std::isfinite(result.train_rmse) ||
          !Close(interp.train, result.train_rmse)) {
        *why = Describe("interpreter train_rmse", interp.train,
                        result.train_rmse);
        return false;
      }
      if (!std::isfinite(result.test_rmse) ||
          !Close(interp.test, result.test_rmse)) {
        *why = Describe("interpreter test_rmse", interp.test,
                        result.test_rmse);
        return false;
      }
    }
    if (transport_) {
      // Under the frozen ES frontier a search is bit-identical for any
      // thread count: restart 0 at 2 threads must equal a 1-thread run.
      ++*checks;
      std::unique_ptr<Inputs> serial = Setup(nullptr, 0);
      serial->config.tag3p.speedups.num_threads = 1;
      serial->config.tag3p.seed = RestartSeed(0);
      const core::GmrRunResult one =
          core::RunGmr(serial->config, serial->Problem(), {});
      const core::GmrRunResult& two = last_results_.front();
      if (Bits(one.train_rmse) != Bits(two.train_rmse) ||
          Bits(one.test_rmse) != Bits(two.test_rmse)) {
        *why = Describe("1-thread train_rmse", one.train_rmse,
                        two.train_rmse);
        return false;
      }
    }
    return true;
  }

  std::vector<Metric> LayerMetrics(
      const Tracer& tracer, int run_id,
      std::vector<std::string>* notes) const override {
    const std::vector<Span>& spans = tracer.spans();
    if (Find(spans, run_id, "gp.engine") == nullptr) return {};
    // Every restart has its own engine span; the layer totals sum them.
    auto sum = [&](const std::string& name) {
      return SumOver(spans, "gp.engine", run_id, name);
    };
    const double engine_s = DurationOf(spans, run_id, "gp.engine");
    // Generation times pool over every traced repetition.
    std::vector<double> gens;
    for (const Span& span : spans) {
      if (span.name == "gp.generation") gens.push_back(span.duration());
    }
    const TailPercentile tail = Tail(gens);
    const double wall = sum("gp.eval_wall_s");
    const double cpu = sum("gp.eval_cpu_s");
    const double evals = sum("gp.evals");
    const double begin_s = sum("river.begin_s");
    const double step_s = sum("river.step_s");
    const double step_calls = sum("river.step_calls");
    const double threads = transport_ ? 2.0 : 1.0;
    std::vector<Metric> m = {
        {"gp.engine_s", "", engine_s},
        {"gp.gen_s.p50", "", Median(gens)},
        {"gp.gen_s.p90", "", tail.value},
        {"gp.eval_wall_s", "", wall},
        {"gp.eval_cpu_s", "", cpu},
        {"gp.coord_s", "", engine_s - wall},
        {"gp.evaluator_self_s", "", cpu - begin_s - step_s},
        {"gp.evals", "", evals},
        {"gp.cache_hit_rate", "",
         Ratio(sum("gp.cache_hits"), sum("gp.cache_lookups"))},
        {"gp.es_cut_rate", "",
         Ratio(sum("gp.short_circuited"),
               sum("gp.full_evaluations") + sum("gp.short_circuited"))},
        {"gp.steps_per_eval", "", Ratio(sum("gp.time_steps"), evals)},
        {"gp.cache_entries", "", sum("gp.cache_entries")},
        {"river.begin_calls", "", sum("river.begin_calls")},
        {"river.begin_s", "", begin_s},
        {"river.step_calls", "", step_calls},
        {"river.step_s", "", step_s},
        {"river.step_ns", "", Ratio(step_s * 1e9, step_calls)},
        {"river.synth_s", "", DurationOf(spans, run_id, "river.synth")},
        {"common.pool_threads", "", threads},
        {"common.pool_util", "", Ratio(cpu, wall * threads)},
        {"core.knowledge_s", "", DurationOf(spans, run_id, "core.knowledge")},
        {"core.accuracy_s", "", DurationOf(spans, run_id, "core.accuracy")},
    };
    if (!transport_) {
      m.push_back({"analysis.gate_lookups", "", sum("analysis.gate_lookups")});
      m.push_back({"analysis.gate_hit_rate", "",
                   Ratio(sum("analysis.gate_hits"),
                         sum("analysis.gate_lookups"))});
      m.push_back({"analysis.gate_rejects", "", sum("analysis.gate_rejects")});
    }
    char note[96];
    std::snprintf(note, sizeof(note),
                  "gp.gen_s.p90 is the %.3f quantile of %zu generations",
                  tail.quantile, tail.samples);
    notes->push_back(note);
    return m;
  }

 private:
  struct Inputs {
    river::RiverDataset dataset;
    std::optional<river::ConstituentSet> constituents;  ///< Null = plankton.
    core::RiverPriorKnowledge knowledge;
    core::GmrConfig config;

    core::GmrProblem Problem() const {
      return core::GmrProblem{&dataset, &knowledge,
                              constituents ? &*constituents : nullptr};
    }
  };

  /// Dataset generation plus the prior-knowledge/grammar/registry build:
  /// the set-up a user pays before the search starts.
  std::unique_ptr<Inputs> Setup(Tracer* tracer, int run_id) const {
    auto in = std::make_unique<Inputs>();
    {
      ScopedSpan span(tracer, "river.synth", run_id);
      if (transport_) {
        // With the planted temperature modulation, whether a restart finds
        // the mechanism splits the restarts' RMSEs into two clusters, and
        // their median jumps between them from seed to seed.
        river::SyntheticConfig synth = SynthConfig();
        synth.plant_hidden_structure = false;
        river::TransportScenario scenario =
            river::GenerateTransportScenario(synth, 5);
        in->dataset = std::move(scenario.dataset);
        in->constituents.emplace(std::move(scenario.constituents));
      } else {
        in->dataset = river::GenerateNakdongLike(SynthConfig());
      }
    }
    ScopedSpan span(tracer, "core.knowledge", run_id);
    in->knowledge = transport_
                        ? core::BuildTransportPriorKnowledge(*in->constituents)
                        : core::BuildRiverPriorKnowledge();
    gp::Tag3pConfig& t = in->config.tag3p;
    // Plankton keeps Appendix B's population. The transport search trades
    // population for restarts (100 x 48 instead of 200 x 24), which
    // steadies its median RMSE across seeds at the same cost.
    t.population_size = transport_ ? 100 : 200;
    t.elite_size = 2;
    t.tournament_size = 5;
    t.local_search_steps = 3;
    t.max_generations = transport_ ? budget_.transport_generations
                                   : budget_.plankton_generations;
    t.sigma_rampdown_generations = std::max(1, t.max_generations / 5);
    river::SimulationConfig& sim = in->config.simulation;
    if (transport_) {
      sim.method = river::IntegrationMethod::kRk4;
      sim.compiled_backend = river::CompiledBackend::kBatchVm;
      sim.num_species = static_cast<int>(in->constituents->size());
      t.speedups.num_threads = 2;
    } else {
      t.speedups.num_threads = 1;
      t.speedups.static_gate = river::MakeStaticGate(sim, &in->dataset);
    }
    return in;
  }

  /// What core::RunGmr does, with the fitness wrapped in the timing
  /// decorator and spans around the engine, each generation, the
  /// expand/simplify step and the accuracy report.
  core::GmrRunResult TracedRunGmr(const Inputs& in, Tracer* tracer,
                                  int run_id) const {
    const river::RiverFitness fitness =
        in.constituents
            ? river::RiverFitness::ForTrainingWith(
                  &in.dataset, *in.constituents, in.config.simulation)
            : river::RiverFitness::ForTraining(&in.dataset,
                                               in.config.simulation);
    const TracedFitness traced(&fitness);
    gp::Tag3pConfig tag3p = in.config.tag3p;
    tag3p.seed_alpha_index = in.knowledge.seed_alpha_index;
    gp::Tag3pEngine engine(
        gp::Tag3pProblem{&in.knowledge.grammar, &traced, in.knowledge.priors},
        tag3p, obs::RunContext{});

    core::GmrRunResult result;
    {
      ScopedSpan engine_span(tracer, "gp.engine", run_id);
      int generation = tracer->Open("gp.init_gen0", run_id);
      engine.set_generation_callback([&](const gp::GenerationStats& stats) {
        tracer->Close(generation);
        generation = tracer->Open(
            stats.generation + 1 < tag3p.max_generations ? "gp.generation"
                                                          : "gp.finish",
            run_id);
      });
      result.search = engine.Run();
      tracer->Close(generation);
      const gp::EvalStats& s = result.search.eval_stats;
      const int id = engine_span.id();
      tracer->Attach(id, "gp.eval_wall_s", s.wall_seconds);
      tracer->Attach(id, "gp.eval_cpu_s", s.cpu_seconds);
      tracer->Attach(id, "gp.evals", static_cast<double>(s.individuals_evaluated));
      tracer->Attach(id, "gp.cache_hits", static_cast<double>(s.cache_hits));
      tracer->Attach(id, "gp.cache_lookups", static_cast<double>(s.cache_lookups));
      tracer->Attach(id, "gp.full_evaluations",
                     static_cast<double>(s.full_evaluations));
      tracer->Attach(id, "gp.short_circuited",
                     static_cast<double>(s.short_circuited));
      tracer->Attach(id, "gp.time_steps",
                     static_cast<double>(s.time_steps_evaluated));
      tracer->Attach(id, "gp.cache_entries",
                     static_cast<double>(engine.evaluator().cache_size()));
      tracer->Attach(id, "analysis.gate_lookups",
                     static_cast<double>(s.verdict_cache_lookups));
      tracer->Attach(id, "analysis.gate_hits",
                     static_cast<double>(s.verdict_cache_hits));
      tracer->Attach(id, "analysis.gate_rejects",
                     static_cast<double>(s.static_rejects));
    }
    result.best = result.search.best.Clone();
    {
      ScopedSpan span(tracer, "core.expand", run_id);
      result.best_equations =
          tag::ExpandToExpressions(in.knowledge.grammar, *result.best.genotype);
      for (auto& eq : result.best_equations) eq = expr::Simplify(eq);
    }
    ScopedSpan span(tracer, "core.accuracy", run_id);
    const core::AccuracyReport report =
        in.constituents
            ? core::EvaluateAccuracy(result.best_equations,
                                     result.best.parameters, in.dataset,
                                     in.config.simulation, *in.constituents)
            : core::EvaluateAccuracy(result.best_equations,
                                     result.best.parameters, in.dataset,
                                     in.config.simulation);
    result.train_rmse = report.train_rmse;
    result.train_mae = report.train_mae;
    result.test_rmse = report.test_rmse;
    result.test_mae = report.test_mae;
    return result;
  }

  int restarts() const {
    return transport_ ? budget_.transport_restarts : budget_.plankton_restarts;
  }

  std::uint64_t RestartSeed(int restart) const {
    return Mix(seed_, 100 + static_cast<std::uint64_t>(restart));
  }

  bool transport_;
  std::uint64_t seed_;
  Budget budget_;
  std::unique_ptr<Inputs> last_inputs_;
  std::vector<core::GmrRunResult> last_results_;
};

// ---------------------------------------------------------------------------
// calibrate_manual: fixed-structure calibration of the expert process.

/// Lane width of the ensemble's BatchSimulate calls.
constexpr std::size_t kLaneWidth = 8;

class CalibrateWorkload final : public Workload {
 public:
  CalibrateWorkload(std::uint64_t seed, const Budget& budget)
      : seed_(seed), budget_(budget) {}

  double nominal_rep_seconds() const override { return 3.5; }

  RepOutcome Repeat(Tracer* tracer, int run_id) override {
    ScopedSpan repetition(tracer, "repetition", run_id);
    RepOutcome out;
    std::unique_ptr<Inputs> in;
    for (int i = 0; i < kSetupSamples; ++i) {
      const std::int64_t start = NowNs();
      in = Setup(i + 1 == kSetupSamples ? tracer : nullptr, run_id);
      out.setup_s = i == 0 ? Since(start) : std::min(out.setup_s, Since(start));
    }

    const std::int64_t start = NowNs();
    Product product;
    {
      ScopedSpan run(tracer, "run", run_id);
      product = Calibrate(*in, tracer, run_id, &out.job_s);
    }
    out.run_s = Since(start);

    out.train_rmse = product.accuracy.train_rmse;
    out.test_rmse = product.accuracy.test_rmse;
    std::uint64_t lanes_hash = 1469598103934665603ull;
    std::uint64_t aborted = 0;
    for (const river::BatchSimulationResult& block : product.ensemble) {
      for (std::size_t lane = 0; lane < block.width; ++lane) {
        for (const double v : block.predicted[lane]) {
          lanes_hash = (lanes_hash ^ Bits(v)) * 1099511628211ull;
        }
        aborted += block.reports[lane].aborted ? 1 : 0;
      }
    }
    out.fingerprint = {product.sceua.evaluations,
                       product.sceua.failed_evaluations,
                       Bits(product.sceua.best_objective),
                       product.lbfgs.evaluations,
                       product.lbfgs.failed_evaluations,
                       Bits(product.lbfgs.best_objective),
                       product.gradient_degrades,
                       lanes_hash,
                       aborted};
    out.attempted = product.sceua.evaluations + product.lbfgs.evaluations +
                    product.ensemble.size() * kLaneWidth;
    out.failed = product.sceua.failed_evaluations +
                 product.lbfgs.failed_evaluations + product.gradient_degrades;
    out.work = product.sceua.evaluations + product.lbfgs.evaluations;
    last_inputs_ = std::move(in);
    last_product_ = std::move(product);
    return out;
  }

  bool Check(std::string* why, std::uint64_t* checks) override {
    const Inputs& in = *last_inputs_;
    const Product& product = last_product_;
    const std::vector<double>& optimum = product.best().best_parameters;
    const Accuracy interp = InterpreterAccuracy(
        in.equations, optimum, in.dataset, river::SimulationConfig{},
        *in.constituents);
    *checks += 4;
    if (!Close(interp.train, product.accuracy.train_rmse)) {
      *why = Describe("interpreter train_rmse", interp.train,
                      product.accuracy.train_rmse);
      return false;
    }
    if (!Close(interp.test, product.accuracy.test_rmse)) {
      *why = Describe("interpreter test_rmse", interp.test,
                      product.accuracy.test_rmse);
      return false;
    }
    // The winning calibrator's incumbent objective is the training RMSE of
    // the parameters it returns.
    if (!Close(product.best().best_objective, product.accuracy.train_rmse)) {
      *why = Describe("calibrator objective vs train_rmse",
                      product.best().best_objective,
                      product.accuracy.train_rmse);
      return false;
    }
    // Ensemble lane 0 is the unperturbed optimum: bitwise the scalar
    // rollout of the same parameters.
    const std::vector<double> scalar =
        river::Simulate(in.equations, optimum, in.dataset,
                        in.dataset.train_end, in.dataset.num_days,
                        *in.constituents, in.constituents->TestInitialStates(),
                        river::SimulationConfig{}, /*compiled=*/true)
            .series[0];
    const std::vector<double>& lane0 = product.ensemble.front().predicted[0];
    if (lane0.size() != scalar.size() ||
        std::memcmp(lane0.data(), scalar.data(),
                    scalar.size() * sizeof(double)) != 0) {
      *why = "ensemble lane 0 differs from the scalar Simulate";
      return false;
    }
    return true;
  }

  std::vector<Metric> LayerMetrics(
      const Tracer& tracer, int run_id,
      std::vector<std::string>* /*notes*/) const override {
    const std::vector<Span>& spans = tracer.spans();
    const Span* sceua = Find(spans, run_id, "calibrate.sceua");
    const Span* lbfgs = Find(spans, run_id, "calibrate.lbfgs");
    const Span* ensemble = Find(spans, run_id, "river.ensemble");
    if (sceua == nullptr || lbfgs == nullptr || ensemble == nullptr) return {};
    const std::vector<std::string> calls = {"river.rollout_s",
                                            "grad.gradient_s"};
    const double rollouts =
        sceua->Get("river.rollouts") + lbfgs->Get("river.rollouts");
    const double rollout_s =
        sceua->Get("river.rollout_s") + lbfgs->Get("river.rollout_s");
    const double gradients = lbfgs->Get("grad.gradient_calls");
    const double gradient_s = lbfgs->Get("grad.gradient_s");
    return {
        {"river.rollouts", "", rollouts},
        {"river.rollout_ms", "", Ratio(rollout_s * 1e3, rollouts)},
        {"river.ensemble_lane_days_per_s", "",
         Ratio(ensemble->Get("river.lane_days"), ensemble->duration())},
        {"river.synth_s", "", DurationOf(spans, run_id, "river.synth")},
        {"calibrate.sceua_s", "", sceua->duration()},
        {"calibrate.lbfgs_s", "", lbfgs->duration()},
        {"calibrate.objective_calls", "", rollouts + gradients},
        {"calibrate.self_s", "",
         SelfTime(spans, sceua->id, calls) + SelfTime(spans, lbfgs->id, calls)},
        {"calibrate.sceua_rmse", "", sceua->Get("calibrate.best_objective")},
        {"calibrate.lbfgs_rmse", "", lbfgs->Get("calibrate.best_objective")},
        {"grad.gradient_calls", "", gradients},
        {"grad.gradient_s", "", gradient_s},
        {"grad.cost_ratio", "",
         Ratio(Ratio(gradient_s, gradients), Ratio(rollout_s, rollouts))},
        {"common.pool_threads", "", 1.0},
        {"core.knowledge_s", "", DurationOf(spans, run_id, "core.knowledge")},
        {"core.accuracy_s", "", DurationOf(spans, run_id, "core.accuracy")},
    };
  }

 private:
  struct Inputs {
    river::RiverDataset dataset;
    gp::ParameterPriors priors;
    std::vector<expr::ExprPtr> equations;
    std::optional<river::ConstituentSet> constituents;
  };

  struct Product {
    calibrate::CalibrationResult sceua;
    calibrate::CalibrationResult lbfgs;
    std::uint64_t gradient_degrades = 0;
    /// The better of the two calibrations: the model the ensemble and the
    /// accuracy report use.
    const calibrate::CalibrationResult& best() const {
      return lbfgs.best_objective < sceua.best_objective ? lbfgs : sceua;
    }
    std::vector<river::BatchSimulationResult> ensemble;
    core::AccuracyReport accuracy;
  };

  std::unique_ptr<Inputs> Setup(Tracer* tracer, int run_id) const {
    auto in = std::make_unique<Inputs>();
    {
      ScopedSpan span(tracer, "river.synth", run_id);
      in->dataset = river::GenerateNakdongLike(SynthConfig());
    }
    ScopedSpan span(tracer, "core.knowledge", run_id);
    in->priors = river::RiverParameterPriors();
    in->equations = river::ManualProcess();
    in->constituents.emplace(PlanktonSet(in->dataset));
    return in;
  }

  /// SCE-UA, L-BFGS, ensemble, accuracy report: four jobs, each timed into
  /// `job_s`. Both calibrators start from the prior means. L-BFGS does not
  /// polish the SCE-UA incumbent: from there its line search stalls after a
  /// few gradient calls and the rest of its budget goes to the
  /// derivative-free simplex, so the adjoint would hardly run.
  Product Calibrate(const Inputs& in, Tracer* tracer, int run_id,
                    std::vector<double>* job_s) const {
    const river::SimulationConfig sim;
    const std::size_t train_end = in.dataset.train_end;
    calibrate::Objective objective = grad::MakeRmseObjective(
        in.equations, &in.dataset, 0, train_end, *in.constituents,
        in.constituents->InitialStates(), sim);
    calibrate::GradientObjective gradient = grad::MakeRmseGradientObjective(
        in.equations, &in.dataset, 0, train_end, *in.constituents,
        in.constituents->InitialStates(), sim);
    if (tracer != nullptr) {
      objective = TraceRollouts(std::move(objective));
      gradient = TraceGradients(std::move(gradient));
    }
    Product product;
    // A gradient the adjoint could not produce comes back non-finite; the
    // calibrator then degrades to derivative-free search. Counted as a
    // failed operation.
    std::uint64_t* degrades = &product.gradient_degrades;
    const calibrate::GradientObjective counted =
        [&gradient, degrades](const std::vector<double>& x,
                              std::vector<double>* g) {
          const double value = gradient(x, g);
          if (std::any_of(g->begin(), g->end(),
                          [](double v) { return !std::isfinite(v); })) {
            ++*degrades;
          }
          return value;
        };
    const calibrate::BoxBounds bounds = calibrate::BoundsFromPriors(in.priors);
    const std::vector<double> initial = gp::PriorMeans(in.priors);
    std::int64_t job = NowNs();
    {
      ScopedSpan span(tracer, "calibrate.sceua", run_id);
      product.sceua = calibrate::Run(
          calibrate::SceUaCalibrator{},
          calibrate::CalibrationConfig{budget_.sceua_budget, Mix(seed_, 3)},
          calibrate::CalibrationProblem{objective, bounds, initial, {}, {}});
      if (tracer != nullptr) {
        tracer->Attach(span.id(), "calibrate.best_objective",
                       product.sceua.best_objective);
      }
    }
    job_s->push_back(Since(job));
    job = NowNs();
    {
      ScopedSpan span(tracer, "calibrate.lbfgs", run_id);
      product.lbfgs = calibrate::Run(
          calibrate::LbfgsCalibrator{},
          calibrate::CalibrationConfig{budget_.lbfgs_budget, Mix(seed_, 4)},
          calibrate::CalibrationProblem{objective, bounds, initial, {},
                                        counted});
      if (tracer != nullptr) {
        tracer->Attach(span.id(), "calibrate.best_objective",
                       product.lbfgs.best_objective);
      }
    }
    job_s->push_back(Since(job));
    job = NowNs();
    {
      // A seeded parameter ensemble around the better optimum over the test
      // window; lane 0 of the first block is the optimum itself.
      ScopedSpan span(tracer, "river.ensemble", run_id);
      Rng rng(Mix(seed_, 5));
      const std::vector<double>& optimum = product.best().best_parameters;
      const std::size_t lanes =
          std::max<std::size_t>(kLaneWidth,
                                static_cast<std::size_t>(budget_.ensemble_lanes));
      for (std::size_t first = 0; first < lanes; first += kLaneWidth) {
        std::vector<std::vector<double>> block;
        for (std::size_t lane = first; lane < first + kLaneWidth; ++lane) {
          std::vector<double> x = optimum;
          if (lane != 0) {
            for (double& v : x) v *= 1.0 + 0.05 * rng.Gaussian();
            bounds.Clamp(&x);
          }
          block.push_back(std::move(x));
        }
        product.ensemble.push_back(river::BatchSimulate(
            in.equations, block, in.dataset, train_end, in.dataset.num_days,
            *in.constituents, in.constituents->TestInitialStates(), sim));
      }
      if (tracer != nullptr) {
        tracer->Attach(span.id(), "river.lane_days",
                       static_cast<double>(lanes * (in.dataset.num_days -
                                                    train_end)));
      }
    }
    job_s->push_back(Since(job));
    job = NowNs();
    {
      ScopedSpan span(tracer, "core.accuracy", run_id);
      product.accuracy = core::EvaluateAccuracy(
          in.equations, product.best().best_parameters, in.dataset, sim);
    }
    job_s->push_back(Since(job));
    return product;
  }

  std::uint64_t seed_;
  Budget budget_;
  std::unique_ptr<Inputs> last_inputs_;
  Product last_product_;
};

// ---------------------------------------------------------------------------
// Metric catalogue and the run loop.

Metric M(const char* name, const char* unit) { return Metric{name, unit, 0.0}; }

/// Why a per-layer metric reads 0 on a workload that does not load it.
std::string AbsentReason(const std::string& workload, const std::string& name) {
  if (workload == "calibrate_manual") {
    return "this workload runs no GP search (no Begin/Step, gate or pool)";
  }
  if (name.rfind("analysis.", 0) == 0) {
    return "the static gate is off on this workload";
  }
  return "this workload runs no calibrator, gradient or ensemble";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "revise_plankton", "revise_transport", "calibrate_manual"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const Budget& budget) {
  if (name == "revise_plankton") {
    return std::make_unique<ReviseWorkload>(false, seed, budget);
  }
  if (name == "revise_transport") {
    return std::make_unique<ReviseWorkload>(true, seed, budget);
  }
  if (name == "calibrate_manual") {
    return std::make_unique<CalibrateWorkload>(seed, budget);
  }
  return nullptr;
}

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> metrics = {
      M("run_s", "s"),           M("setup_s", "s"),
      M("train_rmse", "obs_unit"), M("test_rmse", "obs_unit"),
      M("peak_rss_mb", "MB"),    M("ok_frac", "ratio"),
  };
  return metrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> metrics = {
      M("gp.engine_s", "s"),
      M("gp.gen_s.p50", "s"),
      M("gp.gen_s.p90", "s"),
      M("gp.eval_wall_s", "s"),
      M("gp.eval_cpu_s", "s"),
      M("gp.coord_s", "s"),
      M("gp.evaluator_self_s", "s"),
      M("gp.evals", "count"),
      M("gp.cache_hit_rate", "ratio"),
      M("gp.es_cut_rate", "ratio"),
      M("gp.steps_per_eval", "count"),
      M("gp.cache_entries", "count"),
      M("analysis.gate_lookups", "count"),
      M("analysis.gate_hit_rate", "ratio"),
      M("analysis.gate_rejects", "count"),
      M("river.begin_calls", "count"),
      M("river.begin_s", "s"),
      M("river.step_calls", "count"),
      M("river.step_s", "s"),
      M("river.step_ns", "ns"),
      M("river.rollouts", "count"),
      M("river.rollout_ms", "ms"),
      M("river.ensemble_lane_days_per_s", "lane-days/s"),
      M("river.synth_s", "s"),
      M("common.pool_threads", "count"),
      M("common.pool_util", "ratio"),
      M("calibrate.sceua_s", "s"),
      M("calibrate.lbfgs_s", "s"),
      M("calibrate.objective_calls", "count"),
      M("calibrate.self_s", "s"),
      M("calibrate.sceua_rmse", "obs_unit"),
      M("calibrate.lbfgs_rmse", "obs_unit"),
      M("grad.gradient_calls", "count"),
      M("grad.gradient_s", "s"),
      M("grad.cost_ratio", "ratio"),
      M("core.knowledge_s", "s"),
      M("core.accuracy_s", "s"),
      M("host.ref_s", "s"),
      M("host.raw_run_s", "s"),
      M("host.rep_spread", "ratio"),
      M("trace.overhead", "ratio"),
  };
  return metrics;
}

RunReport RunBenchmark(const std::string& name, std::uint64_t seed,
                       double seconds, bool trace, const Budget& budget) {
  RunReport report;
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed, budget);
  const int reps = std::max(
      budget.min_reps,
      static_cast<int>(std::lround(seconds / workload->nominal_rep_seconds())));
  // The traced mode splits its time between untraced and traced
  // repetitions, interleaved, so trace.overhead compares like with like.
  const int rounds = trace ? std::max(budget.min_reps, reps / 2) : reps;

  Tracer tracer;
  std::vector<RepOutcome> plain;
  std::vector<RepOutcome> traced;  // traced.at(r) has run id r + 1
  std::vector<double> ref;
  {
    ScopedSpan whole(trace ? &tracer : nullptr, "workload", 0);
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < kRefSamples; ++i) ref.push_back(ReferenceLoopSeconds());
      plain.push_back(workload->Repeat(nullptr, 0));
      if (trace) traced.push_back(workload->Repeat(&tracer, r + 1));
    }
  }

  auto fail = [&](const std::string& why) {
    report.correct = false;
    report.notes.push_back("CHECK FAILED: " + why);
  };
  const RepOutcome& first = plain.front();
  auto same = [&](const RepOutcome& o) {
    return Bits(o.train_rmse) == Bits(first.train_rmse) &&
           Bits(o.test_rmse) == Bits(first.test_rmse) &&
           o.fingerprint == first.fingerprint;
  };
  for (std::size_t r = 1; r < plain.size(); ++r) {
    if (!same(plain[r])) {
      fail("repetition " + std::to_string(r) + " differs from repetition 0");
    }
  }
  for (std::size_t r = 0; r < traced.size(); ++r) {
    if (!same(traced[r])) fail("traced repetition " + std::to_string(r) +
                               " differs from the untraced run");
  }
  std::size_t racy = 0;
  for (const auto* reps_of : {&plain, &traced}) {
    for (const RepOutcome& o : *reps_of) {
      racy += o.scheduling_counters != first.scheduling_counters ? 1 : 0;
    }
  }
  if (racy > 0) {
    report.notes.push_back(
        "EvalStats hit/miss counters differ in " + std::to_string(racy) +
        " repetition(s): duplicate candidates of one batch race on the "
        "shared tree cache under parallel evaluation (fitness and RMSE are "
        "bit-identical)");
  }
  std::uint64_t checks = 0;
  std::string why;
  if (!workload->Check(&why, &checks)) fail(why);

  for (const auto* reps_of : {&plain, &traced}) {
    for (const RepOutcome& o : *reps_of) {
      report.attempted += o.attempted;
      report.failed += o.failed;
    }
  }
  report.attempted += checks;
  if (!report.correct) report.failed = report.attempted;

  auto fastest = [](const std::vector<RepOutcome>& v, double RepOutcome::*f) {
    double best = v.front().*f;
    for (const RepOutcome& o : v) best = std::min(best, o.*f);
    return best;
  };
  // Each job's fastest cold execution, summed: a burst of host noise then
  // costs only the job it hit, not the whole repetition.
  auto fastest_jobs = [](const std::vector<RepOutcome>& v) {
    double total = 0.0;
    for (std::size_t j = 0; j < v.front().job_s.size(); ++j) {
      double best = v.front().job_s[j];
      for (const RepOutcome& o : v) best = std::min(best, o.job_s[j]);
      total += best;
    }
    return total;
  };
  // The host's speed drifts over minutes, which no repetition filters; the
  // reference loop tracks it. Reported times are scaled to a host on which
  // the loop takes kReferenceSeconds.
  const double raw_run_s = fastest_jobs(plain);
  const double ref_s = Median(ref);
  const double host_scale = kReferenceSeconds / ref_s;
  const double run_s = raw_run_s * host_scale;
  const double fastest_rep = fastest(plain, &RepOutcome::run_s);
  double slowest = 0.0;
  for (const RepOutcome& o : plain) slowest = std::max(slowest, o.run_s);
  const double spread = (slowest - fastest_rep) / fastest_rep;
  char line[240];
  std::snprintf(line, sizeof(line),
                "repetitions %zu; work %llu; host.raw_run_s %.6f; "
                "host.ref_s %.6f; host.rep_spread %.4f",
                plain.size(), static_cast<unsigned long long>(first.work),
                raw_run_s, ref_s, spread);
  report.notes.push_back(line);

  if (!trace) {
    const double ok = 1.0 - static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted);
    const double values[] = {run_s,
                             fastest(plain, &RepOutcome::setup_s) * host_scale,
                             first.train_rmse,
                             first.test_rmse,
                             PeakRssMb(),
                             ok};
    for (std::size_t i = 0; i < EndToEndMetrics().size(); ++i) {
      Metric m = EndToEndMetrics()[i];
      m.value = values[i];
      report.metrics.push_back(m);
    }
    return report;
  }

  std::size_t best = 0;
  for (std::size_t r = 1; r < traced.size(); ++r) {
    if (traced[r].run_s < traced[best].run_s) best = r;
  }
  std::vector<Metric> layer = workload->LayerMetrics(
      tracer, static_cast<int>(best) + 1, &report.notes);
  layer.push_back({"host.ref_s", "", ref_s});
  layer.push_back({"host.raw_run_s", "", raw_run_s});
  layer.push_back({"host.rep_spread", "", spread});
  layer.push_back(
      {"trace.overhead", "", fastest_jobs(traced) / raw_run_s - 1.0});
  for (Metric m : PerLayerMetrics()) {
    auto it = std::find_if(layer.begin(), layer.end(),
                           [&](const Metric& x) { return x.name == m.name; });
    if (it != layer.end()) {
      m.value = it->value;
    } else {
      report.notes.push_back("absent " + m.name + ": " +
                             AbsentReason(name, m.name));
    }
    report.metrics.push_back(m);
  }
  report.spans = tracer.spans();
  return report;
}

std::string ToJsonLine(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
