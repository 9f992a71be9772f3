// Multi-constituent transport tests (ctest labels `transport` + `prop`):
// the constituent registry's typed validation, cross-commit golden pins of
// every rollout entry point (interpreter / VM / batch backends, both
// integrators, every watchdog, injected NaN derivatives, and the discrete
// adjoint), the legacy preset's 0-ULP agreement with the recorded output
// of the deleted B_Phy entry points and between its accuracy overloads,
// batch-vs-scalar agreement at five species, channel mass
// conservation under both advection schemes (including watchdog aborts),
// and a small end-to-end GMR revision of the five-species scenario with a
// checkpoint/resume round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "common/fault_injection.h"
#include "core/gmr.h"
#include "core/transport_grammar.h"
#include "expr/ast.h"
#include "expr/print.h"
#include "gp/parameter_prior.h"
#include "grad/adjoint.h"
#include "obs/run_context.h"
#include "river/biology.h"
#include "river/chemistry.h"
#include "river/constituents.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/transport.h"
#include "river/variables.h"

namespace gmr::river {
namespace {

namespace e = gmr::expr;
namespace fs = std::filesystem;

// ------------------------------------------------------------- helpers ----

RiverDataset SmallDataset() {
  SyntheticConfig config;
  config.years = 3;
  config.train_years = 2;
  config.seed = 7;
  return GenerateNakdongLike(config);
}

TransportScenario SmallScenario(int num_species) {
  SyntheticConfig config;
  config.years = 3;
  config.train_years = 2;
  config.seed = 21;
  return GenerateTransportScenario(config, num_species);
}

std::uint64_t Bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Exact bit equality of two trajectories — the 0-ULP oracle.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " diverges at day " << i
                                      << ": " << a[i] << " vs " << b[i];
  }
}

// -------------------------------------------------- registry validation ----

TEST(ConstituentSetTest, TypedValidationErrors) {
  ConstituentSet set;
  EXPECT_EQ(set.Validate().code, ConfigErrorCode::kEmptySet);

  EXPECT_EQ(set.Add({"", analysis::Dim::Concentration(), 1.0, 1.0, -1}).code,
            ConfigErrorCode::kEmptyName);
  ASSERT_TRUE(set.Add({"M_NO3", analysis::Dim::Concentration(), 2.0, 2.0, 0})
                  .ok());
  EXPECT_EQ(
      set.Add({"M_NO3", analysis::Dim::Concentration(), 1.0, 1.0, -1}).code,
      ConfigErrorCode::kDuplicateName);
  Constituent bad{"M_NH4", analysis::Dim::Concentration(),
                  std::nan(""), 1.0, -1};
  EXPECT_EQ(set.Add(bad).code, ConfigErrorCode::kBadInitialState);
  EXPECT_TRUE(set.Validate().ok());
}

TEST(ConstituentSetTest, SpeciesCountMismatchIsTyped) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  SimulationConfig config;
  config.num_species = 2;  // Stale legacy default against a 5-species set.
  const auto equations = TransportProcess(set);
  const ConfigError err = ValidateSimulation(config, set, equations.size());
  EXPECT_EQ(err.code, ConfigErrorCode::kSpeciesCountMismatch);
  EXPECT_NE(err.message.find("num_species"), std::string::npos);

  config.num_species = 5;
  EXPECT_TRUE(ValidateSimulation(config, set, equations.size()).ok());
  // Equation count disagreeing with the registry is the same typed error.
  EXPECT_EQ(ValidateSimulation(config, set, 2).code,
            ConfigErrorCode::kSpeciesCountMismatch);
}

TEST(ConstituentSetTest, ObservationAndLaneValidation) {
  const RiverDataset dataset = SmallDataset();
  ConstituentSet set = ConstituentSet::Transport(2);
  EXPECT_TRUE(ValidateObservations(set, dataset).ok());
  set.mutable_at(0).observed_series = 7;  // No such series in the dataset.
  EXPECT_EQ(ValidateObservations(set, dataset).code,
            ConfigErrorCode::kBadObservedSeries);

  const std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {1.0}};
  EXPECT_EQ(ValidateBatchLanes(ragged).code,
            ConfigErrorCode::kParameterLaneMismatch);
  EXPECT_TRUE(ValidateBatchLanes({{1.0, 2.0}, {3.0, 4.0}}).ok());
}

TEST(ConstituentSetTest, TransportRegistryLayout) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  EXPECT_EQ(set.preset(), "transport5");
  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set.at(0).name, "M_NO3");
  EXPECT_EQ(set.at(4).name, "M_SED");
  EXPECT_EQ(set.num_variables(), 5u + kNumDriverVariables);
  // Drivers keep the legacy order after the states: V_lgt is first.
  EXPECT_EQ(set.driver_slot(0), 5);
  EXPECT_EQ(set.VariableNames()[5], VariableName(kVlgt));
  EXPECT_EQ(set.PrimaryObserved(), 0);
  const auto observed = set.ObservedConstituents();
  ASSERT_EQ(observed.size(), 2u);  // Nitrate + sediment.
  EXPECT_EQ(observed[0], 0);
  EXPECT_EQ(observed[1], 4);
  EXPECT_EQ(set.num_parameters(),
            static_cast<std::size_t>(kNumTransportParameters));
  EXPECT_EQ(set.parameter_dims().size(), set.num_parameters());

  // Truncated registries observe nitrate only and share the full parameter
  // table (slots stay stable across species counts).
  const ConstituentSet two = ConstituentSet::Transport(2);
  EXPECT_EQ(two.preset(), "transport2");
  EXPECT_EQ(two.ObservedConstituents().size(), 1u);
  EXPECT_EQ(two.num_parameters(), set.num_parameters());
  EXPECT_EQ(TransportProcess(two).size(), 2u);
}

TEST(ConstituentSetTest, LegacyPlanktonPinsHistoricalLayout) {
  const ConstituentSet legacy = ConstituentSet::LegacyPlankton();
  EXPECT_EQ(legacy.preset(), "plankton2");
  ASSERT_EQ(legacy.size(), 2u);
  EXPECT_EQ(legacy.at(0).name, "B_Phy");
  EXPECT_EQ(legacy.at(1).name, "B_Zoo");
  EXPECT_EQ(legacy.at(1).observed_series, -1);  // Zooplankton is latent.
  const auto names = legacy.VariableNames();
  ASSERT_EQ(names.size(), static_cast<std::size_t>(kNumVariables));
  for (int v = 0; v < kNumVariables; ++v) {
    EXPECT_EQ(names[static_cast<std::size_t>(v)], VariableName(v));
  }
}

// ------------------------------------------- cross-commit golden pins ----
//
// The exact output of every rollout entry point, frozen as one FNV-1a hash
// per case over the trajectory bits and every SimulationReport field (for
// the adjoint: the RMSE, gradient and tape-size fields). The hashes were
// recorded before the scalar and lane-block integrators were merged into
// one kernel and pin the legacy preset's 0-ULP contract across that
// change. On a mismatch the test prints the full table of actual hashes in
// source form, so a deliberate arithmetic change can re-pin it.

class PinHasher {
 public:
  void AddWord(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double x) { AddWord(Bits(x)); }
  void AddSeries(const std::vector<double>& xs) {
    AddWord(xs.size());
    for (const double x : xs) AddDouble(x);
  }
  void AddReport(const SimulationReport& report) {
    AddWord(static_cast<std::uint64_t>(report.outcome));
    AddWord(report.aborted ? 1u : 0u);
    AddWord(report.jit_fallback ? 1u : 0u);
    AddWord(report.substeps_used);
    AddWord(report.days_simulated);
    AddWord(report.days_before_abort);
    AddWord(report.nonfinite_derivatives);
    AddWord(report.clamp_saturations);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

using PinTable = std::vector<std::pair<std::string, std::uint64_t>>;

/// Compares every computed case against the recorded table (no case may be
/// missing on either side) and prints the actual table on any mismatch.
void ExpectPins(const PinTable& actual, const PinTable& expected) {
  const std::map<std::string, std::uint64_t> want(expected.begin(),
                                                  expected.end());
  bool ok = actual.size() == want.size();
  for (const auto& [name, hash] : actual) {
    const auto it = want.find(name);
    if (it == want.end() || it->second != hash) {
      ADD_FAILURE() << "golden pin mismatch: " << name;
      ok = false;
    }
  }
  EXPECT_EQ(actual.size(), want.size());
  if (ok) return;
  std::string table;
  char line[128];
  for (const auto& [name, hash] : actual) {
    std::snprintf(line, sizeof(line), "      {\"%s\", 0x%016llxull},\n",
                  name.c_str(), static_cast<unsigned long long>(hash));
    table += line;
  }
  ADD_FAILURE() << "actual pins:\n" << table;
}

/// One rollout problem of the pin matrix: eight parameter lanes (lane 0
/// drives the scalar cases; the batched cases take the first 1, 3 or 8).
struct PinProblem {
  const RiverDataset* dataset = nullptr;
  ConstituentSet constituents;
  std::vector<double> initial;
  std::vector<e::ExprPtr> equations;
  std::vector<std::vector<double>> lanes;
  SimulationConfig config;
};

std::vector<std::vector<double>> ScaledLanes(const std::vector<double>& base) {
  const double factors[8] = {1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.15};
  std::vector<std::vector<double>> lanes;
  for (const double f : factors) {
    lanes.push_back(base);
    for (double& p : lanes.back()) p *= f;
  }
  return lanes;
}

/// Lanes for the watchdog candidates, which read parameter slot 0 only.
/// Zero lanes stay healthy while their neighbors trip the watchdog.
std::vector<std::vector<double>> CandidateLanes() {
  const double p0[8] = {1.0, 0.0, 1.1, 0.9, 0.5, 1.25, 0.0, 2.0};
  std::vector<std::vector<double>> lanes;
  for (const double p : p0) {
    lanes.emplace_back(static_cast<std::size_t>(kNumParameters), 0.0);
    lanes.back()[0] = p;
  }
  return lanes;
}

PinProblem LegacyManualProblem(const RiverDataset& dataset) {
  PinProblem p;
  p.dataset = &dataset;
  p.constituents = ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
  p.initial = {dataset.initial_bphy, dataset.initial_bzoo};
  p.equations = ManualProcess();
  p.lanes = ScaledLanes(gp::PriorMeans(RiverParameterPriors()));
  return p;
}

/// The backends of the pin matrix: the three scalar evaluators, then
/// BatchSimulate at lane widths 1, 3 and 8 (batch_width 0 = Simulate).
struct PinBackend {
  const char* name;
  bool compiled;
  CompiledBackend backend;
  std::size_t batch_width;
};
const PinBackend kPinBackends[] = {
    {"interp", false, CompiledBackend::kBytecodeVm, 0},
    {"vm", true, CompiledBackend::kBytecodeVm, 0},
    {"batchvm1", true, CompiledBackend::kBatchVm, 0},
    {"batch1", true, CompiledBackend::kBatchVm, 1},
    {"batch3", true, CompiledBackend::kBatchVm, 3},
    {"batch8", true, CompiledBackend::kBatchVm, 8},
};

std::uint64_t RunPinCase(const PinProblem& p, const PinBackend& backend) {
  PinHasher hash;
  SimulationConfig config = p.config;
  config.compiled_backend = backend.backend;
  if (backend.batch_width == 0) {
    SimulationReport report;
    const SimulationTrajectory trajectory =
        Simulate(p.equations, p.lanes[0], *p.dataset, 0, p.dataset->train_end,
                 p.constituents, p.initial, config, backend.compiled, &report);
    for (const auto& series : trajectory.series) hash.AddSeries(series);
    hash.AddReport(report);
    return hash.value();
  }
  const std::vector<std::vector<double>> lanes(
      p.lanes.begin(), p.lanes.begin() + backend.batch_width);
  const BatchSimulationResult result =
      BatchSimulate(p.equations, lanes, *p.dataset, 0, p.dataset->train_end,
                    p.constituents, p.initial, config);
  hash.AddWord(result.width);
  hash.AddWord(result.num_species);
  for (std::size_t l = 0; l < result.width; ++l) {
    hash.AddSeries(result.predicted[l]);
    hash.AddReport(result.reports[l]);
  }
  return hash.value();
}

/// Runs `p` under both integration methods and every backend, optionally
/// with a fault spec armed afresh (counters reset) for each rollout.
void AddPinCases(const std::string& prefix, PinProblem p,
                 const std::string& fault, PinTable* table) {
  for (const IntegrationMethod method :
       {IntegrationMethod::kEuler, IntegrationMethod::kRk4}) {
    p.config.method = method;
    const std::string name =
        prefix + (method == IntegrationMethod::kEuler ? "/euler/" : "/rk4/");
    for (const PinBackend& backend : kPinBackends) {
      if (!fault.empty()) {
        std::string error;
        ASSERT_TRUE(SetFaultSpec(fault, &error)) << error;
      }
      table->emplace_back(name + backend.name, RunPinCase(p, backend));
      ClearFaults();
    }
  }
}

// Recorded hashes: "<preset>/<candidate>[/<fault>]/<method>/<backend>".
const PinTable kSimulatePins = {
  {"plankton2/manual/euler/interp", 0x2b52888c5d5f12f8ull},
  {"plankton2/manual/euler/vm", 0x2b52888c5d5f12f8ull},
  {"plankton2/manual/euler/batchvm1", 0x2b52888c5d5f12f8ull},
  {"plankton2/manual/euler/batch1", 0x1149c85379b5af79ull},
  {"plankton2/manual/euler/batch3", 0x1a287dd880558a13ull},
  {"plankton2/manual/euler/batch8", 0x790b472ea65e376aull},
  {"plankton2/manual/rk4/interp", 0xd0fc8295ca3b8faaull},
  {"plankton2/manual/rk4/vm", 0xd0fc8295ca3b8faaull},
  {"plankton2/manual/rk4/batchvm1", 0xd0fc8295ca3b8faaull},
  {"plankton2/manual/rk4/batch1", 0x7f066d4493c23cb1ull},
  {"plankton2/manual/rk4/batch3", 0x7097e5ad348a7eeeull},
  {"plankton2/manual/rk4/batch8", 0xf8bc577761dc34ccull},
  {"transport5/process/euler/interp", 0x04cc93772137c28aull},
  {"transport5/process/euler/vm", 0x04cc93772137c28aull},
  {"transport5/process/euler/batchvm1", 0x04cc93772137c28aull},
  {"transport5/process/euler/batch1", 0xde24d58405ddafd7ull},
  {"transport5/process/euler/batch3", 0xbbaf9bff6cec0c63ull},
  {"transport5/process/euler/batch8", 0x767bc4c741867a31ull},
  {"transport5/process/rk4/interp", 0x1251ec55f4f7f08eull},
  {"transport5/process/rk4/vm", 0x1251ec55f4f7f08eull},
  {"transport5/process/rk4/batchvm1", 0x1251ec55f4f7f08eull},
  {"transport5/process/rk4/batch1", 0x20284a4f176f25f1ull},
  {"transport5/process/rk4/batch3", 0x31d3c61b4e6abfbfull},
  {"transport5/process/rk4/batch8", 0xe239d4758bd92171ull},
  {"plankton2/nonfinite/euler/interp", 0x2cd3a9c0e6540c42ull},
  {"plankton2/nonfinite/euler/vm", 0x2cd3a9c0e6540c42ull},
  {"plankton2/nonfinite/euler/batchvm1", 0x2cd3a9c0e6540c42ull},
  {"plankton2/nonfinite/euler/batch1", 0x5d706529dc62ff6aull},
  {"plankton2/nonfinite/euler/batch3", 0xb9a534cee1b522f3ull},
  {"plankton2/nonfinite/euler/batch8", 0x76d05257a6564563ull},
  {"plankton2/nonfinite/rk4/interp", 0x273c33ac58c9be0eull},
  {"plankton2/nonfinite/rk4/vm", 0x273c33ac58c9be0eull},
  {"plankton2/nonfinite/rk4/batchvm1", 0x273c33ac58c9be0eull},
  {"plankton2/nonfinite/rk4/batch1", 0x1464cf0c546506adull},
  {"plankton2/nonfinite/rk4/batch3", 0x066cd87d570fdad7ull},
  {"plankton2/nonfinite/rk4/batch8", 0x52afa530075def4bull},
  {"plankton2/saturate/euler/interp", 0xc3fd1cfe07c9c546ull},
  {"plankton2/saturate/euler/vm", 0xc3fd1cfe07c9c546ull},
  {"plankton2/saturate/euler/batchvm1", 0xc3fd1cfe07c9c546ull},
  {"plankton2/saturate/euler/batch1", 0xb56ea8b429458fceull},
  {"plankton2/saturate/euler/batch3", 0xa01146283b7ca64bull},
  {"plankton2/saturate/euler/batch8", 0x53002fbf568aad63ull},
  {"plankton2/saturate/rk4/interp", 0xc3fd1cfe07c9c546ull},
  {"plankton2/saturate/rk4/vm", 0xc3fd1cfe07c9c546ull},
  {"plankton2/saturate/rk4/batchvm1", 0xc3fd1cfe07c9c546ull},
  {"plankton2/saturate/rk4/batch1", 0xb56ea8b429458fceull},
  {"plankton2/saturate/rk4/batch3", 0xa01146283b7ca64bull},
  {"plankton2/saturate/rk4/batch8", 0x53002fbf568aad63ull},
  {"plankton2/budget/euler/interp", 0x20d377f16832cee5ull},
  {"plankton2/budget/euler/vm", 0x20d377f16832cee5ull},
  {"plankton2/budget/euler/batchvm1", 0x20d377f16832cee5ull},
  {"plankton2/budget/euler/batch1", 0x520e85564d14af40ull},
  {"plankton2/budget/euler/batch3", 0x2d003209a4fc6e90ull},
  {"plankton2/budget/euler/batch8", 0x8efe30145f41362dull},
  {"plankton2/budget/rk4/interp", 0x93cfb3ef21fd366bull},
  {"plankton2/budget/rk4/vm", 0x93cfb3ef21fd366bull},
  {"plankton2/budget/rk4/batchvm1", 0x93cfb3ef21fd366bull},
  {"plankton2/budget/rk4/batch1", 0xe4e9cd3c1c7b9fdaull},
  {"plankton2/budget/rk4/batch3", 0x233321916a8fa6cfull},
  {"plankton2/budget/rk4/batch8", 0x45b5e87e61f39252ull},
  {"plankton2/manual/nan-first3/euler/interp", 0xd7d4012595cc6c1full},
  {"plankton2/manual/nan-first3/euler/vm", 0xd7d4012595cc6c1full},
  {"plankton2/manual/nan-first3/euler/batchvm1", 0xd7d4012595cc6c1full},
  {"plankton2/manual/nan-first3/euler/batch1", 0x0e4e842215f980a2ull},
  {"plankton2/manual/nan-first3/euler/batch3", 0x5405a7f06489660dull},
  {"plankton2/manual/nan-first3/euler/batch8", 0x63a53cc8de1fc4a2ull},
  {"plankton2/manual/nan-first3/rk4/interp", 0x79466f63bd4367c0ull},
  {"plankton2/manual/nan-first3/rk4/vm", 0x79466f63bd4367c0ull},
  {"plankton2/manual/nan-first3/rk4/batchvm1", 0x79466f63bd4367c0ull},
  {"plankton2/manual/nan-first3/rk4/batch1", 0x3aaf4c42a562522bull},
  {"plankton2/manual/nan-first3/rk4/batch3", 0x2146016ced200b62ull},
  {"plankton2/manual/nan-first3/rk4/batch8", 0x707e2327e1940548ull},
  {"plankton2/manual/nan-after5/euler/interp", 0xb0114eff5f1f62e6ull},
  {"plankton2/manual/nan-after5/euler/vm", 0xb0114eff5f1f62e6ull},
  {"plankton2/manual/nan-after5/euler/batchvm1", 0xb0114eff5f1f62e6ull},
  {"plankton2/manual/nan-after5/euler/batch1", 0xc206ee228959f6a0ull},
  {"plankton2/manual/nan-after5/euler/batch3", 0x76489749d4e085d1ull},
  {"plankton2/manual/nan-after5/euler/batch8", 0x8341a09c1a9cf229ull},
  {"plankton2/manual/nan-after5/rk4/interp", 0xdfb37401473f1fbaull},
  {"plankton2/manual/nan-after5/rk4/vm", 0xdfb37401473f1fbaull},
  {"plankton2/manual/nan-after5/rk4/batchvm1", 0xdfb37401473f1fbaull},
  {"plankton2/manual/nan-after5/rk4/batch1", 0xfd88708dbc803cd9ull},
  {"plankton2/manual/nan-after5/rk4/batch3", 0x819741de1ef27b2bull},
  {"plankton2/manual/nan-after5/rk4/batch8", 0x652c7b642aab7a2full},
};

TEST(GoldenPinTest, SimulateAndBatchSimulateAcrossBackends) {
  const RiverDataset dataset = SmallDataset();
  const TransportScenario scenario = SmallScenario(5);
  PinTable actual;

  AddPinCases("plankton2/manual", LegacyManualProblem(dataset), "", &actual);

  PinProblem transport;
  transport.dataset = &scenario.dataset;
  transport.constituents = scenario.constituents;
  transport.initial = scenario.constituents.InitialStates();
  transport.equations = TransportProcess(scenario.constituents);
  transport.lanes = ScaledLanes(scenario.true_parameters);
  transport.config.num_species = 5;
  AddPinCases("transport5/process", transport, "", &actual);

  // One candidate per watchdog: an overflowing derivative, a finite but
  // explosive growth pinned at the ceiling, and a mid-day substep budget.
  const e::ExprPtr b = e::Variable(kBPhy, "B_Phy");
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  PinProblem nonfinite = LegacyManualProblem(dataset);
  nonfinite.equations = {e::Mul(e::Mul(p0, e::Constant(1e308)), b),
                         e::Constant(0.0)};
  nonfinite.lanes = CandidateLanes();
  AddPinCases("plankton2/nonfinite", nonfinite, "", &actual);
  PinProblem saturate = nonfinite;
  saturate.equations = {e::Mul(e::Mul(p0, e::Constant(1e6)), b),
                        e::Constant(0.0)};
  AddPinCases("plankton2/saturate", saturate, "", &actual);
  PinProblem budget = LegacyManualProblem(dataset);
  budget.config.substep_budget = 101;
  AddPinCases("plankton2/budget", budget, "", &actual);

  // derivative_nan counts Derivatives calls, so these pin where every
  // backend stops evaluating stages, not just what it computes.
  AddPinCases("plankton2/manual/nan-first3", LegacyManualProblem(dataset),
              "derivative_nan:first:3", &actual);
  AddPinCases("plankton2/manual/nan-after5", LegacyManualProblem(dataset),
              "derivative_nan:after:5", &actual);

  ExpectPins(actual, kSimulatePins);
}

// Recorded hashes: "<candidate>/<method>/<pruning>".
const PinTable kGradientPins = {
  {"manual/euler/unpruned", 0xbd2591b20e51a719ull},
  {"manual/euler/pruned", 0x0344e77bccb5ea53ull},
  {"manual/rk4/unpruned", 0xa9264baed971a5d3ull},
  {"manual/rk4/pruned", 0x6306f5e51b0d6299ull},
  {"saturate/euler/unpruned", 0xb025521e1d206e62ull},
  {"saturate/euler/pruned", 0xcf201927280fb883ull},
  {"saturate/rk4/unpruned", 0xb902835cc93c6709ull},
  {"saturate/rk4/pruned", 0x9a07bc53be4d1ce8ull},
};

TEST(GoldenPinTest, RmseGradientValueAndGradientBits) {
  const RiverDataset dataset = SmallDataset();
  const ConstituentSet legacy = ConstituentSet::LegacyPlankton();
  const std::vector<double> initial = {dataset.initial_bphy,
                                       dataset.initial_bzoo};
  struct Candidate {
    const char* name;
    std::vector<e::ExprPtr> equations;
    std::vector<double> parameters;
    std::size_t days;
    int max_saturated_substeps;
    bool aborts;
  };
  // The clean candidate is the expert process; the aborted one grows
  // exponentially into the ceiling, so the reverse sweep covers the good
  // days, a pinned commit, and the penalty tail.
  const Candidate candidates[] = {
      {"manual", ManualProcess(), gp::PriorMeans(RiverParameterPriors()), 60,
       64, false},
      {"saturate",
       {e::Mul(e::Mul(e::Parameter(0, "p0"), e::Variable(kBPhy, "B_Phy")),
               e::Variable(kVlgt, "V_lgt")),
        e::Mul(e::Parameter(1, "p1"), e::Variable(kBZoo, "B_Zoo"))},
       {3.0, 0.1},
       30,
       4,
       true},
  };
  PinTable actual;
  for (const Candidate& c : candidates) {
    for (const IntegrationMethod method :
         {IntegrationMethod::kEuler, IntegrationMethod::kRk4}) {
      for (const bool prune : {false, true}) {
        SimulationConfig config;
        config.method = method;
        config.max_saturated_substeps = c.max_saturated_substeps;
        const grad::GradientResult result =
            grad::RmseGradient(c.equations, c.parameters, dataset, 0, c.days,
                               legacy, initial, config, prune);
        EXPECT_EQ(result.report.aborted, c.aborts) << c.name;
        PinHasher hash;
        hash.AddDouble(result.rmse);
        hash.AddSeries(result.gradient);
        hash.AddWord(result.gradient_valid ? 1u : 0u);
        hash.AddReport(result.report);
        hash.AddWord(result.tape_nodes);
        hash.AddWord(result.pruned_nodes);
        actual.emplace_back(
            std::string(c.name) +
                (method == IntegrationMethod::kEuler ? "/euler" : "/rk4") +
                (prune ? "/pruned" : "/unpruned"),
            hash.value());
      }
    }
  }
  ExpectPins(actual, kGradientPins);
}

// ----------------------------------- legacy 0-ULP differential oracle ----
//
// The deleted scalar and batch B_Phy forwarders were the two-species entry
// points that predate ConstituentSet. Their output on the cases below (the
// B_Phy series or batch result, plus every report field) was recorded as
// one FNV-1a hash per case at the last commit that still had them; the
// generic calls with the legacy preset must keep reproducing those bits.

TEST(LegacyPresetTest, SimulateMatchesDeprecatedBPhyEntryPoint) {
  const RiverDataset dataset = SmallDataset();
  const auto equations = ManualProcess();
  const auto parameters = gp::PriorMeans(RiverParameterPriors());
  const ConstituentSet legacy = ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
  const std::vector<double> initial = {dataset.initial_bphy,
                                       dataset.initial_bzoo};
  // Recorded from the scalar forwarder: "<method>/<backend>".
  const PinTable deprecated = {
      {"euler/interpreter", 0xb16e6315dfed7bf6ull},
      {"euler/bytecode-vm", 0xb16e6315dfed7bf6ull},
      {"euler/batch-vm", 0xb16e6315dfed7bf6ull},
      {"rk4/interpreter", 0xeedbc05aa9c78a7eull},
      {"rk4/bytecode-vm", 0xeedbc05aa9c78a7eull},
      {"rk4/batch-vm", 0xeedbc05aa9c78a7eull},
  };

  struct Backend {
    const char* name;
    bool compiled;
    CompiledBackend backend;
  };
  const Backend backends[] = {
      {"interpreter", false, CompiledBackend::kBytecodeVm},
      {"bytecode-vm", true, CompiledBackend::kBytecodeVm},
      {"batch-vm", true, CompiledBackend::kBatchVm},
  };
  PinTable actual;
  for (const IntegrationMethod method :
       {IntegrationMethod::kEuler, IntegrationMethod::kRk4}) {
    for (const Backend& b : backends) {
      SimulationConfig config;
      config.method = method;
      config.compiled_backend = b.backend;
      SimulationReport report;
      const SimulationTrajectory generic =
          Simulate(equations, parameters, dataset, 0, dataset.train_end,
                   legacy, initial, config, b.compiled, &report);
      ASSERT_EQ(generic.series.size(), 2u);
      PinHasher hash;
      hash.AddSeries(generic.series[0]);
      hash.AddReport(report);
      actual.emplace_back(
          std::string(method == IntegrationMethod::kEuler ? "euler/" : "rk4/") +
              b.name,
          hash.value());
    }
  }
  ExpectPins(actual, deprecated);
}

TEST(LegacyPresetTest, BatchSimulateMatchesDeprecatedBPhyEntryPoint) {
  const RiverDataset dataset = SmallDataset();
  const auto equations = ManualProcess();
  const auto means = gp::PriorMeans(RiverParameterPriors());
  std::vector<std::vector<double>> lanes = {means, means, means};
  for (double& p : lanes[1]) p *= 1.1;
  for (double& p : lanes[2]) p *= 0.9;
  const ConstituentSet legacy = ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
  // Recorded from the batch forwarder: "<method>/batch-vm<width>".
  const PinTable deprecated = {
      {"euler/batch-vm3", 0x1a287dd880558a13ull},
      {"rk4/batch-vm3", 0x7097e5ad348a7eeeull},
  };

  PinTable actual;
  for (const IntegrationMethod method :
       {IntegrationMethod::kEuler, IntegrationMethod::kRk4}) {
    SimulationConfig config;
    config.method = method;
    config.compiled_backend = CompiledBackend::kBatchVm;
    const BatchSimulationResult generic = BatchSimulate(
        equations, lanes, dataset, 0, dataset.train_end, legacy,
        {dataset.initial_bphy, dataset.initial_bzoo}, config);
    EXPECT_EQ(generic.num_species, 2u);
    ASSERT_EQ(generic.predicted.size(), lanes.size());
    PinHasher hash;
    hash.AddWord(generic.width);
    hash.AddWord(generic.num_species);
    for (std::size_t l = 0; l < generic.width; ++l) {
      hash.AddSeries(generic.predicted[l]);
      hash.AddReport(generic.reports[l]);
    }
    actual.emplace_back(
        method == IntegrationMethod::kEuler ? "euler/batch-vm3"
                                            : "rk4/batch-vm3",
        hash.value());
  }
  ExpectPins(actual, deprecated);
}

TEST(LegacyPresetTest, AccuracyOverloadsAgreeBitwise) {
  const RiverDataset dataset = SmallDataset();
  const auto equations = ManualProcess();
  const auto parameters = gp::PriorMeans(RiverParameterPriors());
  const core::AccuracyReport legacy = core::EvaluateAccuracy(
      equations, parameters, dataset, SimulationConfig{});
  const core::AccuracyReport generic = core::EvaluateAccuracy(
      equations, parameters, dataset, SimulationConfig{},
      ConstituentSet::LegacyPlankton(dataset.initial_bphy, dataset.initial_bzoo,
                                     dataset.test_initial_bphy,
                                     dataset.test_initial_bzoo));
  EXPECT_EQ(Bits(legacy.train_rmse), Bits(generic.train_rmse));
  EXPECT_EQ(Bits(legacy.train_mae), Bits(generic.train_mae));
  EXPECT_EQ(Bits(legacy.test_rmse), Bits(generic.test_rmse));
  EXPECT_EQ(Bits(legacy.test_mae), Bits(generic.test_mae));
}

// --------------------------------------------- transport batch vs scalar ----

TEST(TransportSimulateTest, BatchMatchesScalarAtFiveSpecies) {
  const TransportScenario scenario = SmallScenario(5);
  const auto equations = TransportProcess(scenario.constituents);
  ASSERT_EQ(equations.size(), 5u);

  std::vector<std::vector<double>> lanes = {
      scenario.true_parameters,
      gp::PriorMeans(scenario.constituents.priors()),
      scenario.true_parameters};
  for (std::size_t i = 0; i < lanes[2].size(); ++i) lanes[2][i] *= 1.25;

  SimulationConfig config;
  config.num_species = 5;
  config.compiled_backend = CompiledBackend::kBatchVm;
  const std::vector<double> initial = scenario.constituents.InitialStates();
  const BatchSimulationResult batch = BatchSimulate(
      equations, lanes, scenario.dataset, 0, scenario.dataset.train_end,
      scenario.constituents, initial, config);
  EXPECT_EQ(batch.num_species, 5u);
  ASSERT_EQ(batch.predicted.size(), lanes.size());

  const int primary = scenario.constituents.PrimaryObserved();
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const SimulationTrajectory scalar = Simulate(
        equations, lanes[lane], scenario.dataset, 0,
        scenario.dataset.train_end, scenario.constituents, initial, config,
        /*compiled=*/true);
    ExpectBitIdentical(batch.predicted[lane],
                       scalar.series[static_cast<std::size_t>(primary)],
                       "transport lane");
  }
}

TEST(TransportSimulateTest, TruthParametersTrackNoisyObservations) {
  // The generator's hidden truth should sit well inside the clamp box and
  // produce a trajectory correlated with the observed nitrate series — the
  // signal the end-to-end revision recovers.
  const TransportScenario scenario = SmallScenario(5);
  const auto equations = TransportProcess(scenario.constituents);
  SimulationConfig config;
  config.num_species = 5;
  SimulationReport report;
  const SimulationTrajectory truth = Simulate(
      equations, scenario.true_parameters, scenario.dataset, 0,
      scenario.dataset.train_end, scenario.constituents,
      scenario.constituents.InitialStates(), config, /*compiled=*/true,
      &report);
  EXPECT_FALSE(report.aborted);
  for (const auto& series : truth.series) {
    for (double v : series) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LT(v, config.state_max);
    }
  }
}

// ------------------------------------------------- channel conservation ----

/// |Residual| must vanish relative to the gross mass moved through the
/// budget — the telescoping identity of the discrete update.
void ExpectConserved(const ChannelMassBudget& budget, const char* what) {
  const double scale = std::fabs(budget.initial) + std::fabs(budget.inflow) +
                       std::fabs(budget.outflow) +
                       std::fabs(budget.reaction) +
                       std::fabs(budget.clamp_correction) + 1.0;
  EXPECT_LE(std::fabs(budget.Residual()), 1e-8 * scale) << what;
}

TEST(ChannelConservationTest, BothSchemesConserveMass) {
  const TransportScenario scenario = SmallScenario(5);
  const auto equations = TransportProcess(scenario.constituents);
  SimulationConfig config;
  config.num_species = 5;

  for (AdvectionScheme scheme :
       {AdvectionScheme::kUpwind, AdvectionScheme::kQuick}) {
    ChannelConfig channel;
    channel.scheme = scheme;
    channel.num_cells = 6;
    ASSERT_TRUE(ValidateChannel(channel, scenario.constituents).ok());
    // Explicit stepping must be inside the stability region.
    ASSERT_LT(channel.Courant(config.substeps), 1.0);

    const ChannelResult result = SimulateChannel(
        equations, scenario.true_parameters, scenario.dataset, 0, 120,
        scenario.constituents, config, channel);
    EXPECT_FALSE(result.report.aborted) << AdvectionSchemeName(scheme);
    ASSERT_EQ(result.budgets.size(), 5u);
    ASSERT_EQ(result.outlet.size(), 5u);
    EXPECT_EQ(result.final_state.num_species(), 5u);
    EXPECT_EQ(result.final_state.width(),
              static_cast<std::size_t>(channel.num_cells));
    for (std::size_t s = 0; s < result.budgets.size(); ++s) {
      ExpectConserved(result.budgets[s], AdvectionSchemeName(scheme));
    }
    for (const auto& series : result.outlet) {
      for (double v : series) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(ChannelConservationTest, BudgetStaysExactAcrossWatchdogAbort) {
  // A deliberately explosive process: d/dt = exp(8 * M_NO3) saturates the
  // clamp within a few days and trips the watchdog. The reach aborts as a
  // unit; the committed-substep budget must still telescope exactly.
  const TransportScenario scenario = SmallScenario(1);
  const std::vector<e::ExprPtr> explosive = {
      e::Exp(e::Mul(e::Constant(8.0), e::Variable(0, "M_NO3")))};
  SimulationConfig config;
  config.num_species = 1;
  config.max_saturated_substeps = 4;

  for (AdvectionScheme scheme :
       {AdvectionScheme::kUpwind, AdvectionScheme::kQuick}) {
    ChannelConfig channel;
    channel.scheme = scheme;
    channel.num_cells = 4;
    const ChannelResult result = SimulateChannel(
        explosive, scenario.true_parameters, scenario.dataset, 0, 60,
        scenario.constituents, config, channel);
    EXPECT_TRUE(result.report.aborted) << AdvectionSchemeName(scheme);
    EXPECT_EQ(result.report.outcome, EvalOutcome::kClampSaturated);
    ASSERT_EQ(result.budgets.size(), 1u);
    ExpectConserved(result.budgets[0], AdvectionSchemeName(scheme));
    // Post-abort outlet samples deterministically predict the penalty.
    ASSERT_FALSE(result.outlet[0].empty());
    EXPECT_EQ(result.outlet[0].back(), config.state_max);
  }
}

// Recorded hashes: "<scheme>/<case>". Each hashes the outlet series, the
// final cells, every ChannelMassBudget field and the report.
const PinTable kChannelPins = {
  {"upwind/clean", 0x67d5ad43ee38c866ull},
  {"upwind/explosive", 0xa4b5b6f8c8114a82ull},
  {"upwind/nan-first3", 0xdc3190d13a07a509ull},
  {"quick/clean", 0x85ac6d184c864e63ull},
  {"quick/explosive", 0xa4b5b6f8c8114a82ull},
  {"quick/nan-first3", 0x76f48bdc81b83a43ull},
};

TEST(GoldenPinTest, SimulateChannelOutletCellsBudgetsAndReport) {
  const TransportScenario five = SmallScenario(5);
  const TransportScenario one = SmallScenario(1);
  SimulationConfig clean_config;
  clean_config.num_species = 5;
  // The explosive watchdog case of BudgetStaysExactAcrossWatchdogAbort.
  SimulationConfig explosive_config;
  explosive_config.num_species = 1;
  explosive_config.max_saturated_substeps = 4;
  struct Case {
    const char* name;
    const TransportScenario* scenario;
    std::vector<e::ExprPtr> equations;
    SimulationConfig config;
    const char* fault;
  };
  const Case cases[] = {
      {"clean", &five, TransportProcess(five.constituents), clean_config,
       ""},
      {"explosive", &one,
       {e::Exp(e::Mul(e::Constant(8.0), e::Variable(0, "M_NO3")))},
       explosive_config, ""},
      {"nan-first3", &five, TransportProcess(five.constituents),
       clean_config, "derivative_nan:first:3"},
  };
  PinTable actual;
  for (const AdvectionScheme scheme :
       {AdvectionScheme::kUpwind, AdvectionScheme::kQuick}) {
    for (const Case& c : cases) {
      ChannelConfig channel;
      channel.scheme = scheme;
      channel.num_cells = 6;
      if (c.fault[0] != '\0') {
        std::string error;
        ASSERT_TRUE(SetFaultSpec(c.fault, &error)) << error;
      }
      const ChannelResult result = SimulateChannel(
          c.equations, c.scenario->true_parameters, c.scenario->dataset, 0,
          90, c.scenario->constituents, c.config, channel);
      ClearFaults();
      PinHasher hash;
      for (const auto& series : result.outlet) hash.AddSeries(series);
      const MassBalanceStore& cells = result.final_state;
      hash.AddWord(cells.num_species());
      hash.AddWord(cells.width());
      for (std::size_t s = 0; s < cells.num_species(); ++s) {
        for (std::size_t l = 0; l < cells.width(); ++l) {
          hash.AddDouble(cells.at(s, l));
        }
      }
      for (const ChannelMassBudget& budget : result.budgets) {
        hash.AddDouble(budget.initial);
        hash.AddDouble(budget.final_mass);
        hash.AddDouble(budget.inflow);
        hash.AddDouble(budget.outflow);
        hash.AddDouble(budget.reaction);
        hash.AddDouble(budget.clamp_correction);
      }
      hash.AddReport(result.report);
      actual.emplace_back(
          std::string(AdvectionSchemeName(scheme)) + "/" + c.name,
          hash.value());
    }
  }
  ExpectPins(actual, kChannelPins);
}

TEST(ChannelConservationTest, GeometryValidationIsTyped) {
  const ConstituentSet set = ConstituentSet::Transport(2);
  ChannelConfig channel;
  channel.num_cells = 0;
  EXPECT_FALSE(ValidateChannel(channel, set).ok());
  channel.num_cells = 4;
  channel.velocity = -1.0;
  EXPECT_FALSE(ValidateChannel(channel, set).ok());
  channel.velocity = 100.0;
  channel.inflow = {1.0};  // Wrong length for a two-species registry.
  EXPECT_EQ(ValidateChannel(channel, set).code,
            ConfigErrorCode::kSpeciesCountMismatch);
  channel.inflow = {1.0, 0.5};
  EXPECT_TRUE(ValidateChannel(channel, set).ok());
}

// ------------------------------------------------------- fitness widths ----

TEST(TransportFitnessTest, StateAndParameterWidthsFollowRegistry) {
  const TransportScenario scenario = SmallScenario(5);
  const RiverFitness fitness = RiverFitness::ForTrainingWith(
      &scenario.dataset, scenario.constituents);
  EXPECT_EQ(fitness.num_states(), 5u);
  EXPECT_EQ(fitness.num_parameters(),
            static_cast<std::size_t>(kNumTransportParameters));
  EXPECT_EQ(fitness.num_cases(), scenario.dataset.train_end);

  const RiverDataset dataset = SmallDataset();
  const RiverFitness legacy = RiverFitness::ForTraining(&dataset);
  EXPECT_EQ(legacy.num_states(), 2u);
}

// --------------------------------------------- end-to-end GMR + resume ----

core::GmrConfig TinyGmrConfig() {
  core::GmrConfig config;
  config.tag3p.population_size = 12;
  config.tag3p.max_generations = 3;
  config.tag3p.local_search_steps = 1;
  config.tag3p.sigma_rampdown_generations = 2;
  config.tag3p.seed = 33;
  return config;
}

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/transport_test_" + name;
  std::error_code ignore;
  fs::remove_all(path, ignore);
  fs::create_directories(path);
  return path;
}

/// DescribeModel text + bitwise accuracy: a complete digest of one run.
std::string Digest(const core::GmrRunResult& result,
                   const ConstituentSet& constituents) {
  std::string digest = core::DescribeModel(result.best_equations,
                                           constituents);
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "\ntrain=%llx test=%llx",
                static_cast<unsigned long long>(Bits(result.train_rmse)),
                static_cast<unsigned long long>(Bits(result.test_rmse)));
  return digest + buffer;
}

TEST(TransportEndToEndTest, FiveSpeciesGmrRunsAndResumesIdentically) {
  const TransportScenario scenario = SmallScenario(5);
  const core::RiverPriorKnowledge knowledge =
      core::BuildTransportPriorKnowledge(scenario.constituents);
  EXPECT_EQ(knowledge.priors.size(),
            static_cast<std::size_t>(kNumTransportParameters));

  const core::GmrConfig config = TinyGmrConfig();
  const core::GmrProblem problem{&scenario.dataset, &knowledge,
                                 &scenario.constituents};
  const std::string dir = FreshDir("resume5");

  auto run_segment = [&] {
    ckpt::CheckpointOptions options;
    options.dir = dir;
    options.every_steps = 1;
    options.retain = 64;
    ckpt::Checkpointer checkpointer(options);
    obs::RunContext context;
    context.checkpointer = &checkpointer;
    return core::RunGmr(config, problem, context);
  };

  const core::GmrRunResult full = run_segment();
  ASSERT_EQ(full.best_equations.size(), 5u);
  EXPECT_TRUE(std::isfinite(full.train_rmse));
  EXPECT_TRUE(std::isfinite(full.test_rmse));
  const std::string description =
      core::DescribeModel(full.best_equations, scenario.constituents);
  EXPECT_NE(description.find("dM_NO3/dt"), std::string::npos);
  EXPECT_NE(description.find("dM_SED/dt"), std::string::npos);

  // Rewind the snapshot store to a mid-run step, as if the process had
  // been killed there, and rerun: the continuation must reproduce the
  // uninterrupted result bit-identically.
  {
    ckpt::SnapshotStore store(dir, /*retain=*/64);
    ASSERT_GE(store.entries().size(), 2u);
    const std::uint64_t mid =
        store.entries()[(store.entries().size() - 1) / 2].step;
    ASSERT_TRUE(store.DropNewerThan(mid).ok());
  }
  const core::GmrRunResult resumed = run_segment();
  EXPECT_EQ(Digest(full, scenario.constituents),
            Digest(resumed, scenario.constituents));
}

}  // namespace
}  // namespace gmr::river
