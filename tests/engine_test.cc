// Additional TAG3P engine coverage: configuration paths (speedups on/off,
// elite polish, size bounds, operator probability corners) and the
// interaction between the engine and the river problem, complementing the
// toy-problem tests of gp_test.cc.

#include <gtest/gtest.h>

#include <cmath>

#include "common/metrics.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "gp/tag3p.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "tag/generate.h"

namespace gmr {
namespace {

river::RiverDataset TinySynthetic() {
  river::SyntheticConfig config;
  config.years = 2;
  config.train_years = 1;
  config.seed = 3;
  return river::GenerateNakdongLike(config);
}

gp::Tag3pConfig SmallConfig(std::uint64_t seed) {
  gp::Tag3pConfig config;
  config.population_size = 12;
  config.max_generations = 4;
  config.local_search_steps = 1;
  config.elite_polish_steps = 4;
  config.sigma_rampdown_generations = 2;
  config.seed = seed;
  return config;
}

TEST(EngineConfigTest, RunsWithAllSpeedupCombinations) {
  const river::RiverDataset dataset = TinySynthetic();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  for (int mask = 0; mask < 8; ++mask) {
    gp::Tag3pConfig config = SmallConfig(5);
    config.speedups.tree_caching = (mask & 1) != 0;
    config.speedups.short_circuiting = (mask & 2) != 0;
    config.speedups.runtime_compilation = (mask & 4) != 0;
    config.seed_alpha_index = knowledge.seed_alpha_index;
    gp::Tag3pEngine engine(&knowledge.grammar, &fitness, knowledge.priors,
                           config);
    const gp::Tag3pResult result = engine.Run();
    EXPECT_TRUE(std::isfinite(result.best.fitness)) << "mask " << mask;
    EXPECT_EQ(result.history.size(), 4u) << "mask " << mask;
  }
}

TEST(EngineConfigTest, ElitePolishNeverWorsensBest) {
  const river::RiverDataset dataset = TinySynthetic();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);

  auto best_with_polish = [&](int polish_steps) {
    gp::Tag3pConfig config = SmallConfig(9);
    config.elite_polish_steps = polish_steps;
    config.seed_alpha_index = knowledge.seed_alpha_index;
    gp::Tag3pEngine engine(&knowledge.grammar, &fitness, knowledge.priors,
                           config);
    return engine.Run().best.fitness;
  };
  // Polish is hill climbing on the incumbent: different random streams make
  // the runs incomparable step-by-step, but polish must produce a finite
  // result and typically helps; at minimum both configurations work.
  EXPECT_TRUE(std::isfinite(best_with_polish(0)));
  EXPECT_TRUE(std::isfinite(best_with_polish(20)));
}

TEST(EngineConfigTest, SizeBoundsAreRespectedInFinalPopulationBest) {
  const river::RiverDataset dataset = TinySynthetic();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  gp::Tag3pConfig config = SmallConfig(13);
  config.bounds = gp::SizeBounds{2, 9};
  config.seed_alpha_index = knowledge.seed_alpha_index;
  gp::Tag3pEngine engine(&knowledge.grammar, &fitness, knowledge.priors,
                         config);
  const gp::Tag3pResult result = engine.Run();
  EXPECT_GE(result.best.Size(), 1u);
  EXPECT_LE(result.best.Size(), 9u);
  std::string error;
  EXPECT_TRUE(tag::Validate(knowledge.grammar, *result.best.genotype,
                            &error))
      << error;
}

TEST(EngineConfigTest, ReplicationOnlyConfigStillRuns) {
  // Degenerate operator probabilities: everything falls through to
  // replication; the engine must still finish and return the best seed.
  const river::RiverDataset dataset = TinySynthetic();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  gp::Tag3pConfig config = SmallConfig(17);
  config.p_crossover = 0.0;
  config.p_subtree_mutation = 0.0;
  config.p_gaussian_mutation = 0.0;
  config.local_search_steps = 0;
  config.elite_polish_steps = 0;
  config.seed_alpha_index = knowledge.seed_alpha_index;
  gp::Tag3pEngine engine(&knowledge.grammar, &fitness, knowledge.priors,
                         config);
  const gp::Tag3pResult result = engine.Run();
  EXPECT_TRUE(std::isfinite(result.best.fitness));
}

TEST(EngineConfigTest, BestFitnessMatchesIndependentFullEvaluation) {
  // The fitness the engine reports for its best individual must agree with
  // an independent full evaluation of the same phenotype (the best is
  // always fully evaluated under ES because it defines bestPrevFull).
  const river::RiverDataset dataset = TinySynthetic();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  gp::Tag3pConfig config = SmallConfig(21);
  config.speedups.tree_caching = true;
  config.speedups.short_circuiting = true;
  config.speedups.runtime_compilation = true;
  config.seed_alpha_index = knowledge.seed_alpha_index;
  gp::Tag3pEngine engine(&knowledge.grammar, &fitness, knowledge.priors,
                         config);
  const gp::Tag3pResult result = engine.Run();

  gp::SpeedupConfig plain;
  plain.runtime_compilation = true;
  gp::FitnessEvaluator evaluator(&knowledge.grammar, &fitness, plain);
  const double full = evaluator.EvaluateFull(result.best);
  // Same kBytecodeVm backend on both sides, so a small ULP budget replaces
  // the old absolute 1e-9 tolerance (which scales badly with fitness
  // magnitude).
  EXPECT_TRUE(WithinUlps(result.best.fitness, full, 16))
      << result.best.fitness << " vs " << full << " (ulps "
      << UlpDistance(result.best.fitness, full) << ")";
}

TEST(EngineConfigTest, RiverRunKeepsGenotypesValid) {
  const river::RiverDataset dataset = TinySynthetic();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  core::GmrConfig config;
  config.tag3p = SmallConfig(23);
  const core::GmrRunResult result =
      core::RunGmr(dataset, knowledge, config);
  std::string error;
  EXPECT_TRUE(tag::Validate(knowledge.grammar, *result.best.genotype,
                            &error))
      << error;
  // Parameters must stay inside the Table III exploration bounds.
  for (std::size_t i = 0; i < knowledge.priors.size(); ++i) {
    EXPECT_GE(result.best.parameters[i], knowledge.priors[i].lo);
    EXPECT_LE(result.best.parameters[i], knowledge.priors[i].hi);
  }
}

}  // namespace
}  // namespace gmr
