// Tests of the benchmark's own code: the statistics helpers, the span
// recorder, decorator transparency, and a tiny-budget smoke run of every
// workload. Build and run:
//   cmake --build <build dir> --target perfbench_test
//   ctest --test-dir <build dir> --output-on-failure

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/river_grammar.h"
#include "decorators.h"
#include "gp/tag3p.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gmr;

std::uint64_t Bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Stats, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 0.5), 50.0);
  EXPECT_EQ(NearestRank(v, 0.9), 90.0);
  EXPECT_EQ(NearestRank(v, 1.0), 100.0);
}

TEST(Stats, TailKeepsTenSamplesBeyondIt) {
  for (int n = 1; n <= 250; ++n) {
    std::vector<double> v;
    for (int i = n - 1; i >= 0; --i) v.push_back(i);  // unsorted input
    const TailPercentile tail = Tail(v);
    EXPECT_EQ(tail.samples, static_cast<std::size_t>(n));
    EXPECT_LE(tail.quantile, 0.90);
    EXPECT_GE(tail.quantile, 0.5);
    if (tail.quantile > 0.5) {
      int beyond = 0;
      for (double x : v) beyond += x > tail.value ? 1 : 0;
      EXPECT_GE(beyond, 10) << "n=" << n;
    }
  }
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Tail(hundred).quantile, 0.90);
  EXPECT_EQ(Tail(hundred).value, 90.0);
  std::vector<double> fifty(hundred.begin(), hundred.begin() + 50);
  EXPECT_DOUBLE_EQ(Tail(fifty).quantile, 0.80);
  EXPECT_EQ(Tail(fifty).value, 40.0);
  std::vector<double> fifteen(hundred.begin(), hundred.begin() + 15);
  EXPECT_DOUBLE_EQ(Tail(fifteen).quantile, 0.5);  // too few for any tail
}

TEST(Stats, SelfTimeSubtractsChildrenAndAggregatedCalls) {
  std::vector<Span> spans(4);
  spans[0] = {0, -1, 1, "calibrate.sceua", 0.0, 10.0, {{"river.rollout_s", 3.0}}};
  spans[1] = {1, 0, 1, "child", 1.0, 3.0, {}};
  spans[2] = {2, 0, 1, "child", 4.0, 5.0, {}};
  spans[3] = {3, 1, 1, "grandchild", 1.5, 2.5, {}};
  // 10 - (2 + 1) children - 3 aggregated; the grandchild is inside a child.
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0, {"river.rollout_s", "grad.gradient_s"}),
                   4.0);
  EXPECT_DOUBLE_EQ(SelfTime(spans, 1, {}), 1.0);
  EXPECT_DOUBLE_EQ(SumOver(spans, "calibrate.sceua", 1, "river.rollout_s"),
                   3.0);
  EXPECT_DOUBLE_EQ(SumOver(spans, "calibrate.sceua", 2, "river.rollout_s"),
                   0.0);
}

TEST(Trace, SpansNestAndAggregateCountersFromTwoThreads) {
  Tracer tracer;
  const int outer = tracer.Open("outer", 7);
  const int inner = tracer.Open("inner", 7);
  auto bump = [] {
    for (int i = 0; i < 1000; ++i) Tracer::Add(kStepCalls, 1);
  };
  std::thread a(bump);
  std::thread b(bump);
  a.join();
  b.join();
  tracer.Close(inner);
  tracer.Close(outer);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, outer);
  EXPECT_EQ(tracer.spans()[0].run_id, 7);
  EXPECT_EQ(tracer.spans()[1].Get("river.step_calls"), 2000.0);
  EXPECT_EQ(tracer.spans()[0].Get("river.step_calls"), 2000.0);
  EXPECT_LE(tracer.spans()[0].start_s, tracer.spans()[1].start_s);
  EXPECT_GE(tracer.spans()[0].end_s, tracer.spans()[1].end_s);
}

/// A small plankton search, run through `fitness`.
gp::Tag3pResult SmallSearch(const core::RiverPriorKnowledge& knowledge,
                            const gp::SequentialFitness* fitness,
                            int threads) {
  gp::Tag3pConfig config;
  config.population_size = 40;
  config.max_generations = 4;
  config.local_search_steps = 2;
  config.seed = 5;
  config.seed_alpha_index = knowledge.seed_alpha_index;
  config.speedups.tree_caching = true;
  config.speedups.short_circuiting = true;
  config.speedups.runtime_compilation = true;
  config.speedups.num_threads = threads;
  gp::Tag3pEngine engine(
      gp::Tag3pProblem{&knowledge.grammar, fitness, knowledge.priors}, config,
      obs::RunContext{});
  return engine.Run();
}

TEST(Decorators, TracedFitnessIsTransparentAtOneAndTwoThreads) {
  river::SyntheticConfig synth;
  synth.years = 3;
  synth.train_years = 2;
  const river::RiverDataset dataset = river::GenerateNakdongLike(synth);
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness = river::RiverFitness::ForTraining(&dataset);
  const TracedFitness traced(&fitness);

  const gp::Tag3pResult plain1 = SmallSearch(knowledge, &fitness, 1);
  const std::uint64_t calls_before = Tracer::Total(kBeginCalls);
  const gp::Tag3pResult traced1 = SmallSearch(knowledge, &traced, 1);
  EXPECT_GT(Tracer::Total(kBeginCalls), calls_before);
  EXPECT_GT(Tracer::Total(kStepCalls), 0u);

  // One thread: every EvalStats counter and every fitness bit agrees.
  const gp::EvalStats& a = plain1.eval_stats;
  const gp::EvalStats& b = traced1.eval_stats;
  EXPECT_EQ(Bits(plain1.best.fitness), Bits(traced1.best.fitness));
  EXPECT_EQ(a.individuals_evaluated, b.individuals_evaluated);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.full_evaluations, b.full_evaluations);
  EXPECT_EQ(a.short_circuited, b.short_circuited);
  EXPECT_EQ(a.time_steps_evaluated, b.time_steps_evaluated);
  for (std::size_t o = 0; o < kNumEvalOutcomes; ++o) {
    EXPECT_EQ(a.outcomes[o], b.outcomes[o]);
  }
  ASSERT_EQ(plain1.history.size(), traced1.history.size());
  for (std::size_t g = 0; g < plain1.history.size(); ++g) {
    EXPECT_EQ(Bits(plain1.history[g].best_fitness),
              Bits(traced1.history[g].best_fitness));
    EXPECT_EQ(Bits(plain1.history[g].mean_fitness),
              Bits(traced1.history[g].mean_fitness));
  }

  // Two threads: the frozen frontier keeps every fitness bit identical to
  // the serial run, decorated or not. Hit/miss counters may differ when two
  // identical candidates of one batch race on the tree cache, so only the
  // scheduling-independent counters are compared.
  const gp::Tag3pResult plain2 = SmallSearch(knowledge, &fitness, 2);
  const gp::Tag3pResult traced2 = SmallSearch(knowledge, &traced, 2);
  for (const gp::Tag3pResult* r : {&plain2, &traced2}) {
    EXPECT_EQ(Bits(r->best.fitness), Bits(plain1.best.fitness));
    EXPECT_EQ(r->eval_stats.cache_lookups, a.cache_lookups);
    ASSERT_EQ(r->history.size(), plain1.history.size());
    for (std::size_t g = 0; g < plain1.history.size(); ++g) {
      EXPECT_EQ(Bits(r->history[g].mean_fitness),
                Bits(plain1.history[g].mean_fitness));
    }
  }
}

/// A budget small enough to run every workload in a few seconds.
Budget Tiny() {
  Budget budget;
  budget.plankton_restarts = 2;
  budget.transport_restarts = 2;
  budget.plankton_generations = 2;
  budget.transport_generations = 2;
  budget.sceua_budget = 60;
  budget.lbfgs_budget = 20;
  budget.ensemble_lanes = 16;
  budget.min_reps = 2;
  return budget;
}

std::vector<std::string> Names(const std::vector<Metric>& metrics) {
  std::vector<std::string> names;
  for (const Metric& m : metrics) names.push_back(m.name + " [" + m.unit + "]");
  return names;
}

TEST(Smoke, EveryWorkloadPrintsEveryMetricWithItsUnit) {
  for (const std::string& workload : WorkloadNames()) {
    for (bool trace : {false, true}) {
      const RunReport report = RunBenchmark(workload, 3, 1.0, trace, Tiny());
      for (const std::string& note : report.notes) {
        std::printf("%s note: %s\n", workload.c_str(), note.c_str());
      }
      EXPECT_TRUE(report.correct) << workload;
      EXPECT_EQ(report.failed, 0u) << workload;
      EXPECT_GT(report.attempted, 0u) << workload;
      const std::vector<Metric>& want =
          trace ? PerLayerMetrics() : EndToEndMetrics();
      EXPECT_EQ(Names(report.metrics), Names(want)) << workload;
      for (const Metric& m : report.metrics) {
        std::printf("%s trace=%d %s = %.6g %s\n", workload.c_str(), trace,
                    m.name.c_str(), m.value, m.unit.c_str());
      }
      const std::string line = ToJsonLine(report);
      EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": ", 0), 0u);
      if (!trace) {
        for (const Metric& m : report.metrics) {
          EXPECT_GT(m.value, 0.0) << workload << " " << m.name;
        }
      }
    }
  }
}

TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  auto section = [&](const std::string& key) {
    const std::size_t at = json.find("\"" + key + "\"");
    EXPECT_NE(at, std::string::npos) << key;
    return json.substr(at, json.find(']', at) - at);
  };
  auto listed = [](const std::string& body) {
    std::vector<std::string> names;
    const std::regex entry(
        "\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), entry), end;
         it != end; ++it) {
      names.push_back((*it)[1].str() + " [" + (*it)[2].str() + "]");
    }
    return names;
  };
  EXPECT_EQ(listed(section("end_to_end")), Names(EndToEndMetrics()));
  EXPECT_EQ(listed(section("per_layer")), Names(PerLayerMetrics()));
  const std::string workloads = section("workloads");
  for (const std::string& name : WorkloadNames()) {
    EXPECT_NE(workloads.find("\"" + name + "\""), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace perfbench
