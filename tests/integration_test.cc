#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/engine.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "io/csv.h"
#include "io/model_io.h"
#include "sim/population_sim.h"
#include "sim/scenario.h"

namespace ftl {
namespace {

/// End-to-end: simulate a population exposing two services, train, link,
/// and verify the paper's headline claim — high perceptiveness at low
/// selectiveness — holds on our synthetic substitute data.
TEST(IntegrationTest, PopulationLinkingEndToEnd) {
  sim::PopulationOptions po;
  po.num_persons = 80;
  po.duration_days = 10;
  po.cdr_accesses_per_day = 15.0;
  po.transit_accesses_per_day = 8.0;
  po.seed = 1001;
  auto data = sim::SimulatePopulation(po);

  core::EngineOptions eo;
  eo.training.horizon_units = 40;
  eo.training.acceptance_pairs_per_db = 600;
  eo.alpha = {0.01, 0.3};
  eo.naive_bayes.phi_r = 0.05;
  core::FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  eval::WorkloadOptions wo;
  wo.num_queries = 40;
  wo.seed = 5;
  auto workload = eval::MakeWorkload(data.cdr_db, data.transit_db, wo);
  ASSERT_GE(workload.queries.size(), 30u);

  for (auto matcher :
       {core::Matcher::kAlphaFilter, core::Matcher::kNaiveBayes}) {
    auto results =
        engine.BatchQuery(workload.queries, data.transit_db, matcher);
    ASSERT_TRUE(results.ok());
    auto m = eval::ComputeMetrics(results.value(), workload.owners,
                                  data.transit_db);
    EXPECT_GT(m.perceptiveness, 0.7)
        << "matcher=" << static_cast<int>(matcher);
    EXPECT_LT(m.selectiveness, 0.35)
        << "matcher=" << static_cast<int>(matcher);
  }
}

/// The selectiveness/perceptiveness trade-off moves the right way when
/// the Naive-Bayes prior is loosened (paper Section IV-E discussion).
TEST(IntegrationTest, PhiRTradeoffDirection) {
  sim::PopulationOptions po;
  po.num_persons = 60;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 10.0;
  po.transit_accesses_per_day = 6.0;
  po.seed = 1002;
  auto data = sim::SimulatePopulation(po);

  core::EngineOptions eo;
  eo.training.horizon_units = 40;
  core::FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  eval::WorkloadOptions wo;
  wo.num_queries = 30;
  wo.seed = 6;
  auto workload = eval::MakeWorkload(data.cdr_db, data.transit_db, wo);

  double prev_sel = -1.0;
  for (double phi : {1e-4, 0.01, 0.3}) {
    // The prior is fixed per engine (its NB log table is built with
    // the models), so each φr gets an engine over the same models.
    core::EngineOptions swept = eo;
    swept.naive_bayes.phi_r = phi;
    core::FtlEngine at_phi(swept);
    at_phi.SetModels(engine.models());
    auto results = at_phi.BatchQuery(workload.queries, data.transit_db,
                                     core::Matcher::kNaiveBayes);
    ASSERT_TRUE(results.ok());
    auto m = eval::ComputeMetrics(results.value(), workload.owners,
                                  data.transit_db);
    EXPECT_GE(m.selectiveness, prev_sel)
        << "looser prior must not shrink the candidate sets";
    prev_sel = m.selectiveness;
  }
}

/// Sparser data hurts: SA (rate 0.006) vs SC (rate 0.01) on the same
/// fleet — perceptiveness should not improve when records are dropped.
TEST(IntegrationTest, SparsityDegradesPerceptiveness) {
  auto lo = sim::BuildDataset(sim::FindConfig("SA"), 60, 2024);
  auto hi = sim::BuildDataset(sim::FindConfig("SC"), 60, 2024);

  auto run = [](sim::DatasetPair& pair) {
    core::EngineOptions eo;
    eo.training.horizon_units = 60;
    eo.alpha = {0.001, 0.3};
    core::FtlEngine engine(eo);
    EXPECT_TRUE(engine.Train(pair.p, pair.q).ok());
    eval::WorkloadOptions wo;
    wo.num_queries = 30;
    wo.seed = 7;
    auto workload = eval::MakeWorkload(pair.p, pair.q, wo);
    auto results = engine.BatchQuery(workload.queries, pair.q,
                                     core::Matcher::kNaiveBayes);
    EXPECT_TRUE(results.ok());
    return eval::ComputeMetrics(results.value(), workload.owners, pair.q);
  };
  auto m_lo = run(lo);
  auto m_hi = run(hi);
  // Allow slack for noise at this small scale, but the dense config
  // must not be clearly worse.
  EXPECT_GE(m_hi.perceptiveness + 0.15, m_lo.perceptiveness);
}

/// Models persisted to disk load back and reproduce query results.
TEST(IntegrationTest, ModelPersistenceRoundTrip) {
  sim::PopulationOptions po;
  po.num_persons = 30;
  po.duration_days = 5;
  po.seed = 1003;
  auto data = sim::SimulatePopulation(po);

  core::FtlEngine engine;
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  namespace fs = std::filesystem;
  std::string rej = (fs::temp_directory_path() / "ftl_it_rej.txt").string();
  std::string acc = (fs::temp_directory_path() / "ftl_it_acc.txt").string();
  ASSERT_TRUE(io::WriteModel(engine.models().rejection, rej).ok());
  ASSERT_TRUE(io::WriteModel(engine.models().acceptance, acc).ok());

  auto r = io::ReadModel(rej);
  auto a = io::ReadModel(acc);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(a.ok());
  core::FtlEngine loaded;
  loaded.SetModels(
      core::ModelPair{std::move(r).value(), std::move(a).value()});

  auto q1 = engine.Query(data.cdr_db[0], data.transit_db,
                         core::Matcher::kAlphaFilter);
  auto q2 = loaded.Query(data.cdr_db[0], data.transit_db,
                         core::Matcher::kAlphaFilter);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_EQ(q1.value().candidates.size(), q2.value().candidates.size());
  for (size_t i = 0; i < q1.value().candidates.size(); ++i) {
    EXPECT_EQ(q1.value().candidates[i].index,
              q2.value().candidates[i].index);
    EXPECT_NEAR(q1.value().candidates[i].score,
                q2.value().candidates[i].score, 1e-6);
  }
  std::remove(rej.c_str());
  std::remove(acc.c_str());
}

/// Databases persisted as CSV reload into an equivalent linking problem.
TEST(IntegrationTest, CsvPersistenceKeepsLinkability) {
  sim::PopulationOptions po;
  po.num_persons = 30;
  po.duration_days = 5;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 1004;
  auto data = sim::SimulatePopulation(po);

  auto reloaded_p = io::FromCsvString(io::ToCsvString(data.cdr_db), "p");
  auto reloaded_q =
      io::FromCsvString(io::ToCsvString(data.transit_db), "q");
  ASSERT_TRUE(reloaded_p.ok());
  ASSERT_TRUE(reloaded_q.ok());

  core::FtlEngine engine;
  ASSERT_TRUE(
      engine.Train(reloaded_p.value(), reloaded_q.value()).ok());
  // A couple of queries still find their true match after the round trip.
  size_t hits = 0;
  for (size_t i = 0; i < 5; ++i) {
    auto r = engine.Query(reloaded_p.value()[i], reloaded_q.value(),
                          core::Matcher::kNaiveBayes);
    ASSERT_TRUE(r.ok());
    for (const auto& c : r.value().candidates) {
      if (reloaded_q.value()[c.index].owner() ==
          reloaded_p.value()[i].owner()) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, 4u);
}

}  // namespace
}  // namespace ftl
