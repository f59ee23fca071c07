#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "sim/population_sim.h"

namespace ftl::core {
namespace {

/// Small but realistic population for engine tests: dense enough access
/// patterns that linking is reliable.
sim::PopulationData TestPopulation(size_t persons = 40, uint64_t seed = 3) {
  sim::PopulationOptions po;
  po.num_persons = persons;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 25.0;
  po.transit_accesses_per_day = 25.0;
  po.seed = seed;
  return sim::SimulatePopulation(po);
}

EngineOptions TestOptions() {
  EngineOptions o;
  o.training.horizon_units = 30;
  o.training.acceptance_pairs_per_db = 400;
  o.alpha = {0.01, 0.2};
  o.naive_bayes.phi_r = 0.05;
  return o;
}

TEST(EngineTest, QueryBeforeTrainFails) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation(5);
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, TrainSucceedsOnPopulation) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  EXPECT_TRUE(engine.trained());
  EXPECT_TRUE(engine.models().rejection.Validate().ok());
  EXPECT_TRUE(engine.models().acceptance.Validate().ok());
}

TEST(EngineTest, EmptyCandidateDbRejected) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  traj::TrajectoryDatabase empty;
  auto r = engine.Query(data.cdr_db[0], empty, Matcher::kAlphaFilter);
  EXPECT_FALSE(r.ok());
}

TEST(EngineTest, FindsTrueMatchWithBothMatchers) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  size_t found_alpha = 0, found_nb = 0, tried = 0;
  for (size_t i = 0; i < 10; ++i) {
    const auto& query = data.cdr_db[i];
    if (query.size() < 2) continue;
    ++tried;
    for (auto matcher : {Matcher::kAlphaFilter, Matcher::kNaiveBayes}) {
      auto r = engine.Query(query, data.transit_db, matcher);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      bool hit = false;
      for (const auto& c : r.value().candidates) {
        if (data.transit_db[c.index].owner() == query.owner()) hit = true;
      }
      if (hit) {
        (matcher == Matcher::kAlphaFilter ? found_alpha : found_nb) += 1;
      }
    }
  }
  ASSERT_GT(tried, 5u);
  // Dense 7-day data: both matchers should find most true matches.
  EXPECT_GE(found_alpha, tried - 2);
  EXPECT_GE(found_nb, tried - 2);
}

TEST(EngineTest, CandidatesSortedByScore) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  const auto& cands = r.value().candidates;
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i - 1].score, cands[i].score);
  }
}

TEST(EngineTest, SelectivenessIsFractionOfDb) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kNaiveBayes);
  ASSERT_TRUE(r.ok());
  double expect = static_cast<double>(r.value().candidates.size()) /
                  static_cast<double>(data.transit_db.size());
  EXPECT_DOUBLE_EQ(r.value().selectiveness, expect);
  EXPECT_LE(r.value().selectiveness, 1.0);
}

TEST(EngineTest, CandidateLabelsMatchDatabase) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[1], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  for (const auto& c : r.value().candidates) {
    EXPECT_EQ(c.label, data.transit_db[c.index].label());
  }
}

TEST(EngineTest, BatchMatchesSerialQueries) {
  FtlEngine engine(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  std::vector<traj::Trajectory> queries;
  for (size_t i = 0; i < 6; ++i) queries.push_back(data.cdr_db[i]);
  auto batch = engine.BatchQuery(queries, data.transit_db,
                                 Matcher::kNaiveBayes);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = engine.Query(queries[i], data.transit_db,
                               Matcher::kNaiveBayes);
    ASSERT_TRUE(single.ok());
    const auto& a = batch.value()[i].candidates;
    const auto& b = single.value().candidates;
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].index, b[j].index);
      EXPECT_DOUBLE_EQ(a[j].score, b[j].score);
    }
  }
}

TEST(EngineTest, ParallelBatchMatchesSerialBatch) {
  auto data = TestPopulation();
  EngineOptions serial_opts = TestOptions();
  EngineOptions parallel_opts = TestOptions();
  parallel_opts.num_threads = 4;
  FtlEngine serial(serial_opts), parallel(parallel_opts);
  ASSERT_TRUE(serial.Train(data.cdr_db, data.transit_db).ok());
  ASSERT_TRUE(parallel.Train(data.cdr_db, data.transit_db).ok());
  std::vector<traj::Trajectory> queries;
  for (size_t i = 0; i < 10; ++i) queries.push_back(data.cdr_db[i]);
  auto rs = serial.BatchQuery(queries, data.transit_db,
                              Matcher::kAlphaFilter);
  auto rp = parallel.BatchQuery(queries, data.transit_db,
                                Matcher::kAlphaFilter);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& a = rs.value()[i].candidates;
    const auto& b = rp.value()[i].candidates;
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].index, b[j].index);
    }
  }
}

TEST(EngineTest, SetModelsSkipsTraining) {
  FtlEngine trained(TestOptions());
  auto data = TestPopulation();
  ASSERT_TRUE(trained.Train(data.cdr_db, data.transit_db).ok());
  FtlEngine preloaded(TestOptions());
  preloaded.SetModels(trained.models());
  EXPECT_TRUE(preloaded.trained());
  auto r1 = trained.Query(data.cdr_db[2], data.transit_db,
                          Matcher::kAlphaFilter);
  auto r2 = preloaded.Query(data.cdr_db[2], data.transit_db,
                            Matcher::kAlphaFilter);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().candidates.size(), r2.value().candidates.size());
}

TEST(EngineTest, LooserPhiRGivesMoreCandidates) {
  auto data = TestPopulation();
  EngineOptions strict_opts = TestOptions();
  strict_opts.naive_bayes.phi_r = 1e-6;
  EngineOptions loose_opts = TestOptions();
  loose_opts.naive_bayes.phi_r = 0.45;
  FtlEngine strict(strict_opts), loose(loose_opts);
  ASSERT_TRUE(strict.Train(data.cdr_db, data.transit_db).ok());
  ASSERT_TRUE(loose.Train(data.cdr_db, data.transit_db).ok());
  size_t n_strict = 0, n_loose = 0;
  for (size_t i = 0; i < 10; ++i) {
    auto rs = strict.Query(data.cdr_db[i], data.transit_db,
                           Matcher::kNaiveBayes);
    auto rl = loose.Query(data.cdr_db[i], data.transit_db,
                          Matcher::kNaiveBayes);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rl.ok());
    n_strict += rs.value().candidates.size();
    n_loose += rl.value().candidates.size();
  }
  EXPECT_LE(n_strict, n_loose);
}

TEST(EngineTest, AlphaFilterSkipsP2WhenRejected) {
  // A rejected candidate must report p1 < alpha1 and the default p2
  // (never computed) — documents the lazy-evaluation contract.
  auto data = TestPopulation(30, 45);
  EngineOptions eo = TestOptions();
  eo.alpha = {0.5, 1e-9};  // strict both ways: almost nothing accepted
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter);
  ASSERT_TRUE(r.ok());
  // With alpha2 = 1e-9 nearly nothing passes phase 2.
  EXPECT_LE(r.value().candidates.size(), 2u);
}

TEST(EngineTest, QueryAgainstSelfChannelFindsSelf) {
  // Degenerate but legal: query a database against itself. The query's
  // own trajectory has all-zero-gap alignment -> accepted with top
  // score.
  auto data = TestPopulation(20, 46);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.cdr_db).ok());
  auto r = engine.Query(data.cdr_db[3], data.cdr_db,
                        Matcher::kNaiveBayes);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().candidates.empty());
  EXPECT_EQ(r.value().candidates[0].index, 3u);
}

TEST(EngineTest, ParallelQueryIdenticalToSerial) {
  // The staged parallel path must reproduce the serial loop exactly:
  // same candidates, same order, bitwise-equal p-values and scores.
  auto data = TestPopulation(40, 47);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  for (size_t qi = 0; qi < 5; ++qi) {
    auto serial = engine.Query(data.cdr_db[qi], data.transit_db,
                               Matcher::kAlphaFilter, 1);
    auto parallel = engine.Query(data.cdr_db[qi], data.transit_db,
                                 Matcher::kAlphaFilter, 4);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    const auto& a = serial.value().candidates;
    const auto& b = parallel.value().candidates;
    ASSERT_EQ(a.size(), b.size()) << "query " << qi;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].index, b[j].index) << "query " << qi;
      EXPECT_EQ(a[j].p1, b[j].p1) << "query " << qi;
      EXPECT_EQ(a[j].p2, b[j].p2) << "query " << qi;
      EXPECT_EQ(a[j].score, b[j].score) << "query " << qi;
      EXPECT_EQ(a[j].k_observed, b[j].k_observed) << "query " << qi;
    }
    EXPECT_EQ(serial.value().selectiveness, parallel.value().selectiveness);
  }
}

TEST(EngineTest, BatchQueryAggregatesAllFailures) {
  // Every failing query must be reported, not just the first.
  auto data = TestPopulation(10, 48);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  std::vector<traj::Trajectory> queries = {data.cdr_db[0], data.cdr_db[1],
                                           data.cdr_db[2]};
  traj::TrajectoryDatabase empty;
  auto r = engine.BatchQuery(queries, empty, Matcher::kAlphaFilter);
  ASSERT_FALSE(r.ok());
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("3 of 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("query 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("query 2"), std::string::npos) << msg;
}

TEST(EngineTest, QueryBumpsObservabilityCounters) {
  // Counter deltas, not absolutes: the registry is process-global and
  // other queries in this test may already have run.
  auto data = TestPopulation(20, 49);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& queries = reg.GetCounter("ftl_query_total");
  obs::Counter& cands = reg.GetCounter("ftl_query_candidates_total");
  obs::Counter& fast = reg.GetCounter("ftl_query_fast_reject_total");
  obs::Counter& exact = reg.GetCounter("ftl_query_tail_exact_total");
  obs::Counter& rna = reg.GetCounter("ftl_query_tail_rna_total");
  obs::Histogram& latency = reg.GetHistogram("ftl_query_latency_us");
  int64_t q0 = queries.Value(), c0 = cands.Value(), f0 = fast.Value();
  int64_t e0 = exact.Value(), r0 = rna.Value(), l0 = latency.Count();
  auto r = engine.Query(data.cdr_db[0], data.transit_db,
                        Matcher::kAlphaFilter, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(queries.Value() - q0, 1);
  // Every candidate is scored, and every scored pair lands in exactly
  // one of the three tail outcomes.
  int64_t dc = cands.Value() - c0;
  EXPECT_EQ(dc, static_cast<int64_t>(data.transit_db.size()));
  EXPECT_EQ((fast.Value() - f0) + (exact.Value() - e0) + (rna.Value() - r0),
            dc);
  EXPECT_EQ(latency.Count() - l0, 1);
}

TEST(EngineTest, QueryRecordsSampledStageTimers) {
  auto data = TestPopulation(20, 50);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& align = reg.GetHistogram("ftl_stage_alignment_ns");
  int64_t a0 = align.Count();
  auto r = engine.Query(data.cdr_db[1], data.transit_db,
                        Matcher::kAlphaFilter, 1);
  ASSERT_TRUE(r.ok());
  // The first pair of every scratch is always sampled, so at least one
  // stage sample must land per query.
  EXPECT_GT(align.Count() - a0, 0);
}

TEST(EngineTest, InstrumentationDoesNotChangeResults) {
  // Two identical queries must return bitwise-identical candidates; the
  // second runs with counters already warm. Guards against any
  // instrumentation path feeding back into scoring.
  auto data = TestPopulation(20, 51);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r1 = engine.Query(data.cdr_db[2], data.transit_db,
                         Matcher::kAlphaFilter, 1);
  auto r2 = engine.Query(data.cdr_db[2], data.transit_db,
                         Matcher::kAlphaFilter, 1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  const auto& a = r1.value().candidates;
  const auto& b = r2.value().candidates;
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].index, b[j].index);
    EXPECT_EQ(a[j].p1, b[j].p1);
    EXPECT_EQ(a[j].p2, b[j].p2);
    EXPECT_EQ(a[j].score, b[j].score);
  }
}

TEST(EngineTest, EvidenceOptionsMirrorTraining) {
  EngineOptions o = TestOptions();
  o.training.vmax_mps = 42.0;
  o.training.time_unit_seconds = 30;
  o.training.horizon_units = 77;
  FtlEngine engine(o);
  auto ev = engine.evidence_options();
  EXPECT_DOUBLE_EQ(ev.vmax_mps, 42.0);
  EXPECT_EQ(ev.time_unit_seconds, 30);
  EXPECT_EQ(ev.horizon_units, 77);
}

}  // namespace
}  // namespace ftl::core
