#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

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

/// One (query, candidate) pair and three prior probabilities that put
/// its prior gap within the certified margin of its log-ratio sum S,
/// where the bound must leave the decision to the exact path.
struct MarginCase {
  size_t query = 0;
  size_t candidate = 0;
  double misjudged = 0;  ///< S below the gap, yet Classify accepts
  double rejected = 0;   ///< S below the gap, and Classify rejects
  double below = 0;      ///< the gap at or below S
};

/// Searches `data` for a MarginCase. Only S in (0, 20] is tried: there
/// φr < 1/2, so one ulp of φr moves the gap by about one ulp of S.
/// Every φr found has Classify agree over BucketEvidence and over
/// MutualSegmentEvidence.
std::optional<MarginCase> FindMarginCase(const FtlEngine& engine,
                                         const sim::PopulationData& data) {
  const EvidenceOptions ev_opts = engine.evidence_options();
  const size_t horizon = static_cast<size_t>(ev_opts.horizon_units);
  // The ratios do not depend on φr; this bound is only for its table.
  const NaiveBayesFastReject table(engine.naive_bayes(), horizon);
  BucketEvidence hist;
  for (size_t qi = 0; qi < data.cdr_db.size(); ++qi) {
    const traj::Trajectory& q = data.cdr_db[qi];
    for (size_t ci = 0; ci < data.transit_db.size(); ++ci) {
      const traj::Trajectory& c = data.transit_db[ci];
      const LogRatioSum fast =
          SumLogRatios(q, c, ev_opts, table.ratios().data());
      if (fast.informative == 0 || !(fast.sum > 0 && fast.sum <= 20)) {
        continue;
      }
      CollectEvidence(q, c, ev_opts, &hist);
      const MutualSegmentEvidence segs = CollectEvidence(q, c, ev_opts);
      MarginCase mc{qi, ci, 0, 0, 0};
      // gap(φ) = S at φ = 1 / (1 + e^S); walk φ up one ulp at a time
      // across that point, so the gap falls across S.
      double phi = 1.0 / (1.0 + std::exp(fast.sum));
      for (int k = 0; k < 4096; ++k) phi = std::nextafter(phi, 0.0);
      for (int k = 0; k < 8192; ++k, phi = std::nextafter(phi, 1.0)) {
        NaiveBayesParams params = engine.options().naive_bayes;
        params.phi_r = phi;
        const NaiveBayesMatcher nb(engine.models(), params);
        const NaiveBayesFastReject bound(nb, horizon);
        if (bound.CertainlyRejects(fast.sum, fast.informative)) continue;
        const double gap = nb.log_prior_diff() - nb.log_prior_same();
        const bool accepts = nb.Classify(hist).same_person;
        if (accepts != nb.Classify(segs).same_person) continue;
        if (fast.sum >= gap) {
          if (mc.below == 0) mc.below = phi;
        } else if (accepts) {
          if (mc.misjudged == 0) mc.misjudged = phi;
        } else {
          mc.rejected = phi;  // the last one, nearest S
        }
      }
      if (mc.misjudged != 0 && mc.rejected != 0 && mc.below != 0) return mc;
    }
  }
  return std::nullopt;
}

/// Engines over the same models whose prior gaps sit within the
/// certified margin of one pair's log-ratio sum, on either side: the
/// bound may not decide there, so the served decision is the paper's,
/// including at a φr where a decision from the sum alone would reject
/// a pair Classify accepts.
TEST(NaiveBayesFastRejectTest, DecisionsWithinTheMarginAreExact) {
  FtlEngine trained(TestOptions());
  auto dense = TestPopulation(20, 52);
  ASSERT_TRUE(trained.Train(dense.cdr_db, dense.transit_db).ok());
  // Pairs with a handful of informative segments, whose sums fall
  // inside the range a prior gap can take.
  sim::PopulationOptions po;
  po.num_persons = 20;
  po.duration_days = 2;
  po.cdr_accesses_per_day = 3.0;
  po.transit_accesses_per_day = 3.0;
  po.seed = 54;
  const sim::PopulationData data = sim::SimulatePopulation(po);
  const std::optional<MarginCase> mc = FindMarginCase(trained, data);
  ASSERT_TRUE(mc.has_value()) << "no pair with a prior gap inside the "
                                 "margin that the sum alone misjudges";
  const traj::Trajectory& q = data.cdr_db[mc->query];
  const traj::Trajectory& c = data.transit_db[mc->candidate];
  const EvidenceOptions ev_opts = trained.evidence_options();
  const MutualSegmentEvidence segs = CollectEvidence(q, c, ev_opts);
  BucketEvidence hist;
  CollectEvidence(q, c, ev_opts, &hist);
  for (double phi : {mc->misjudged, mc->rejected, mc->below}) {
    SCOPED_TRACE(testing::Message() << "pair (" << mc->query << ", "
                                    << mc->candidate << "), phi_r "
                                    << std::hexfloat << phi);
    EngineOptions o = TestOptions();
    o.naive_bayes.phi_r = phi;
    FtlEngine engine(o);
    engine.SetModels(trained.models());
    const NaiveBayesMatcher& nb = engine.naive_bayes();
    const NaiveBayesFastReject bound(
        nb, static_cast<size_t>(ev_opts.horizon_units));
    const LogRatioSum fast =
        SumLogRatios(q, c, ev_opts, bound.ratios().data());
    const double gap = nb.log_prior_diff() - nb.log_prior_same();
    EXPECT_LT(std::abs(fast.sum - gap), bound.Margin(fast.informative));
    EXPECT_FALSE(bound.CertainlyRejects(fast.sum, fast.informative));
    const NaiveBayesDecision paper = nb.Classify(segs);
    EXPECT_EQ(paper.same_person, phi != mc->rejected);
    EXPECT_EQ(fast.sum < gap, phi != mc->below);
    auto r = engine.QueryWithCandidates(q, data.transit_db, {mc->candidate},
                                        Matcher::kNaiveBayes);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::vector<MatchCandidate>& got = r.value().candidates;
    ASSERT_EQ(got.size(), paper.same_person ? 1u : 0u);
    if (paper.same_person) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[0].nb_log_odds),
                std::bit_cast<uint64_t>(nb.Classify(hist).LogOdds()));
    }
  }
}

TEST(NaiveBayesFastRejectTest, RepeatedCandidateScoresIdentically) {
  auto data = TestPopulation(20, 53);
  FtlEngine engine(TestOptions());
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  const traj::Trajectory& query = data.cdr_db[0];
  auto full = engine.Query(query, data.transit_db, Matcher::kNaiveBayes, 1);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full.value().candidates.empty());
  std::vector<bool> in_qp(data.transit_db.size(), false);
  for (const MatchCandidate& mc : full.value().candidates) {
    in_qp[mc.index] = true;
  }
  const size_t accepted = full.value().candidates[0].index;
  const size_t rejected = static_cast<size_t>(
      std::find(in_qp.begin(), in_qp.end(), false) - in_qp.begin());
  ASSERT_LT(rejected, in_qp.size());

  traj::TrajectoryDatabase qdb;
  ASSERT_TRUE(qdb.Add(query).ok());
  const traj::FlatDatabase flat_q = traj::FlatDatabase::FromDatabase(qdb);
  const traj::FlatDatabase flat_db =
      traj::FlatDatabase::FromDatabase(data.transit_db);
  obs::Histogram& align =
      obs::MetricsRegistry::Global().GetHistogram("ftl_stage_alignment_ns");
  for (size_t index : {accepted, rejected}) {
    // A fresh scratch samples the stage timers on its first pair and
    // then every 64th: pairs 1 and 65 are timed, 2..64 are not, and all
    // 65 must score alike.
    const std::vector<size_t> repeated(65, index);
    for (bool soa : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "candidate " << index << (soa ? " soa" : " aos"));
      const int64_t samples0 = align.Count();
      auto r = soa ? engine.QueryWithCandidates(flat_q[0], flat_db, repeated,
                                                Matcher::kNaiveBayes)
                   : engine.QueryWithCandidates(query, data.transit_db,
                                                repeated, Matcher::kNaiveBayes);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(align.Count() - samples0, 2);
      EXPECT_EQ(r.value().evaluated, 65u);
      const std::vector<MatchCandidate>& got = r.value().candidates;
      ASSERT_EQ(got.size(), index == accepted ? 65u : 0u);
      for (const MatchCandidate& mc : got) {
        const MatchCandidate& want = full.value().candidates[0];
        EXPECT_EQ(mc.index, want.index);
        EXPECT_EQ(mc.label, want.label);
        EXPECT_EQ(std::bit_cast<uint64_t>(mc.p1),
                  std::bit_cast<uint64_t>(want.p1));
        EXPECT_EQ(std::bit_cast<uint64_t>(mc.p2),
                  std::bit_cast<uint64_t>(want.p2));
        EXPECT_EQ(std::bit_cast<uint64_t>(mc.score),
                  std::bit_cast<uint64_t>(want.score));
        EXPECT_EQ(std::bit_cast<uint64_t>(mc.nb_log_odds),
                  std::bit_cast<uint64_t>(want.nb_log_odds));
        EXPECT_EQ(mc.k_observed, want.k_observed);
        EXPECT_EQ(mc.n_segments, want.n_segments);
      }
    }
  }
}

/// With a prob_floor of 0, a model probability of 0 or 1 puts log 0 =
/// −inf into the tables. The margin's derivation then fails, so the
/// bound never decides and every pair takes the exact path.
TEST(NaiveBayesFastRejectTest, NonFiniteTableNeverDecides) {
  ModelPair models;
  models.rejection = CompatibilityModel(60, {0.0, 0.5, 1.0});
  models.acceptance = CompatibilityModel(60, {0.5, 0.5, 0.5});
  NaiveBayesParams params;
  params.prob_floor = 1e-6;
  const NaiveBayesFastReject finite(NaiveBayesMatcher(models, params), 3);
  EXPECT_TRUE(finite.CertainlyRejects(-1e300, 1));
  params.prob_floor = 0.0;
  const NaiveBayesFastReject infinite(NaiveBayesMatcher(models, params), 3);
  for (int64_t n : {0, 1, 1000}) {
    EXPECT_FALSE(infinite.CertainlyRejects(-1e300, n)) << n;
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
