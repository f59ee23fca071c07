#include <gtest/gtest.h>

#include <algorithm>

#include "core/alpha_filter.h"
#include "core/streaming.h"
#include "stats/poisson_binomial.h"
#include "sim/population_sim.h"
#include "util/rng.h"

namespace ftl::core {
namespace {

using traj::Record;
using traj::Trajectory;

Record R(double x, double y, traj::Timestamp t) { return Record{{x, y}, t}; }

ModelPair SyntheticModels() {
  ModelPair m;
  m.rejection = CompatibilityModel(60, std::vector<double>(10, 0.02));
  m.acceptance = CompatibilityModel(60, std::vector<double>(10, 0.70));
  return m;
}

EvidenceOptions Ev() {
  EvidenceOptions o;
  o.time_unit_seconds = 60;
  o.horizon_units = 10;
  return o;
}

TEST(StreamingTest, DuplicateWatchRejected) {
  StreamingLinker linker(SyntheticModels(), Ev());
  EXPECT_TRUE(linker.AddWatch("w").ok());
  EXPECT_FALSE(linker.AddWatch("w").ok());
}

TEST(StreamingTest, UnregisteredQueryLabelRejected) {
  StreamingLinker linker(SyntheticModels(), Ev());
  Status s = linker.Ingest(StreamSide::kQuery, "ghost", R(0, 0, 0));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(StreamingTest, OutOfOrderIngestRejected) {
  StreamingLinker linker(SyntheticModels(), Ev());
  ASSERT_TRUE(linker.AddWatch("w").ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kCandidate, "c", R(0, 0, 100)).ok());
  Status s = linker.Ingest(StreamSide::kCandidate, "c", R(0, 0, 50));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Equal timestamps are fine.
  EXPECT_TRUE(linker.Ingest(StreamSide::kCandidate, "c2", R(0, 0, 100)).ok());
}

TEST(StreamingTest, UnknownLabelsInLookups) {
  StreamingLinker linker(SyntheticModels(), Ev());
  ASSERT_TRUE(linker.AddWatch("w").ok());
  EXPECT_FALSE(linker.Belief("nope", "c").ok());
  EXPECT_FALSE(linker.Belief("w", "nope").ok());
  EXPECT_FALSE(linker.RankedCandidates("nope").ok());
}

TEST(StreamingTest, CandidateAutoRegistered) {
  StreamingLinker linker(SyntheticModels(), Ev());
  ASSERT_TRUE(linker.AddWatch("w").ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kCandidate, "c1", R(0, 0, 0)).ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kCandidate, "c2", R(0, 0, 10)).ok());
  EXPECT_EQ(linker.candidate_labels().size(), 2u);
  EXPECT_TRUE(linker.Belief("w", "c1").ok());
}

/// Reference: batch evidence for the same record streams.
MutualSegmentEvidence BatchEvidence(const std::vector<Record>& w_records,
                                    const std::vector<Record>& c_records) {
  Trajectory p("w", 0, w_records);
  Trajectory q("c", 1, c_records);
  return CollectEvidence(p, q, Ev());
}

TEST(StreamingTest, MatchesBatchEvidenceSimpleInterleave) {
  StreamingLinker linker(SyntheticModels(), Ev());
  ASSERT_TRUE(linker.AddWatch("w").ok());
  std::vector<Record> wr = {R(0, 0, 0), R(100, 0, 120), R(200, 0, 240)};
  std::vector<Record> cr = {R(50, 0, 60), R(1e6, 0, 180)};
  // Merge manually in time order.
  ASSERT_TRUE(linker.Ingest(StreamSide::kQuery, "w", wr[0]).ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kCandidate, "c", cr[0]).ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kQuery, "w", wr[1]).ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kCandidate, "c", cr[1]).ok());
  ASSERT_TRUE(linker.Ingest(StreamSide::kQuery, "w", wr[2]).ok());

  auto belief = linker.Belief("w", "c");
  ASSERT_TRUE(belief.ok());
  auto batch = BatchEvidence(wr, cr);
  EXPECT_EQ(belief.value().informative_segments, batch.size());
  EXPECT_EQ(belief.value().incompatible, batch.ObservedIncompatible());
}

TEST(StreamingTest, MatchesBatchEvidenceRandomized) {
  // Property: for random streams, incremental evidence == batch
  // evidence on every prefix boundary we probe. From trial 10 on, half
  // the time steps are 0, so records of both sides share timestamps and
  // arrive in random side order; the batch alignment still merges each
  // tie P-first (c@0, w@0, c@60 has one mutual segment, not two).
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Record> wr, cr;
    int64_t t = 0;
    std::vector<std::pair<StreamSide, Record>> events;
    for (int i = 0; i < 60; ++i) {
      const bool tie = trial >= 10 && rng.Bernoulli(0.5);
      t += tie ? 0 : rng.UniformInt(5, 400);
      Record r = R(rng.Uniform(0, 20000), rng.Uniform(0, 20000), t);
      if (rng.Bernoulli(0.5)) {
        wr.push_back(r);
        events.emplace_back(StreamSide::kQuery, r);
      } else {
        cr.push_back(r);
        events.emplace_back(StreamSide::kCandidate, r);
      }
    }
    StreamingLinker linker(SyntheticModels(), Ev());
    ASSERT_TRUE(linker.AddWatch("w").ok());
    for (const auto& [side, rec] : events) {
      ASSERT_TRUE(linker
                      .Ingest(side, side == StreamSide::kQuery ? "w" : "c",
                              rec)
                      .ok());
    }
    auto belief = linker.Belief("w", "c");
    ASSERT_TRUE(belief.ok());
    auto batch = BatchEvidence(wr, cr);
    EXPECT_EQ(belief.value().informative_segments, batch.size())
        << "trial " << trial;
    EXPECT_EQ(belief.value().incompatible, batch.ObservedIncompatible())
        << "trial " << trial;
  }
}

TEST(StreamingTest, BeliefPValuesMatchBatchClassifier) {
  StreamingLinker linker(SyntheticModels(), Ev());
  ASSERT_TRUE(linker.AddWatch("w").ok());
  std::vector<Record> wr, cr;
  int64_t t = 0;
  Rng rng(7);
  std::vector<std::pair<StreamSide, Record>> events;
  for (int i = 0; i < 40; ++i) {
    t += rng.UniformInt(10, 200);
    Record r = R(rng.Uniform(0, 5000), rng.Uniform(0, 5000), t);
    if (i % 2 == 0) {
      wr.push_back(r);
      events.emplace_back(StreamSide::kQuery, r);
    } else {
      cr.push_back(r);
      events.emplace_back(StreamSide::kCandidate, r);
    }
  }
  for (const auto& [side, rec] : events) {
    ASSERT_TRUE(
        linker.Ingest(side, side == StreamSide::kQuery ? "w" : "c", rec)
            .ok());
  }
  auto belief = linker.Belief("w", "c");
  ASSERT_TRUE(belief.ok());

  ModelPair models = SyntheticModels();
  auto batch = BatchEvidence(wr, cr);
  int64_t k = batch.ObservedIncompatible();
  stats::PoissonBinomial rej(batch.ProbsUnder(models.rejection));
  stats::PoissonBinomial acc(batch.ProbsUnder(models.acceptance));
  EXPECT_NEAR(belief.value().p1, rej.UpperTailPValue(k), 1e-12);
  EXPECT_NEAR(belief.value().p2, acc.LowerTailPValue(k), 1e-12);
}

TEST(StreamingTest, RankedCandidatesSortedAndComplete) {
  StreamingLinker linker(SyntheticModels(), Ev());
  ASSERT_TRUE(linker.AddWatch("w").ok());
  Rng rng(13);
  int64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    t += rng.UniformInt(5, 120);
    double far = rng.Bernoulli(0.3) ? 5e5 : 0.0;
    std::string label = "c" + std::to_string(i % 5);
    if (i % 4 == 0) {
      ASSERT_TRUE(
          linker.Ingest(StreamSide::kQuery, "w", R(0, 0, t)).ok());
    } else {
      ASSERT_TRUE(
          linker.Ingest(StreamSide::kCandidate, label, R(far, 0, t)).ok());
    }
  }
  auto ranked = linker.RankedCandidates("w");
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked.value().size(), 5u);
  for (size_t i = 1; i < ranked.value().size(); ++i) {
    EXPECT_GE(ranked.value()[i - 1].score, ranked.value()[i].score);
  }
}

TEST(StreamingTest, LiveLinkingFindsTruePartner) {
  // End-to-end: replay a small simulated population as a merged stream;
  // the watch's true partner should rank first.
  sim::PopulationOptions po;
  po.num_persons = 25;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 321;
  auto data = sim::SimulatePopulation(po);

  ModelTrainingOptions to;
  to.horizon_units = 30;
  auto models = BuildModels(data.cdr_db, data.transit_db, to);
  ASSERT_TRUE(models.ok());
  StreamingLinker linker(models.value(), EvidenceOptionsFor(to));
  const Trajectory& watch = data.cdr_db[4];
  ASSERT_TRUE(linker.AddWatch(watch.label()).ok());

  // Merge the watch's records with ALL transit records into one stream.
  struct Event {
    traj::Timestamp t;
    StreamSide side;
    const std::string* label;
    Record rec;
  };
  std::vector<Event> events;
  for (const auto& r : watch.records()) {
    events.push_back({r.t, StreamSide::kQuery, &watch.label(), r});
  }
  for (const auto& cand : data.transit_db) {
    for (const auto& r : cand.records()) {
      events.push_back({r.t, StreamSide::kCandidate, &cand.label(), r});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  for (const auto& e : events) {
    ASSERT_TRUE(linker.Ingest(e.side, *e.label, e.rec).ok());
  }

  auto ranked = linker.RankedCandidates(watch.label());
  ASSERT_TRUE(ranked.ok());
  ASSERT_FALSE(ranked.value().empty());
  size_t truth = data.transit_db.Find(ranked.value()[0].candidate_label);
  ASSERT_NE(truth, traj::TrajectoryDatabase::npos);
  EXPECT_EQ(data.transit_db[truth].owner(), watch.owner());
}

}  // namespace
}  // namespace ftl::core
