#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/compatibility_model.h"
#include "core/model_builders.h"
#include "sim/population_sim.h"
#include "traj/alignment.h"
#include "util/rng.h"

namespace ftl::core {
namespace {

using traj::Record;
using traj::Timestamp;
using traj::Trajectory;
using traj::TrajectoryDatabase;

Record R(double x, double y, Timestamp t) { return Record{{x, y}, t}; }

// ---------------------------------------------------- CompatibilityModel

TEST(CompatibilityModelTest, UnitRounding) {
  CompatibilityModel m(60, {0.1, 0.2, 0.3});
  EXPECT_EQ(m.UnitIndex(0), 0);
  EXPECT_EQ(m.UnitIndex(29), 0);
  EXPECT_EQ(m.UnitIndex(30), 1);   // rounds to nearest
  EXPECT_EQ(m.UnitIndex(89), 1);
  EXPECT_EQ(m.UnitIndex(90), 2);
  EXPECT_EQ(m.UnitIndex(120), 2);
}

TEST(CompatibilityModelTest, ProbLookup) {
  CompatibilityModel m(60, {0.5, 0.25, 0.125});
  EXPECT_DOUBLE_EQ(m.IncompatProb(0), 0.5);
  EXPECT_DOUBLE_EQ(m.IncompatProb(60), 0.25);
  EXPECT_DOUBLE_EQ(m.IncompatProb(120), 0.125);
  // Beyond horizon: always compatible.
  EXPECT_DOUBLE_EQ(m.IncompatProb(180), 0.0);
  EXPECT_DOUBLE_EQ(m.IncompatProb(1000000), 0.0);
  EXPECT_DOUBLE_EQ(m.IncompatProbByUnit(-1), 0.0);
}

TEST(CompatibilityModelTest, Validate) {
  EXPECT_TRUE(CompatibilityModel(60, {0.0, 1.0, 0.5}).Validate().ok());
  EXPECT_FALSE(CompatibilityModel(0, {0.5}).Validate().ok());
  EXPECT_FALSE(CompatibilityModel(60, {1.5}).Validate().ok());
  EXPECT_FALSE(CompatibilityModel(60, {-0.1}).Validate().ok());
}

TEST(CompatibilityModelTest, ToStringMentionsUnit) {
  CompatibilityModel m(30, {0.5});
  EXPECT_NE(m.ToString().find("unit=30s"), std::string::npos);
}

// --------------------------------------------------------- Rejection model

// A same-person "clean" trajectory: consecutive records always
// compatible (generated by slow motion).
Trajectory SlowWalk(const std::string& label, traj::OwnerId owner,
                    size_t n, double speed_mps, int64_t gap_s) {
  std::vector<Record> recs;
  double x = 0;
  for (size_t i = 0; i < n; ++i) {
    recs.push_back(R(x, 0, static_cast<Timestamp>(i) * gap_s));
    x += speed_mps * static_cast<double>(gap_s);
  }
  return Trajectory(label, owner, std::move(recs));
}

ModelTrainingOptions FastOptions() {
  ModelTrainingOptions o;
  o.time_unit_seconds = 60;
  o.horizon_units = 10;
  o.laplace_alpha = 0.0;
  o.acceptance_pairs_per_db = 200;
  return o;
}

TEST(RejectionModelTest, CleanDataGivesZeroProbabilities) {
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a", 1, 50, 5.0, 60));
  (void)q.Add(SlowWalk("b", 2, 50, 5.0, 120));
  auto model = BuildRejectionModel(p, q, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // All self-segments are compatible at 5 m/s << Vmax.
  for (double prob : model.value().probs()) {
    EXPECT_DOUBLE_EQ(prob, 0.0);
  }
}

TEST(RejectionModelTest, TeleportingDataGivesHighProbabilities) {
  // Records 100 km apart every minute: wildly incompatible.
  std::vector<Record> recs;
  for (int i = 0; i < 50; ++i) {
    recs.push_back(R(i % 2 == 0 ? 0 : 100000.0, 0, i * 60));
  }
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(Trajectory("a", 1, std::move(recs)));
  (void)q.Add(SlowWalk("b", 2, 2, 1.0, 60));
  auto model = BuildRejectionModel(p, q, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model.value().IncompatProbByUnit(1), 0.9);
}

TEST(RejectionModelTest, LaplaceSmoothingPullsFromZero) {
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a", 1, 100, 5.0, 60));
  (void)q.Add(SlowWalk("b", 2, 2, 1.0, 60));
  ModelTrainingOptions o = FastOptions();
  o.laplace_alpha = 1.0;
  auto model = BuildRejectionModel(p, q, o);
  ASSERT_TRUE(model.ok());
  double p1 = model.value().IncompatProbByUnit(1);
  EXPECT_GT(p1, 0.0);
  EXPECT_LT(p1, 0.05);
}

TEST(RejectionModelTest, EmptyDatabasesFail) {
  TrajectoryDatabase p("p"), q("q");
  auto model = BuildRejectionModel(p, q, FastOptions());
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RejectionModelTest, InvalidOptionsRejected) {
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a", 1, 10, 5.0, 60));
  ModelTrainingOptions o = FastOptions();
  o.vmax_mps = -1;
  EXPECT_FALSE(BuildRejectionModel(p, q, o).ok());
  o = FastOptions();
  o.time_unit_seconds = 0;
  EXPECT_FALSE(BuildRejectionModel(p, q, o).ok());
  o = FastOptions();
  o.horizon_units = 0;
  EXPECT_FALSE(BuildRejectionModel(p, q, o).ok());
  o = FastOptions();
  o.laplace_alpha = -0.5;
  EXPECT_FALSE(BuildRejectionModel(p, q, o).ok());
}

// NaN passes a `<= 0` test, so each option is checked for being finite
// too; both builders (and FtlEngine::Train, which calls BuildModels)
// share the check.
TEST(RejectionModelTest, NonFiniteOptionsRejected) {
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a", 1, 10, 5.0, 60));
  (void)q.Add(SlowWalk("b", 2, 10, 5.0, 60));
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    ModelTrainingOptions o = FastOptions();
    o.vmax_mps = bad;
    EXPECT_EQ(BuildRejectionModel(p, q, o).status().code(),
              StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(BuildAcceptanceModel(p, q, o).status().code(),
              StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(BuildModels(p, q, o).status().code(),
              StatusCode::kInvalidArgument) << bad;
    o = FastOptions();
    o.laplace_alpha = bad;
    EXPECT_EQ(BuildRejectionModel(p, q, o).status().code(),
              StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(BuildAcceptanceModel(p, q, o).status().code(),
              StatusCode::kInvalidArgument) << bad;
  }
}

TEST(RejectionModelTest, SupportRecorded) {
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a", 1, 11, 5.0, 60));  // 10 segments of 1 unit
  (void)q.Add(SlowWalk("b", 2, 2, 1.0, 60));   // 1 segment of 1 unit
  auto model = BuildRejectionModel(p, q, FastOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model.value().support().size(), 1u);
  EXPECT_EQ(model.value().support()[1], 11);
}

// -------------------------------------------------------- Acceptance model

TEST(AcceptanceModelTest, DifferentPersonsShortGapsIncompatible) {
  // Two persons pinned to opposite corners 50 km apart, reporting every
  // minute: every short mutual segment is incompatible.
  TrajectoryDatabase p("p"), q("q");
  std::vector<Record> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(R(0, 0, i * 60));
    b.push_back(R(50000, 0, i * 60 + 30));
  }
  (void)p.Add(Trajectory("a", 1, std::move(a)));
  (void)p.Add(Trajectory("b", 2, std::move(b)));
  auto model = BuildAcceptanceModel(p, q, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // 30-second mutual gaps (bucket ~1) need 1.6 km/s: incompatible.
  EXPECT_GT(model.value().IncompatProbByUnit(1), 0.9);
}

TEST(AcceptanceModelTest, RequiresTwoTrajectoriesSomewhere) {
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a", 1, 10, 5.0, 60));
  auto model = BuildAcceptanceModel(p, q, FastOptions());
  EXPECT_FALSE(model.ok());
}

TEST(AcceptanceModelTest, SameOwnerPairsAreSkipped) {
  // Database with only same-owner trajectories: sampler skips them all.
  TrajectoryDatabase p("p"), q("q");
  (void)p.Add(SlowWalk("a1", 7, 50, 5.0, 60));
  (void)p.Add(SlowWalk("a2", 7, 50, 5.0, 60));
  auto model = BuildAcceptanceModel(p, q, FastOptions());
  EXPECT_FALSE(model.ok());  // no usable pairs -> no observations
}

TEST(AcceptanceModelTest, DeterministicGivenSeed) {
  sim::PopulationOptions po;
  po.num_persons = 30;
  po.duration_days = 3;
  po.seed = 5;
  auto data = sim::SimulatePopulation(po);
  ModelTrainingOptions o = FastOptions();
  o.seed = 42;
  auto m1 = BuildAcceptanceModel(data.cdr_db, data.transit_db, o);
  auto m2 = BuildAcceptanceModel(data.cdr_db, data.transit_db, o);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m1.value().probs(), m2.value().probs());
}

// ----------------------------------------------------- Model separation

TEST(ModelPairTest, RejectionBelowAcceptanceAtShortGaps) {
  // The core signal of the paper: for short time gaps, incompatibility
  // is much more likely under the different-person (acceptance) model
  // than under the same-person (rejection) model.
  sim::PopulationOptions po;
  po.num_persons = 60;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 30.0;
  po.transit_accesses_per_day = 30.0;
  po.seed = 6;
  auto data = sim::SimulatePopulation(po);
  ModelTrainingOptions o;
  o.horizon_units = 30;
  o.acceptance_pairs_per_db = 500;
  auto models = BuildModels(data.cdr_db, data.transit_db, o);
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  const auto& mr = models.value().rejection;
  const auto& ma = models.value().acceptance;
  // Average over the first few buckets.
  double rej = 0, acc = 0;
  for (int u = 0; u <= 5; ++u) {
    rej += mr.IncompatProbByUnit(u);
    acc += ma.IncompatProbByUnit(u);
  }
  EXPECT_LT(rej, acc) << "rejection should see fewer incompatibilities";
  EXPECT_GT(acc / 6.0, 0.2) << "different persons often incompatible";
  EXPECT_LT(rej / 6.0, 0.1) << "same person rarely incompatible";
}

TEST(ModelPairTest, AcceptanceProbDecaysWithGap) {
  // Longer gaps give a person time to travel: incompatibility
  // probability must (weakly) trend down with the bucket index.
  sim::PopulationOptions po;
  po.num_persons = 60;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 40.0;
  po.transit_accesses_per_day = 40.0;
  po.seed = 8;
  auto data = sim::SimulatePopulation(po);
  ModelTrainingOptions o;
  o.horizon_units = 40;
  o.acceptance_pairs_per_db = 800;
  auto model = BuildAcceptanceModel(data.cdr_db, data.transit_db, o);
  ASSERT_TRUE(model.ok());
  const auto& probs = model.value().probs();
  double early = (probs[1] + probs[2] + probs[3]) / 3.0;
  double late = (probs[30] + probs[31] + probs[32]) / 3.0;
  EXPECT_GT(early, late);
}

/// Algorithms 1 and 2 written out serially: per-bucket incompatible and
/// total counts of segments shorter than the horizon, finalized with
/// the Laplace-smoothed frequency (every bucket observed, so no gap
/// filling).
struct SerialCounts {
  explicit SerialCounts(const ModelTrainingOptions& o)
      : options(o),
        incompat(static_cast<size_t>(o.horizon_units), 0),
        total(static_cast<size_t>(o.horizon_units), 0) {}

  void Add(const Record& a, const Record& b) {
    const int64_t tu = options.time_unit_seconds;
    const int64_t unit = (traj::TimeDiff(a, b) + tu / 2) / tu;
    if (unit >= options.horizon_units) return;
    ++total[static_cast<size_t>(unit)];
    if (!traj::IsCompatible(a, b, options.vmax_mps)) {
      ++incompat[static_cast<size_t>(unit)];
    }
  }

  std::vector<double> Probs() const {
    const double alpha = options.laplace_alpha;
    std::vector<double> probs;
    for (size_t u = 0; u < total.size(); ++u) {
      probs.push_back((static_cast<double>(incompat[u]) + alpha) /
                      (static_cast<double>(total[u]) + 2.0 * alpha));
    }
    return probs;
  }

  const ModelTrainingOptions& options;
  std::vector<int64_t> incompat;
  std::vector<int64_t> total;
};

TEST(ModelPairTest, ParallelBuildMatchesSerialReference) {
  // Enough trajectories and pairs that every training worker gets some,
  // and a Q that splits each owner over two labels, so the acceptance
  // sampler also draws same-owner pairs and skips them.
  sim::PopulationOptions po;
  po.num_persons = 120;
  po.duration_days = 4;
  po.cdr_accesses_per_day = 30.0;
  po.transit_accesses_per_day = 30.0;
  po.seed = 13;
  const auto data = sim::SimulatePopulation(po);
  const TrajectoryDatabase& p = data.cdr_db;
  TrajectoryDatabase q("q");
  for (const Trajectory& t : data.transit_db) {
    const auto& recs = t.records();
    const size_t half = recs.size() / 2;
    ASSERT_TRUE(q.Add(Trajectory(t.label() + "-a", t.owner(),
                                 {recs.begin(), recs.begin() + half}))
                    .ok());
    ASSERT_TRUE(q.Add(Trajectory(t.label() + "-b", t.owner(),
                                 {recs.begin() + half, recs.end()}))
                    .ok());
  }

  const TrajectoryDatabase* const dbs[] = {&p, &q};

  for (uint64_t seed : {uint64_t{7}, uint64_t{20261017}}) {
    ModelTrainingOptions o;
    o.horizon_units = 30;
    o.acceptance_pairs_per_db = 600;
    o.seed = seed;

    SerialCounts rejection(o);
    for (const TrajectoryDatabase* db : dbs) {
      for (const Trajectory& t : *db) {
        const auto& recs = t.records();
        for (size_t i = 1; i < recs.size(); ++i) {
          rejection.Add(recs[i - 1], recs[i]);
        }
      }
    }
    SerialCounts acceptance(o);
    Rng rng(o.seed);
    size_t skipped = 0;
    for (const TrajectoryDatabase* db : dbs) {
      const size_t n = db->size();
      for (size_t k = 0; k < o.acceptance_pairs_per_db; ++k) {
        const size_t i = rng.Index(n);
        size_t j = rng.Index(n - 1);
        if (j >= i) ++j;
        if ((*db)[i].owner() != traj::kUnknownOwner &&
            (*db)[i].owner() == (*db)[j].owner()) {
          ++skipped;
          continue;
        }
        traj::VisitMutualSegments(
            (*db)[i], (*db)[j], [&acceptance](const traj::Segment& s) {
              acceptance.Add(s.first, s.second);
            });
      }
    }
    ASSERT_GT(skipped, 0u);
    for (const SerialCounts* c : {&rejection, &acceptance}) {
      for (int64_t t : c->total) ASSERT_GT(t, 0) << "gap-filled bucket";
    }

    auto models = BuildModels(p, q, o);
    ASSERT_TRUE(models.ok()) << models.status().ToString();
    EXPECT_EQ(models.value().rejection.support(), rejection.total);
    EXPECT_EQ(models.value().acceptance.support(), acceptance.total);
    // operator== on doubles: bit-identical, not merely close.
    EXPECT_EQ(models.value().rejection.probs(), rejection.Probs());
    EXPECT_EQ(models.value().acceptance.probs(), acceptance.Probs());
  }
}

}  // namespace
}  // namespace ftl::core
