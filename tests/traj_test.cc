#include <gtest/gtest.h>

#include <vector>

#include "traj/database.h"
#include "traj/record.h"
#include "traj/summary.h"
#include "traj/trajectory.h"

namespace ftl::traj {
namespace {

Record R(double x, double y, Timestamp t) { return Record{{x, y}, t}; }

// --------------------------------------------------------------- Record

TEST(RecordTest, DistAndTimeDiff) {
  Record a = R(0, 0, 100);
  Record b = R(30, 40, 160);
  EXPECT_DOUBLE_EQ(Dist(a, b), 50.0);
  EXPECT_EQ(TimeDiff(a, b), 60);
  EXPECT_EQ(TimeDiff(b, a), 60);
}

TEST(RecordTest, RequiredSpeed) {
  Record a = R(0, 0, 0);
  Record b = R(100, 0, 10);
  EXPECT_DOUBLE_EQ(RequiredSpeed(a, b), 10.0);
}

TEST(RecordTest, RequiredSpeedSimultaneous) {
  Record a = R(0, 0, 5);
  Record b = R(100, 0, 5);
  EXPECT_TRUE(std::isinf(RequiredSpeed(a, b)));
  Record c = R(0, 0, 5);
  EXPECT_DOUBLE_EQ(RequiredSpeed(a, c), 0.0);
}

TEST(RecordTest, CompatibilityDefinition3) {
  // 70 km in 20 minutes needs 58.3 m/s; incompatible at Vmax=120 kph.
  double vmax = 120.0 * 1000 / 3600;
  Record a = R(0, 0, 0);
  Record b = R(70000, 0, 20 * 60);
  EXPECT_FALSE(IsCompatible(a, b, vmax));
  // Same distance in 2 hours is fine.
  Record c = R(70000, 0, 2 * 3600);
  EXPECT_TRUE(IsCompatible(a, c, vmax));
}

TEST(RecordTest, CompatibilityBoundaryIsInclusive) {
  // dist / timediff == vmax exactly -> compatible (<=).
  Record a = R(0, 0, 0);
  Record b = R(100, 0, 10);
  EXPECT_TRUE(IsCompatible(a, b, 10.0));
  EXPECT_FALSE(IsCompatible(a, b, 9.999));
}

TEST(RecordTest, SimultaneousColocatedIsCompatible) {
  Record a = R(5, 5, 7);
  Record b = R(5, 5, 7);
  EXPECT_TRUE(IsCompatible(a, b, 1.0));
}

TEST(RecordTest, SimultaneousApartIsIncompatible) {
  Record a = R(0, 0, 7);
  Record b = R(1, 0, 7);
  EXPECT_FALSE(IsCompatible(a, b, 1000.0));
}

// ----------------------------------------------------------- Trajectory

TEST(TrajectoryTest, ConstructorSortsByTime) {
  Trajectory t("x", 1, {R(0, 0, 30), R(1, 1, 10), R(2, 2, 20)});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].t, 10);
  EXPECT_EQ(t[1].t, 20);
  EXPECT_EQ(t[2].t, 30);
  EXPECT_TRUE(t.IsSorted());

  // Equal timestamps keep input order, sorted input or not: the store's
  // "ingest order breaks ties" rule rests on it. x tells the ties apart.
  auto xs = [](const Trajectory& tr) {
    std::vector<double> out;
    for (const Record& r : tr.records()) out.push_back(r.location.x);
    return out;
  };
  Trajectory sorted("s", 1, {R(0, 0, 10), R(1, 0, 10), R(2, 0, 20),
                             R(3, 0, 20), R(4, 0, 20)});
  EXPECT_EQ(xs(sorted), (std::vector<double>{0, 1, 2, 3, 4}));
  Trajectory unsorted("u", 1, {R(0, 0, 30), R(1, 0, 10), R(2, 0, 30),
                               R(3, 0, 10), R(4, 0, 20)});
  EXPECT_EQ(xs(unsorted), (std::vector<double>{1, 3, 4, 0, 2}));
}

TEST(TrajectoryTest, LabelAndOwner) {
  Trajectory t("card-7", 99, {});
  EXPECT_EQ(t.label(), "card-7");
  EXPECT_EQ(t.owner(), 99u);
  t.set_owner(7);
  EXPECT_EQ(t.owner(), 7u);
}

TEST(TrajectoryTest, AppendKeepsOrder) {
  Trajectory t;
  EXPECT_TRUE(t.Append(R(0, 0, 10)).ok());
  EXPECT_TRUE(t.Append(R(0, 0, 10)).ok());  // equal timestamps allowed
  EXPECT_TRUE(t.Append(R(0, 0, 20)).ok());
  EXPECT_FALSE(t.Append(R(0, 0, 5)).ok());
  EXPECT_EQ(t.size(), 3u);
}

TEST(TrajectoryTest, AppendUncheckedThenSort) {
  Trajectory t;
  t.AppendUnchecked(R(0, 0, 50));
  t.AppendUnchecked(R(0, 0, 10));
  EXPECT_FALSE(t.IsSorted());
  t.SortByTime();
  EXPECT_TRUE(t.IsSorted());
}

TEST(TrajectoryTest, DurationAndGap) {
  Trajectory t("x", 1, {R(0, 0, 0), R(0, 0, 100), R(0, 0, 300)});
  EXPECT_EQ(t.DurationSeconds(), 300);
  EXPECT_DOUBLE_EQ(t.MeanGapSeconds(), 150.0);
}

TEST(TrajectoryTest, DurationDegenerateCases) {
  Trajectory empty;
  EXPECT_EQ(empty.DurationSeconds(), 0);
  EXPECT_DOUBLE_EQ(empty.MeanGapSeconds(), 0.0);
  Trajectory one("x", 1, {R(0, 0, 42)});
  EXPECT_EQ(one.DurationSeconds(), 0);
}

TEST(TrajectoryTest, LowerBound) {
  Trajectory t("x", 1, {R(0, 0, 10), R(0, 0, 20), R(0, 0, 30)});
  EXPECT_EQ(t.LowerBound(5), 0u);
  EXPECT_EQ(t.LowerBound(10), 0u);
  EXPECT_EQ(t.LowerBound(15), 1u);
  EXPECT_EQ(t.LowerBound(30), 2u);
  EXPECT_EQ(t.LowerBound(31), 3u);
}

TEST(TrajectoryTest, SliceTime) {
  Trajectory t("x", 5, {R(0, 0, 10), R(0, 0, 20), R(0, 0, 30), R(0, 0, 40)});
  Trajectory s = t.SliceTime(20, 40);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].t, 20);
  EXPECT_EQ(s[1].t, 30);
  EXPECT_EQ(s.label(), "x");
  EXPECT_EQ(s.owner(), 5u);
}

TEST(TrajectoryTest, SliceTimeEmptyWindow) {
  Trajectory t("x", 1, {R(0, 0, 10)});
  EXPECT_TRUE(t.SliceTime(100, 200).empty());
}

// ------------------------------------------------------------- Database

TEST(DatabaseTest, AddAndFind) {
  TrajectoryDatabase db("test");
  EXPECT_TRUE(db.Add(Trajectory("a", 1, {R(0, 0, 1)})).ok());
  EXPECT_TRUE(db.Add(Trajectory("b", 2, {R(0, 0, 2)})).ok());
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.Find("a"), 0u);
  EXPECT_EQ(db.Find("b"), 1u);
  EXPECT_EQ(db.Find("zzz"), TrajectoryDatabase::npos);
}

TEST(DatabaseTest, DuplicateLabelRejected) {
  TrajectoryDatabase db;
  EXPECT_TRUE(db.Add(Trajectory("a", 1, {})).ok());
  Status s = db.Add(Trajectory("a", 2, {}));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.size(), 1u);
}

TEST(DatabaseTest, FindByOwner) {
  TrajectoryDatabase db;
  (void)db.Add(Trajectory("a", 10, {}));
  (void)db.Add(Trajectory("b", 20, {}));
  EXPECT_EQ(db.FindByOwner(20), 1u);
  EXPECT_EQ(db.FindByOwner(30), TrajectoryDatabase::npos);
}

TEST(DatabaseTest, TotalRecords) {
  TrajectoryDatabase db;
  (void)db.Add(Trajectory("a", 1, {R(0, 0, 1), R(0, 0, 2)}));
  (void)db.Add(Trajectory("b", 2, {R(0, 0, 3)}));
  EXPECT_EQ(db.TotalRecords(), 3u);
}

TEST(DatabaseTest, PruneShort) {
  TrajectoryDatabase db;
  (void)db.Add(Trajectory("a", 1, {R(0, 0, 1)}));
  (void)db.Add(Trajectory("b", 2, {R(0, 0, 1), R(0, 0, 2), R(0, 0, 3)}));
  size_t removed = db.PruneShort(2);
  EXPECT_EQ(removed, 1u);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db[0].label(), "b");
  // Label index must be rebuilt.
  EXPECT_EQ(db.Find("b"), 0u);
  EXPECT_EQ(db.Find("a"), TrajectoryDatabase::npos);
}

TEST(DatabaseTest, RangeFor) {
  TrajectoryDatabase db;
  (void)db.Add(Trajectory("a", 1, {}));
  (void)db.Add(Trajectory("b", 2, {}));
  size_t count = 0;
  for (const auto& t : db) {
    (void)t;
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

// -------------------------------------------------------------- Summary

TEST(SummaryTest, BasicStatistics) {
  TrajectoryDatabase db;
  (void)db.Add(Trajectory("a", 1, {R(0, 0, 0), R(0, 0, 3600)}));
  (void)db.Add(
      Trajectory("b", 2, {R(0, 0, 0), R(0, 0, 7200), R(0, 0, 14400)}));
  DatabaseSummary s = Summarize(db);
  EXPECT_EQ(s.num_trajectories, 2u);
  EXPECT_EQ(s.total_records, 5u);
  EXPECT_DOUBLE_EQ(s.mean_size, 2.5);
  // Gaps: 1h, 2h, 2h.
  EXPECT_NEAR(s.mean_gap_hours, 5.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.duration_days, 14400.0 / 86400.0, 1e-9);
}

TEST(SummaryTest, EmptyDatabase) {
  TrajectoryDatabase db;
  DatabaseSummary s = Summarize(db);
  EXPECT_EQ(s.num_trajectories, 0u);
  EXPECT_DOUBLE_EQ(s.mean_size, 0.0);
  EXPECT_DOUBLE_EQ(s.duration_days, 0.0);
}

TEST(SummaryTest, ToStringContainsFields) {
  TrajectoryDatabase db;
  (void)db.Add(Trajectory("a", 1, {R(0, 0, 0), R(0, 0, 60)}));
  std::string s = ToString(Summarize(db));
  EXPECT_NE(s.find("trajectories=1"), std::string::npos);
  EXPECT_NE(s.find("mean|P|="), std::string::npos);
}

}  // namespace
}  // namespace ftl::traj
