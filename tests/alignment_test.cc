#include <gtest/gtest.h>

#include "traj/alignment.h"
#include "util/rng.h"

namespace ftl::traj {
namespace {

Record R(double x, double y, Timestamp t) { return Record{{x, y}, t}; }

Trajectory T(const std::string& label, std::vector<Record> recs) {
  return Trajectory(label, 0, std::move(recs));
}

std::vector<Segment> Mutuals(const Trajectory& p, const Trajectory& q) {
  std::vector<Segment> out;
  VisitMutualSegments(p, q, [&out](const Segment& s) { out.push_back(s); });
  return out;
}

size_t CountMutual(const Trajectory& p, const Trajectory& q) {
  return Mutuals(p, q).size();
}

TEST(AlignmentTest, MergesInTimeOrder) {
  Trajectory p = T("p", {R(1, 0, 10), R(2, 0, 30)});
  Trajectory q = T("q", {R(3, 0, 20), R(4, 0, 40)});
  auto w = Align(p, q);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0].record.t, 10);
  EXPECT_EQ(w[1].record.t, 20);
  EXPECT_EQ(w[2].record.t, 30);
  EXPECT_EQ(w[3].record.t, 40);
  EXPECT_EQ(w[0].source, Source::kP);
  EXPECT_EQ(w[1].source, Source::kQ);
  EXPECT_EQ(w[2].source, Source::kP);
  EXPECT_EQ(w[3].source, Source::kQ);
}

TEST(AlignmentTest, PaperFigure3Pattern) {
  // P: p1 p2 p3 p4, Q: q1 q2 q3 q4 interleaved as
  // p1 q1 q2 p2 p3 q3 p4 q4 (Figure 3).
  Trajectory p = T("p", {R(0, 0, 1), R(0, 0, 4), R(0, 0, 5), R(0, 0, 7)});
  Trajectory q = T("q", {R(0, 0, 2), R(0, 0, 3), R(0, 0, 6), R(0, 0, 8)});
  auto w = Align(p, q);
  std::vector<Source> expect = {Source::kP, Source::kQ, Source::kQ,
                                Source::kP, Source::kP, Source::kQ,
                                Source::kP, Source::kQ};
  ASSERT_EQ(w.size(), expect.size());
  for (size_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i].source, expect[i]);
  // Mutual segments: (p1,q1),(q2,p2),(p3,q3),(q3,p4),(p4,q4) -> 5.
  EXPECT_EQ(CountMutual(p, q), 5u);
}

TEST(AlignmentTest, TieBreaksPFirst) {
  Trajectory p = T("p", {R(0, 0, 10)});
  Trajectory q = T("q", {R(0, 0, 10)});
  auto w = Align(p, q);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].source, Source::kP);
  EXPECT_EQ(w[1].source, Source::kQ);
}

TEST(AlignmentTest, EmptyTrajectories) {
  Trajectory p = T("p", {});
  Trajectory q = T("q", {R(0, 0, 1)});
  EXPECT_EQ(Align(p, q).size(), 1u);
  EXPECT_EQ(CountMutual(p, q), 0u);
  EXPECT_EQ(CountMutual(p, p), 0u);
  // A one-sided alignment has only self-segments.
  Trajectory two = T("t", {R(0, 0, 1), R(0, 0, 9)});
  std::vector<Segment> segments;
  VisitSegments(two, p, [&segments](const Segment& s) {
    segments.push_back(s);
  });
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_FALSE(segments[0].mutual);
  EXPECT_EQ(segments[0].TimeLengthSeconds(), 8);
}

TEST(AlignmentTest, SegmentCountIsTotalMinusOne) {
  Trajectory p = T("p", {R(0, 0, 1), R(0, 0, 5), R(0, 0, 9)});
  Trajectory q = T("q", {R(0, 0, 3), R(0, 0, 7)});
  size_t segments = 0;
  VisitSegments(p, q, [&segments](const Segment&) { ++segments; });
  EXPECT_EQ(segments, 4u);
}

TEST(AlignmentTest, SelfVsMutualClassification) {
  // P at t=1,2 then Q at t=3,4: segments (1,2)self (2,3)mutual (3,4)self.
  Trajectory p = T("p", {R(0, 0, 1), R(0, 0, 2)});
  Trajectory q = T("q", {R(0, 0, 3), R(0, 0, 4)});
  std::vector<bool> mutual;
  VisitSegments(p, q, [&mutual](const Segment& s) {
    mutual.push_back(s.mutual);
  });
  ASSERT_EQ(mutual.size(), 3u);
  EXPECT_FALSE(mutual[0]);
  EXPECT_TRUE(mutual[1]);
  EXPECT_FALSE(mutual[2]);
}

TEST(AlignmentTest, PerfectInterleavingAllMutual) {
  Trajectory p = T("p", {R(0, 0, 1), R(0, 0, 3), R(0, 0, 5)});
  Trajectory q = T("q", {R(0, 0, 2), R(0, 0, 4), R(0, 0, 6)});
  EXPECT_EQ(CountMutual(p, q), 5u);
}

TEST(AlignmentTest, DisjointSpansOneMutualSegment) {
  Trajectory p = T("p", {R(0, 0, 1), R(0, 0, 2)});
  Trajectory q = T("q", {R(0, 0, 100), R(0, 0, 200)});
  EXPECT_EQ(CountMutual(p, q), 1u);
}

TEST(AlignmentTest, SegmentTimeLength) {
  Trajectory p = T("p", {R(0, 0, 10)});
  Trajectory q = T("q", {R(0, 0, 70)});
  auto ms = Mutuals(p, q);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].TimeLengthSeconds(), 60);
}

TEST(AlignmentTest, StreamingMatchesMaterialized) {
  // Property: VisitSegments yields exactly the adjacent pairs of Align.
  Trajectory p = T("p", {R(1, 1, 5), R(2, 2, 15), R(3, 3, 25), R(4, 4, 99)});
  Trajectory q = T("q", {R(5, 5, 10), R(6, 6, 20), R(7, 7, 50)});
  auto aligned = Align(p, q);
  std::vector<Segment> streamed;
  VisitSegments(p, q, [&streamed](const Segment& s) {
    streamed.push_back(s);
  });
  ASSERT_EQ(streamed.size(), aligned.size() - 1);
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].first, aligned[i].record);
    EXPECT_EQ(streamed[i].second, aligned[i + 1].record);
    EXPECT_EQ(streamed[i].mutual,
              aligned[i].source != aligned[i + 1].source);
  }
}

// Parameterized property sweep: mutual + self segments == total - 1 for
// random sizes.
class AlignmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AlignmentPropertyTest, SegmentPartition) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Record> pr, qr;
  size_t np = 1 + rng.Index(40);
  size_t nq = 1 + rng.Index(40);
  for (size_t i = 0; i < np; ++i) {
    pr.push_back(R(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                   rng.UniformInt(0, 100000)));
  }
  for (size_t i = 0; i < nq; ++i) {
    qr.push_back(R(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                   rng.UniformInt(0, 100000)));
  }
  Trajectory p("p", 0, std::move(pr));
  Trajectory q("q", 1, std::move(qr));
  size_t mutual = 0, self = 0;
  VisitSegments(p, q, [&](const Segment& s) { s.mutual ? ++mutual : ++self; });
  EXPECT_EQ(mutual + self, np + nq - 1);
  EXPECT_EQ(mutual, CountMutual(p, q));
  // Alignment is symmetric in segment counts.
  EXPECT_EQ(CountMutual(q, p), mutual);
}

INSTANTIATE_TEST_SUITE_P(RandomTrajectories, AlignmentPropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace ftl::traj
