#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/blocking.h"
#include "core/engine.h"
#include "io/report_json.h"
#include "sim/population_sim.h"
#include "store/store.h"
#include "traj/flat_database.h"

namespace ftl::core {
namespace {

using traj::Record;
using traj::Trajectory;
using traj::TrajectoryDatabase;

Record R(double x, double y, traj::Timestamp t) { return Record{{x, y}, t}; }

Trajectory T(const std::string& label, traj::OwnerId owner,
             std::vector<Record> recs) {
  return Trajectory(label, owner, std::move(recs));
}

BlockingOptions NoSlack() {
  BlockingOptions o;
  o.temporal_slack_seconds = 0;
  return o;
}

/// The columns BlockingIndex reads.
traj::FlatDatabase Flat(const TrajectoryDatabase& db) {
  return traj::FlatDatabase::FromDatabase(db);
}

traj::FlatDatabase Flat(const Trajectory& t) {
  TrajectoryDatabase db;
  EXPECT_TRUE(db.Add(t).ok());
  return Flat(db);
}

/// Aggressive-mode survivors for `query`, on a fresh scratch.
std::vector<size_t> Candidates(const BlockingIndex& index,
                               const traj::FlatTrajectoryView& query) {
  BlockingScratch scratch;
  std::vector<size_t> out;
  index.Candidates(query, &scratch, &out);
  return out;
}

std::vector<size_t> Candidates(const BlockingIndex& index,
                               const Trajectory& query) {
  const traj::FlatDatabase q = Flat(query);
  return Candidates(index, q[0]);
}

void GuaranteedCandidates(const BlockingIndex& index, const Trajectory& query,
                          const BlockingGuarantee& guarantee,
                          BlockingScratch* scratch,
                          std::vector<size_t>* out) {
  const traj::FlatDatabase q = Flat(query);
  index.GuaranteedCandidates(q[0], guarantee, scratch, out);
}

TEST(BlockingTest, TemporalDisjointPruned) {
  TrajectoryDatabase db;
  (void)db.Add(T("early", 1, {R(0, 0, 0), R(0, 0, 100)}));
  (void)db.Add(T("late", 2, {R(0, 0, 100000), R(0, 0, 100100)}));
  BlockingOptions o = NoSlack();
  o.use_spatial = false;
  BlockingIndex index(Flat(db), o, BlockingMode::kAggressive);
  Trajectory query = T("q", 9, {R(0, 0, 50), R(0, 0, 80)});
  auto cands = Candidates(index, query);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "early");
}

TEST(BlockingTest, TemporalSlackExtendsWindow) {
  TrajectoryDatabase db;
  (void)db.Add(T("near", 1, {R(0, 0, 2000), R(0, 0, 2100)}));
  BlockingOptions o;
  o.use_spatial = false;
  o.temporal_slack_seconds = 0;
  BlockingIndex tight(Flat(db), o, BlockingMode::kAggressive);
  o.temporal_slack_seconds = 5000;
  BlockingIndex loose(Flat(db), o, BlockingMode::kAggressive);
  Trajectory query = T("q", 9, {R(0, 0, 0), R(0, 0, 100)});
  EXPECT_TRUE(Candidates(tight, query).empty());
  EXPECT_EQ(Candidates(loose, query).size(), 1u);
}

TEST(BlockingTest, SpatialSharedCellRequired) {
  TrajectoryDatabase db;
  (void)db.Add(T("here", 1, {R(100, 100, 0), R(200, 200, 50)}));
  (void)db.Add(T("far", 2, {R(90000, 90000, 0), R(90100, 90100, 50)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 1;
  BlockingIndex index(Flat(db), o, BlockingMode::kAggressive);
  Trajectory query = T("q", 9, {R(150, 150, 25)});
  auto cands = Candidates(index, query);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "here");
}

TEST(BlockingTest, NeighborhoodAbsorbsCellBoundary) {
  // Query at the very edge of a cell; candidate just across the border.
  TrajectoryDatabase db;
  (void)db.Add(T("across", 1, {R(1001, 0, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 0;
  BlockingIndex strict(Flat(db), o, BlockingMode::kAggressive);
  o.neighborhood = 1;
  BlockingIndex relaxed(Flat(db), o, BlockingMode::kAggressive);
  Trajectory query = T("q", 9, {R(999, 0, 0)});
  EXPECT_TRUE(Candidates(strict, query).empty());
  EXPECT_EQ(Candidates(relaxed, query).size(), 1u);
}

TEST(BlockingTest, MinSharedCellsFilters) {
  TrajectoryDatabase db;
  // Candidate visits two cells of the query's footprint.
  (void)db.Add(T("two-cells", 1, {R(500, 500, 0), R(5500, 5500, 50)}));
  // Candidate visits only one.
  (void)db.Add(T("one-cell", 2, {R(500, 500, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 0;
  o.min_shared_cells = 2;
  BlockingIndex index(Flat(db), o, BlockingMode::kAggressive);
  Trajectory query = T("q", 9, {R(400, 400, 10), R(5600, 5600, 60)});
  auto cands = Candidates(index, query);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "two-cells");
}

TEST(BlockingTest, EmptyQueryNoCandidates) {
  TrajectoryDatabase db;
  (void)db.Add(T("a", 1, {R(0, 0, 0)}));
  BlockingIndex index(Flat(db), {}, BlockingMode::kAggressive);
  EXPECT_TRUE(Candidates(index, T("q", 9, {})).empty());
}

TEST(BlockingTest, EmptyCandidatesNeverReturned) {
  TrajectoryDatabase db;
  (void)db.Add(T("empty", 1, {}));
  (void)db.Add(T("full", 2, {R(0, 0, 0), R(0, 0, 100)}));
  BlockingIndex index(Flat(db), {}, BlockingMode::kAggressive);
  auto cands = Candidates(index, T("q", 9, {R(10, 10, 50)}));
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(db[cands[0]].label(), "full");
}

TEST(BlockingTest, HighRecallOnPopulation) {
  // Property: on paired data from *localized* movers (each person stays
  // in their own neighbourhood of a large city), spatial blocking keeps
  // nearly every true match while pruning a large share of candidates.
  sim::PopulationOptions po;
  po.num_persons = 120;
  po.duration_days = 7;
  po.cdr_accesses_per_day = 15.0;
  po.transit_accesses_per_day = 10.0;
  po.city = sim::BeijingLike();
  po.city.hotspots.clear();       // no shared attractors
  po.waypoints.hotspot_prob = 0.0;
  po.waypoints.trip_scale_meters = 2500.0;  // stay local
  po.waypoints.long_trip_prob = 0.0;
  po.seed = 404;
  auto data = sim::SimulatePopulation(po);
  BlockingOptions o;
  o.cell_size_meters = 4000.0;
  o.neighborhood = 1;
  BlockingIndex index(Flat(data.transit_db), o, BlockingMode::kAggressive);

  size_t kept_true = 0, total = 0, candidate_sum = 0;
  for (const auto& query : data.cdr_db) {
    if (query.size() < 2) continue;
    ++total;
    auto cands = Candidates(index, query);
    candidate_sum += cands.size();
    for (size_t ci : cands) {
      if (data.transit_db[ci].owner() == query.owner()) {
        ++kept_true;
        break;
      }
    }
  }
  ASSERT_GT(total, 100u);
  double recall = static_cast<double>(kept_true) /
                  static_cast<double>(total);
  double reduction = static_cast<double>(candidate_sum) /
                     (static_cast<double>(total) *
                      static_cast<double>(data.transit_db.size()));
  EXPECT_GT(recall, 0.97);
  EXPECT_LT(reduction, 0.9);
}

TEST(BlockingTest, QueryWithCandidatesMatchesFullQueryOnSurvivors) {
  sim::PopulationOptions po;
  po.num_persons = 40;
  po.duration_days = 5;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 405;
  auto data = sim::SimulatePopulation(po);
  EngineOptions eo;
  eo.training.horizon_units = 30;
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  BlockingIndex index(Flat(data.transit_db), {}, BlockingMode::kAggressive);
  const auto& query = data.cdr_db[3];
  auto survivors = Candidates(index, query);
  auto full = engine.Query(query, data.transit_db, Matcher::kNaiveBayes);
  auto blocked = engine.QueryWithCandidates(query, data.transit_db,
                                            survivors,
                                            Matcher::kNaiveBayes);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(blocked.ok());
  // Every blocked result must appear in the full results (blocking can
  // only remove candidates).
  for (const auto& c : blocked.value().candidates) {
    bool found = false;
    for (const auto& f : full.value().candidates) {
      if (f.index == c.index) found = true;
    }
    EXPECT_TRUE(found);
  }
}

/// Owned columns for hand-built FlatDatabases (no sortedness
/// validation — the vector for the unsorted-span regression).
struct OwnedColumns {
  std::vector<uint64_t> record_offsets;
  std::vector<uint64_t> owners;
  std::vector<uint64_t> label_offsets;
  std::string label_pool;
  std::vector<int64_t> ts;
  std::vector<double> xs;
  std::vector<double> ys;
};

traj::FlatDatabase FlatFromRows(
    const std::vector<std::pair<std::string,
                                std::vector<Record>>>& rows) {
  auto oc = std::make_shared<OwnedColumns>();
  oc->record_offsets.push_back(0);
  oc->label_offsets.push_back(0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const Record& r : rows[i].second) {
      oc->ts.push_back(r.t);
      oc->xs.push_back(r.location.x);
      oc->ys.push_back(r.location.y);
    }
    oc->record_offsets.push_back(oc->ts.size());
    oc->owners.push_back(i + 1);
    oc->label_pool += rows[i].first;
    oc->label_offsets.push_back(oc->label_pool.size());
  }
  traj::FlatDatabase::Columns c;
  c.record_offsets = oc->record_offsets.data();
  c.owners = oc->owners.data();
  c.label_offsets = oc->label_offsets.data();
  c.label_pool = oc->label_pool.data();
  c.ts = oc->ts.data();
  c.xs = oc->xs.data();
  c.ys = oc->ys.data();
  c.num_trajectories = rows.size();
  c.num_records = oc->ts.size();
  c.label_pool_size = oc->label_pool.size();
  return traj::FlatDatabase::FromColumns(c, oc, "handmade");
}

TEST(BlockingTest, UnsortedInputSpansComputedAsMinMax) {
  // Regression: the index must not trust first/last records as the
  // span. This candidate's rows arrive newest-first; trusting
  // front()/back() yields the inverted span [100000, 50] and a query
  // inside the true span would be pruned.
  traj::FlatDatabase db = FlatFromRows(
      {{"unsorted", {R(0, 0, 100000), R(0, 0, 50)}}});
  BlockingOptions o;
  o.use_spatial = false;
  o.temporal_slack_seconds = 0;
  BlockingIndex index(db, o, BlockingMode::kAggressive);
  // Query strictly inside [50, 100000] but far from both endpoints.
  traj::FlatDatabase qdb = FlatFromRows({{"q", {R(0, 0, 40000)}}});
  auto mid = Candidates(index, qdb[0]);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0], 0u);
  // And outside the true span it is still pruned.
  traj::FlatDatabase qout = FlatFromRows({{"q2", {R(0, 0, 200000)}}});
  EXPECT_TRUE(Candidates(index, qout[0]).empty());
}

// --------------------------------------------------------------------------
// Reference model: every index answer recomputed straight from the
// records, with exact 128-bit arithmetic instead of saturation.

using Rows = std::vector<std::pair<std::string, std::vector<Record>>>;

int64_t RefFloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

int64_t RefCell(double v, double cell) {
  const double c = std::floor(v / cell);
  if (std::isnan(c) || c < -1073741824.0) return -1073741824;
  if (c > 1073741824.0) return 1073741824;
  return static_cast<int64_t>(c);
}

/// True for a non-empty candidate whose [min t, max t] overlaps
/// [q_lo, q_hi].
bool RefSpanOverlaps(const std::vector<Record>& c, __int128 q_lo,
                     __int128 q_hi) {
  if (c.empty()) return false;
  int64_t lo = c[0].t, hi = c[0].t;
  for (const Record& r : c) {
    lo = std::min(lo, r.t);
    hi = std::max(hi, r.t);
  }
  return hi >= q_lo && lo <= q_hi;
}

std::vector<size_t> RefCandidates(const Rows& db, const std::vector<Record>& q,
                                  const BlockingOptions& o) {
  std::vector<size_t> out;
  if (q.empty()) return out;
  const bool spatial = o.use_spatial && o.min_shared_cells > 0;
  if (!spatial && !o.use_temporal) {
    for (size_t i = 0; i < db.size(); ++i) out.push_back(i);
    return out;
  }
  int64_t q_min = q[0].t, q_max = q[0].t;
  for (const Record& r : q) {
    q_min = std::min(q_min, r.t);
    q_max = std::max(q_max, r.t);
  }
  const __int128 q_lo = static_cast<__int128>(q_min) - o.temporal_slack_seconds;
  const __int128 q_hi = static_cast<__int128>(q_max) + o.temporal_slack_seconds;
  std::set<std::pair<int64_t, int64_t>> probe;
  for (const Record& r : q) {
    const int64_t cx = RefCell(r.location.x, o.cell_size_meters);
    const int64_t cy = RefCell(r.location.y, o.cell_size_meters);
    for (int dx = -o.neighborhood; dx <= o.neighborhood; ++dx) {
      for (int dy = -o.neighborhood; dy <= o.neighborhood; ++dy) {
        probe.insert({cx + dx, cy + dy});
      }
    }
  }
  for (size_t i = 0; i < db.size(); ++i) {
    const std::vector<Record>& c = db[i].second;
    if (spatial) {
      std::set<std::pair<int64_t, int64_t>> visited;
      for (const Record& r : c) {
        visited.insert({RefCell(r.location.x, o.cell_size_meters),
                        RefCell(r.location.y, o.cell_size_meters)});
      }
      size_t shared = 0;
      for (const auto& cell : probe) shared += visited.count(cell);
      if (shared < o.min_shared_cells) continue;
    }
    if (o.use_temporal && !RefSpanOverlaps(c, q_lo, q_hi)) continue;
    out.push_back(i);
  }
  return out;
}

std::vector<size_t> RefGuaranteed(const Rows& db, const std::vector<Record>& q,
                                  const BlockingOptions& o,
                                  const BlockingGuarantee& g) {
  std::vector<size_t> out;
  if (g.min_segments == 0) {
    for (size_t i = 0; i < db.size(); ++i) out.push_back(i);
    return out;
  }
  const int64_t bucket = o.time_bucket_seconds;
  const int64_t horizon = std::max<int64_t>(g.horizon_seconds, 0);
  const __int128 rings = (static_cast<__int128>(horizon) + bucket - 1) / bucket;
  std::set<int64_t> q_buckets;
  for (const Record& r : q) q_buckets.insert(RefFloorDiv(r.t, bucket));
  for (size_t i = 0; i < db.size(); ++i) {
    uint64_t m = 0;
    for (const Record& r : db[i].second) {
      const __int128 b = RefFloorDiv(r.t, bucket);
      for (int64_t qb : q_buckets) {
        const __int128 d = b - qb;
        if (d <= rings && -d <= rings) {
          ++m;
          break;
        }
      }
    }
    if (2 * m >= g.min_segments) out.push_back(i);
  }
  return out;
}

/// Random trajectory rows: per-candidate time bases up to 2^40 s apart
/// (either sign), spreads that reach past 1,024 buckets, duplicate and
/// out-of-order timestamps, empty rows and ±1e308 coordinates.
std::vector<Record> RandomRecords(std::mt19937_64* rng) {
  auto pick = [&](auto... v) {
    const int64_t opts[] = {static_cast<int64_t>(v)...};
    return opts[(*rng)() % sizeof...(v)];
  };
  const size_t n = static_cast<size_t>(pick(0, 1, 2, 5, 12, 30));
  const int64_t base = pick(0, -5000, 86400, int64_t{1} << 40,
                            -(int64_t{1} << 40), -1);
  const int64_t spread = pick(1, 50, 7000, 20000, 3 * 86400);
  std::vector<Record> recs;
  for (size_t j = 0; j < n; ++j) {
    const bool dup = j > 0 && (*rng)() % 5 == 0;
    const int64_t t = dup ? recs.back().t
                          : base + static_cast<int64_t>((*rng)() % spread);
    double x = static_cast<double>((*rng)() % 20000) - 10000.0;
    double y = static_cast<double>((*rng)() % 20000) - 10000.0;
    if ((*rng)() % 25 == 0) x = (*rng)() % 2 ? 1e308 : -1e308;
    if ((*rng)() % 25 == 0) y = (*rng)() % 2 ? 1e308 : -1e308;
    recs.push_back(R(x, y, t));
  }
  if ((*rng)() % 3 != 0) {  // two in three arrive in timestamp order
    std::sort(recs.begin(), recs.end(),
              [](const Record& a, const Record& b) { return a.t < b.t; });
  }
  if ((*rng)() % 8 == 0 && !recs.empty()) {  // a 2^41 s wide candidate
    recs.push_back(R(0, 0, recs[0].t + (int64_t{1} << 41)));
  }
  return recs;
}

TEST(BlockingTest, MatchesBruteForceReference) {
  // One index per mode: each answers its own probe like the reference
  // and every other probe with every candidate.
  std::mt19937_64 rng(20260417);
  BlockingScratch scratch;
  std::vector<size_t> got;
  for (int trial = 0; trial < 400; ++trial) {
    Rows rows;
    const size_t n = rng() % 24;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({std::to_string(i), RandomRecords(&rng)});
    }
    const traj::FlatDatabase soa = FlatFromRows(rows);

    BlockingOptions o;
    const int64_t buckets[] = {1, 7, 3600};
    o.time_bucket_seconds = buckets[rng() % 3];
    o.neighborhood = static_cast<int>(rng() % 3);
    const size_t min_cells[] = {0, 1, 3};
    o.min_shared_cells = min_cells[rng() % 3];
    o.cell_size_meters = rng() % 2 ? 1000.0 : 3000.0;
    const int64_t slacks[] = {0, 100, 6 * 3600};
    o.temporal_slack_seconds = slacks[rng() % 3];
    o.use_temporal = rng() % 4 != 0;
    o.use_spatial = rng() % 4 != 0;
    const BlockingIndex off(soa, o, BlockingMode::kOff);
    const BlockingIndex guaranteed(soa, o, BlockingMode::kGuaranteed);
    const BlockingIndex aggressive(soa, o, BlockingMode::kAggressive);
    std::vector<size_t> all(rows.size());
    std::iota(all.begin(), all.end(), size_t{0});
    for (const BlockingIndex* index : {&off, &guaranteed, &aggressive}) {
      ASSERT_EQ(index->size(), rows.size());
    }

    for (int qi = 0; qi < 6; ++qi) {
      // Queries are random rows, or a candidate's own records.
      std::vector<Record> q = rows.empty() || rng() % 2
                                  ? RandomRecords(&rng)
                                  : rows[rng() % rows.size()].second;
      const traj::FlatDatabase q_soa = FlatFromRows({{"q", q}});
      SCOPED_TRACE("trial " + std::to_string(trial) + " query " +
                   std::to_string(qi) + " bucket " +
                   std::to_string(o.time_bucket_seconds));

      const std::vector<size_t> want = RefCandidates(rows, q, o);
      aggressive.Candidates(q_soa[0], &scratch, &got);
      EXPECT_EQ(got, want);
      for (const BlockingIndex* index : {&off, &guaranteed}) {
        index->Candidates(q_soa[0], &scratch, &got);
        EXPECT_EQ(got, all) << BlockingModeName(index->mode());
      }

      const int64_t horizons[] = {0, 1, 3599, 3600, 7200, int64_t{1} << 40};
      // 1 and 2 take the count-free probe, 3 and 5 count records.
      const uint64_t min_segs[] = {0, 1, 2, 3, 5};
      const BlockingGuarantee g{horizons[rng() % 6], min_segs[rng() % 5]};
      const std::vector<size_t> want_g = RefGuaranteed(rows, q, o, g);
      guaranteed.GuaranteedCandidates(q_soa[0], g, &scratch, &got);
      EXPECT_EQ(got, want_g) << "horizon " << g.horizon_seconds
                             << " min_segments " << g.min_segments;
      for (const BlockingIndex* index : {&off, &aggressive}) {
        index->GuaranteedCandidates(q_soa[0], g, &scratch, &got);
        EXPECT_EQ(got, all) << BlockingModeName(index->mode());
      }
    }
  }
}

TEST(BlockingTest, ExtremeTimestampSpanGoesToOverflowList) {
  // A span of 2^63 one-second buckets: its width overflows int64, so it
  // must be measured unsigned and land on the overflow list instead of
  // one posting per bucket.
  const int64_t far = int64_t{1} << 62;
  TrajectoryDatabase db;
  (void)db.Add(T("wide", 1, {R(0, 0, -far), R(0, 0, far)}));
  (void)db.Add(T("late", 2, {R(0, 0, far - 10), R(0, 0, far)}));
  BlockingOptions o = NoSlack();
  o.use_spatial = false;
  o.time_bucket_seconds = 1;
  const BlockingIndex aggressive(Flat(db), o, BlockingMode::kAggressive);
  EXPECT_EQ(Candidates(aggressive, T("q", 9, {R(0, 0, 0)})),
            (std::vector<size_t>{0}));
  EXPECT_EQ(Candidates(aggressive, T("q", 9, {R(0, 0, far - 5)})),
            (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(Candidates(aggressive, T("q", 9, {R(0, 0, far + 1)})).empty());
  const BlockingIndex guaranteed(Flat(db), o, BlockingMode::kGuaranteed);
  BlockingScratch scratch;
  std::vector<size_t> out;
  GuaranteedCandidates(guaranteed, T("q", 9, {R(0, 0, far)}), {0, 2},
                       &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0, 1}));
  GuaranteedCandidates(guaranteed, T("q", 9, {R(0, 0, -far)}), {0, 2},
                       &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0}));
}

TEST(BlockingTest, ExtremeCoordinatesDoNotOverflow) {
  // Cell coordinates saturate instead of overflowing int32 (UB in the
  // old code): huge/non-finite positions index and query safely.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TrajectoryDatabase db;
  (void)db.Add(T("huge", 1, {R(1e308, -1e308, 0)}));
  (void)db.Add(T("inf", 2, {R(inf, -inf, 10)}));
  (void)db.Add(T("nan", 3, {R(nan, nan, 20)}));
  (void)db.Add(T("near", 4, {R(100, 100, 30)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 0.001;  // tiny cells amplify the coordinates
  o.neighborhood = 1;
  BlockingIndex index(Flat(db), o, BlockingMode::kAggressive);
  // A normal-area query must not pick up the saturated candidates.
  auto near = Candidates(index, T("q", 9, {R(100, 100, 0)}));
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(db[near[0]].label(), "near");
  // A saturated query lands in the same clamped cells as the
  // saturated candidates — no crash, deterministic result.
  auto far = Candidates(index, T("q2", 9, {R(1e308, -1e308, 0)}));
  EXPECT_FALSE(far.empty());
}

TEST(BlockingTest, ValidateRejectsBadOptions) {
  EXPECT_TRUE(BlockingOptions{}.Validate().ok());
  BlockingOptions o;
  o.cell_size_meters = 0.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.cell_size_meters = -5.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.cell_size_meters = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.cell_size_meters = std::numeric_limits<double>::infinity();
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o = BlockingOptions{};
  o.temporal_slack_seconds = -1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o = BlockingOptions{};
  o.time_bucket_seconds = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o = BlockingOptions{};
  o.neighborhood = -1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.neighborhood = 17;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(BlockingTest, ParseBlockingModeRoundTrips) {
  for (BlockingMode m : {BlockingMode::kOff, BlockingMode::kGuaranteed,
                         BlockingMode::kAggressive}) {
    auto parsed = ParseBlockingMode(BlockingModeName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), m);
  }
  EXPECT_EQ(ParseBlockingMode("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockingTest, CallerOwnedScratchReusableAcrossIndices) {
  // One scratch serving two indices of different sizes (the
  // thread_local pinning bug made this pattern return stale results).
  TrajectoryDatabase small;
  (void)small.Add(T("s0", 1, {R(0, 0, 0), R(0, 0, 100)}));
  TrajectoryDatabase big;
  for (int i = 0; i < 50; ++i) {
    (void)big.Add(T("b" + std::to_string(i), 100 + i,
                    {R(i * 10.0, 0, i * 10), R(i * 10.0, 0, i * 10 + 5)}));
  }
  BlockingOptions o;
  BlockingIndex small_index(Flat(small), o, BlockingMode::kAggressive);
  BlockingIndex big_index(Flat(big), o, BlockingMode::kAggressive);
  BlockingScratch scratch;
  const traj::FlatDatabase query = Flat(T("q", 9, {R(0, 0, 50)}));
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> out;
    small_index.Candidates(query[0], &scratch, &out);
    EXPECT_EQ(out, Candidates(small_index, query[0]));
    big_index.Candidates(query[0], &scratch, &out);
    EXPECT_EQ(out, Candidates(big_index, query[0]));
  }
}

TEST(BlockingTest, NegativeCoordinatesStraddleCellZero) {
  // Floor-division grid: (-1, -1) is in cell (-1, -1), not cell (0, 0)
  // (integer truncation would merge them and mask real separation).
  TrajectoryDatabase db;
  (void)db.Add(T("neg", 1, {R(-1, -1, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.cell_size_meters = 1000.0;
  o.neighborhood = 0;
  BlockingIndex strict(Flat(db), o, BlockingMode::kAggressive);
  o.neighborhood = 1;
  BlockingIndex relaxed(Flat(db), o, BlockingMode::kAggressive);
  Trajectory query = T("q", 9, {R(1, 1, 0)});
  EXPECT_TRUE(Candidates(strict, query).empty());
  EXPECT_EQ(Candidates(relaxed, query).size(), 1u);
}

TEST(BlockingTest, BothBlockersDisabledReturnsIdentity) {
  TrajectoryDatabase db;
  (void)db.Add(T("a", 1, {R(0, 0, 0)}));
  (void)db.Add(T("b", 2, {}));  // even empty candidates
  (void)db.Add(T("c", 3, {R(1e6, 1e6, 1000000)}));
  BlockingOptions o;
  o.use_temporal = false;
  o.use_spatial = false;
  BlockingIndex index(Flat(db), o, BlockingMode::kAggressive);
  auto cands = Candidates(index, T("q", 9, {R(0, 0, 0)}));
  EXPECT_EQ(cands, (std::vector<size_t>{0, 1, 2}));
  // ... but an empty query still returns nothing.
  EXPECT_TRUE(Candidates(index, T("q2", 9, {})).empty());
}

TEST(BlockingTest, MinSharedCellsZeroDisablesSpatialFilter) {
  TrajectoryDatabase db;
  (void)db.Add(T("far", 1, {R(90000, 90000, 0)}));
  BlockingOptions o = NoSlack();
  o.use_temporal = false;
  o.min_shared_cells = 0;
  BlockingIndex index(Flat(db), o, BlockingMode::kAggressive);
  EXPECT_EQ(Candidates(index, T("q", 9, {R(0, 0, 0)})).size(), 1u);
}

TEST(BlockingGuaranteedTest, EdgeCases) {
  TrajectoryDatabase db;
  (void)db.Add(T("a", 1, {R(0, 0, 0), R(0, 0, 100)}));
  (void)db.Add(T("empty", 2, {}));
  (void)db.Add(T("far", 3, {R(0, 0, 1000000)}));
  BlockingIndex index(Flat(db), {}, BlockingMode::kGuaranteed);
  BlockingScratch scratch;
  std::vector<size_t> out;

  // min_segments == 0 means "cannot prune": identity, even for an
  // empty query (a no-evidence accept criterion accepts everything).
  BlockingGuarantee cannot{3600, 0};
  GuaranteedCandidates(index, T("q", 9, {}), cannot, &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0, 1, 2}));

  // An empty query has no co-occurrence: with a real bound everything
  // is provably unacceptable.
  BlockingGuarantee g{3600, 1};
  GuaranteedCandidates(index, T("q", 9, {}), g, &scratch, &out);
  EXPECT_TRUE(out.empty());

  // Empty candidates can never co-occur; far candidates are outside
  // the horizon.
  GuaranteedCandidates(index, T("q", 9, {R(0, 0, 50)}), g, &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0}));
}

TEST(BlockingTest, ProbeForAnotherModeReturnsEveryCandidate) {
  // An index keeps only the lists its own mode probes, so a probe for
  // another mode cannot prune: it answers with every candidate, even
  // for an empty query.
  TrajectoryDatabase db;
  (void)db.Add(T("near", 1, {R(0, 0, 0), R(0, 0, 100)}));
  (void)db.Add(T("empty", 2, {}));
  (void)db.Add(T("far", 3, {R(90000, 90000, 1000000)}));
  const std::vector<size_t> all{0, 1, 2};
  const Trajectory query = T("q", 9, {R(0, 0, 50)});
  const Trajectory empty_query = T("q", 9, {});
  const BlockingGuarantee g{3600, 1};
  BlockingScratch scratch;
  std::vector<size_t> out;

  EXPECT_EQ(BlockingIndex(Flat(db), {}).mode(), BlockingMode::kGuaranteed);

  const BlockingIndex guaranteed(Flat(db), {}, BlockingMode::kGuaranteed);
  GuaranteedCandidates(guaranteed, query, g, &scratch, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0}));  // its own probe prunes
  EXPECT_EQ(Candidates(guaranteed, query), all);
  EXPECT_EQ(Candidates(guaranteed, empty_query), all);

  const BlockingIndex aggressive(Flat(db), {}, BlockingMode::kAggressive);
  EXPECT_EQ(aggressive.mode(), BlockingMode::kAggressive);
  EXPECT_EQ(Candidates(aggressive, query), (std::vector<size_t>{0}));
  GuaranteedCandidates(aggressive, query, g, &scratch, &out);
  EXPECT_EQ(out, all);
  GuaranteedCandidates(aggressive, empty_query, g, &scratch, &out);
  EXPECT_EQ(out, all);

  const BlockingIndex off(Flat(db), {}, BlockingMode::kOff);
  EXPECT_EQ(off.size(), 3u);
  EXPECT_EQ(Candidates(off, query), all);
  GuaranteedCandidates(off, query, g, &scratch, &out);
  EXPECT_EQ(out, all);
}

/// Property harness: a static snapshot in guaranteed mode must answer
/// byte-identically to exhaustive engine scoring, apart from the count
/// of scored candidates.
void ExpectGuaranteedIdentity(Matcher matcher) {
  sim::PopulationOptions po;
  po.num_persons = 40;
  po.duration_days = 5;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 407;
  auto data = sim::SimulatePopulation(po);
  EngineOptions eo;
  eo.training.horizon_units = 30;
  FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());

  auto snap = store::StoreSnapshot::Static(Flat(data.transit_db),
                                           BlockingMode::kGuaranteed, {});
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  for (const Trajectory& query : data.cdr_db) {
    auto full = engine.Query(query, data.transit_db, matcher);
    auto blocked = snap.value()->Query(engine, query, matcher, nullptr);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(blocked.ok());
    // Pruning changes only how many candidates were scored.
    core::QueryResult want = std::move(full).value();
    want.evaluated = blocked.value().evaluated;
    EXPECT_EQ(io::QueryResultToJson(query.label(), blocked.value()),
              io::QueryResultToJson(query.label(), want));
  }
}

TEST(BlockingGuaranteedTest, NaiveBayesAcceptSetsByteIdentical) {
  ExpectGuaranteedIdentity(Matcher::kNaiveBayes);
}

TEST(BlockingGuaranteedTest, AlphaFilterAcceptSetsByteIdentical) {
  ExpectGuaranteedIdentity(Matcher::kAlphaFilter);
}

TEST(BlockingGuaranteedTest, StaticOffMatchesPlainQuery) {
  sim::PopulationOptions po;
  po.num_persons = 15;
  po.duration_days = 3;
  po.seed = 408;
  auto data = sim::SimulatePopulation(po);
  FtlEngine engine;
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto snap = store::StoreSnapshot::Static(Flat(data.transit_db),
                                           BlockingMode::kOff, {});
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto off = snap.value()->Query(engine, data.cdr_db[0],
                                 Matcher::kNaiveBayes, nullptr);
  auto plain = engine.Query(data.cdr_db[0], data.transit_db,
                            Matcher::kNaiveBayes);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(io::QueryResultToJson(data.cdr_db[0].label(), off.value()),
            io::QueryResultToJson(data.cdr_db[0].label(), plain.value()));
}

TEST(BlockingTest, OutOfRangeCandidateIndexRejected) {
  sim::PopulationOptions po;
  po.num_persons = 10;
  po.duration_days = 2;
  po.seed = 406;
  auto data = sim::SimulatePopulation(po);
  FtlEngine engine;
  ASSERT_TRUE(engine.Train(data.cdr_db, data.transit_db).ok());
  auto r = engine.QueryWithCandidates(data.cdr_db[0], data.transit_db,
                                      {99999}, Matcher::kNaiveBayes);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ftl::core
