#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "core/alpha_filter.h"
#include "core/engine.h"
#include "core/evidence.h"
#include "core/model_builders.h"
#include "io/report_json.h"
#include "obs/metrics.h"
#include "sim/scenario.h"
#include "stats/grouped_poisson_binomial.h"
#include "stats/poisson_binomial.h"
#include "traj/database.h"
#include "traj/flat_database.h"
#include "util/rng.h"

namespace ftl::stats {
namespace {

// Expands trial groups into the flat per-trial probability vector the
// O(n^2) DP consumes.
std::vector<double> Expand(const std::vector<TrialGroup>& groups) {
  std::vector<double> probs;
  for (const TrialGroup& g : groups) {
    for (int64_t i = 0; i < g.count; ++i) probs.push_back(g.p);
  }
  return probs;
}

// ------------------------------------------------------ Binomial pmf

TEST(GroupedPbTest, BinomialPmfMatchesDp) {
  std::vector<double> pmf;
  for (double p : {0.0, 1e-8, 0.03, 0.5, 0.97, 1.0}) {
    for (int64_t n : {1, 2, 7, 40, 200}) {
      BinomialPmf(n, p, &pmf);
      ASSERT_EQ(pmf.size(), static_cast<size_t>(n) + 1);
      auto dp = PoissonBinomialPmfDp(
          std::vector<double>(static_cast<size_t>(n), p));
      for (size_t k = 0; k < pmf.size(); ++k) {
        EXPECT_NEAR(pmf[k], dp[k], 1e-13) << "n=" << n << " p=" << p
                                          << " k=" << k;
      }
    }
  }
}

TEST(GroupedPbTest, BinomialPmfTinyPUnderflowRegime) {
  // n log1p(-p) far below the exp underflow threshold exercises the
  // mode-anchored fallback; the pmf must still normalize.
  std::vector<double> pmf;
  BinomialPmf(2000, 0.9, &pmf);
  double sum = 0;
  for (double x : pmf) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-10);
  EXPECT_NEAR(pmf[1800], PoissonBinomialPmfDp(
                             std::vector<double>(2000, 0.9))[1800],
              1e-13);
}

// ------------------------------------------- grouped pmf vs O(n^2) DP

TEST(GroupedPbTest, PmfMatchesDpOnRandomHistograms) {
  Rng rng(20160501);
  GroupedPbWorkspace ws;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TrialGroup> groups;
    size_t num_groups = 1 + rng.Index(12);
    for (size_t g = 0; g < num_groups; ++g) {
      groups.push_back({rng.Uniform(0, 1), 1 + rng.UniformInt(0, 14)});
    }
    GroupedPoissonBinomialPmf(groups, &ws);
    auto dp = PoissonBinomialPmfDp(Expand(groups));
    ASSERT_EQ(ws.pmf.size(), dp.size()) << "trial " << trial;
    for (size_t k = 0; k < dp.size(); ++k) {
      EXPECT_NEAR(ws.pmf[k], dp[k], 1e-12)
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(GroupedPbTest, PmfDegenerateGroups) {
  GroupedPbWorkspace ws;
  // p = 0 groups contribute nothing but trials.
  GroupedPoissonBinomialPmf({{0.0, 5}}, &ws);
  ASSERT_EQ(ws.pmf.size(), 6u);
  EXPECT_DOUBLE_EQ(ws.pmf[0], 1.0);
  // p = 1 groups are a deterministic shift.
  GroupedPoissonBinomialPmf({{1.0, 3}, {0.0, 2}}, &ws);
  ASSERT_EQ(ws.pmf.size(), 6u);
  EXPECT_DOUBLE_EQ(ws.pmf[3], 1.0);
  EXPECT_DOUBLE_EQ(ws.pmf[0], 0.0);
  // Empty group list: K = 0 surely.
  GroupedPoissonBinomialPmf({}, &ws);
  ASSERT_EQ(ws.pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(ws.pmf[0], 1.0);
}

TEST(GroupedPbTest, PmfSingleBucketIsBinomial) {
  GroupedPbWorkspace ws;
  GroupedPoissonBinomialPmf({{0.3, 25}}, &ws);
  std::vector<double> expect;
  BinomialPmf(25, 0.3, &expect);
  ASSERT_EQ(ws.pmf.size(), expect.size());
  for (size_t k = 0; k < expect.size(); ++k) {
    EXPECT_NEAR(ws.pmf[k], expect[k], 1e-14);
  }
}

TEST(GroupedPbTest, PmfMixedDegenerateAndStochastic) {
  GroupedPbWorkspace ws;
  std::vector<TrialGroup> groups = {{1.0, 2}, {0.25, 4}, {0.0, 3}};
  GroupedPoissonBinomialPmf(groups, &ws);
  auto dp = PoissonBinomialPmfDp(Expand(groups));
  ASSERT_EQ(ws.pmf.size(), dp.size());
  for (size_t k = 0; k < dp.size(); ++k) {
    EXPECT_NEAR(ws.pmf[k], dp[k], 1e-13) << "k=" << k;
  }
}

// -------------------------------------------------- tails vs exact DP

TEST(GroupedPbTest, TailsMatchDpAtEveryK) {
  Rng rng(7);
  GroupedPbWorkspace ws;
  GroupedTailParams exact;
  exact.rna_min_trials = static_cast<size_t>(-1);  // never use the RNA
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<TrialGroup> groups;
    size_t num_groups = 1 + rng.Index(8);
    for (size_t g = 0; g < num_groups; ++g) {
      double p = rng.Bernoulli(0.2) ? (rng.Bernoulli(0.5) ? 0.0 : 1.0)
                                    : rng.Uniform(0, 1);
      groups.push_back({p, 1 + rng.UniformInt(0, 9)});
    }
    PoissonBinomial pb(Expand(groups));
    int64_t n = GroupedTrialCount(groups);
    for (int64_t k = -1; k <= n + 1; ++k) {
      GroupedTails t = GroupedPoissonBinomialTails(groups, k, exact, &ws);
      EXPECT_TRUE(t.exact);
      EXPECT_NEAR(t.upper, pb.UpperTailPValue(k), 1e-12)
          << "trial " << trial << " k=" << k;
      EXPECT_NEAR(t.lower, pb.LowerTailPValue(k), 1e-12)
          << "trial " << trial << " k=" << k;
    }
  }
}

TEST(GroupedPbTest, RnaEngagesOnLongAlignments) {
  GroupedPbWorkspace ws;
  GroupedTailParams params;
  params.rna_min_trials = 0;
  params.rna_max_abs_error = 1.0;  // always certified
  std::vector<TrialGroup> groups = {{0.1, 5000}, {0.4, 5000}};
  GroupedTails t =
      GroupedPoissonBinomialTails(groups, 2400, params, &ws);
  EXPECT_FALSE(t.exact);
  // The approximation must still be close to the exact tail: mean 2500,
  // k slightly below it, both tails are O(1).
  PoissonBinomial pb(Expand(groups));
  EXPECT_NEAR(t.upper, pb.UpperTailPValue(2400), 5e-3);
  EXPECT_NEAR(t.lower, pb.LowerTailPValue(2400), 5e-3);
}

TEST(GroupedPbTest, RnaGuardFallsBackToExactWhenUncertified) {
  GroupedPbWorkspace ws;
  GroupedTailParams params;
  params.rna_min_trials = 0;
  params.rna_max_abs_error = 0.0;  // Berry-Esseen can never certify
  std::vector<TrialGroup> groups = {{0.3, 50}};
  GroupedTails t = GroupedPoissonBinomialTails(groups, 20, params, &ws);
  EXPECT_TRUE(t.exact);
  PoissonBinomial pb(Expand(groups));
  EXPECT_NEAR(t.upper, pb.UpperTailPValue(20), 1e-12);
}

}  // namespace
}  // namespace ftl::stats

namespace ftl::core {
namespace {

traj::Record R(double x, double y, traj::Timestamp t) {
  return traj::Record{{x, y}, t};
}

// ----------------------------- bucket evidence vs per-segment evidence

/// Field-by-field equality of two bucket histograms over the
/// informative units (the paper form leaves the overflow slot empty).
void ExpectSameEvidence(const BucketEvidence& got, const BucketEvidence& want,
                        const std::string& what) {
  EXPECT_EQ(got.informative, want.informative) << what;
  EXPECT_EQ(got.k_observed, want.k_observed) << what;
  EXPECT_EQ(got.total_mutual, want.total_mutual) << what;
  EXPECT_EQ(got.beyond_horizon_incompatible, want.beyond_horizon_incompatible)
      << what;
  ASSERT_EQ(got.horizon_units(), want.horizon_units()) << what;
  for (size_t u = 0; u < got.horizon_units(); ++u) {
    EXPECT_EQ(got.count[u], want.count[u]) << what << " unit " << u;
    EXPECT_EQ(got.incompatible[u], want.incompatible[u])
        << what << " unit " << u;
  }
}

TEST(BucketEvidenceTest, MatchesPerSegmentCollectionOnRandomPairs) {
  // The one evidence walk, read through both storage layouts, against
  // the paper-form per-segment collection folded into buckets. The
  // inputs reach the walk's corners: duplicate timestamps within and
  // across P and Q (the P-first tie rule), empty and single-record
  // sides, odd and long runs, spans far past 2^31 s, a time unit past
  // 2^32 s, a zero horizon (every segment overflows) and a zero speed.
  const EvidenceOptions option_sets[] = {
      {20.0, 60, 12},
      {33.3, 60, 60},               // production shape
      {0.0, 1, 0},                  // zero speed, zero horizon
      {1.0, 7, 3},                  // odd unit, tiny horizon
      {33.3, int64_t{1} << 33, 60}  // unit past 2^32 s
  };
  const size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 13, 64, 65, 127, 200};
  Rng rng(11);
  // Sorted records from a shared time base; 20% zero steps.
  auto random_records = [&rng](size_t n, int64_t max_step) {
    std::vector<traj::Record> out;
    int64_t t = 1'000'000;
    for (size_t i = 0; i < n; ++i) {
      if (!rng.Bernoulli(0.2)) t += rng.UniformInt(0, max_step);
      out.push_back(R(rng.Uniform(-5000, 5000), rng.Uniform(-5000, 5000), t));
    }
    return out;
  };
  BucketEvidence aos, soa, reference;
  for (int trial = 0; trial < 300; ++trial) {
    const EvidenceOptions& options = option_sets[trial % 5];
    const int64_t max_step = trial % 3 == 2 ? int64_t{1} << 40 : 150;
    const size_t np = lengths[rng.Index(std::size(lengths))];
    const size_t nq = lengths[rng.Index(std::size(lengths))];
    traj::TrajectoryDatabase pdb("p"), qdb("q");
    ASSERT_TRUE(
        pdb.Add(traj::Trajectory("p", 0, random_records(np, max_step))).ok());
    ASSERT_TRUE(
        qdb.Add(traj::Trajectory("q", 1, random_records(nq, max_step))).ok());
    const traj::FlatDatabase pflat = traj::FlatDatabase::FromDatabase(pdb);
    const traj::FlatDatabase qflat = traj::FlatDatabase::FromDatabase(qdb);
    const traj::Trajectory& p = pdb[0];
    const traj::Trajectory& q = qdb[0];

    CollectEvidence(p, q, options, &aos);
    CollectEvidence(pflat[0], qflat[0], options, &soa);
    CompactEvidence(CollectEvidence(p, q, options),
                    static_cast<size_t>(options.horizon_units), &reference);
    const std::string what = "trial " + std::to_string(trial) +
                             " np=" + std::to_string(np) +
                             " nq=" + std::to_string(nq);
    ExpectSameEvidence(aos, reference, what + " (AoS)");
    ExpectSameEvidence(soa, reference, what + " (SoA)");
    // The layouts agree on the overflow slot too.
    EXPECT_EQ(soa.count, aos.count) << what;
    EXPECT_EQ(soa.incompatible, aos.incompatible) << what;
  }
}

TEST(BucketEvidenceTest, GroupsUnderSkipsEmptyUnits) {
  BucketEvidence ev;
  ev.Reset(6);
  ev.count[1] = 4;
  ev.count[5] = 2;
  ev.informative = 6;
  CompatibilityModel model(60, {0.9, 0.8, 0.7, 0.6, 0.5, 0.4});
  std::vector<stats::TrialGroup> groups;
  ev.GroupsUnder(model, &groups);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_DOUBLE_EQ(groups[0].p, 0.8);
  EXPECT_EQ(groups[0].count, 4);
  EXPECT_DOUBLE_EQ(groups[1].p, 0.4);
  EXPECT_EQ(groups[1].count, 2);
}

// -------------------------------------- fast-reject decision identity

TEST(AlphaFilterFastRejectTest, DecisionsMatchExactPath) {
  // The Chernoff-KL bound may only fire when it proves p1 < alpha1, and
  // the p2 floor only when it proves p2 >= alpha2, so accept decisions
  // with fast_reject on and off must be identical on any evidence. A
  // pair the floor decides has no p1: for those the exact path must
  // reject, with a p2 the floor does not exceed.
  Rng rng(23);
  ModelPair models;
  models.rejection = CompatibilityModel(
      60, {0.02, 0.03, 0.05, 0.08, 0.10, 0.12, 0.15, 0.20});
  models.acceptance = CompatibilityModel(
      60, {0.60, 0.62, 0.65, 0.70, 0.72, 0.75, 0.80, 0.85});
  AlphaFilterParams fast_params;
  AlphaFilterParams exact_params;
  exact_params.fast_reject = false;
  const AcceptanceFloor floor(models.acceptance, 8);
  AlphaFilter fast(models, fast_params, &floor);
  AlphaFilter chernoff(models, fast_params);
  AlphaFilter exact(models, exact_params);
  stats::GroupedPbWorkspace ws;
  BucketEvidence ev;
  int floor_decided = 0;
  // The first 200 trials draw long histograms, which Chernoff or the
  // exact path decide; the next 200 short ones, which the floor can.
  for (int trial = 0; trial < 400; ++trial) {
    const int32_t max_count = trial < 200 ? 15 : 2;
    ev.Reset(8);
    for (size_t u = 0; u < 8; ++u) {
      int32_t n = static_cast<int32_t>(rng.UniformInt(0, max_count));
      ev.count[u] = n;
      ev.incompatible[u] =
          static_cast<int32_t>(rng.UniformInt(0, n));
      ev.informative += n;
      ev.k_observed += ev.incompatible[u];
    }
    AlphaFilterDecision a = fast.Classify(ev, &ws);
    AlphaFilterDecision b = exact.Classify(ev, &ws);
    EXPECT_EQ(a.accepted, b.accepted) << "trial " << trial;
    if (a.fast_rejected && !chernoff.Classify(ev, &ws).fast_rejected) {
      ++floor_decided;
      EXPECT_FALSE(b.accepted) << "trial " << trial;
      EXPECT_FALSE(a.survived_rejection) << "trial " << trial;
      EXPECT_GE(a.p2, fast_params.alpha2) << "trial " << trial;
      if (b.survived_rejection) {
        // Pr(K <= min(k, 1)) <= p2, up to the float error the margin
        // bounds (equal in exact arithmetic at k <= 1).
        EXPECT_LE(a.p2, b.p2 * floor.margin_factor()) << "trial " << trial;
      }
      continue;
    }
    EXPECT_EQ(a.survived_rejection, b.survived_rejection)
        << "trial " << trial << " k=" << ev.k_observed;
    if (a.survived_rejection) {
      // Survivors take the exact path in both configurations.
      EXPECT_DOUBLE_EQ(a.p1, b.p1);
      EXPECT_DOUBLE_EQ(a.p2, b.p2);
    } else {
      // A fast-rejected candidate reports the bound, which upper-bounds
      // the exact p1.
      EXPECT_GE(a.p1 + 1e-15, b.p1) << "trial " << trial;
    }
  }
  EXPECT_GT(floor_decided, 0);
}

// ----------------------------------------- certified alpha2 rejection

/// A pair whose 2m - 1 mutual segments all fall in unit 1 (P and Q
/// interleave 60 s apart, co-located); with `one_incompatible` Q's last
/// record is far away, so exactly one segment is incompatible.
struct FloorPair {
  traj::TrajectoryDatabase p{"p"};
  traj::TrajectoryDatabase q{"q"};
};

FloorPair MakeFloorPair(int m, bool one_incompatible) {
  std::vector<traj::Record> pr, qr;
  for (int i = 0; i < m; ++i) {
    pr.push_back(R(0, 0, i * 120));
    const double x = one_incompatible && i == m - 1 ? 1e6 : 10;
    qr.push_back(R(x, 0, i * 120 + 60));
  }
  FloorPair fp;
  EXPECT_TRUE(fp.p.Add(traj::Trajectory("p", 0, std::move(pr))).ok());
  EXPECT_TRUE(fp.q.Add(traj::Trajectory("q", 1, std::move(qr))).ok());
  return fp;
}

EngineOptions FloorEngineOptions(double alpha2) {
  EngineOptions o;
  o.training.horizon_units = 10;
  o.alpha.alpha1 = 0.01;
  o.alpha.alpha2 = alpha2;
  return o;
}

AlphaFilterParams Alphas(double alpha1, double alpha2) {
  AlphaFilterParams params;
  params.alpha1 = alpha1;
  params.alpha2 = alpha2;
  return params;
}

ModelPair FloorModels() {
  ModelPair m;
  m.rejection = CompatibilityModel(60, std::vector<double>(10, 0.02));
  m.acceptance = CompatibilityModel(60, std::vector<double>(10, 0.5));
  return m;
}

int64_t FastRejects() {
  return obs::MetricsRegistry::Global()
      .GetCounter("ftl_query_fast_reject_total")
      .Value();
}

/// Engines over the same models whose alpha2 puts a pair's floor just
/// outside and just inside the certified margin, on both sides of
/// alpha2: the floor decides only outside, above alpha2, and the served
/// decision is always the paper's. With k = 1 the floor is Pr(K <= 1),
/// with k = 0 Pr(K = 0); each equals the exact p2, so alpha2 inside the
/// margin below the floor separates an accepted pair from a certified
/// rejection by less than the margin.
TEST(AlphaFilterCertifiedRejectTest, DecisionsWithinTheMarginAreExact) {
  const ModelPair models = FloorModels();
  constexpr size_t kHorizon = 10;
  const double margin = 1400.0 * 0x1p-53 * (kHorizon + 11.0);
  const AcceptanceFloor floor(models.acceptance, kHorizon);
  EXPECT_EQ(floor.margin_factor(), 1.0 + margin);
  const EvidenceOptions ev_opts = EvidenceOptionsFor(
      FloorEngineOptions(0.1).training);
  for (bool one_incompatible : {false, true}) {
    const FloorPair fp = MakeFloorPair(3, one_incompatible);
    const traj::Trajectory& p = fp.p[0];
    const MutualSegmentEvidence segs = CollectEvidence(p, fp.q[0], ev_opts);
    ASSERT_EQ(segs.size(), 5u);
    ASSERT_EQ(segs.ObservedIncompatible(), one_incompatible ? 1 : 0);
    BucketEvidence hist;
    CollectEvidence(p, fp.q[0], ev_opts, &hist);
    // The paper's p2 (per-trial DP): 1/32 at k = 0, 6/32 at k = 1.
    const double p2 = AlphaFilter(models, Alphas(0.01, 0.1)).Classify(segs).p2;
    EXPECT_NEAR(p2, one_incompatible ? 6.0 / 32 : 1.0 / 32, 1e-15);
    struct Case {
      double alpha2;
      bool certified;
      bool accepted;
    };
    const Case cases[] = {
        {p2 * (1 - 2 * margin), true, false},   // outside, floor above
        {p2 * (1 - margin / 2), false, false},  // inside, floor above
        {p2 * (1 + margin / 2), false, true},   // inside, floor below
        {p2 * (1 + 2 * margin), false, true},   // outside, floor below
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message()
                   << "k " << segs.ObservedIncompatible() << ", alpha2 "
                   << std::hexfloat << c.alpha2);
      double f = 0.0;
      EXPECT_EQ(floor.CertainlyRejects(hist, c.alpha2, 4096, &f),
                c.certified);
      const AlphaFilterDecision paper =
          AlphaFilter(models, Alphas(0.01, c.alpha2)).Classify(segs);
      EXPECT_EQ(paper.accepted, c.accepted);
      FtlEngine engine(FloorEngineOptions(c.alpha2));
      engine.SetModels(models);
      const int64_t fast0 = FastRejects();
      auto r = engine.QueryWithCandidates(p, fp.q, {0},
                                          Matcher::kAlphaFilter);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(FastRejects() - fast0, c.certified ? 1 : 0);
      const std::vector<MatchCandidate>& got = r.value().candidates;
      ASSERT_EQ(got.size(), paper.accepted ? 1u : 0u);
      if (paper.accepted) {
        EXPECT_NEAR(got[0].p2, paper.p2, 1e-13);
        EXPECT_NEAR(got[0].p1, paper.p1, 1e-13);
      }
    }
  }
}

/// Inputs outside the floor's derivation never certify, whatever the
/// floor would read: a probability of 1, 0 or NaN anywhere in the
/// table, alpha2 above 1, a pair the RNA might answer, P0 below e^-690
/// and evidence of another horizon.
TEST(AlphaFilterCertifiedRejectTest, DegenerateInputsNeverCertify) {
  BucketEvidence ev;
  ev.Reset(3);
  ev.count[1] = 2;
  ev.informative = 2;
  double f = 0.0;
  const AcceptanceFloor valid(CompatibilityModel(60, {0.5, 0.5, 0.5}), 3);
  ASSERT_TRUE(valid.CertainlyRejects(ev, 0.1, 4096, &f));
  EXPECT_NEAR(f, 0.25, 1e-15);
  for (double bad : {1.0, 0.0, std::nan("")}) {
    SCOPED_TRACE(testing::Message() << "p_1 = " << bad);
    const AcceptanceFloor floor(CompatibilityModel(60, {0.5, bad, 0.5}), 3);
    EXPECT_FALSE(floor.CertainlyRejects(ev, 0.0, 4096, &f));
  }
  // A model shorter than the evidence horizon has p = 0 beyond it.
  EXPECT_FALSE(AcceptanceFloor(CompatibilityModel(60, {0.5, 0.5}), 3)
                   .CertainlyRejects(ev, 0.0, 4096, &f));
  EXPECT_FALSE(valid.CertainlyRejects(ev, 1.5, 4096, &f));
  EXPECT_FALSE(valid.CertainlyRejects(ev, std::nan(""), 4096, &f));
  EXPECT_FALSE(valid.CertainlyRejects(ev, 0.1, 2, &f));
  EXPECT_TRUE(valid.CertainlyRejects(ev, 0.1, 3, &f));
  BucketEvidence other;
  other.Reset(4);
  EXPECT_FALSE(valid.CertainlyRejects(other, 0.0, 4096, &f));
  ev.count[1] = 1000;
  ev.informative = 1000;
  EXPECT_FALSE(valid.CertainlyRejects(ev, 0.0, 4096, &f));  // P0 = 2^-1000
  EXPECT_FALSE(AcceptanceFloor().CertainlyRejects(ev, 0.0, 4096, &f));

  // Served decisions over the degenerate models are the paper's.
  const FloorPair fp = MakeFloorPair(3, false);
  for (double bad : {1.0, 0.0}) {
    ModelPair models = FloorModels();
    std::vector<double> probs(10, 0.5);
    probs[1] = bad;
    models.acceptance = CompatibilityModel(60, probs);
    const EvidenceOptions ev_opts = EvidenceOptionsFor(
        FloorEngineOptions(0.1).training);
    const AlphaFilterDecision paper =
        AlphaFilter(models, Alphas(0.01, 0.1))
            .Classify(CollectEvidence(fp.p[0], fp.q[0], ev_opts));
    FtlEngine engine(FloorEngineOptions(0.1));
    engine.SetModels(models);
    const int64_t fast0 = FastRejects();
    auto r = engine.QueryWithCandidates(fp.p[0], fp.q, {0},
                                        Matcher::kAlphaFilter);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(FastRejects(), fast0) << "p_1 = " << bad;
    EXPECT_EQ(r.value().candidates.size(), paper.accepted ? 1u : 0u)
        << "p_1 = " << bad;
  }
}

/// dense_query's population (SD, 200 objects, blocking off, the served
/// alpha filter): an engine with fast_reject on and one with it off,
/// over the same models, serve byte-identical results for every P
/// label, while the bounds decide most pairs.
TEST(AlphaFilterCertifiedRejectTest, DenseQueryResultsMatchExactPath) {
  for (uint64_t seed : {9231u, 101u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const sim::DatasetPair data =
        sim::BuildDataset(sim::FindConfig("SD"), 200, seed);
    EngineOptions o;
    o.alpha.alpha1 = 0.01;
    o.alpha.alpha2 = 0.1;
    FtlEngine fast(o);
    ASSERT_TRUE(fast.Train(data.p, data.q).ok());
    o.alpha.fast_reject = false;
    FtlEngine exact(o);
    exact.SetModels(fast.models());
    const int64_t fast0 = FastRejects();
    size_t pairs = 0;
    for (const traj::Trajectory& query : data.p) {
      auto a = fast.Query(query, data.q, Matcher::kAlphaFilter);
      auto b = exact.Query(query, data.q, Matcher::kAlphaFilter);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(io::QueryResultToJson(query.label(), a.value()),
                io::QueryResultToJson(query.label(), b.value()))
          << query.label();
      pairs += data.q.size();
    }
    EXPECT_GT(static_cast<double>(FastRejects() - fast0),
              0.9 * static_cast<double>(pairs));
  }
}

}  // namespace
}  // namespace ftl::core
