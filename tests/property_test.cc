#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/alpha_filter.h"
#include "core/engine.h"
#include "core/model_diagnostics.h"
#include "core/naive_bayes.h"
#include "eval/sweep.h"
#include "io/csv.h"
#include "sim/population_sim.h"
#include "stats/descriptive.h"
#include "stats/poisson_binomial.h"
#include "traj/alignment.h"
#include "util/rng.h"

namespace ftl {
namespace {

using core::CompatibilityModel;
using core::ModelPair;
using core::MutualSegmentEvidence;

/// Draws evidence FROM a model: buckets uniform in [0, buckets), bits
/// Bernoulli with the model's per-bucket probability.
MutualSegmentEvidence DrawEvidence(Rng* rng, const CompatibilityModel& m,
                                   size_t n) {
  MutualSegmentEvidence ev;
  for (size_t i = 0; i < n; ++i) {
    int32_t unit = static_cast<int32_t>(rng->Index(m.probs().size()));
    ev.units.push_back(unit);
    ev.incompatible.push_back(
        rng->Bernoulli(m.IncompatProbByUnit(unit)) ? 1 : 0);
  }
  ev.total_mutual = static_cast<int64_t>(n);
  return ev;
}

ModelPair RealisticModels() {
  // Decaying acceptance probabilities, small flat rejection noise —
  // the shape real training produces.
  std::vector<double> rej(20, 0.02);
  std::vector<double> acc(20);
  for (size_t i = 0; i < acc.size(); ++i) {
    acc[i] = 0.85 * std::exp(-static_cast<double>(i) / 8.0);
  }
  ModelPair m;
  m.rejection = CompatibilityModel(60, rej);
  m.acceptance = CompatibilityModel(60, acc);
  return m;
}

/// Statistical soundness of the α1-rejection phase: when evidence truly
/// comes from the rejection model (same person), the false-rejection
/// rate at level α must be <= α (discrete tests are conservative).
class RejectionCalibrationTest : public ::testing::TestWithParam<double> {};

TEST_P(RejectionCalibrationTest, FalseRejectionBoundedByAlpha) {
  double alpha = GetParam();
  ModelPair models = RealisticModels();
  Rng rng(static_cast<uint64_t>(alpha * 1e6) + 17);
  const int trials = 4000;
  int rejected = 0;
  for (int t = 0; t < trials; ++t) {
    auto ev = DrawEvidence(&rng, models.rejection, 30);
    stats::PoissonBinomial dist(ev.ProbsUnder(models.rejection));
    double p1 = dist.UpperTailPValue(ev.ObservedIncompatible());
    if (p1 < alpha) ++rejected;
  }
  double rate = static_cast<double>(rejected) / trials;
  // Conservative test: rate <= alpha + 3 binomial sigmas.
  double sigma = std::sqrt(alpha * (1 - alpha) / trials);
  EXPECT_LE(rate, alpha + 3 * sigma + 1e-9) << "alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(Alphas, RejectionCalibrationTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25));

/// Power: when evidence comes from the acceptance model (different
/// persons), the rejection phase should fire almost always at any
/// reasonable level.
TEST(PowerTest, DifferentPersonEvidenceIsRejected) {
  ModelPair models = RealisticModels();
  Rng rng(23);
  const int trials = 1000;
  int rejected = 0;
  for (int t = 0; t < trials; ++t) {
    auto ev = DrawEvidence(&rng, models.acceptance, 30);
    stats::PoissonBinomial dist(ev.ProbsUnder(models.rejection));
    if (dist.UpperTailPValue(ev.ObservedIncompatible()) < 0.01) {
      ++rejected;
    }
  }
  EXPECT_GT(static_cast<double>(rejected) / trials, 0.95);
}

/// Acceptance-phase power: same-person evidence yields small p2.
TEST(PowerTest, SamePersonEvidenceIsAccepted) {
  ModelPair models = RealisticModels();
  Rng rng(29);
  const int trials = 1000;
  int accepted = 0;
  for (int t = 0; t < trials; ++t) {
    auto ev = DrawEvidence(&rng, models.rejection, 30);
    stats::PoissonBinomial dist(ev.ProbsUnder(models.acceptance));
    if (dist.LowerTailPValue(ev.ObservedIncompatible()) < 0.05) {
      ++accepted;
    }
  }
  EXPECT_GT(static_cast<double>(accepted) / trials, 0.95);
}

/// Eq. 2 score behaves monotonically in the incompatible count.
TEST(ScoreMonotonicityTest, MoreIncompatibleLowersScore) {
  ModelPair models = RealisticModels();
  const size_t n = 25;
  double prev = 2.0;
  for (size_t k = 0; k <= n; k += 5) {
    MutualSegmentEvidence ev;
    for (size_t i = 0; i < n; ++i) {
      ev.units.push_back(3);
      ev.incompatible.push_back(i < k ? 1 : 0);
    }
    stats::PoissonBinomial rej(ev.ProbsUnder(models.rejection));
    stats::PoissonBinomial acc(ev.ProbsUnder(models.acceptance));
    int64_t kk = ev.ObservedIncompatible();
    double score = rej.UpperTailPValue(kk) *
                   (1.0 - acc.LowerTailPValue(kk));
    EXPECT_LE(score, prev + 1e-12) << "k=" << k;
    prev = score;
  }
}

// ----------------------------------------------------- ModelDiagnostics

TEST(ModelDiagnosticsTest, SeparableModelsScoreHigh) {
  auto d = core::DiagnoseModels(RealisticModels());
  EXPECT_GT(d.mean_js_bits, 0.1);
  EXPECT_LT(d.segments_for_decisive_link, 100.0);
  EXPECT_NE(d.ToString().find("mean_js_bits"), std::string::npos);
}

TEST(ModelDiagnosticsTest, IdenticalModelsScoreZero) {
  ModelPair m;
  m.rejection = CompatibilityModel(60, std::vector<double>(10, 0.3));
  m.acceptance = CompatibilityModel(60, std::vector<double>(10, 0.3));
  auto d = core::DiagnoseModels(m);
  EXPECT_NEAR(d.mean_js_bits, 0.0, 1e-9);
  EXPECT_TRUE(std::isinf(d.segments_for_decisive_link) ||
              d.segments_for_decisive_link > 1e6);
  EXPECT_EQ(d.inverted_buckets, 10u);  // pa <= pr everywhere
}

TEST(ModelDiagnosticsTest, CountsInvertedBuckets) {
  ModelPair m;
  m.rejection = CompatibilityModel(60, {0.1, 0.5, 0.1});
  m.acceptance = CompatibilityModel(60, {0.8, 0.2, 0.9});
  auto d = core::DiagnoseModels(m);
  EXPECT_EQ(d.inverted_buckets, 1u);  // middle bucket
  ASSERT_EQ(d.bucket_js_bits.size(), 3u);
  EXPECT_GT(d.bucket_js_bits[0], d.bucket_js_bits[1]);
}

TEST(ModelDiagnosticsTest, SupportWeighting) {
  // Same probs; concentrating support on the separable bucket raises
  // the weighted mean.
  ModelPair m;
  m.rejection = CompatibilityModel(60, {0.02, 0.02});
  m.acceptance = CompatibilityModel(60, {0.9, 0.03});
  m.rejection.set_support({1000, 1});
  double high = core::DiagnoseModels(m).mean_js_bits;
  m.rejection.set_support({1, 1000});
  double low = core::DiagnoseModels(m).mean_js_bits;
  EXPECT_GT(high, low);
}

// ------------------------------------------------------- CSV fuzzing

/// Round-trip property over randomized databases.
class CsvFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzzTest, RoundTripPreservesEverything) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  traj::TrajectoryDatabase db("fuzz");
  size_t n_traj = 1 + rng.Index(8);
  for (size_t i = 0; i < n_traj; ++i) {
    std::vector<traj::Record> recs;
    size_t n_rec = rng.Index(30);
    int64_t t = -5000 + static_cast<int64_t>(rng.Index(10000));
    for (size_t j = 0; j < n_rec; ++j) {
      t += rng.UniformInt(0, 1000);
      recs.push_back(traj::Record{
          {rng.Uniform(-1e6, 1e6), rng.Uniform(-1e6, 1e6)}, t});
    }
    traj::OwnerId owner = rng.Bernoulli(0.2)
                              ? traj::kUnknownOwner
                              : static_cast<traj::OwnerId>(rng.Index(100));
    (void)db.Add(traj::Trajectory("fz-" + std::to_string(i), owner,
                                  std::move(recs)));
  }
  auto parsed = io::FromCsvString(io::ToCsvString(db), "fuzz");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& out = parsed.value();
  // Empty trajectories vanish in CSV (no rows); compare non-empty ones.
  size_t non_empty = 0;
  for (const auto& t : db) {
    if (t.empty()) continue;
    ++non_empty;
    size_t oi = out.Find(t.label());
    ASSERT_NE(oi, traj::TrajectoryDatabase::npos) << t.label();
    const auto& o = out[oi];
    EXPECT_EQ(o.owner(), t.owner());
    ASSERT_EQ(o.size(), t.size());
    for (size_t j = 0; j < t.size(); ++j) {
      EXPECT_EQ(o[j].t, t[j].t);
      EXPECT_NEAR(o[j].location.x, t[j].location.x, 1e-3);
      EXPECT_NEAR(o[j].location.y, t[j].location.y, 1e-3);
    }
  }
  EXPECT_EQ(out.size(), non_empty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest, ::testing::Range(0, 12));

// ------------------------------------------- alignment brute-force fuzz

/// Mutual-segment counting vs an independent brute-force reference.
class AlignmentFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AlignmentFuzzTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  std::vector<traj::Record> pr, qr;
  size_t np = rng.Index(25), nq = rng.Index(25);
  int64_t t = 0;
  for (size_t i = 0; i < np; ++i) {
    t += rng.UniformInt(1, 50);
    pr.push_back(traj::Record{{0, 0}, t});
  }
  t = static_cast<int64_t>(rng.Index(40));
  for (size_t i = 0; i < nq; ++i) {
    t += rng.UniformInt(1, 50);
    qr.push_back(traj::Record{{0, 0}, t});
  }
  traj::Trajectory p("p", 0, pr), q("q", 1, qr);

  // Brute force: tag, concatenate, stable-sort, count alternations.
  struct Tagged {
    int64_t t;
    int src;
  };
  std::vector<Tagged> all;
  for (const auto& r : pr) all.push_back({r.t, 0});
  for (const auto& r : qr) all.push_back({r.t, 1});
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     // Reproduce the P-first tie break: stable sort of
                     // P-then-Q concatenation by time.
                     return a.t < b.t;
                   });
  size_t brute = 0;
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].src != all[i - 1].src) ++brute;
  }
  size_t mutual = 0;
  traj::VisitMutualSegments(p, q, [&mutual](const traj::Segment&) {
    ++mutual;
  });
  EXPECT_EQ(mutual, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignmentFuzzTest, ::testing::Range(0, 16));

// ------------------------------------- Naïve-Bayes log tables vs std::log

/// Direct-std::log reference of everything the Naïve-Bayes log table
/// feeds: the classifier, the engine's NB blocking guarantee and the
/// sweep's log-likelihood ratio, each taking std::log of the clamped
/// model probabilities inline. The table must reproduce these bit for
/// bit.
namespace nb_reference {

double Clamped(const CompatibilityModel& model, int64_t unit, double floor) {
  double s = model.IncompatProbByUnit(unit);
  return std::min(1.0 - floor, std::max(floor, s));
}

double LogLikelihood(const core::BucketEvidence& ev,
                     const CompatibilityModel& model, double floor) {
  double ll = 0.0;
  for (size_t u = 0; u < ev.horizon_units(); ++u) {
    int32_t n_u = ev.count[u];
    if (n_u == 0) continue;
    double s = Clamped(model, static_cast<int64_t>(u), floor);
    int32_t inc = ev.incompatible[u];
    ll += static_cast<double>(inc) * std::log(s) +
          static_cast<double>(n_u - inc) * std::log(1.0 - s);
  }
  return ll;
}

double LogLikelihood(const MutualSegmentEvidence& ev,
                     const CompatibilityModel& model, double floor) {
  double ll = 0.0;
  for (size_t i = 0; i < ev.size(); ++i) {
    double s = Clamped(model, ev.units[i], floor);
    ll += ev.incompatible[i] ? std::log(s) : std::log(1.0 - s);
  }
  return ll;
}

template <typename Evidence>
core::NaiveBayesDecision Classify(const Evidence& ev, const ModelPair& models,
                                  const core::NaiveBayesParams& params) {
  core::NaiveBayesDecision d;
  double phi_r = std::min(1.0 - 1e-12, std::max(1e-12, params.phi_r));
  d.log_post_same = std::log(phi_r) +
                    LogLikelihood(ev, models.rejection, params.prob_floor);
  d.log_post_diff = std::log(1.0 - phi_r) +
                    LogLikelihood(ev, models.acceptance, params.prob_floor);
  d.same_person = d.log_post_same >= d.log_post_diff;
  return d;
}

core::BlockingGuarantee Guarantee(const core::FtlEngine& engine) {
  core::BlockingGuarantee g;
  const core::EvidenceOptions ev = engine.evidence_options();
  const int64_t tu = std::max<int64_t>(ev.time_unit_seconds, 1);
  g.horizon_seconds =
      std::max<int64_t>(0, ev.horizon_units * tu - tu / 2 - 1);
  constexpr uint64_t kNever = uint64_t{1} << 62;
  const core::NaiveBayesParams& params = engine.options().naive_bayes;
  const double phi = std::min(1.0 - 1e-12, std::max(1e-12, params.phi_r));
  const double prior_gap = std::log(1.0 - phi) - std::log(phi);
  if (prior_gap <= 0.0) {
    g.min_segments = 0;
    return g;
  }
  double best = -std::numeric_limits<double>::infinity();
  for (int64_t u = 0; u < ev.horizon_units; ++u) {
    double sr = Clamped(engine.models().rejection, u, params.prob_floor);
    double sa = Clamped(engine.models().acceptance, u, params.prob_floor);
    best = std::max(best, std::log(sr) - std::log(sa));
    best = std::max(best, std::log(1.0 - sr) - std::log(1.0 - sa));
  }
  if (!(best > 0.0)) {
    g.min_segments = kNever;
    return g;
  }
  const double n_min = (prior_gap - 1e-6) / best;
  g.min_segments =
      n_min <= 1.0 ? 1
                   : static_cast<uint64_t>(std::min<double>(
                         std::ceil(n_min), static_cast<double>(kNever)));
  return g;
}

}  // namespace nb_reference

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameDecision(const core::NaiveBayesDecision& got,
                        const core::NaiveBayesDecision& want,
                        const std::string& where) {
  EXPECT_EQ(Bits(got.log_post_same), Bits(want.log_post_same)) << where;
  EXPECT_EQ(Bits(got.log_post_diff), Bits(want.log_post_diff)) << where;
  EXPECT_EQ(got.same_person, want.same_person) << where;
}

/// One bucket probability, drawn to hit the clamp's edges as often as
/// its interior.
double DrawProbability(Rng* rng) {
  switch (rng->Index(6)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return rng->Uniform(0.0, 1e-7);
    case 3: return 1.0 - rng->Uniform(0.0, 1e-7);
    default: return rng->Uniform(0.0, 1.0);
  }
}

/// A model of `len` buckets; with support counts, some unsupported
/// zero buckets that SetModels / RepairUnsupportedBuckets backfill.
CompatibilityModel DrawModel(Rng* rng, size_t len, bool repair) {
  std::vector<double> probs(len);
  std::vector<int64_t> support(len);
  for (size_t u = 0; u < len; ++u) {
    bool unsupported = rng->Bernoulli(0.3);
    probs[u] = unsupported ? 0.0 : DrawProbability(rng);
    support[u] = unsupported ? 0 : rng->UniformInt(1, 500);
  }
  CompatibilityModel m(60, std::move(probs));
  m.set_support(std::move(support));
  if (repair) m.RepairUnsupportedBuckets();
  return m;
}

core::NaiveBayesParams DrawParams(Rng* rng) {
  const double phis[] = {0.0, 1e-15, 1e-4, 0.01, 0.5, 0.9, 1.0};
  const double floors[] = {1e-6, 1e-3, 1e-12};
  core::NaiveBayesParams p;
  p.phi_r = rng->Bernoulli(0.3) ? rng->Uniform(0.0, 1.0) : phis[rng->Index(7)];
  p.prob_floor = floors[rng->Index(3)];
  return p;
}

/// A random histogram over `horizon` units (plus junk in the overflow
/// slot, which no consumer may read).
core::BucketEvidence DrawHistogram(Rng* rng, size_t horizon) {
  core::BucketEvidence ev;
  ev.Reset(horizon);
  for (size_t u = 0; u <= horizon; ++u) {
    if (rng->Bernoulli(0.5)) continue;
    ev.count[u] = static_cast<int32_t>(rng->UniformInt(1, 40));
    ev.incompatible[u] = static_cast<int32_t>(rng->UniformInt(0, ev.count[u]));
    if (u == horizon) continue;
    ev.informative += ev.count[u];
    ev.k_observed += ev.incompatible[u];
  }
  return ev;
}

/// Per-segment evidence, units reaching below 0 and past every
/// model's horizon.
MutualSegmentEvidence DrawSegments(Rng* rng, size_t horizon) {
  MutualSegmentEvidence ev;
  size_t n = rng->Index(60);
  for (size_t i = 0; i < n; ++i) {
    ev.units.push_back(static_cast<int32_t>(
        rng->UniformInt(-2, static_cast<int64_t>(horizon) + 5)));
    ev.incompatible.push_back(rng->Bernoulli(0.3) ? 1 : 0);
  }
  ev.total_mutual = static_cast<int64_t>(n);
  return ev;
}

class NaiveBayesTableTest : public ::testing::TestWithParam<int> {};

TEST_P(NaiveBayesTableTest, ClassifyBitIdenticalToDirectLogs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t horizon = 1 + rng.Index(70);
    ModelPair models;
    // Model lengths straddle the evidence horizon: shorter models
    // leave units the classifier must score as s = 0.
    models.rejection = DrawModel(&rng, rng.Index(horizon + 8), true);
    models.acceptance = DrawModel(&rng, rng.Index(horizon + 8), true);
    const core::NaiveBayesParams params = DrawParams(&rng);
    const core::NaiveBayesMatcher nb(models, params);
    for (int i = 0; i < 25; ++i) {
      const std::string where = "trial " + std::to_string(trial) +
                                " case " + std::to_string(i);
      core::BucketEvidence hist = DrawHistogram(&rng, horizon);
      ExpectSameDecision(nb.Classify(hist),
                         nb_reference::Classify(hist, models, params),
                         "histogram " + where);
      MutualSegmentEvidence segs = DrawSegments(&rng, horizon);
      ExpectSameDecision(nb.Classify(segs),
                         nb_reference::Classify(segs, models, params),
                         "segments " + where);
    }
  }
}

TEST_P(NaiveBayesTableTest, BlockingGuaranteeMatchesDirectLogs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6271 + 5);
  for (int trial = 0; trial < 40; ++trial) {
    core::EngineOptions eo;
    eo.training.horizon_units = 1 + static_cast<int64_t>(rng.Index(70));
    eo.naive_bayes = DrawParams(&rng);
    const size_t horizon = static_cast<size_t>(eo.training.horizon_units);
    ModelPair models;
    models.rejection = DrawModel(&rng, rng.Index(horizon + 8), false);
    models.acceptance = DrawModel(&rng, rng.Index(horizon + 8), false);
    core::FtlEngine engine(eo);
    engine.SetModels(models);  // repairs the unsupported buckets
    const core::BlockingGuarantee got =
        engine.DeriveBlockingGuarantee(core::Matcher::kNaiveBayes);
    const core::BlockingGuarantee want = nb_reference::Guarantee(engine);
    EXPECT_EQ(got.horizon_seconds, want.horizon_seconds) << "trial " << trial;
    EXPECT_EQ(got.min_segments, want.min_segments) << "trial " << trial;
  }
}

TEST_P(NaiveBayesTableTest, SweepAndEngineMatchDirectLogs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3571 + 2);
  sim::PopulationOptions po;
  po.num_persons = 8;
  po.duration_days = 2;
  po.cdr_accesses_per_day = 20.0;
  po.transit_accesses_per_day = 20.0;
  po.seed = 500 + static_cast<uint64_t>(GetParam());
  const sim::PopulationData data = sim::SimulatePopulation(po);

  core::EngineOptions eo;
  eo.training.horizon_units = 5 + static_cast<int64_t>(rng.Index(40));
  eo.naive_bayes = DrawParams(&rng);
  const size_t horizon = static_cast<size_t>(eo.training.horizon_units);
  core::FtlEngine engine(eo);
  ModelPair models;
  models.rejection = DrawModel(&rng, rng.Index(horizon + 8), false);
  models.acceptance = DrawModel(&rng, rng.Index(horizon + 8), false);
  engine.SetModels(models);
  const ModelPair& used = engine.models();  // after bucket repair
  const double floor = eo.naive_bayes.prob_floor;

  std::vector<traj::Trajectory> queries(data.cdr_db.begin(),
                                        data.cdr_db.begin() + 3);
  const auto scores = eval::ComputePairScores(engine, queries,
                                              data.transit_db);
  ASSERT_EQ(scores.size(), queries.size());
  core::BucketEvidence ev;
  traj::TrajectoryDatabase query_db;
  for (const traj::Trajectory& q : queries) ASSERT_TRUE(query_db.Add(q).ok());
  const traj::FlatDatabase flat_queries =
      traj::FlatDatabase::FromDatabase(query_db);
  const traj::FlatDatabase flat_db =
      traj::FlatDatabase::FromDatabase(data.transit_db);
  const core::NaiveBayesFastReject bound(engine.naive_bayes(), horizon);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_EQ(scores[qi].size(), data.transit_db.size());
    auto aos = engine.Query(queries[qi], data.transit_db,
                            core::Matcher::kNaiveBayes);
    auto soa = engine.Query(flat_queries[qi], flat_db,
                            core::Matcher::kNaiveBayes);
    ASSERT_TRUE(aos.ok());
    ASSERT_TRUE(soa.ok());
    // Candidate index -> served candidate, per layout.
    std::vector<const core::MatchCandidate*> by_index(data.transit_db.size());
    std::vector<const core::MatchCandidate*> soa_by_index(
        data.transit_db.size());
    for (const core::MatchCandidate& mc : aos.value().candidates) {
      by_index[mc.index] = &mc;
    }
    for (const core::MatchCandidate& mc : soa.value().candidates) {
      soa_by_index[mc.index] = &mc;
    }
    for (size_t ci = 0; ci < data.transit_db.size(); ++ci) {
      core::CollectEvidence(queries[qi], data.transit_db[ci],
                            engine.evidence_options(), &ev);
      const double log_lr =
          nb_reference::LogLikelihood(ev, used.rejection, floor) -
          nb_reference::LogLikelihood(ev, used.acceptance, floor);
      EXPECT_EQ(Bits(scores[qi][ci].log_lr), Bits(log_lr))
          << "query " << qi << " candidate " << ci;
      const core::NaiveBayesDecision want =
          nb_reference::Classify(ev, used, eo.naive_bayes);
      // Wherever the bound decides, the reference rejects too.
      const core::LogRatioSum fast =
          core::SumLogRatios(queries[qi], data.transit_db[ci],
                             engine.evidence_options(), bound.ratios().data());
      EXPECT_EQ(fast.informative, ev.informative);
      EXPECT_FALSE(bound.CertainlyRejects(fast.sum, fast.informative) &&
                   want.same_person)
          << "query " << qi << " candidate " << ci;
      ASSERT_EQ(by_index[ci] != nullptr, want.same_person)
          << "query " << qi << " candidate " << ci;
      ASSERT_EQ(soa_by_index[ci] != nullptr, want.same_person)
          << "soa query " << qi << " candidate " << ci;
      if (want.same_person) {
        EXPECT_EQ(Bits(by_index[ci]->nb_log_odds), Bits(want.LogOdds()))
            << "query " << qi << " candidate " << ci;
        EXPECT_EQ(Bits(soa_by_index[ci]->nb_log_odds), Bits(want.LogOdds()))
            << "soa query " << qi << " candidate " << ci;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveBayesTableTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace ftl
