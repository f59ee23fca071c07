// Candidate-generation study (DESIGN.md §13): measures the
// BlockingIndex's pairs-examined reduction and recall against
// exhaustive scoring at 10k / 100k / 1M candidate trajectories, and
// verifies that guaranteed mode keeps engine results byte-identical.
//
// Each blocked mode gets its own index, holding only the lists that
// mode probes, and reports its index_build_seconds and, apart from its
// total seconds (probe plus scoring), the probe's own probe_seconds.
//
// Emits BENCH_index.json (path overridable via argv[1]), with the
// commit/host/nproc/isa header bench_e2e artifacts carry; CI runs a
// small configuration and asserts the guaranteed gates and that
// aggressive mode prunes:
//   FTL_BENCH_BLOCKING_SCALES   comma list of db sizes
//                               (default "10000,100000,1000000")
//   FTL_BENCH_BLOCKING_QUERIES  queries per scale (default 16)
//
// The fleet model is deliberately lightweight so the 1M scale builds
// in seconds: each candidate is active for one multi-day session at a
// random offset inside a long epoch (people appear in a sensor feed
// for days, not months), so most candidate pairs are temporally
// disjoint and a temporal index genuinely discriminates.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/artifact.h"
#include "bench_common.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace {

using namespace ftl;

struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed * 6364136223846793005ull + 1ull) {}
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  double U() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
};

constexpr int64_t kEpochSeconds = 120ll * 86400;    // observation window
constexpr int64_t kSessionSeconds = 3ll * 86400;    // per-object activity
constexpr double kCityMeters = 40000.0;
constexpr double kStepMeters = 600.0;

/// Owned column storage for a generated FlatDatabase.
struct FleetColumns {
  std::vector<uint64_t> record_offsets;
  std::vector<uint64_t> owners;
  std::vector<uint64_t> label_offsets;
  std::string label_pool;
  std::vector<int64_t> ts;
  std::vector<double> xs;
  std::vector<double> ys;
};

/// One session walk appended to `cols`; phase/jitter distinguish the
/// two channels observing the same underlying object.
void AppendWalk(FleetColumns* cols, Rng* rng, int64_t session_start,
                double hx, double hy, int64_t phase, double jitter) {
  int64_t t = session_start + phase;
  double x = hx;
  double y = hy;
  const int64_t session_end = session_start + kSessionSeconds;
  while (t < session_end) {
    cols->ts.push_back(t);
    cols->xs.push_back(x + (rng->U() - 0.5) * jitter);
    cols->ys.push_back(y + (rng->U() - 0.5) * jitter);
    t += 1800 + static_cast<int64_t>(rng->U() * 3600.0);
    x += (rng->U() - 0.5) * 2.0 * kStepMeters;
    y += (rng->U() - 0.5) * 2.0 * kStepMeters;
    if (x < 0) x = 0;
    if (x > kCityMeters) x = kCityMeters;
    if (y < 0) y = 0;
    if (y > kCityMeters) y = kCityMeters;
  }
}

/// Candidate side: n objects, each one session. The first `nq`
/// objects also get a second-channel trajectory appended to `queries`
/// (same session and home, offset phase) — the true matches.
traj::FlatDatabase MakeFleet(size_t n, size_t nq, uint64_t seed,
                             traj::TrajectoryDatabase* queries) {
  auto cols = std::make_shared<FleetColumns>();
  cols->record_offsets.push_back(0);
  cols->label_offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    Rng rng(seed + i * 2654435761ull);
    const int64_t session_start = static_cast<int64_t>(
        rng.U() * static_cast<double>(kEpochSeconds - kSessionSeconds));
    const double hx = rng.U() * kCityMeters;
    const double hy = rng.U() * kCityMeters;
    AppendWalk(cols.get(), &rng, session_start, hx, hy, /*phase=*/0,
               /*jitter=*/100.0);
    cols->record_offsets.push_back(cols->ts.size());
    cols->owners.push_back(i);
    cols->label_pool += "c" + std::to_string(i);
    cols->label_offsets.push_back(cols->label_pool.size());
    if (i < nq && queries != nullptr) {
      FleetColumns qc;
      qc.record_offsets.push_back(0);
      AppendWalk(&qc, &rng, session_start, hx, hy, /*phase=*/900,
                 /*jitter=*/400.0);
      std::vector<traj::Record> recs;
      recs.reserve(qc.ts.size());
      for (size_t k = 0; k < qc.ts.size(); ++k) {
        recs.push_back(traj::Record{{qc.xs[k], qc.ys[k]}, qc.ts[k]});
      }
      (void)queries->Add(traj::Trajectory("p" + std::to_string(i),
                                          static_cast<traj::OwnerId>(i),
                                          std::move(recs)));
    }
  }
  traj::FlatDatabase::Columns c;
  c.record_offsets = cols->record_offsets.data();
  c.owners = cols->owners.data();
  c.label_offsets = cols->label_offsets.data();
  c.label_pool = cols->label_pool.data();
  c.ts = cols->ts.data();
  c.xs = cols->xs.data();
  c.ys = cols->ys.data();
  c.num_trajectories = n;
  c.num_records = cols->ts.size();
  c.label_pool_size = cols->label_pool.size();
  return traj::FlatDatabase::FromColumns(c, cols, "fleet");
}

bool SameResults(const core::QueryResult& a, const core::QueryResult& b) {
  if (a.candidates.size() != b.candidates.size()) return false;
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    if (a.candidates[i].index != b.candidates[i].index) return false;
    if (std::memcmp(&a.candidates[i].score, &b.candidates[i].score,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct ModeStats {
  uint64_t pairs = 0;
  uint64_t accepted = 0;
  double seconds = 0.0;
  double probe_seconds = 0.0;   // blocking probe alone, inside `seconds`
  double build_seconds = -1.0;  // index build; negative: no index
  uint64_t recall_hits = 0;  // exhaustive-accepted pairs also found here
  bool byte_identical = true;
};

std::vector<size_t> ParseScales(const char* env, size_t nq) {
  std::vector<size_t> scales;
  std::string spec = env != nullptr ? env : "10000,100000,1000000";
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    long v = std::atol(spec.substr(pos, comma - pos).c_str());
    if (v > 0 && static_cast<size_t>(v) >= nq) {
      scales.push_back(static_cast<size_t>(v));
    }
    pos = comma + 1;
  }
  if (scales.empty()) scales.push_back(10000);
  return scales;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_index.json";
  size_t nq = 16;
  if (const char* e = std::getenv("FTL_BENCH_BLOCKING_QUERIES")) {
    long v = std::atol(e);
    if (v > 0) nq = static_cast<size_t>(v);
  }
  std::vector<size_t> scales =
      ParseScales(std::getenv("FTL_BENCH_BLOCKING_SCALES"), nq);
  // window_s is filled in with the run's length.
  Stopwatch run_sw;
  bench_e2e::ArtifactHeader header =
      bench_e2e::MakeArtifactHeader("fleet", bench::BenchSeed(), 0.0);

  // Train once on a small slice: models depend on the mobility regime,
  // not the candidate count, and one engine keeps the guarantee
  // identical across scales.
  traj::TrajectoryDatabase p_small;
  traj::FlatDatabase train_flat =
      MakeFleet(std::max<size_t>(nq, 256), nq, bench::BenchSeed(), &p_small);
  traj::TrajectoryDatabase q_small = train_flat.ToDatabase();
  core::EngineOptions eo;
  core::FtlEngine engine(eo);
  Status st = engine.Train(p_small, q_small);
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const core::BlockingGuarantee guarantee =
      engine.DeriveBlockingGuarantee(core::Matcher::kNaiveBayes);
  std::printf(
      "Blocking study: guaranteed pruning bound = %llu segment(s) within "
      "%lld s horizon; %zu queries; scales:",
      static_cast<unsigned long long>(guarantee.min_segments),
      static_cast<long long>(guarantee.horizon_seconds), nq);
  for (size_t n : scales) std::printf(" %zu", n);
  std::printf("\n\n");

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"blocking_index\",\n"
               "  \"num_queries\": %zu,\n"
               "  \"guarantee\": {\"horizon_seconds\": %lld, "
               "\"min_segments\": %llu},\n  \"scales\": [\n",
               nq, static_cast<long long>(guarantee.horizon_seconds),
               static_cast<unsigned long long>(guarantee.min_segments));

  bool all_identical = true;
  double min_guaranteed_recall = 1.0;
  double worst_guaranteed_reduction = 1e300;
  for (size_t si = 0; si < scales.size(); ++si) {
    const size_t n = scales[si];
    traj::TrajectoryDatabase p_db;
    Stopwatch gen_sw;
    traj::FlatDatabase fleet = MakeFleet(n, nq, bench::BenchSeed(), &p_db);
    const double gen_seconds = gen_sw.ElapsedSeconds();
    traj::FlatDatabase p_flat = traj::FlatDatabase::FromDatabase(p_db);

    // One index per mode, each holding only the lists its probe reads,
    // as a store segment's index does.
    ModeStats ex, gu, ag;
    Stopwatch build_sw;
    const core::BlockingIndex guaranteed_index(fleet, core::BlockingOptions{},
                                               core::BlockingMode::kGuaranteed);
    gu.build_seconds = build_sw.ElapsedSeconds();
    build_sw = Stopwatch();
    const core::BlockingIndex aggressive_index(fleet, core::BlockingOptions{},
                                               core::BlockingMode::kAggressive);
    ag.build_seconds = build_sw.ElapsedSeconds();

    core::BlockingScratch scratch;
    std::vector<size_t> survivors;
    for (size_t qi = 0; qi < nq; ++qi) {
      traj::FlatTrajectoryView qv = p_flat[qi];
      Stopwatch sw;
      auto re = engine.Query(qv, fleet, core::Matcher::kNaiveBayes);
      ex.seconds += sw.ElapsedSeconds();
      if (!re.ok()) {
        std::fprintf(stderr, "exhaustive query failed: %s\n",
                     re.status().ToString().c_str());
        return 1;
      }
      ex.pairs += re.value().evaluated;
      ex.accepted += re.value().candidates.size();
      ex.recall_hits += re.value().candidates.size();

      sw = Stopwatch();
      guaranteed_index.GuaranteedCandidates(qv, guarantee, &scratch,
                                            &survivors);
      gu.probe_seconds += sw.ElapsedSeconds();
      auto rg = engine.QueryWithCandidates(qv, fleet, survivors,
                                           core::Matcher::kNaiveBayes);
      gu.seconds += sw.ElapsedSeconds();
      if (!rg.ok()) {
        std::fprintf(stderr, "guaranteed query failed: %s\n",
                     rg.status().ToString().c_str());
        return 1;
      }
      gu.pairs += rg.value().evaluated;
      gu.accepted += rg.value().candidates.size();
      gu.byte_identical =
          gu.byte_identical && SameResults(re.value(), rg.value());

      sw = Stopwatch();
      aggressive_index.Candidates(qv, &scratch, &survivors);
      ag.probe_seconds += sw.ElapsedSeconds();
      auto ra = engine.QueryWithCandidates(qv, fleet, survivors,
                                           core::Matcher::kNaiveBayes);
      ag.seconds += sw.ElapsedSeconds();
      if (!ra.ok()) {
        std::fprintf(stderr, "aggressive query failed: %s\n",
                     ra.status().ToString().c_str());
        return 1;
      }
      ag.pairs += ra.value().evaluated;
      ag.accepted += ra.value().candidates.size();
      for (const auto& c : re.value().candidates) {
        for (const auto& d : rg.value().candidates) {
          if (d.index == c.index) {
            ++gu.recall_hits;
            break;
          }
        }
        for (const auto& d : ra.value().candidates) {
          if (d.index == c.index) {
            ++ag.recall_hits;
            break;
          }
        }
      }
    }
    auto recall = [&](const ModeStats& m) {
      return ex.accepted == 0 ? 1.0
                              : static_cast<double>(m.recall_hits) /
                                    static_cast<double>(ex.accepted);
    };
    auto reduction = [&](const ModeStats& m) {
      return m.pairs == 0 ? static_cast<double>(ex.pairs)
                          : static_cast<double>(ex.pairs) /
                                static_cast<double>(m.pairs);
    };
    all_identical = all_identical && gu.byte_identical;
    if (recall(gu) < min_guaranteed_recall) {
      min_guaranteed_recall = recall(gu);
    }
    if (reduction(gu) < worst_guaranteed_reduction) {
      worst_guaranteed_reduction = reduction(gu);
    }

    std::printf("=== %zu candidates (%zu records, built in %.2fs) ===\n", n,
                fleet.TotalRecords(), gen_seconds);
    std::printf("index build: guaranteed %.3fs, aggressive %.3fs\n",
                gu.build_seconds, ag.build_seconds);
    std::printf("probe (inside seconds): guaranteed %.4fs, aggressive %.4fs\n",
                gu.probe_seconds, ag.probe_seconds);
    std::printf("%-12s %-14s %-12s %-10s %-8s %-10s %s\n", "mode", "pairs",
                "reduction-x", "accepted", "recall", "seconds", "identical");
    std::printf("%-12s %-14llu %-12s %-10llu %-8s %-10.2f %s\n", "exhaustive",
                static_cast<unsigned long long>(ex.pairs), "1.0",
                static_cast<unsigned long long>(ex.accepted), "1.000",
                ex.seconds, "-");
    std::printf("%-12s %-14llu %-12.1f %-10llu %-8.3f %-10.2f %s\n",
                "guaranteed", static_cast<unsigned long long>(gu.pairs),
                reduction(gu), static_cast<unsigned long long>(gu.accepted),
                recall(gu), gu.seconds, gu.byte_identical ? "yes" : "NO");
    std::printf("%-12s %-14llu %-12.1f %-10llu %-8.3f %-10.2f %s\n\n",
                "aggressive", static_cast<unsigned long long>(ag.pairs),
                reduction(ag), static_cast<unsigned long long>(ag.accepted),
                recall(ag), ag.seconds, "-");

    auto mode_json = [&](const char* name, const ModeStats& m, bool last) {
      std::fprintf(f,
                   "      \"%s\": {\"pairs\": %llu, \"seconds\": %.6f, "
                   "\"accepted\": %llu, \"reduction_x\": %.3f, "
                   "\"recall\": %.6f",
                   name, static_cast<unsigned long long>(m.pairs), m.seconds,
                   static_cast<unsigned long long>(m.accepted), reduction(m),
                   recall(m));
      if (m.build_seconds >= 0.0) {
        std::fprintf(f,
                     ", \"index_build_seconds\": %.6f, "
                     "\"probe_seconds\": %.6f",
                     m.build_seconds, m.probe_seconds);
      }
      std::fprintf(f, "}%s\n", last ? "" : ",");
    };
    std::fprintf(f,
                 "    {\n      \"db_size\": %zu,\n"
                 "      \"num_records\": %zu,\n"
                 "      \"guaranteed_byte_identical\": %s,\n",
                 n, fleet.TotalRecords(), gu.byte_identical ? "true" : "false");
    mode_json("exhaustive", ex, false);
    mode_json("guaranteed", gu, false);
    mode_json("aggressive", ag, true);
    std::fprintf(f, "    }%s\n", si + 1 == scales.size() ? "" : ",");
  }
  header.window_s = run_sw.ElapsedSeconds();
  io::JsonWriter hw;
  bench_e2e::WriteArtifactHeader(header, &hw);
  std::fprintf(f,
               "  ],\n  \"guaranteed_byte_identical\": %s,\n"
               "  \"guaranteed_recall_min\": %.6f,\n"
               "  \"guaranteed_reduction_min_x\": %.3f,\n"
               "  \"metrics\": %s,\n"
               "  \"header\": %s\n}\n",
               all_identical ? "true" : "false", min_guaranteed_recall,
               worst_guaranteed_reduction, ftl::obs::DumpJson().c_str(),
               hw.str().c_str());
  std::fclose(f);

  std::printf(
      "Reading: guaranteed mode prunes temporally disjoint candidates\n"
      "without touching the accept set (identical column must say yes at\n"
      "every scale); aggressive mode adds the span + co-visitation\n"
      "heuristics for a further reduction at some recall cost.\n"
      "Wrote %s\n",
      out_path);
  return all_identical && min_guaranteed_recall == 1.0 ? 0 : 1;
}
