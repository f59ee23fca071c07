// FTB columnar-store benchmark: cold-load cost of the binary store vs
// CSV parsing, and scoring throughput of the SoA FlatDatabase path vs
// the AoS Trajectory path, on the same data.
//
//   * load: csv_parse      — ReadCsv (strict), the historical loader.
//   * load: ftb_mmap       — ReadFtb, zero-copy mmap, checksums on
//                            (the default posture; CRC touches every
//                            page, so this is an honest full read).
//   * load: ftb_mmap_nocrc — ReadFtb, mmap, checksums off (structural
//                            validation only; pages fault lazily).
//   * load: ftb_heap       — ReadFtb, heap fallback (one read + CRC).
//   * score: aos / soa     — alpha-filter full-database queries through
//                            FtlEngine::Query on TrajectoryDatabase vs
//                            FlatDatabase backends, both pinned to the
//                            scalar kernels.
//   * score: simd          — the SoA backend again, under the best
//                            SIMD dispatch level this binary + CPU
//                            support (what production runs by default).
//
// All scoring backends are loaded from disk artifacts derived from the
// same CSV, and the bench asserts their QueryResults are byte-identical
// (bit-pattern compare of p1/p2/score) — across storage layouts AND
// across kernel ISA levels. Each backend row also reports p50/p90/p99
// of the engine's sampled per-stage timers (alignment / bucketing /
// tail), read from the ftl_stage_* histograms, so a speedup can be
// attributed to a stage instead of guessed at from aggregate pairs/sec.
// Emits BENCH_ftb.json (path overridable via argv[1]), headed by the
// commit/host/nproc/isa header bench_e2e artifacts carry.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/e2e/artifact.h"
#include "bench_common.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
#include "util/stopwatch.h"

namespace {

using namespace ftl;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

bool SameBits(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

struct LoadResult {
  std::string name;
  double seconds = 0.0;  // fastest repetition
  size_t bytes = 0;      // on-disk artifact size
  bool mmapped = false;
};

struct StageQuantiles {
  int64_t samples = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

struct ScoreResult {
  std::string name;
  std::string isa;  // kernel table the row ran on
  int64_t pairs = 0;
  double seconds = 0.0;
  double pairs_per_sec = 0.0;
  size_t accepted = 0;
  StageQuantiles alignment, bucketing, tail;
};

constexpr int kReps = 5;

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_ftb.json";
  const std::string config = "SC";
  const size_t num_objects = bench::PaperScale() ? 1000 : 200;
  const size_t num_queries = bench::PaperScale() ? 64 : 24;
  const std::string csv_path = TempPath("ftl_bench_ftb.csv");
  const std::string ftb_path = TempPath("ftl_bench_ftb.ftb");
  // Taken before any level is pinned, so `isa` is the table the
  // environment selects; window_s is filled in with the run's length.
  Stopwatch run_sw;
  bench_e2e::ArtifactHeader header =
      bench_e2e::MakeArtifactHeader(config, bench::BenchSeed(), 0.0);

  sim::DatasetPair pair = sim::BuildDataset(sim::FindConfig(config),
                                            num_objects, bench::BenchSeed());

  // Disk artifacts: the FTB file is converted from the CSV-loaded
  // database (exactly what `ftl convert` does), so both backends carry
  // the same post-roundtrip doubles and results can be byte-compared.
  if (!io::WriteCsv(pair.q, csv_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  auto csv_loaded = io::ReadCsv(csv_path, "q");
  if (!csv_loaded.ok()) {
    std::fprintf(stderr, "csv load: %s\n",
                 csv_loaded.status().ToString().c_str());
    return 1;
  }
  const traj::TrajectoryDatabase& aos_db = csv_loaded.value();
  if (!io::WriteFtb(aos_db, ftb_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", ftb_path.c_str());
    return 1;
  }
  auto ftb_loaded = io::ReadFtb(ftb_path);
  if (!ftb_loaded.ok()) {
    std::fprintf(stderr, "ftb load: %s\n",
                 ftb_loaded.status().ToString().c_str());
    return 1;
  }
  const traj::FlatDatabase& soa_db = ftb_loaded.value();

  std::printf("config=%s objects=%zu db=%zu records=%zu queries=%zu\n",
              config.c_str(), num_objects, aos_db.size(),
              soa_db.TotalRecords(), num_queries);
  std::printf("csv=%zu bytes  ftb=%zu bytes\n\n",
              static_cast<size_t>(std::filesystem::file_size(csv_path)),
              static_cast<size_t>(std::filesystem::file_size(ftb_path)));

  // ------------------------------------------------------- cold loads
  // Min-of-kReps; both formats go through the page cache equally, so
  // this measures parse/validation cost, not disk spin-up.
  std::vector<LoadResult> loads;
  auto run_load = [&loads](const std::string& name, size_t bytes, bool mmapped,
                           auto&& fn) {
    LoadResult r;
    r.name = name;
    r.bytes = bytes;
    r.mmapped = mmapped;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch sw;
      if (!fn()) {
        std::fprintf(stderr, "%s: load failed\n", name.c_str());
        std::exit(1);
      }
      double s = sw.ElapsedSeconds();
      if (rep == 0 || s < r.seconds) r.seconds = s;
    }
    std::printf("%-16s %10.3f ms  (%zu bytes)%s\n", r.name.c_str(),
                r.seconds * 1e3, r.bytes, r.mmapped ? "  [mmap]" : "");
    loads.push_back(r);
  };
  const size_t csv_bytes =
      static_cast<size_t>(std::filesystem::file_size(csv_path));
  const size_t ftb_bytes =
      static_cast<size_t>(std::filesystem::file_size(ftb_path));
  io::FtbLoadInfo info;
  run_load("csv_parse", csv_bytes, false,
           [&] { return io::ReadCsv(csv_path, "q").ok(); });
  run_load("ftb_mmap", ftb_bytes, true, [&] {
    io::FtbReadOptions o;
    return io::ReadFtb(ftb_path, o, &info).ok() && info.mmapped;
  });
  const bool mmap_available = info.mmapped;
  run_load("ftb_mmap_nocrc", ftb_bytes, true, [&] {
    io::FtbReadOptions o;
    o.verify_checksums = false;
    return io::ReadFtb(ftb_path, o).ok();
  });
  run_load("ftb_heap", ftb_bytes, false, [&] {
    io::FtbReadOptions o;
    o.prefer_mmap = false;
    return io::ReadFtb(ftb_path, o, &info).ok() && !info.mmapped;
  });
  double csv_s = loads[0].seconds, ftb_mmap_s = loads[1].seconds;
  double cold_speedup = csv_s / ftb_mmap_s;
  std::printf("\ncold-load speedup ftb_mmap vs csv: %.1fx "
              "(acceptance floor 10x)\n\n",
              cold_speedup);

  // -------------------------------------------------------- train once
  core::EngineOptions eo;
  eo.training.vmax_mps = geo::KphToMps(120.0);
  eo.training.horizon_units = 60;
  eo.alpha.alpha1 = 0.01;
  eo.alpha.alpha2 = 0.1;
  core::FtlEngine engine(eo);
  if (!engine.Train(pair.p, aos_db).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  eval::WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.seed = bench::BenchSeed() + 7;
  eval::Workload workload = eval::MakeWorkload(pair.p, aos_db, wo);

  // Query set, relabeled uniquely and mirrored into a FlatDatabase so
  // the SoA path streams both sides from columns.
  traj::TrajectoryDatabase query_db("queries");
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    const auto& q = workload.queries[i];
    Status st = query_db.Add(traj::Trajectory(
        "query-" + std::to_string(i), q.owner(), q.records()));
    if (!st.ok()) {
      std::fprintf(stderr, "query db: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  traj::FlatDatabase flat_queries =
      traj::FlatDatabase::FromDatabase(query_db);

  // ------------------------------------------------------ parity check
  // The acceptance contract: the SoA path and the SIMD kernels are
  // optimizations, not new algorithms, so every p-value and score must
  // match the scalar AoS reference to the bit.
  const simd::IsaLevel best_level = simd::BestSupportedLevel();
  const std::string best_isa = simd::IsaLevelName(best_level);
  auto same_candidates = [](const std::vector<core::MatchCandidate>& a,
                            const std::vector<core::MatchCandidate>& b) {
    if (a.size() != b.size()) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      if (a[j].index != b[j].index || a[j].label != b[j].label ||
          !SameBits(a[j].p1, b[j].p1) || !SameBits(a[j].p2, b[j].p2) ||
          !SameBits(a[j].score, b[j].score)) {
        return false;
      }
    }
    return true;
  };
  size_t mismatches = 0;       // soa (scalar) vs aos (scalar)
  size_t simd_mismatches = 0;  // soa (best SIMD level) vs aos (scalar)
  for (size_t i = 0; i < query_db.size(); ++i) {
    simd::SetDispatchForTest(simd::IsaLevel::kScalar);
    auto aos = engine.Query(query_db[i], aos_db, core::Matcher::kAlphaFilter);
    auto soa = engine.Query(flat_queries[i], soa_db,
                            core::Matcher::kAlphaFilter);
    simd::SetDispatchForTest(best_level);
    auto vec = engine.Query(flat_queries[i], soa_db,
                            core::Matcher::kAlphaFilter);
    if (!aos.ok() || !soa.ok() || !vec.ok()) {
      std::fprintf(stderr, "parity query %zu failed\n", i);
      return 1;
    }
    if (!same_candidates(aos.value().candidates, soa.value().candidates)) {
      ++mismatches;
    }
    if (!same_candidates(aos.value().candidates, vec.value().candidates)) {
      ++simd_mismatches;
    }
  }
  const bool identical = mismatches == 0;
  const bool simd_identical = simd_mismatches == 0;
  std::printf("parity soa/aos:  %zu/%zu queries byte-identical %s\n",
              query_db.size() - mismatches, query_db.size(),
              identical ? "(OK)" : "(FAIL)");
  std::printf("parity %s/aos: %zu/%zu queries byte-identical %s\n\n",
              best_isa.c_str(), query_db.size() - simd_mismatches,
              query_db.size(), simd_identical ? "(OK)" : "(FAIL)");

  // ------------------------------------------------- scoring throughput
  // Each backend row pins the kernel dispatch level, zeroes the
  // engine's sampled per-stage histograms, runs kReps timed passes
  // (keeping the fastest for throughput), then reads the stage
  // quantiles accumulated across all passes.
  obs::Histogram* stage_hists[3] = {
      &obs::MetricsRegistry::Global().GetHistogram("ftl_stage_alignment_ns"),
      &obs::MetricsRegistry::Global().GetHistogram("ftl_stage_bucketing_ns"),
      &obs::MetricsRegistry::Global().GetHistogram("ftl_stage_tail_ns"),
  };
  std::vector<ScoreResult> scores;
  auto run_score = [&](const std::string& name, simd::IsaLevel level,
                       auto&& one_pass) {
    const simd::Kernels& active = simd::SetDispatchForTest(level);
    for (obs::Histogram* h : stage_hists) h->Reset();
    ScoreResult best;
    for (int rep = 0; rep < kReps; ++rep) {
      ScoreResult m;
      m.name = name;
      Stopwatch sw;
      one_pass(&m);
      m.seconds = sw.ElapsedSeconds();
      m.pairs_per_sec = static_cast<double>(m.pairs) / m.seconds;
      if (rep == 0 || m.seconds < best.seconds) best = m;
    }
    best.isa = simd::IsaLevelName(active.level);
    StageQuantiles* stages[3] = {&best.alignment, &best.bucketing,
                                 &best.tail};
    for (int s = 0; s < 3; ++s) {
      stages[s]->samples = stage_hists[s]->Count();
      stages[s]->p50 = stage_hists[s]->Quantile(0.50);
      stages[s]->p90 = stage_hists[s]->Quantile(0.90);
      stages[s]->p99 = stage_hists[s]->Quantile(0.99);
    }
    std::printf("%-12s [%-6s] pairs=%-8lld %10.0f pairs/s  accepted=%zu\n",
                best.name.c_str(), best.isa.c_str(),
                static_cast<long long>(best.pairs), best.pairs_per_sec,
                best.accepted);
    std::printf("    stage ns (p50/p90/p99): align %.0f/%.0f/%.0f   "
                "bucket %.0f/%.0f/%.0f   tail %.0f/%.0f/%.0f\n",
                best.alignment.p50, best.alignment.p90, best.alignment.p99,
                best.bucketing.p50, best.bucketing.p90, best.bucketing.p99,
                best.tail.p50, best.tail.p90, best.tail.p99);
    scores.push_back(best);
  };
  run_score("aos_serial", simd::IsaLevel::kScalar, [&](ScoreResult* m) {
    for (size_t i = 0; i < query_db.size(); ++i) {
      auto r = engine.Query(query_db[i], aos_db, core::Matcher::kAlphaFilter);
      if (!r.ok()) std::exit(1);
      m->accepted += r.value().candidates.size();
      m->pairs += static_cast<int64_t>(aos_db.size());
    }
  });
  run_score("soa_serial", simd::IsaLevel::kScalar, [&](ScoreResult* m) {
    for (size_t i = 0; i < flat_queries.size(); ++i) {
      auto r = engine.Query(flat_queries[i], soa_db,
                            core::Matcher::kAlphaFilter);
      if (!r.ok()) std::exit(1);
      m->accepted += r.value().candidates.size();
      m->pairs += static_cast<int64_t>(soa_db.size());
    }
  });
  run_score("simd", best_level, [&](ScoreResult* m) {
    for (size_t i = 0; i < flat_queries.size(); ++i) {
      auto r = engine.Query(flat_queries[i], soa_db,
                            core::Matcher::kAlphaFilter);
      if (!r.ok()) std::exit(1);
      m->accepted += r.value().candidates.size();
      m->pairs += static_cast<int64_t>(soa_db.size());
    }
  });
  double soa_vs_aos = scores[1].pairs_per_sec / scores[0].pairs_per_sec;
  double simd_vs_soa = scores[2].pairs_per_sec / scores[1].pairs_per_sec;
  std::printf("\nsoa vs aos pairs/sec: %.3fx (acceptance floor 1.0x)\n",
              soa_vs_aos);
  std::printf("simd (%s) vs soa_serial pairs/sec: %.3fx\n",
              scores[2].isa.c_str(), simd_vs_soa);

  // -------------------------------------------------------------- JSON
  header.window_s = run_sw.ElapsedSeconds();
  io::JsonWriter hw;
  bench_e2e::WriteArtifactHeader(header, &hw);
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"header\": %s,\n"
               "  \"bench\": \"ftb\",\n"
               "  \"config\": \"%s\",\n"
               "  \"num_objects\": %zu,\n"
               "  \"db_size\": %zu,\n"
               "  \"num_records\": %zu,\n"
               "  \"num_queries\": %zu,\n"
               "  \"csv_bytes\": %zu,\n"
               "  \"ftb_bytes\": %zu,\n"
               "  \"mmap_available\": %s,\n"
               "  \"cold_load_speedup_ftb_mmap_vs_csv\": %.2f,\n"
               "  \"soa_vs_aos_pairs_per_sec\": %.4f,\n"
               "  \"simd_vs_soa_serial_pairs_per_sec\": %.4f,\n"
               "  \"simd_isa\": \"%s\",\n"
               "  \"results_byte_identical\": %s,\n"
               "  \"simd_results_byte_identical\": %s,\n"
               "  \"loads\": {\n",
               hw.str().c_str(), config.c_str(), num_objects, aos_db.size(),
               soa_db.TotalRecords(), query_db.size(), csv_bytes, ftb_bytes,
               mmap_available ? "true" : "false", cold_speedup, soa_vs_aos,
               simd_vs_soa, scores[2].isa.c_str(),
               identical ? "true" : "false",
               simd_identical ? "true" : "false");
  for (size_t i = 0; i < loads.size(); ++i) {
    const LoadResult& r = loads[i];
    std::fprintf(f,
                 "    \"%s\": { \"seconds\": %.6f, \"bytes\": %zu, "
                 "\"mmapped\": %s }%s\n",
                 r.name.c_str(), r.seconds, r.bytes,
                 r.mmapped ? "true" : "false",
                 i + 1 < loads.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"scoring\": {\n");
  for (size_t i = 0; i < scores.size(); ++i) {
    const ScoreResult& m = scores[i];
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"isa\": \"%s\", \"pairs\": %lld, "
                 "\"seconds\": %.6f, \"pairs_per_sec\": %.1f, "
                 "\"accepted\": %zu,\n",
                 m.name.c_str(), m.isa.c_str(),
                 static_cast<long long>(m.pairs), m.seconds, m.pairs_per_sec,
                 m.accepted);
    const StageQuantiles* stages[3] = {&m.alignment, &m.bucketing, &m.tail};
    const char* stage_names[3] = {"alignment", "bucketing", "tail"};
    std::fprintf(f, "      \"stages_ns\": {\n");
    for (int s = 0; s < 3; ++s) {
      std::fprintf(f,
                   "        \"%s\": { \"samples\": %lld, \"p50\": %.0f, "
                   "\"p90\": %.0f, \"p99\": %.0f }%s\n",
                   stage_names[s], static_cast<long long>(stages[s]->samples),
                   stages[s]->p50, stages[s]->p90, stages[s]->p99,
                   s + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "      }\n    }%s\n", i + 1 < scores.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"metrics\": %s\n}\n", obs::DumpJson().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  std::filesystem::remove(csv_path);
  std::filesystem::remove(ftb_path);
  return identical && simd_identical ? 0 : 2;
}
