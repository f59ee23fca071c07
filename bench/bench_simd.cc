// SIMD kernel benchmark: scalar reference vs the vectorized kernel
// tables, at two granularities, on the same SC config BENCH_ftb uses.
//
//   * engine: soa_serial   — FtlEngine::Query over SoA columns, kernel
//                            dispatch pinned to scalar (the oracle).
//   * engine: simd         — the same queries under the best ISA level
//                            this binary + CPU support.
//   * kernel: convolve / bernoulli — the truncated Poisson-Binomial
//                            prefix-build kernels on synthetic inputs.
//
// Every SIMD row is validated against the scalar oracle before it is
// timed (accept sets and p-values must match bit for bit), so a
// speedup can never come from computing something else. The
// engine-level speedup is reported against a stated 2.0x target; the
// kernel rows attribute where vector time actually goes. Emits
// BENCH_simd.json (path overridable via argv[1]), headed by the
// commit/host/nproc/isa header bench_e2e artifacts carry.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/e2e/artifact.h"
#include "bench_common.h"
#include "ftl/ftl.h"
#include "simd/dispatch.h"
#include "util/stopwatch.h"

namespace {

using namespace ftl;

bool SameBits(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

constexpr int kReps = 5;
constexpr double kSpeedupTarget = 2.0;

struct EngineRow {
  std::string name;
  std::string isa;
  int64_t pairs = 0;
  double seconds = 0.0;
  double pairs_per_sec = 0.0;
  size_t accepted = 0;
};

struct KernelRow {
  std::string name;  // e.g. "convolve_prefix_512_4"
  std::string isa;
  double ns_per_op = 0.0;
  double speedup_vs_scalar = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simd.json";
  const std::string config = "SC";
  // Taken before any level is pinned, so `isa` is the table the
  // environment selects; window_s is filled in with the run's length.
  Stopwatch run_sw;
  bench_e2e::ArtifactHeader header =
      bench_e2e::MakeArtifactHeader(config, bench::BenchSeed(), 0.0);
  const size_t num_objects = bench::PaperScale() ? 1000 : 200;
  const size_t num_queries = bench::PaperScale() ? 64 : 24;

  const simd::IsaLevel best_level = simd::BestSupportedLevel();
  const std::string best_isa = simd::IsaLevelName(best_level);
  std::vector<simd::IsaLevel> levels;  // non-scalar levels present
  for (simd::IsaLevel l : {simd::IsaLevel::kSimd128, simd::IsaLevel::kAvx2}) {
    if (simd::KernelsFor(l) != nullptr) levels.push_back(l);
  }
  std::printf("config=%s objects=%zu best_isa=%s\n", config.c_str(),
              num_objects, best_isa.c_str());

  // ------------------------------------------------------------ setup
  sim::DatasetPair pair = sim::BuildDataset(sim::FindConfig(config),
                                            num_objects, bench::BenchSeed());
  traj::FlatDatabase soa_db = traj::FlatDatabase::FromDatabase(pair.q);

  core::EngineOptions eo;
  eo.training.vmax_mps = geo::KphToMps(120.0);
  eo.training.horizon_units = 60;
  eo.alpha.alpha1 = 0.01;
  eo.alpha.alpha2 = 0.1;
  core::FtlEngine engine(eo);
  if (!engine.Train(pair.p, pair.q).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }
  eval::WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.seed = bench::BenchSeed() + 7;
  eval::Workload workload = eval::MakeWorkload(pair.p, pair.q, wo);
  traj::TrajectoryDatabase query_db("queries");
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    const auto& q = workload.queries[i];
    if (!query_db
             .Add(traj::Trajectory("query-" + std::to_string(i), q.owner(),
                                   q.records()))
             .ok()) {
      std::fprintf(stderr, "query db build failed\n");
      return 1;
    }
  }
  traj::FlatDatabase flat_queries = traj::FlatDatabase::FromDatabase(query_db);

  // ----------------------------------------------------- oracle parity
  // Accept sets and every p-value must match the scalar kernels bit
  // for bit at every compiled-in ISA level before anything is timed.
  size_t mismatches = 0;
  {
    std::vector<core::QueryResult> oracle;
    simd::SetDispatchForTest(simd::IsaLevel::kScalar);
    for (size_t i = 0; i < flat_queries.size(); ++i) {
      auto r = engine.Query(flat_queries[i], soa_db,
                            core::Matcher::kAlphaFilter);
      if (!r.ok()) return 1;
      oracle.push_back(std::move(r).value());
    }
    for (simd::IsaLevel level : levels) {
      simd::SetDispatchForTest(level);
      for (size_t i = 0; i < flat_queries.size(); ++i) {
        auto r = engine.Query(flat_queries[i], soa_db,
                              core::Matcher::kAlphaFilter);
        if (!r.ok()) return 1;
        const auto& a = oracle[i].candidates;
        const auto& b = r.value().candidates;
        if (a.size() != b.size()) {
          ++mismatches;
          continue;
        }
        for (size_t j = 0; j < a.size(); ++j) {
          if (a[j].index != b[j].index || !SameBits(a[j].p1, b[j].p1) ||
              !SameBits(a[j].p2, b[j].p2) ||
              !SameBits(a[j].score, b[j].score)) {
            ++mismatches;
            break;
          }
        }
      }
    }
  }
  const bool identical = mismatches == 0;
  std::printf("oracle parity: %s (%zu mismatching query results)\n\n",
              identical ? "OK" : "FAIL", mismatches);

  // ------------------------------------------------- engine throughput
  std::vector<EngineRow> engine_rows;
  auto run_engine = [&](const std::string& name, simd::IsaLevel level) {
    const simd::Kernels& active = simd::SetDispatchForTest(level);
    EngineRow best;
    for (int rep = 0; rep < kReps; ++rep) {
      EngineRow m;
      m.name = name;
      Stopwatch sw;
      for (size_t i = 0; i < flat_queries.size(); ++i) {
        auto r = engine.Query(flat_queries[i], soa_db,
                              core::Matcher::kAlphaFilter);
        if (!r.ok()) std::exit(1);
        m.accepted += r.value().candidates.size();
        m.pairs += static_cast<int64_t>(soa_db.size());
      }
      m.seconds = sw.ElapsedSeconds();
      m.pairs_per_sec = static_cast<double>(m.pairs) / m.seconds;
      if (rep == 0 || m.seconds < best.seconds) best = m;
    }
    best.isa = simd::IsaLevelName(active.level);
    std::printf("%-12s [%-6s] %10.0f pairs/s  accepted=%zu\n",
                best.name.c_str(), best.isa.c_str(), best.pairs_per_sec,
                best.accepted);
    engine_rows.push_back(best);
  };
  run_engine("soa_serial", simd::IsaLevel::kScalar);
  run_engine("simd", best_level);
  const double engine_speedup =
      engine_rows[1].pairs_per_sec / engine_rows[0].pairs_per_sec;
  std::printf("\nsimd (%s) vs soa_serial: %.3fx (target %.1fx)\n\n",
              engine_rows[1].isa.c_str(), engine_speedup, kSpeedupTarget);

  // --------------------------------------------------- kernel micros
  std::vector<KernelRow> kernel_rows;
  auto time_ns = [&](auto&& fn, int64_t ops) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch sw;
      fn();
      double s = sw.ElapsedSeconds();
      if (rep == 0 || s < best) best = s;
    }
    return best * 1e9 / static_cast<double>(ops);
  };
  auto push_kernel = [&](const std::string& name, simd::IsaLevel level,
                         double ns, double scalar_ns) {
    KernelRow r;
    r.name = name;
    r.isa = simd::IsaLevelName(level);
    r.ns_per_op = ns;
    r.speedup_vs_scalar = scalar_ns / ns;
    std::printf("%-24s [%-6s] %9.1f ns/op  %5.2fx\n", r.name.c_str(),
                r.isa.c_str(), r.ns_per_op, r.speedup_vs_scalar);
    kernel_rows.push_back(r);
  };

  // Convolution kernels of the truncated Poisson-Binomial prefix
  // build, at a short and a long prefix length (m = 4 matches the
  // grouped model's typical distinct-probability count).
  {
    std::mt19937 rng(20160501);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (size_t flen : {size_t{32}, size_t{512}}) {
      std::vector<double> f0(flen);
      for (double& v : f0) v = u(rng);
      const double b[5] = {0.35, 0.3, 0.2, 0.1, 0.05};
      std::vector<double> f(flen);
      const int iters = 2000;
      double scalar_ns = 0.0;
      std::vector<simd::IsaLevel> all = {simd::IsaLevel::kScalar};
      all.insert(all.end(), levels.begin(), levels.end());
      for (simd::IsaLevel level : all) {
        const simd::Kernels* k = simd::KernelsFor(level);
        double ns = time_ns(
            [&] {
              for (int it = 0; it < iters; ++it) {
                std::memcpy(f.data(), f0.data(), flen * sizeof(double));
                k->convolve_prefix(f.data(), flen, b, 4);
              }
            },
            iters);
        if (level == simd::IsaLevel::kScalar) scalar_ns = ns;
        push_kernel("convolve_prefix_" + std::to_string(flen) + "_4", level,
                    ns, scalar_ns);
      }
      scalar_ns = 0.0;
      for (simd::IsaLevel level : all) {
        const simd::Kernels* k = simd::KernelsFor(level);
        double ns = time_ns(
            [&] {
              for (int it = 0; it < iters; ++it) {
                std::memcpy(f.data(), f0.data(), flen * sizeof(double));
                k->bernoulli_step(f.data(), flen, 0.25, 0.75);
              }
            },
            iters);
        if (level == simd::IsaLevel::kScalar) scalar_ns = ns;
        push_kernel("bernoulli_step_" + std::to_string(flen), level, ns,
                    scalar_ns);
      }
    }
  }
  simd::SetDispatchForTest(best_level);

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
               "  \"bench\": \"simd\",\n"
               "  \"config\": \"%s\",\n"
               "  \"num_objects\": %zu,\n"
               "  \"num_queries\": %zu,\n"
               "  \"best_isa\": \"%s\",\n"
               "  \"speedup_target\": %.1f,\n"
               "  \"simd_vs_soa_serial_pairs_per_sec\": %.4f,\n"
               "  \"target_met\": %s,\n"
               "  \"results_byte_identical\": %s,\n"
               "  \"engine\": {\n",
               hw.str().c_str(), config.c_str(), num_objects, query_db.size(),
               best_isa.c_str(), kSpeedupTarget, engine_speedup,
               engine_speedup >= kSpeedupTarget ? "true" : "false",
               identical ? "true" : "false");
  for (size_t i = 0; i < engine_rows.size(); ++i) {
    const EngineRow& m = engine_rows[i];
    std::fprintf(f,
                 "    \"%s\": { \"isa\": \"%s\", \"pairs\": %lld, "
                 "\"seconds\": %.6f, \"pairs_per_sec\": %.1f, "
                 "\"accepted\": %zu }%s\n",
                 m.name.c_str(), m.isa.c_str(),
                 static_cast<long long>(m.pairs), m.seconds, m.pairs_per_sec,
                 m.accepted, i + 1 < engine_rows.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"kernels\": [\n");
  for (size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& r = kernel_rows[i];
    std::fprintf(f,
                 "    { \"kernel\": \"%s\", \"isa\": \"%s\", "
                 "\"ns_per_op\": %.1f, \"speedup_vs_scalar\": %.3f }%s\n",
                 r.name.c_str(), r.isa.c_str(), r.ns_per_op,
                 r.speedup_vs_scalar, i + 1 < kernel_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return identical ? 0 : 2;
}
