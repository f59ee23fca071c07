// Ablation studies over FTL's design knobs (beyond the paper's own
// figures; DESIGN.md motivates each):
//   1. Vmax sensitivity — the only physical assumption FTL makes.
//   2. Time-unit granularity of the compatibility models.
//   3. Model horizon (beyond which segments are assumed compatible).
//   4. Parallel query scaling (the paper's stated future work).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ftl/ftl.h"

namespace {

using namespace ftl;

struct Fixture {
  sim::DatasetPair pair;
  eval::Workload workload;
};

Fixture MakeFixture() {
  Fixture f;
  f.pair = sim::BuildDataset(sim::FindConfig("SF"), bench::NumObjects(),
                             bench::BenchSeed());
  eval::WorkloadOptions wo;
  wo.num_queries = bench::NumQueries();
  wo.seed = bench::BenchSeed() + 5;
  f.workload = eval::MakeWorkload(f.pair.p, f.pair.q, wo);
  return f;
}

struct RunOutcome {
  double perceptiveness;
  double selectiveness;
  double seconds;
};

RunOutcome Run(const Fixture& f, core::EngineOptions eo) {
  core::FtlEngine engine(eo);
  Status st = engine.Train(f.pair.p, f.pair.q);
  if (!st.ok()) {
    std::printf("  (training failed: %s)\n", st.ToString().c_str());
    return {0, 0, 0};
  }
  Stopwatch sw;
  auto results = engine.BatchQuery(f.workload.queries, f.pair.q,
                                   core::Matcher::kNaiveBayes);
  double secs = sw.ElapsedSeconds();
  if (!results.ok()) return {0, 0, 0};
  auto m = eval::ComputeMetrics(results.value(), f.workload.owners,
                                f.pair.q);
  return {m.perceptiveness, m.selectiveness, secs};
}

core::EngineOptions BaseOptions() {
  core::EngineOptions eo;
  eo.training.vmax_mps = geo::KphToMps(120.0);
  eo.training.horizon_units = 60;
  eo.naive_bayes.phi_r = 0.01;
  eo.num_threads = 1;
  return eo;
}

void Header(const char* title) { std::printf("=== %s ===\n", title); }

void PrintRow(const std::string& setting, const RunOutcome& o) {
  std::printf("  %-24s perceptiveness %.3f  selectiveness %.5f  "
              "%.2fs\n",
              setting.c_str(), o.perceptiveness, o.selectiveness,
              o.seconds);
}

}  // namespace

int main() {
  std::printf("FTL ablation studies on the SF configuration "
              "(%zu objects, %zu queries)\n\n",
              bench::NumObjects(), bench::NumQueries());
  Fixture f = MakeFixture();

  Header("Ablation 1: Vmax sensitivity");
  for (double kph : {15.0, 30.0, 60.0, 90.0, 120.0, 140.0, 200.0, 400.0}) {
    auto eo = BaseOptions();
    eo.training.vmax_mps = geo::KphToMps(kph);
    PrintRow("Vmax=" + FormatDouble(kph, 0) + "kph", Run(f, eo));
  }
  std::printf("  expectation: too-tight Vmax rejects true matches; "
              "too-loose loses discrimination.\n\n");

  Header("Ablation 2: time-unit granularity");
  for (int64_t unit : {15, 30, 60, 120, 300}) {
    auto eo = BaseOptions();
    eo.training.time_unit_seconds = unit;
    // Keep the absolute horizon (1 h) fixed while the unit varies.
    eo.training.horizon_units = 3600 / unit;
    PrintRow("unit=" + std::to_string(unit) + "s", Run(f, eo));
  }
  std::printf("  expectation: very coarse units blur the gap-dependent "
              "signal.\n\n");

  Header("Ablation 3: model horizon");
  for (int64_t horizon : {5, 15, 30, 60, 120}) {
    auto eo = BaseOptions();
    eo.training.horizon_units = horizon;
    PrintRow("horizon=" + std::to_string(horizon) + "min", Run(f, eo));
  }
  std::printf("  expectation: tiny horizons discard most informative "
              "segments; past the city transit time extra buckets add "
              "nothing.\n\n");

  Header("Ablation 4: parallel query scaling (paper future work)");
  std::printf("  (hardware concurrency on this machine: %u)\n",
              std::thread::hardware_concurrency());
  double base_secs = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto eo = BaseOptions();
    eo.num_threads = threads;
    auto o = Run(f, eo);
    if (threads == 1) base_secs = o.seconds;
    std::printf("  threads=%zu  %.2fs  speedup %.2fx\n", threads,
                o.seconds, o.seconds > 0 ? base_secs / o.seconds : 0.0);
  }
  return 0;
}
