// Micro-benchmarks of FTL's hot kernels:
//   * Poisson-Binomial pmf: DP convolution vs the paper's Eq. 1
//     recursion, across trial counts;
//   * trajectory alignment / mutual-segment streaming;
//   * evidence collection (the per-pair query kernel).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "ftl/ftl.h"

namespace {

using namespace ftl;

std::vector<double> RandomProbs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> ps;
  ps.reserve(n);
  for (size_t i = 0; i < n; ++i) ps.push_back(rng.Uniform(0.01, 0.9));
  return ps;
}

void BM_PoissonBinomialDp(benchmark::State& state) {
  auto ps = RandomProbs(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto pmf = stats::PoissonBinomialPmfDp(ps);
    benchmark::DoNotOptimize(pmf.data());
  }
}
BENCHMARK(BM_PoissonBinomialDp)->RangeMultiplier(4)->Range(8, 512);

void BM_PoissonBinomialRecursive(benchmark::State& state) {
  auto ps = RandomProbs(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto pmf = stats::PoissonBinomialPmfRecursive(ps);
    benchmark::DoNotOptimize(pmf.data());
  }
}
BENCHMARK(BM_PoissonBinomialRecursive)->RangeMultiplier(4)->Range(8, 128);

traj::Trajectory RandomTrajectory(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<traj::Record> recs;
  recs.reserve(n);
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += rng.UniformInt(10, 600);
    recs.push_back(traj::Record{
        {rng.Uniform(0, 40000), rng.Uniform(0, 25000)}, t});
  }
  return traj::Trajectory("t", 0, std::move(recs));
}

void BM_AlignmentStreaming(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto p = RandomTrajectory(n, 2);
  auto q = RandomTrajectory(n, 3);
  for (auto _ : state) {
    size_t mutual = 0;
    traj::VisitMutualSegments(p, q,
                              [&mutual](const traj::Segment&) { ++mutual; });
    benchmark::DoNotOptimize(mutual);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_AlignmentStreaming)->RangeMultiplier(4)->Range(64, 16384);

void BM_CollectEvidence(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto p = RandomTrajectory(n, 4);
  auto q = RandomTrajectory(n, 5);
  core::EvidenceOptions opts;
  for (auto _ : state) {
    auto ev = core::CollectEvidence(p, q, opts);
    benchmark::DoNotOptimize(ev.units.data());
  }
}
BENCHMARK(BM_CollectEvidence)->RangeMultiplier(4)->Range(64, 4096);

void BM_DtwDistance(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto p = RandomTrajectory(n, 6);
  auto q = RandomTrajectory(n, 7);
  baselines::DtwDistance dtw;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw.Distance(p, q));
  }
}
BENCHMARK(BM_DtwDistance)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace

BENCHMARK_MAIN();
