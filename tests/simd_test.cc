// Property tests for the SIMD kernel layer: every compiled-in ISA
// level must be bit-identical to the scalar reference — the
// Poisson-Binomial tail convolutions on randomized inputs, and
// end-to-end accept decisions — and the dispatcher must never select a
// level the build or CPU cannot run. The evidence walk has no vector
// tier; its corner cases are covered in grouped_pb_test.cc.

#include "simd/dispatch.h"

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "sim/scenario.h"
#include "traj/flat_database.h"

namespace ftl {
namespace {

std::vector<simd::IsaLevel> VectorLevels() {
  std::vector<simd::IsaLevel> out;
  for (simd::IsaLevel l : {simd::IsaLevel::kSimd128, simd::IsaLevel::kAvx2}) {
    if (simd::KernelsFor(l) != nullptr) out.push_back(l);
  }
  return out;
}

TEST(SimdKernelsTest, ConvolutionKernelsMatchScalarOnRandomInputs) {
  auto levels = VectorLevels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only build";
  std::mt19937_64 rng(0xc0ffeeULL);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::uniform_int_distribution<size_t> len(1, 600);
  std::uniform_int_distribution<size_t> mm(1, 6);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = trial < 8 ? static_cast<size_t>(trial) + 1 : len(rng);
    size_t m = mm(rng);
    std::vector<double> f0(n);
    for (double& v : f0) v = u01(rng);
    std::vector<double> b(m + 1);
    for (double& v : b) v = u01(rng);
    std::vector<double> fs = f0, fv(n);
    const simd::Kernels* scalar = simd::KernelsFor(simd::IsaLevel::kScalar);
    scalar->convolve_prefix(fs.data(), n, b.data(), m);
    for (simd::IsaLevel level : levels) {
      fv = f0;
      simd::KernelsFor(level)->convolve_prefix(fv.data(), n, b.data(), m);
      EXPECT_EQ(0, std::memcmp(fs.data(), fv.data(), n * sizeof(double)))
          << "convolve_prefix n=" << n << " m=" << m;
    }
    double pp = u01(rng);
    fs = f0;
    scalar->bernoulli_step(fs.data(), n, pp, 1.0 - pp);
    for (simd::IsaLevel level : levels) {
      fv = f0;
      simd::KernelsFor(level)->bernoulli_step(fv.data(), n, pp, 1.0 - pp);
      EXPECT_EQ(0, std::memcmp(fs.data(), fv.data(), n * sizeof(double)))
          << "bernoulli_step n=" << n;
    }
  }
}

TEST(SimdKernelsTest, DispatchClampsToSupportedLevel) {
  const simd::IsaLevel best = simd::BestSupportedLevel();
  const simd::Kernels& forced = simd::SetDispatchForTest(simd::IsaLevel::kAvx2);
  EXPECT_LE(static_cast<int>(forced.level), static_cast<int>(best));
  EXPECT_EQ(&simd::Dispatch(), &forced);
  const simd::Kernels& scalar =
      simd::SetDispatchForTest(simd::IsaLevel::kScalar);
  EXPECT_EQ(scalar.level, simd::IsaLevel::kScalar);
  simd::SetDispatchForTest(best);
}

TEST(SimdKernelsTest, EngineAcceptDecisionsIdenticalAcrossLevels) {
  auto levels = VectorLevels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only build";
  sim::DatasetPair pair = sim::BuildDataset(sim::FindConfig("SC"), 30, 77);
  traj::FlatDatabase db = traj::FlatDatabase::FromDatabase(pair.q);
  traj::FlatDatabase queries = traj::FlatDatabase::FromDatabase(pair.p);
  core::EngineOptions eo;
  eo.training.horizon_units = 60;
  core::FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(pair.p, pair.q).ok());

  const size_t nq = std::min<size_t>(queries.size(), 6);
  std::vector<core::QueryResult> oracle;
  simd::SetDispatchForTest(simd::IsaLevel::kScalar);
  for (size_t i = 0; i < nq; ++i) {
    auto r = engine.Query(queries[i], db, core::Matcher::kAlphaFilter);
    ASSERT_TRUE(r.ok());
    oracle.push_back(std::move(r).value());
  }
  for (simd::IsaLevel level : levels) {
    simd::SetDispatchForTest(level);
    for (size_t i = 0; i < nq; ++i) {
      auto r = engine.Query(queries[i], db, core::Matcher::kAlphaFilter);
      ASSERT_TRUE(r.ok());
      const auto& a = oracle[i].candidates;
      const auto& b = r.value().candidates;
      ASSERT_EQ(a.size(), b.size()) << "accept set differs, query " << i;
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].index, b[j].index);
        uint64_t bits_a = 0, bits_b = 0;
        std::memcpy(&bits_a, &a[j].p1, sizeof(bits_a));
        std::memcpy(&bits_b, &b[j].p1, sizeof(bits_b));
        EXPECT_EQ(bits_a, bits_b);
        std::memcpy(&bits_a, &a[j].p2, sizeof(bits_a));
        std::memcpy(&bits_b, &b[j].p2, sizeof(bits_b));
        EXPECT_EQ(bits_a, bits_b);
      }
    }
  }
  simd::SetDispatchForTest(simd::BestSupportedLevel());
}

}  // namespace
}  // namespace ftl
