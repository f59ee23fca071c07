#ifndef FTL_CORE_MODEL_BUILDERS_H_
#define FTL_CORE_MODEL_BUILDERS_H_

/// \file model_builders.h
/// Training of the rejection model (paper Algorithm 1) and the
/// acceptance model (paper Algorithm 2).

#include <cstdint>

#include "core/compatibility_model.h"
#include "core/evidence.h"
#include "traj/database.h"
#include "util/rng.h"
#include "util/status.h"

namespace ftl::core {

/// Options shared by both model builders.
struct ModelTrainingOptions {
  /// Maximum plausible travel speed (the paper's Vmax), m/s.
  /// Default 120 kph — the paper's experimental setting.
  double vmax_mps = 120.0 * 1000.0 / 3600.0;

  /// Discretization unit for mutual-segment time lengths, seconds
  /// ("such as half, one, or two minutes").
  int64_t time_unit_seconds = 60;

  /// Buckets beyond this index are treated as always-compatible
  /// (probability 0). 60 one-minute units ≈ "all mutual segments more
  /// than one hour long are compatible".
  int64_t horizon_units = 60;

  /// Additive (Laplace) smoothing weight per bucket:
  /// p = (incompat + alpha) / (total + 2 alpha). 0 disables smoothing.
  double laplace_alpha = 0.5;

  /// Acceptance model only: number of random different-person alignment
  /// pairs drawn per database. Algorithm 2 as written is quadratic in
  /// |DB|; sampling this many pairs gives an unbiased estimate of the
  /// same statistics.
  size_t acceptance_pairs_per_db = 2000;

  /// Seed for the acceptance-model pair sampler.
  uint64_t seed = 7;
};

/// The evidence discretization of models trained with `options`: the
/// Vmax, time unit and horizon their buckets were counted with, which
/// every query scoring against them must use too.
EvidenceOptions EvidenceOptionsFor(const ModelTrainingOptions& options);

/// Builds the rejection model M̂r (Algorithm 1): every *self*-segment of
/// every individual trajectory in P ∪ Q is treated as a mutual segment of
/// a same-person alignment, and per-bucket incompatibility frequencies
/// are tabulated. Both builders walk their segments on every hardware
/// thread and sum integer counts, so the model is bit-identical for any
/// thread count.
Result<CompatibilityModel> BuildRejectionModel(
    const traj::TrajectoryDatabase& p, const traj::TrajectoryDatabase& q,
    const ModelTrainingOptions& options);

/// Builds the acceptance model M̂a (Algorithm 2): aligns pairs of
/// *distinct* trajectories within the same database (different persons
/// with high probability) and tabulates mutual-segment incompatibility
/// frequencies. `options.acceptance_pairs_per_db` pairs are drawn per
/// database, each uniformly and independently (so with replacement), and
/// same-owner pairs are skipped. Each pair's counts come from
/// CollectEvidence, the walk queries score with.
Result<CompatibilityModel> BuildAcceptanceModel(
    const traj::TrajectoryDatabase& p, const traj::TrajectoryDatabase& q,
    const ModelTrainingOptions& options);

/// Trained model pair.
struct ModelPair {
  CompatibilityModel rejection;
  CompatibilityModel acceptance;
};

/// Convenience: trains both models with the same options.
Result<ModelPair> BuildModels(const traj::TrajectoryDatabase& p,
                              const traj::TrajectoryDatabase& q,
                              const ModelTrainingOptions& options);

}  // namespace ftl::core

#endif  // FTL_CORE_MODEL_BUILDERS_H_
