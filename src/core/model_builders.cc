#include "core/model_builders.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace ftl::core {

namespace {

constexpr size_t kCacheLine = 64;

/// Reserves `n` elements plus a spare cache line behind them, so no
/// allocation placed after the buffer shares a line with its elements.
template <typename T>
void ReserveSpareLine(std::vector<T>* v, size_t n) {
  v->reserve(n + kCacheLine / sizeof(T));
}

/// Shared bucket accumulator for both builders. Each training worker
/// writes its own one on every segment, so the object is line-aligned
/// and each of its buffers ends in a spare line: two workers' state
/// never shares a cache line.
class alignas(kCacheLine) BucketAccumulator {
 public:
  explicit BucketAccumulator(const ModelTrainingOptions& options)
      : options_(options) {
    const auto h = static_cast<size_t>(options.horizon_units);
    ReserveSpareLine(&incompat_, h);
    ReserveSpareLine(&total_, h);
    ReserveSpareLine(&pair_.count, h + 1);
    ReserveSpareLine(&pair_.incompatible, h + 1);
    incompat_.assign(h, 0);
    total_.assign(h, 0);
    // Sized here, on the calling thread, so CollectEvidence refills
    // these buffers in place (DESIGN.md §12).
    pair_.Reset(h);
  }

  /// Adds one self-segment observation (Algorithm 1 inner loop).
  void AddSegment(const traj::Record& a, const traj::Record& b) {
    int64_t dt = traj::TimeDiff(a, b);
    int64_t unit = (dt + options_.time_unit_seconds / 2) /
                   options_.time_unit_seconds;
    if (unit >= options_.horizon_units) return;  // always compatible
    size_t u = static_cast<size_t>(unit);
    ++total_[u];
    if (!traj::IsCompatible(a, b, options_.vmax_mps)) ++incompat_[u];
  }

  /// Adds every mutual segment of W_pq (Algorithm 2 inner loop) from
  /// the pair's bucket histogram; beyond-horizon segments stay in its
  /// overflow slot.
  void AddMutualSegments(const traj::Trajectory& p,
                         const traj::Trajectory& q) {
    CollectEvidence(p, q, EvidenceOptionsFor(options_), &pair_);
    for (size_t u = 0; u < total_.size(); ++u) {
      total_[u] += pair_.count[u];
      incompat_[u] += pair_.incompatible[u];
    }
  }

  /// Adds another accumulator's counts (same options).
  void Merge(const BucketAccumulator& other) {
    for (size_t u = 0; u < total_.size(); ++u) {
      incompat_[u] += other.incompat_[u];
      total_[u] += other.total_[u];
    }
  }

  size_t observations() const {
    size_t n = 0;
    for (int64_t t : total_) n += static_cast<size_t>(t);
    return n;
  }

  /// Finalizes bucket frequencies into a model. Buckets with no
  /// observations are filled by linear interpolation between their
  /// nearest observed neighbours (leading gap copies the first observed
  /// value; trailing gap decays linearly to 0 at the horizon).
  CompatibilityModel Finalize() const {
    size_t h = total_.size();
    std::vector<double> probs(h, -1.0);
    double alpha = options_.laplace_alpha;
    for (size_t i = 0; i < h; ++i) {
      if (total_[i] > 0) {
        probs[i] = (static_cast<double>(incompat_[i]) + alpha) /
                   (static_cast<double>(total_[i]) + 2.0 * alpha);
      }
    }
    FillGaps(&probs);
    CompatibilityModel model(options_.time_unit_seconds, std::move(probs));
    model.set_support(total_);
    return model;
  }

 private:
  static void FillGaps(std::vector<double>* probs) {
    size_t h = probs->size();
    // Leading gap: copy first observed value.
    size_t first = h;
    for (size_t i = 0; i < h; ++i) {
      if ((*probs)[i] >= 0.0) {
        first = i;
        break;
      }
    }
    if (first == h) {
      // No observations at all: degenerate model, all zeros.
      std::fill(probs->begin(), probs->end(), 0.0);
      return;
    }
    for (size_t i = 0; i < first; ++i) (*probs)[i] = (*probs)[first];
    // Interior gaps: interpolate; trailing gap: decay to 0 at horizon.
    size_t last_obs = first;
    for (size_t i = first + 1; i < h; ++i) {
      if ((*probs)[i] < 0.0) continue;
      if (i > last_obs + 1) {
        double lo = (*probs)[last_obs];
        double hi_v = (*probs)[i];
        for (size_t j = last_obs + 1; j < i; ++j) {
          double t = static_cast<double>(j - last_obs) /
                     static_cast<double>(i - last_obs);
          (*probs)[j] = lo + (hi_v - lo) * t;
        }
      }
      last_obs = i;
    }
    if (last_obs + 1 < h) {
      double lo = (*probs)[last_obs];
      size_t span = h - last_obs;
      for (size_t j = last_obs + 1; j < h; ++j) {
        double t = static_cast<double>(j - last_obs) /
                   static_cast<double>(span);
        (*probs)[j] = lo * (1.0 - t);
      }
    }
  }

  const ModelTrainingOptions& options_;
  std::vector<int64_t> incompat_;
  std::vector<int64_t> total_;
  BucketEvidence pair_;  ///< AddMutualSegments' scratch
};

Status ValidateOptions(const ModelTrainingOptions& options) {
  if (!std::isfinite(options.vmax_mps) || options.vmax_mps <= 0.0) {
    return Status::InvalidArgument("vmax must be positive and finite");
  }
  if (options.time_unit_seconds <= 0) {
    return Status::InvalidArgument("time unit must be positive");
  }
  if (options.horizon_units <= 0) {
    return Status::InvalidArgument("horizon must be positive");
  }
  if (!std::isfinite(options.laplace_alpha) || options.laplace_alpha < 0.0) {
    return Status::InvalidArgument("laplace alpha must be finite and >= 0");
  }
  return Status::OK();
}

/// Runs visit(k, partial) for every k in [0, n) over every hardware
/// thread, as Store::Recover does; each worker counts into its own
/// accumulator, and the partial counts are then summed into `acc`.
/// Every count is an integer, so the sum, and the model Finalize makes
/// of it, is the same for any thread count or chunking. The partial
/// accumulators are allocated and freed on the calling thread, so no
/// worker's malloc arena keeps them (DESIGN.md §12); each is constructed
/// in place, since a copy would not keep the spare lines.
template <typename Visit>
void AccumulateParallel(size_t n, const ModelTrainingOptions& options,
                        BucketAccumulator* acc, const Visit& visit) {
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = ParallelWorkerCount(n, threads);
  std::vector<BucketAccumulator> partial;
  partial.reserve(workers);
  for (size_t w = 0; w < workers; ++w) partial.emplace_back(options);
  ParallelForWorkers(n, threads,
                     [&](size_t worker, size_t begin, size_t end) {
                       for (size_t k = begin; k < end; ++k) {
                         visit(k, &partial[worker]);
                       }
                     });
  for (const BucketAccumulator& p : partial) acc->Merge(p);
}

void AccumulateSelfSegments(const traj::TrajectoryDatabase& db,
                            const ModelTrainingOptions& options,
                            BucketAccumulator* acc) {
  AccumulateParallel(db.size(), options, acc,
                     [&db](size_t k, BucketAccumulator* out) {
                       const auto& recs = db[k].records();
                       for (size_t i = 1; i < recs.size(); ++i) {
                         out->AddSegment(recs[i - 1], recs[i]);
                       }
                     });
}

void AccumulateDifferentPersonPairs(const traj::TrajectoryDatabase& db,
                                    const ModelTrainingOptions& options,
                                    Rng* rng, BucketAccumulator* acc) {
  size_t n = db.size();
  if (n < 2) return;
  // The pairs are drawn serially from the one Rng, so the sample does
  // not depend on the thread count; only their walks run in parallel.
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(options.acceptance_pairs_per_db);
  for (size_t k = 0; k < options.acceptance_pairs_per_db; ++k) {
    size_t i = rng->Index(n);
    size_t j = rng->Index(n - 1);
    if (j >= i) ++j;  // uniform pair with i != j
    // Skip the rare same-owner pair so the model stays a pure
    // different-person statistic (possible when a source splits one
    // owner across labels).
    if (db[i].owner() != traj::kUnknownOwner &&
        db[i].owner() == db[j].owner()) {
      continue;
    }
    pairs.emplace_back(i, j);
  }
  AccumulateParallel(pairs.size(), options, acc,
                     [&db, &pairs](size_t k, BucketAccumulator* out) {
                       out->AddMutualSegments(db[pairs[k].first],
                                              db[pairs[k].second]);
                     });
}

}  // namespace

EvidenceOptions EvidenceOptionsFor(const ModelTrainingOptions& options) {
  EvidenceOptions ev;
  ev.vmax_mps = options.vmax_mps;
  ev.time_unit_seconds = options.time_unit_seconds;
  ev.horizon_units = options.horizon_units;
  return ev;
}

Result<CompatibilityModel> BuildRejectionModel(
    const traj::TrajectoryDatabase& p, const traj::TrajectoryDatabase& q,
    const ModelTrainingOptions& options) {
  FTL_RETURN_NOT_OK(ValidateOptions(options));
  BucketAccumulator acc(options);
  AccumulateSelfSegments(p, options, &acc);
  AccumulateSelfSegments(q, options, &acc);
  if (acc.observations() == 0) {
    return Status::FailedPrecondition(
        "rejection model: no segments within the horizon; databases too "
        "sparse or horizon too small");
  }
  return acc.Finalize();
}

Result<CompatibilityModel> BuildAcceptanceModel(
    const traj::TrajectoryDatabase& p, const traj::TrajectoryDatabase& q,
    const ModelTrainingOptions& options) {
  FTL_RETURN_NOT_OK(ValidateOptions(options));
  if (p.size() < 2 && q.size() < 2) {
    return Status::FailedPrecondition(
        "acceptance model: need at least two trajectories in one database");
  }
  Rng rng(options.seed);
  BucketAccumulator acc(options);
  AccumulateDifferentPersonPairs(p, options, &rng, &acc);
  AccumulateDifferentPersonPairs(q, options, &rng, &acc);
  if (acc.observations() == 0) {
    return Status::FailedPrecondition(
        "acceptance model: sampled pairs produced no mutual segments "
        "within the horizon");
  }
  return acc.Finalize();
}

Result<ModelPair> BuildModels(const traj::TrajectoryDatabase& p,
                              const traj::TrajectoryDatabase& q,
                              const ModelTrainingOptions& options) {
  auto rej = BuildRejectionModel(p, q, options);
  if (!rej.ok()) return rej.status();
  auto acc = BuildAcceptanceModel(p, q, options);
  if (!acc.ok()) return acc.status();
  return ModelPair{std::move(rej).value(), std::move(acc).value()};
}

}  // namespace ftl::core
