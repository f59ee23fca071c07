#ifndef FTL_BENCH_E2E_FLEET_H_
#define FTL_BENCH_E2E_FLEET_H_

/// \file fleet.h
/// The fleet population of bench_e2e: the activity model of
/// bench/bench_blocking.cc's MakeFleet, copied here so the end-to-end
/// bench owns its inputs. Each object is active for one multi-day
/// period at a random offset inside a long epoch (people appear in a
/// sensor feed for days, not months), so most candidate pairs are
/// temporally disjoint and the guaranteed blocking index has real work
/// to prune.
///
/// Two changes from the bench_blocking copy, both for the store-backed
/// bench: objects are produced one at a time as records (the bench
/// streams them into a store instead of building one FlatDatabase), and
/// an active period can be shifted past the epoch so that objects
/// ingested while queries run can never overlap any query's period.

#include <cstdint>
#include <vector>

#include "traj/record.h"

namespace ftl::bench_e2e {

constexpr int64_t kEpochSeconds = 120ll * 86400;  // observation window
constexpr int64_t kActiveSeconds = 3ll * 86400;   // per-object activity
constexpr double kCityMeters = 40000.0;
constexpr double kStepMeters = 600.0;

struct FleetRng {
  uint64_t s;
  explicit FleetRng(uint64_t seed) : s(seed * 6364136223846793005ull + 1ull) {}
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

/// One walk over an active period; phase/jitter distinguish the two
/// channels observing the same underlying object.
inline std::vector<traj::Record> ActiveWalk(FleetRng* rng, int64_t active_start,
                                            double hx, double hy, int64_t phase,
                                            double jitter) {
  std::vector<traj::Record> out;
  int64_t t = active_start + phase;
  double x = hx;
  double y = hy;
  const int64_t active_end = active_start + kActiveSeconds;
  while (t < active_end) {
    const double rx = x + (rng->U() - 0.5) * jitter;
    const double ry = y + (rng->U() - 0.5) * jitter;
    out.push_back(traj::Record{{rx, ry}, t});
    t += 1800 + static_cast<int64_t>(rng->U() * 3600.0);
    x += (rng->U() - 0.5) * 2.0 * kStepMeters;
    y += (rng->U() - 0.5) * 2.0 * kStepMeters;
    if (x < 0) x = 0;
    if (x > kCityMeters) x = kCityMeters;
    if (y < 0) y = 0;
    if (y > kCityMeters) y = kCityMeters;
  }
  return out;
}

/// Object `i` of the fleet drawn from `seed`: its candidate-channel
/// walk and, when `with_query`, the second-channel walk of the same
/// active period and home (the true match, offset in phase, noisier).
/// `after_epoch` starts the active period after the epoch instead of
/// inside it.
struct FleetObject {
  std::vector<traj::Record> candidate;
  std::vector<traj::Record> query;
};

inline FleetObject MakeFleetObject(uint64_t seed, uint64_t i, bool with_query,
                                   bool after_epoch) {
  FleetRng rng(seed + i * 2654435761ull);
  const int64_t active_start =
      (after_epoch ? kEpochSeconds : 0) +
      static_cast<int64_t>(
          rng.U() * static_cast<double>(kEpochSeconds - kActiveSeconds));
  const double hx = rng.U() * kCityMeters;
  const double hy = rng.U() * kCityMeters;
  FleetObject obj;
  obj.candidate = ActiveWalk(&rng, active_start, hx, hy, /*phase=*/0,
                             /*jitter=*/100.0);
  if (with_query) {
    obj.query = ActiveWalk(&rng, active_start, hx, hy, /*phase=*/900,
                           /*jitter=*/400.0);
  }
  return obj;
}

}  // namespace ftl::bench_e2e

#endif  // FTL_BENCH_E2E_FLEET_H_
