#ifndef FTL_FTL_H_
#define FTL_FTL_H_

/// \file ftl.h
/// Umbrella header: the entire public FTL API.
///
/// Quick tour:
///   * traj::Trajectory / traj::TrajectoryDatabase — the data model,
///   * core::FtlEngine — train models and answer fuzzy-linking queries,
///   * core::AlphaFilter / core::NaiveBayesMatcher — the two classifiers,
///   * sim::* — synthetic city / taxi / population data generation,
///   * baselines::* — P2T/DTW/LCSS/EDR similarity search baselines,
///   * eval::* — perceptiveness/selectiveness/ranking metrics,
///   * analysis::* — the Section VI mutual-segment theory,
///   * io::* — CSV and model persistence,
///   * store::* — the crash-safe WAL-backed multi-segment store,
///   * serve::* — the `ftl serve` HTTP query daemon.

#include "analysis/feasibility.h"
#include "analysis/mutual_segment_analysis.h"
#include "baselines/search.h"
#include "baselines/similarity.h"
#include "core/alpha_filter.h"
#include "core/assignment.h"
#include "core/blocking.h"
#include "core/compatibility_model.h"
#include "core/engine.h"
#include "core/enrichment.h"
#include "core/evidence.h"
#include "core/identity_graph.h"
#include "core/model_builders.h"
#include "core/model_diagnostics.h"
#include "core/naive_bayes.h"
#include "core/streaming.h"
#include "privacy/attack_eval.h"
#include "privacy/defenses.h"
#include "eval/calibration.h"
#include "eval/metrics.h"
#include "eval/sweep.h"
#include "eval/workload.h"
#include "geo/point.h"
#include "geo/projection.h"
#include "io/csv.h"
#include "io/file_util.h"
#include "io/ftb.h"
#include "io/geojson.h"
#include "io/json_parse.h"
#include "io/model_io.h"
#include "io/report_json.h"
#include "serve/http.h"
#include "serve/server.h"
#include "sim/city.h"
#include "sim/observation.h"
#include "sim/path.h"
#include "sim/population_sim.h"
#include "sim/scenario.h"
#include "sim/taxi_sim.h"
#include "sim/transit_sim.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/goodness_of_fit.h"
#include "stats/poisson_binomial.h"
#include "store/compactor.h"
#include "store/manifest.h"
#include "store/memtable.h"
#include "store/store.h"
#include "store/wal.h"
#include "traj/alignment.h"
#include "traj/database.h"
#include "traj/flat_database.h"
#include "traj/record.h"
#include "traj/resample.h"
#include "traj/summary.h"
#include "traj/trajectory.h"
#include "traj/validation.h"
#include "traj/transforms.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

#endif  // FTL_FTL_H_
