#include "tools/cli.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <variant>

#include "ftl/ftl.h"
#include "obs/metrics.h"

namespace ftl::tools {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A `min` that admits every positive value and nothing else.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
/// The `def` of a flag the command cannot run without.
constexpr char kRequired[] = "";

using BoolField = bool Args::*;                      // takes no value
using ListField = std::vector<std::string> Args::*;  // may repeat

/// One declared flag. Its default is parsed and checked like a value
/// given on the command line; a flag without one starts out empty.
struct Flag {
  const char* name;  ///< without the leading "--"
  std::variant<std::string Args::*, int64_t Args::*, double Args::*,
               BoolField, ListField>
      field;
  /// The value's placeholder in the usage; "a|b|c" lists the only
  /// values the flag accepts.
  const char* meta;
  const char* def;  ///< nullptr: none; kRequired: must be given
  const char* help;
  double min = -kInf;  ///< inclusive bounds of a numeric value
  double max = kInf;
};

constexpr Flag kP = {"p", &Args::p, "FILE", kRequired,
                     "query-side database P"};
constexpr Flag kQ = {"q", &Args::q, "FILE", kRequired,
                     "candidate database Q"};
constexpr Flag kThreads = {"threads", &Args::threads, "N", "1",
                           "engine worker threads", 1};
constexpr Flag kMatcher = {"matcher", &Args::matcher, "nb|alpha", "nb",
                           "Naive-Bayes matching or (alpha1,alpha2)-filtering"};
constexpr Flag kVmax = {"vmax-kph", &Args::vmax_kph, "KPH", "120",
                        "maximum plausible speed Vmax, km/h", kPositive};

constexpr Flag kEngineFlags[] = {
    kVmax,
    {"unit-s", &Args::unit_s, "S", "60",
     "time unit of mutual-segment lengths, seconds", 1},
    {"horizon", &Args::horizon, "N", "60",
     "mutual segments longer than N time units count as compatible", 1},
    {"phi", &Args::phi, "P", "0.01",
     "nb prior phi_r that a pair is one person; larger loosens", 0, 1},
    {"alpha1", &Args::alpha1, "A", "0.01", "alpha rejection significance",
     0, 1},
    {"alpha2", &Args::alpha2, "A", "0.1", "alpha acceptance significance",
     0, 1},
};

constexpr Flag kBlockingFlags[] = {
    {"blocking", &Args::blocking, "off|guaranteed|aggressive", "off",
     "candidate pruning: guaranteed keeps the same results; aggressive "
     "adds heuristics (recall < 1)"},
    {"blocking-bucket-s", &Args::blocking_bucket_s, "S", "3600",
     "time-bucket width, seconds", 1},
    {"blocking-slack-s", &Args::blocking_slack_s, "S", "21600",
     "aggressive span slack, seconds", 0},
    {"blocking-cell-m", &Args::blocking_cell_m, "M", "3000",
     "aggressive grid cell size, meters", kPositive},
    {"blocking-min-cells", &Args::blocking_min_cells, "N", "1",
     "aggressive shared cells required (0: no spatial blocker)", 0},
    {"blocking-neighborhood", &Args::blocking_neighborhood, "R", "1",
     "aggressive cell expansion rings", 0, 16},
};

constexpr Flag kStoreFlags[] = {
    {"wal-sync", &Args::wal_sync, "always|interval|never", "interval",
     "fsync policy; always = every acked append survives any crash"},
    {"wal-sync-interval-ms", &Args::wal_sync_interval_ms, "MS", "50",
     "fsync cadence for interval mode", 1},
    {"flush-threshold", &Args::flush_threshold, "N", "100000",
     "memtable records before a flush to an immutable FTB segment", 1},
    {"flush-max-age-s", &Args::flush_max_age_s, "S", "0",
     "also flush a memtable older than S seconds (0: never)", 0},
    {"backpressure-factor", &Args::backpressure_factor, "F", "4",
     "while flushes fail, reject appends past F x flush-threshold", 1},
    {"compact-trigger", &Args::compact_trigger, "N", "0",
     "compact at >= N segments (0: never); in the background in serve", 0},
    {"compact-max-segments", &Args::compact_max_segments, "M", "8",
     "segments merged per compaction round", 2},
};

constexpr Flag kInputFlags[] = {
    {"lenient", &Args::lenient, "", nullptr,
     "quarantine malformed CSV rows instead of failing the load"},
    {"quarantine-out", &Args::quarantine_out, "F", nullptr,
     "with --lenient, write each input's quarantined rows to F.<flag>.csv"},
};

constexpr Flag kGlobalFlags[] = {
    {"failpoints", &Args::failpoints, "SPEC", nullptr,
     "arm fault injection: site=action[:arg];... (or FTL_FAILPOINTS)"},
    {"metrics-out", &Args::metrics_out, "F", nullptr,
     "write metrics to F even on failure (.prom/.txt: Prometheus, else JSON)"},
};

/// The shared flag groups; bit i of Command::groups selects kGroups[i].
struct Group {
  const char* title;
  std::span<const Flag> flags;
};
constexpr Group kGroups[] = {{"engine", kEngineFlags},
                             {"blocking", kBlockingFlags},
                             {"store", kStoreFlags},
                             {"input", kInputFlags},
                             {"global", kGlobalFlags}};
enum : unsigned { kEngine = 1, kBlocking = 2, kStore = 4, kInput = 8,
                  kGlobal = 16 };

/// Loads one input (CSV or FTB, sniffed by magic bytes) honoring
/// --lenient / --quarantine-out. `flag` names the sidecar suffix.
Result<traj::TrajectoryDatabase> LoadDb(const std::string& path,
                                        const Args& a, const char* flag,
                                        std::ostream& out) {
  // Transparent binary-store detection: an input starting with the FTB
  // magic loads through the columnar reader regardless of extension.
  // --lenient does not apply (it quarantines malformed CSV rows; FTB
  // sections are checksummed whole and either load or are rejected).
  if (io::SniffFtb(path)) {
    auto flat = io::ReadFtb(path);
    if (!flat.ok()) return flat.status();
    traj::TrajectoryDatabase db = flat.value().ToDatabase();
    if (db.name().empty()) db.set_name(path);
    return db;
  }
  if (!a.lenient) return io::ReadCsv(path, path);
  io::CsvReadOptions opts;
  opts.lenient = true;
  if (!a.quarantine_out.empty()) {
    opts.sidecar_path = a.quarantine_out + "." + flag + ".csv";
  }
  io::QuarantineReport report;
  auto db = io::ReadCsv(path, path, opts, &report);
  if (db.ok() && !report.empty()) {
    out << path << ": " << report.ToString() << "\n";
    for (const auto& sample : report.sample_rows) {
      out << "  " << sample << "\n";
    }
    if (!opts.sidecar_path.empty()) {
      out << "  quarantined rows written to " << opts.sidecar_path << "\n";
    }
  }
  return db;
}

core::EngineOptions EngineOptionsFromArgs(const Args& a) {
  core::EngineOptions eo;
  eo.training.vmax_mps = geo::KphToMps(a.vmax_kph);
  eo.training.time_unit_seconds = a.unit_s;
  eo.training.horizon_units = a.horizon;
  eo.naive_bayes.phi_r = a.phi;
  eo.alpha.alpha1 = a.alpha1;
  eo.alpha.alpha2 = a.alpha2;
  eo.num_threads = static_cast<size_t>(a.threads);
  return eo;
}

Status BlockingFromArgs(const Args& a, core::BlockingMode* mode,
                    core::BlockingOptions* bo) {
  auto m = core::ParseBlockingMode(a.blocking);
  if (!m.ok()) return m.status();
  *mode = m.value();
  bo->cell_size_meters = a.blocking_cell_m;
  bo->temporal_slack_seconds = a.blocking_slack_s;
  bo->time_bucket_seconds = a.blocking_bucket_s;
  bo->min_shared_cells = static_cast<size_t>(a.blocking_min_cells);
  bo->neighborhood = static_cast<int>(a.blocking_neighborhood);
  return Status::OK();
}

Result<store::StoreOptions> StoreOptionsFromArgs(const Args& a) {
  store::StoreOptions so;
  auto sync = store::ParseWalSync(a.wal_sync);
  if (!sync.ok()) return sync.status();
  so.wal_sync = sync.value();
  so.wal_sync_interval_ms = a.wal_sync_interval_ms;
  so.flush_threshold_records = static_cast<size_t>(a.flush_threshold);
  so.flush_max_age_seconds = a.flush_max_age_s;
  so.backpressure_factor = a.backpressure_factor;
  so.compact_trigger = static_cast<size_t>(a.compact_trigger);
  so.compact_max_segments = static_cast<size_t>(a.compact_max_segments);
  FTL_RETURN_NOT_OK(BlockingFromArgs(a, &so.blocking_mode, &so.blocking));
  return so;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes the metrics snapshot for --metrics-out (.prom/.txt:
/// Prometheus text, otherwise JSON). Uses a plain ofstream rather than
/// io::WriteTextFile so armed IO failpoints cannot block the
/// observability channel that would report them.
Status WriteMetricsSnapshot(const std::string& path) {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) {
    return Status::IOError("cannot open metrics output '" + path + "'");
  }
  if (EndsWith(path, ".prom") || EndsWith(path, ".txt")) {
    f << obs::DumpPrometheus();
  } else {
    f << obs::DumpJson() << "\n";
  }
  f.flush();
  if (!f) {
    return Status::IOError("failed writing metrics output '" + path + "'");
  }
  return Status::OK();
}

void PrintRecoveryInfo(const store::RecoveryInfo& info, std::ostream& out) {
  out << "recovered store: generation " << info.generation << ", "
      << info.segments << " segment(s), replayed " << info.replayed_batches
      << " batch(es) / " << info.replayed_records << " record(s)";
  if (info.dropped_batches > 0) {
    out << ", dropped " << info.dropped_batches << " invalid batch(es)";
  }
  if (info.torn_bytes_dropped > 0) {
    out << ", dropped " << info.torn_bytes_dropped << " torn WAL byte(s)";
  }
  if (info.orphans_removed > 0) {
    out << ", removed " << info.orphans_removed << " orphan file(s)";
  }
  out << " in " << info.seconds << "s\n";
}

constexpr Flag kIngestFlags[] = {
    {"store", &Args::store, "DIR", kRequired,
     "store directory; created on first use"},
    {"in", &Args::in, "FILE", kRequired, "trajectories to append"},
    {"flush", &Args::flush, "", nullptr,
     "force a final flush after ingesting"},
};

Status CmdIngest(const Args& a, std::ostream& out) {
  auto so = StoreOptionsFromArgs(a);
  if (!so.ok()) return so.status();
  auto db = LoadDb(a.in, a, "in", out);
  if (!db.ok()) return db.status();

  store::RecoveryInfo info;
  auto opened = store::Store::Open(a.store, so.value(), &info);
  if (!opened.ok()) return opened.status();
  store::Store& store = *opened.value();
  PrintRecoveryInfo(info, out);

  // One atomic batch per trajectory: a crash mid-ingest leaves a
  // prefix of whole trajectories, never a torn one.
  size_t batches = 0;
  size_t records = 0;
  for (const traj::Trajectory& t : db.value()) {
    store::IngestBatch batch;
    batch.rows.reserve(t.size());
    for (const traj::Record& r : t.records()) {
      batch.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                            r.location.x, r.location.y});
    }
    Status st = store.Append(batch);
    if (!st.ok()) {
      out << "ingest stopped after " << batches << " trajectory(ies) ("
          << records << " record(s)): " << st.ToString() << "\n";
      return st;
    }
    ++batches;
    records += batch.rows.size();
  }
  if (a.flush) FTL_RETURN_NOT_OK(store.Flush());
  // With a trigger configured, pack the segments before exiting — the
  // one-shot CLI has no background thread, so compaction runs inline.
  while (store.CompactionDue()) {
    auto cr = store.CompactOnce();
    if (!cr.ok()) return cr.status();
    if (cr.value().inputs == 0) break;
    out << "compacted " << cr.value().inputs << " segment(s) ("
        << cr.value().input_records << " record(s)) into 1 in "
        << cr.value().seconds << "s: generation " << cr.value().generation
        << "\n";
  }
  out << "ingested " << batches << " trajectory(ies) (" << records
      << " record(s)) into " << a.store << ": generation "
      << store.generation() << ", " << store.num_segments()
      << " segment(s), " << store.memtable_records()
      << " memtable record(s), " << store.total_records()
      << " total record(s), wal-sync="
      << store::WalSyncName(so.value().wal_sync) << "\n";
  return Status::OK();
}

constexpr Flag kSimulateFlags[] = {
    {"out-p", &Args::out_p, "FILE", kRequired, "CSV to write P to"},
    {"out-q", &Args::out_q, "FILE", kRequired, "CSV to write Q to"},
    {"config", &Args::config, "NAME", "SF",
     "dataset configuration, SA..SF or TA..TF"},
    {"objects", &Args::objects, "N", "200", "objects to simulate", 0},
    {"seed", &Args::seed, "S", "1", "simulation seed"},
};

Status CmdSimulate(const Args& a, std::ostream& out) {
  sim::DatasetConfig config = sim::FindConfig(a.config);
  if (config.name.empty()) {
    return Status::InvalidArgument("unknown config '" + a.config +
                                   "' (expected SA..SF or TA..TF)");
  }
  sim::DatasetPair pair =
      sim::BuildDataset(config, static_cast<size_t>(a.objects),
                        static_cast<uint64_t>(a.seed));
  FTL_RETURN_NOT_OK(io::WriteCsv(pair.p, a.out_p));
  FTL_RETURN_NOT_OK(io::WriteCsv(pair.q, a.out_q));
  out << "simulated " << config.name << ": wrote " << pair.p.size()
      << " trajectories (" << pair.p.TotalRecords() << " records) to "
      << a.out_p << ", " << pair.q.size() << " trajectories ("
      << pair.q.TotalRecords() << " records) to " << a.out_q << "\n";
  return Status::OK();
}

constexpr Flag kStatsFlags[] = {
    {"db", &Args::db, "FILE", kRequired, "database to summarize"},
};

Status CmdStats(const Args& a, std::ostream& out) {
  auto db = LoadDb(a.db, a, "db", out);
  if (!db.ok()) return db.status();
  out << "database: " << db.value().name() << "\n"
      << traj::ToString(traj::Summarize(db.value())) << "\n";
  return Status::OK();
}

constexpr Flag kTrainFlags[] = {
    kP, kQ,
    {"out-rejection", &Args::out_rejection, "FILE", kRequired,
     "where to write the rejection model Mr"},
    {"out-acceptance", &Args::out_acceptance, "FILE", kRequired,
     "where to write the acceptance model Ma"},
};

Status CmdTrain(const Args& a, std::ostream& out) {
  auto p = LoadDb(a.p, a, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(a.q, a, "q", out);
  if (!q.ok()) return q.status();
  auto models = core::BuildModels(p.value(), q.value(),
                                  EngineOptionsFromArgs(a).training);
  if (!models.ok()) return models.status();
  FTL_RETURN_NOT_OK(io::WriteModel(models.value().rejection,
                                   a.out_rejection));
  FTL_RETURN_NOT_OK(io::WriteModel(models.value().acceptance,
                                   a.out_acceptance));
  out << "trained models on " << p.value().size() << " x "
      << q.value().size() << " trajectories\n"
      << "rejection:  " << models.value().rejection.ToString() << "\n"
      << "acceptance: " << models.value().acceptance.ToString() << "\n";
  return Status::OK();
}

constexpr Flag kLinkFlags[] = {
    kP, kQ,
    {"query", &Args::query, "LABEL", nullptr,
     "link only this P trajectory (default: every one)"},
    kMatcher,
    {"top", &Args::top, "K", "10", "candidates printed per query", 0},
    {"json", &Args::json, "", nullptr,
     "print one JSON document per query: the serve API's wire format"},
    kThreads,
};

Status CmdLink(const Args& a, std::ostream& out) {
  core::EngineOptions eo = EngineOptionsFromArgs(a);
  auto matcher = core::ParseMatcher(a.matcher);
  if (!matcher.ok()) return matcher.status();
  core::BlockingMode blocking_mode = core::BlockingMode::kOff;
  core::BlockingOptions blocking_opts;
  FTL_RETURN_NOT_OK(BlockingFromArgs(a, &blocking_mode, &blocking_opts));
  auto p = LoadDb(a.p, a, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(a.q, a, "q", out);
  if (!q.ok()) return q.status();

  core::FtlEngine engine(eo);
  FTL_RETURN_NOT_OK(engine.Train(p.value(), q.value()));
  // Q becomes a one-segment snapshot, scored exactly as `ftl serve`
  // scores it (DESIGN.md §11); it carries Q's blocking index.
  auto snap = store::StoreSnapshot::Static(
      traj::FlatDatabase::FromDatabase(q.value()), blocking_mode,
      blocking_opts);
  if (!snap.ok()) return snap.status();

  std::vector<size_t> query_indices;
  if (!a.query.empty()) {
    size_t idx = p.value().Find(a.query);
    if (idx == traj::TrajectoryDatabase::npos) {
      return Status::NotFound("query label '" + a.query + "' not in P");
    }
    query_indices.push_back(idx);
  } else {
    for (size_t i = 0; i < p.value().size(); ++i) query_indices.push_back(i);
  }

  for (size_t qi : query_indices) {
    const auto& query = p.value()[qi];
    auto result = snap.value()->Query(engine, query, matcher.value(), nullptr,
                                      eo.num_threads);
    if (!result.ok()) return result.status();
    if (a.json) {
      // One JSON document per query, byte-identical to what the serve
      // daemon's /v1/query endpoint returns for the same inputs (both
      // call the same snapshot entry point and serializer).
      out << io::QueryResultToJson(query.label(), result.value()) << "\n";
      continue;
    }
    out << query.label() << " -> " << result.value().candidates.size()
        << " candidate(s)";
    size_t shown = 0;
    for (const auto& c : result.value().candidates) {
      if (shown++ >= static_cast<size_t>(a.top)) break;
      out << (shown == 1 ? ": " : ", ") << c.label << "("
          << FormatDouble(c.score, 4) << ")";
    }
    out << "\n";
  }
  return Status::OK();
}

constexpr Flag kExportFlags[] = {
    {"db", &Args::db, "FILE", kRequired, "database to convert"},
    {"out", &Args::out, "FILE", kRequired, "GeoJSON file to write"},
};

Status CmdExport(const Args& a, std::ostream& out) {
  auto db = LoadDb(a.db, a, "db", out);
  if (!db.ok()) return db.status();
  FTL_RETURN_NOT_OK(io::WriteGeoJson(db.value(), a.out));
  out << "wrote " << db.value().size() << " features to " << a.out << "\n";
  return Status::OK();
}

constexpr Flag kValidateFlags[] = {
    {"db", &Args::db, "FILE", kRequired, "database to audit"},
    {"sanitized-out", &Args::sanitized_out, "FILE", nullptr,
     "also write a sanitized copy to FILE"},
};

Status CmdValidate(const Args& a, std::ostream& out) {
  auto db = LoadDb(a.db, a, "db", out);
  if (!db.ok()) return db.status();
  auto report = traj::ValidateDatabase(db.value());
  out << report.ToString() << "\n";
  if (!a.sanitized_out.empty()) {
    auto clean = traj::Sanitize(db.value());
    FTL_RETURN_NOT_OK(io::WriteCsv(clean, a.sanitized_out));
    out << "sanitized copy (" << clean.size() << " trajectories, "
        << clean.TotalRecords() << " records) written to "
        << a.sanitized_out << "\n";
  }
  return Status::OK();
}

constexpr Flag kDiagnoseFlags[] = {kP, kQ};

Status CmdDiagnose(const Args& a, std::ostream& out) {
  auto p = LoadDb(a.p, a, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(a.q, a, "q", out);
  if (!q.ok()) return q.status();
  auto models = core::BuildModels(p.value(), q.value(),
                                  EngineOptionsFromArgs(a).training);
  if (!models.ok()) return models.status();
  auto diag = core::DiagnoseModels(models.value());
  out << diag.ToString() << "\n";
  out << "rejection:  " << models.value().rejection.ToString() << "\n";
  out << "acceptance: " << models.value().acceptance.ToString() << "\n";
  return Status::OK();
}

constexpr Flag kCalibrateFlags[] = {
    kP, kQ, kMatcher,
    {"budget", &Args::budget, "B", "10",
     "target mean candidates per query", 0},
    {"queries", &Args::queries, "N", "50",
     "calibration queries sampled from P", 1},
    kThreads,
};

Status CmdCalibrate(const Args& a, std::ostream& out) {
  auto matcher = core::ParseMatcher(a.matcher);
  if (!matcher.ok()) return matcher.status();
  auto p = LoadDb(a.p, a, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(a.q, a, "q", out);
  if (!q.ok()) return q.status();

  core::FtlEngine engine(EngineOptionsFromArgs(a));
  FTL_RETURN_NOT_OK(engine.Train(p.value(), q.value()));
  eval::CalibrationTarget target;
  target.max_mean_candidates = a.budget;
  eval::WorkloadOptions wo;
  wo.num_queries = static_cast<size_t>(a.queries);
  auto result = eval::AutoCalibrate(engine, p.value(), q.value(),
                                    matcher.value(), target, wo);
  if (!result.ok()) return result.status();
  const auto& r = result.value();
  if (matcher.value() == core::Matcher::kNaiveBayes) {
    out << "calibrated phi_r=" << FormatDouble(r.phi_r, 6) << "\n";
  } else {
    out << "calibrated alpha1=" << FormatDouble(r.alpha1, 6)
        << " alpha2=" << FormatDouble(r.alpha2, 6) << "\n";
  }
  out << "mean candidates/query " << FormatDouble(r.mean_candidates, 2)
      << " (budget " << FormatDouble(a.budget, 1)
      << "), perceptiveness " << FormatDouble(r.perceptiveness, 3)
      << ", selectiveness " << FormatDouble(r.selectiveness, 5) << "\n";
  if (!r.feasible) {
    out << "warning: budget infeasible -- even the strictest grid point "
           "exceeds "
        << FormatDouble(a.budget, 1)
        << " mean candidates/query; returned setting is the strictest "
           "available\n";
  }
  return Status::OK();
}

constexpr Flag kEnrichFlags[] = {
    kP, kQ,
    {"query", &Args::query, "LABEL", kRequired, "the P trajectory"},
    {"candidate", &Args::candidate, "LABEL", kRequired,
     "the Q trajectory it links to"},
    kVmax,
};

Status CmdEnrich(const Args& a, std::ostream& out) {
  auto p = LoadDb(a.p, a, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(a.q, a, "q", out);
  if (!q.ok()) return q.status();
  size_t pi = p.value().Find(a.query);
  if (pi == traj::TrajectoryDatabase::npos) {
    return Status::NotFound("query label '" + a.query + "' not in P");
  }
  size_t qi = q.value().Find(a.candidate);
  if (qi == traj::TrajectoryDatabase::npos) {
    return Status::NotFound("candidate label '" + a.candidate +
                            "' not in Q");
  }
  core::EnrichmentOptions opts;
  opts.p_source_name = "P";
  opts.q_source_name = "Q";
  opts.vmax_mps = geo::KphToMps(a.vmax_kph);
  auto enriched = core::Enrich(p.value()[pi], q.value()[qi], opts);
  if (!enriched.ok()) return enriched.status();
  out << core::ToTableString(enriched.value(), 30);
  out << "densification x" +
             FormatDouble(enriched.value().densification_factor, 2)
      << ", incompatible mutual segments "
      << enriched.value().incompatible_mutual_segments << "\n";
  return Status::OK();
}

constexpr Flag kConvertFlags[] = {
    {"in", &Args::in, "FILE", kRequired, "database to convert"},
    {"out", &Args::out, "FILE", kRequired, "file to write"},
    {"to", &Args::to, "ftb|csv", nullptr,
     "output format (default: csv for a .csv output, else ftb)"},
};

Status CmdConvert(const Args& a, std::ostream& out) {
  auto db = LoadDb(a.in, a, "in", out);
  if (!db.ok()) return db.status();
  // Without --to, the output extension picks the format; FTB is the
  // default (the whole point of converting).
  if (a.to == "csv" || (a.to.empty() && EndsWith(a.out, ".csv"))) {
    FTL_RETURN_NOT_OK(io::WriteCsv(db.value(), a.out));
    out << "wrote " << db.value().size() << " trajectories ("
        << db.value().TotalRecords() << " records) to " << a.out
        << " (CSV)\n";
  } else {
    traj::FlatDatabase flat = traj::FlatDatabase::FromDatabase(db.value());
    FTL_RETURN_NOT_OK(io::WriteFtb(flat, a.out));
    out << "wrote " << flat.size() << " trajectories ("
        << flat.TotalRecords() << " records) to " << a.out << " (FTB)\n";
  }
  return Status::OK();
}

constexpr Flag kServeFlags[] = {
    kP,
    {"ftb", &Args::ftb, "FILE", nullptr,
     "candidate shard, repeatable; shards merge in flag order"},
    {"q", &Args::q_shards, "FILE", nullptr,
     "a shard like --ftb, merged after every --ftb shard"},
    {"store", &Args::store, "DIR", nullptr,
     "serve a live store that /v1/ingest appends to, not shards"},
    {"listen", &Args::listen, "HOST:PORT", "127.0.0.1:8080", "bind address"},
    {"threads", &Args::workers, "N", nullptr,
     "worker threads (default: hardware threads / --query-threads)", 1},
    {"query-threads", &Args::query_threads, "N", "1",
     "threads sharding each query; results stay byte-identical", 1},
    {"max-queue", &Args::max_queue, "N", "128",
     "bounded request queue; beyond it requests get 503", 1},
    {"request-deadline-ms", &Args::request_deadline_ms, "MS", "0",
     "default request deadline; 408 with a partial result (0: none)", 0},
    kMatcher,
};

Status CmdServe(const Args& a, std::ostream& out) {
  // Candidate side: either static shards (--ftb/--q, merged in flag
  // order) or a live store (--store DIR) that /v1/ingest appends to.
  std::vector<std::string> shard_paths = a.ftb;
  shard_paths.insert(shard_paths.end(), a.q_shards.begin(),
                     a.q_shards.end());
  if (a.store.empty() == shard_paths.empty()) {
    return Status::InvalidArgument(
        a.store.empty()
            ? "serve needs --store DIR or at least one --ftb (or --q) shard"
            : "--store and --ftb/--q are mutually exclusive");
  }

  serve::ServeOptions so;
  size_t colon = a.listen.rfind(':');
  int64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseInt64(a.listen.substr(colon + 1), &port) || port < 0 ||
      port > 65535) {
    return Status::InvalidArgument("--listen expects HOST:PORT, got '" +
                                   a.listen + "'");
  }
  so.host = a.listen.substr(0, colon);
  so.port = static_cast<int>(port);
  // Worker-pool parallelism across requests, serial inside each query;
  // --threads sizes the pool, not the engine (0 = hardware concurrency).
  so.num_threads = static_cast<size_t>(a.workers);
  so.max_queue = static_cast<size_t>(a.max_queue);
  so.request_deadline_ms = a.request_deadline_ms;
  so.store_query_threads = static_cast<size_t>(a.query_threads);
  if (a.workers == 0 && so.store_query_threads > 1) {
    // Keep workers x query-threads within the machine when --threads is
    // left to default.
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    size_t sized = hw / so.store_query_threads;
    so.num_threads = sized > 0 ? sized : 1;
  }
  auto matcher = core::ParseMatcher(a.matcher);
  if (!matcher.ok()) return matcher.status();
  so.default_matcher = matcher.value();
  // --blocking reaches a static Q's one-segment snapshot and a store's
  // per-segment indices alike through the store options.
  auto sto = StoreOptionsFromArgs(a);
  if (!sto.ok()) return sto.status();
  core::EngineOptions engine_opts = EngineOptionsFromArgs(a);
  engine_opts.num_threads = 1;

  auto p = LoadDb(a.p, a, "p", out);
  if (!p.ok()) return p.status();
  traj::TrajectoryDatabase q("Q");
  for (const auto& path : shard_paths) {
    auto shard = LoadDb(path, a, "ftb", out);
    if (!shard.ok()) return shard.status();
    if (shard_paths.size() == 1) {
      q = std::move(shard).value();
    } else {
      for (const auto& t : shard.value()) {
        Status st = q.Add(t);
        if (!st.ok()) {
          return Status::InvalidArgument("merging shard '" + path +
                                         "': " + st.message());
        }
      }
    }
  }

  core::FtlEngine engine(engine_opts);

  // SIGTERM / SIGINT trigger the same graceful drain as
  // POST /admin/shutdown: stop accepting, finish what was admitted.
  static std::atomic<int> stop_flag{0};
  stop_flag.store(0);
  serve::InstallShutdownSignalHandlers(&stop_flag);
  so.stop_flag = &stop_flag;

  if (!a.store.empty()) {
    // Store mode is two-phase: bind first so probes reach the process
    // (/readyz answers 503), then run the possibly-long recovery and
    // training behind the readiness gate.
    std::unique_ptr<store::Store> store =
        store::Store::Create(a.store, sto.value());
    so.start_ready = false;
    serve::FtlServer server(so, &engine, &p.value(), store.get());
    // Background compaction (--compact-trigger): started only after
    // recovery succeeds; Stop() joins any in-flight round on exit.
    store::Compactor compactor(store.get());
    FTL_RETURN_NOT_OK(server.Start());
    out << "listening on " << so.host << ":" << server.port()
        << " (store=" << a.store << ", warming up: /readyz is 503)\n";
    out.flush();
    store::RecoveryInfo info;
    Status st = store->Recover(&info);
    if (st.ok()) {
      PrintRecoveryInfo(info, out);
      traj::TrajectoryDatabase q0 = store->MaterializeAll("store");
      st = engine.Train(p.value(), q0);
      if (st.ok()) {
        if (sto.value().compact_trigger > 0) compactor.Start();
        server.MarkReady();
        out << "ready: serving |P|=" << p.value().size() << " |Q|="
            << q0.size() << " (generation " << store->generation() << ", "
            << store->num_segments() << " segment(s), wal-sync="
            << store::WalSyncName(sto.value().wal_sync)
            << ", query-threads=" << so.store_query_threads
            << ", compact-trigger=" << sto.value().compact_trigger << ")\n";
        out.flush();
      }
    }
    if (!st.ok()) {
      // Warm-up failed: drain whatever connected and report the error
      // through the normal exit-code path.
      server.Shutdown();
      server.Wait();
      return st;
    }
    server.Wait();
    compactor.Stop();
    out << "drained " << server.requests_handled() << " request(s) ("
        << compactor.rounds() << " compaction round(s)); bye\n";
    return Status::OK();
  }

  FTL_RETURN_NOT_OK(engine.Train(p.value(), q));
  auto snap = store::StoreSnapshot::Static(traj::FlatDatabase::FromDatabase(q),
                                           sto.value().blocking_mode,
                                           sto.value().blocking);
  if (!snap.ok()) return snap.status();
  q = traj::TrajectoryDatabase();  // the snapshot holds Q from here on
  serve::FtlServer server(so, &engine, &p.value(), snap.value());
  FTL_RETURN_NOT_OK(server.Start());
  out << "serving |P|=" << p.value().size() << " |Q|=" << snap.value()->size()
      << " on " << so.host << ":" << server.port() << " (workers="
      << (so.num_threads == 0 ? std::thread::hardware_concurrency()
                              : so.num_threads)
      << ", max-queue=" << so.max_queue << ", request-deadline-ms="
      << so.request_deadline_ms << ", matcher=" << a.matcher << ")\n";
  out.flush();
  server.Wait();
  out << "drained " << server.requests_handled() << " request(s); bye\n";
  return Status::OK();
}

constexpr Flag kMetricsFlags[] = {
    {"format", &Args::format, "prom|json", "prom", "exposition format"},
};

Status CmdMetrics(const Args& a, std::ostream& out) {
  if (a.format == "json") {
    out << obs::DumpJson() << "\n";
  } else {
    out << obs::DumpPrometheus();
  }
  return Status::OK();
}

struct Command {
  const char* name;
  const char* summary;
  std::span<const Flag> flags;  ///< the command's own
  unsigned groups;              ///< the shared groups it takes
  Status (*run)(const Args&, std::ostream&);
};

constexpr Command kCommands[] = {
    {"simulate", "generate a synthetic dataset pair", kSimulateFlags,
     kGlobal, CmdSimulate},
    {"stats", "print Table-I style statistics", kStatsFlags,
     kInput | kGlobal, CmdStats},
    {"train", "train and persist both models", kTrainFlags,
     kEngine | kInput | kGlobal, CmdTrain},
    {"link", "link query trajectories against Q", kLinkFlags,
     kEngine | kBlocking | kInput | kGlobal, CmdLink},
    {"export", "convert a database to GeoJSON", kExportFlags,
     kInput | kGlobal, CmdExport},
    {"validate", "audit data quality, optionally fix", kValidateFlags,
     kInput | kGlobal, CmdValidate},
    {"diagnose", "report model separability", kDiagnoseFlags,
     kEngine | kInput | kGlobal, CmdDiagnose},
    {"calibrate", "auto-pick thresholds for a candidate budget",
     kCalibrateFlags, kEngine | kInput | kGlobal, CmdCalibrate},
    {"enrich", "merge a linked pair (Figure 2)", kEnrichFlags,
     kInput | kGlobal, CmdEnrich},
    {"convert", "convert between CSV and the FTB binary columnar store",
     kConvertFlags, kInput | kGlobal, CmdConvert},
    {"metrics", "dump the process metrics registry", kMetricsFlags,
     kGlobal, CmdMetrics},
    {"ingest", "append trajectories to a crash-safe store (DESIGN.md §12)",
     kIngestFlags, kStore | kBlocking | kInput | kGlobal, CmdIngest},
    {"serve", "run the HTTP/1.1 JSON query daemon (docs/OPERATIONS.md)",
     kServeFlags, kEngine | kBlocking | kStore | kInput | kGlobal,
     CmdServe},
};

const Command* FindCommand(const std::string& name) {
  for (const Command& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

/// The command's own flags, then those of its shared groups.
std::vector<const Flag*> FlagsOf(const Command& c) {
  std::vector<const Flag*> flags;
  for (const Flag& f : c.flags) flags.push_back(&f);
  for (size_t g = 0; g < std::size(kGroups); ++g) {
    if ((c.groups >> g & 1u) == 0) continue;
    for (const Flag& f : kGroups[g].flags) flags.push_back(&f);
  }
  return flags;
}

/// Stores `text` as the value of `f` in `a`, checked against its type,
/// choices and bounds.
Status Set(const Flag& f, const std::string& text, Args* a) {
  const std::string expects = "--" + std::string(f.name) + " expects ";
  double num = 0;  // a numeric value, for the bounds check
  if (auto m = std::get_if<BoolField>(&f.field)) {
    a->**m = true;
  } else if (auto m = std::get_if<ListField>(&f.field)) {
    (a->**m).push_back(text);
  } else if (auto m = std::get_if<std::string Args::*>(&f.field)) {
    const std::vector<std::string> choices = Split(f.meta, '|');
    if (choices.size() > 1 &&
        std::find(choices.begin(), choices.end(), text) == choices.end()) {
      return Status::InvalidArgument(expects + f.meta + ", got '" + text +
                                     "'");
    }
    a->**m = text;
  } else if (auto m = std::get_if<int64_t Args::*>(&f.field)) {
    if (!ParseInt64(text, &(a->**m))) {
      return Status::InvalidArgument(expects + "an integer, got '" + text +
                                     "'");
    }
    num = static_cast<double>(a->**m);
  } else if (auto m = std::get_if<double Args::*>(&f.field)) {
    if (!ParseDouble(text, &(a->**m)) || !std::isfinite(a->**m)) {
      return Status::InvalidArgument(expects + "a finite number, got '" +
                                     text + "'");
    }
    num = a->**m;
  }
  if (num >= f.min && num <= f.max) return Status::OK();
  std::ostringstream bound;
  if (f.min == kPositive) {
    bound << "> 0";
  } else if (f.max == kInf) {
    bound << ">= " << f.min;
  } else {
    bound << "in [" << f.min << ", " << f.max << "]";
  }
  return Status::InvalidArgument("--" + std::string(f.name) + " must be " +
                                 bound.str() + ", got '" + text + "'");
}

/// `lead` padded to column `col`, then `text` wrapped at 79 columns
/// with continuation lines indented to `col`; a lead that reaches the
/// column puts the text on the next line.
std::string Wrap(const std::string& lead, size_t col,
                 const std::string& text) {
  std::string out;
  std::string line = lead;
  if (line.size() >= col) {
    out = line + "\n";
    line.clear();
  }
  line.resize(col, ' ');
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (line.size() > col && line.size() + 1 + word.size() > 79) {
      out += line + "\n";
      line.assign(col, ' ');
    }
    line += (line.size() > col ? " " : "") + word;
  }
  return out + line + "\n";
}

std::string FlagUsage(const Flag& f) {
  std::string lead = "    --" + std::string(f.name);
  if (*f.meta != '\0') lead += " " + std::string(f.meta);
  std::string help = f.help;
  if (f.def == kRequired) {
    help += " (required)";
  } else if (f.def != nullptr) {
    help += " (default " + std::string(f.def) + ")";
  }
  return Wrap(lead, 30, help);
}

}  // namespace

Result<Args> ParseArgs(const std::string& command,
                       const std::vector<std::string>& argv) {
  const Command* c = FindCommand(command);
  if (c == nullptr) {
    return Status::InvalidArgument("unknown command '" + command + "'");
  }
  const std::vector<const Flag*> flags = FlagsOf(*c);
  Args a;
  for (const Flag* f : flags) {
    if (f->def != nullptr && f->def != kRequired) {
      FTL_RETURN_NOT_OK(Set(*f, f->def, &a));
    }
  }
  std::vector<const Flag*> seen;
  for (size_t i = 0; i < argv.size(); ++i) {
    const std::string& tok = argv[i];
    if (tok.size() <= 2 || !StartsWith(tok, "--")) {
      return Status::InvalidArgument("expected --flag, got '" + tok + "'");
    }
    auto it = std::find_if(flags.begin(), flags.end(), [&](const Flag* f) {
      return tok.compare(2, std::string::npos, f->name) == 0;
    });
    if (it == flags.end()) {
      return Status::InvalidArgument("ftl " + command + " takes no flag " +
                                     tok);
    }
    const Flag& f = **it;
    if (!std::holds_alternative<ListField>(f.field) &&
        std::find(seen.begin(), seen.end(), &f) != seen.end()) {
      return Status::InvalidArgument(tok + " is given more than once");
    }
    seen.push_back(&f);
    std::string value;
    if (!std::holds_alternative<BoolField>(f.field)) {
      if (i + 1 == argv.size() || argv[i + 1].empty() ||
          StartsWith(argv[i + 1], "--")) {
        return Status::InvalidArgument(tok + " needs a value");
      }
      value = argv[++i];
    }
    FTL_RETURN_NOT_OK(Set(f, value, &a));
  }
  for (const Flag* f : flags) {
    if (f->def == kRequired &&
        std::find(seen.begin(), seen.end(), f) == seen.end()) {
      return Status::InvalidArgument("missing required --" +
                                     std::string(f->name));
    }
  }
  return a;
}

std::vector<std::string> FlagNames(const std::string& command) {
  std::vector<std::string> names;
  if (const Command* c = FindCommand(command)) {
    for (const Flag* f : FlagsOf(*c)) names.push_back(f->name);
  }
  return names;
}

std::string UsageText() {
  std::string u =
      "ftl — fuzzy trajectory linking toolkit\n"
      "\n"
      "usage: ftl <command> [--flag value ...]\n"
      "\n"
      "commands:\n";
  for (const Command& c : kCommands) {
    u += Wrap("  " + std::string(c.name), 12, c.summary);
    for (const Flag& f : c.flags) u += FlagUsage(f);
    std::string groups;
    for (size_t g = 0; g < std::size(kGroups); ++g) {
      if ((c.groups >> g & 1u) == 0) continue;
      groups += (groups.empty() ? "    + " : ", ") +
                std::string(kGroups[g].title);
    }
    u += groups + " flags\n";
  }
  for (const Group& g : kGroups) {
    u += "\n" + std::string(g.title) + " flags:\n";
    for (const Flag& f : g.flags) u += FlagUsage(f);
  }
  return u +
         "\nAny --p/--q/--db/--in input may be a .ftb file (sniffed by magic\n"
         "bytes) instead of CSV. A flag the command does not take, a repeated\n"
         "flag (only --ftb and --q repeat) or a bad value exits 2.\n";
}

int RunCli(const std::vector<std::string>& args, std::ostream& out) {
  return RunCli(args, out, out);
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  // Honor FTL_FAILPOINTS before anything fallible runs, so injected
  // faults cover the whole command.
  Status env = failpoint::InitFromEnv();
  if (!env.ok()) {
    err << "error: " << env.ToString() << "\n";
    return ExitCodeForStatus(env);
  }
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << UsageText();
    return args.empty() ? 1 : 0;
  }
  const Command* cmd = FindCommand(args[0]);
  if (cmd == nullptr) {
    err << "error: unknown command '" << args[0] << "'\n" << UsageText();
    return 1;
  }
  auto parsed = ParseArgs(cmd->name, {args.begin() + 1, args.end()});
  if (!parsed.ok()) {
    err << "error: " << parsed.status().ToString() << "\n";
    return ExitCodeForStatus(parsed.status());
  }
  const Args& a = parsed.value();
  if (!a.failpoints.empty()) {
    Status fp = failpoint::Configure(a.failpoints);
    if (!fp.ok()) {
      err << "error: " << fp.ToString() << "\n";
      return ExitCodeForStatus(fp);
    }
  }
  Status st = cmd->run(a, out);
  // The snapshot is written even when the command failed: counters
  // explaining the failure (quarantines, failpoint trips, truncations)
  // are exactly what a post-mortem wants.
  if (!a.metrics_out.empty()) {
    Status ms = WriteMetricsSnapshot(a.metrics_out);
    if (!ms.ok()) {
      err << "error: " << ms.ToString() << "\n";
      if (st.ok()) return ExitCodeForStatus(ms);
    }
  }
  if (!st.ok()) {
    err << "error: " << st.ToString() << "\n";
    return ExitCodeForStatus(st);
  }
  return 0;
}

}  // namespace ftl::tools
