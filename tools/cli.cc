#include "tools/cli.h"

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

#include "ftl/ftl.h"
#include "obs/metrics.h"

namespace ftl::tools {

Result<ArgMap> ArgMap::Parse(const std::vector<std::string>& args) {
  ArgMap m;
  size_t i = 0;
  while (i < args.size()) {
    const std::string& tok = args[i];
    if (tok.rfind("--", 0) != 0 || tok.size() <= 2) {
      return Status::InvalidArgument("expected --flag, got '" + tok + "'");
    }
    std::string key = tok.substr(2);
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      m.kv_.emplace_back(key, args[i + 1]);
      i += 2;
    } else {
      m.kv_.emplace_back(key, "true");
      i += 1;
    }
  }
  return m;
}

std::string ArgMap::Get(const std::string& key,
                        const std::string& fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return fallback;
}

bool ArgMap::Has(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

std::vector<std::string> ArgMap::GetAll(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

Result<double> ArgMap::GetDouble(const std::string& key,
                                 double fallback) const {
  if (!Has(key)) return fallback;
  double v = 0;
  if (!ParseDouble(Get(key, ""), &v)) {
    return Status::InvalidArgument("--" + key + " expects a number, got '" +
                                   Get(key, "") + "'");
  }
  return v;
}

Result<int64_t> ArgMap::GetInt(const std::string& key,
                               int64_t fallback) const {
  if (!Has(key)) return fallback;
  int64_t v = 0;
  if (!ParseInt64(Get(key, ""), &v)) {
    return Status::InvalidArgument("--" + key +
                                   " expects an integer, got '" +
                                   Get(key, "") + "'");
  }
  return v;
}

std::string UsageText() {
  return
      "ftl — fuzzy trajectory linking toolkit\n"
      "\n"
      "usage: ftl <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  simulate  --out-p P.csv --out-q Q.csv [--config SF] [--objects N]\n"
      "            [--seed S]          generate a synthetic dataset pair\n"
      "  stats     --db D.csv          print Table-I style statistics\n"
      "  train     --p P.csv --q Q.csv --out-rejection R.model\n"
      "            --out-acceptance A.model [--vmax-kph 120] [--unit-s 60]\n"
      "            [--horizon 60]      train and persist both models\n"
      "  link      --p P.csv --q Q.csv [--query LABEL] [--matcher nb|alpha]\n"
      "            [--phi 0.01] [--alpha1 0.01] [--alpha2 0.1] [--top 10]\n"
      "            [--threads 1] [--json] [--blocking off|guaranteed|\n"
      "            aggressive]\n"
      "                                link query trajectories against Q;\n"
      "                                --json emits one JSON document per\n"
      "                                query (the serve API's wire format)\n"
      "  export    --db D.csv --out D.geojson\n"
      "                                convert a database to GeoJSON\n"
      "  validate  --db D.csv [--sanitized-out C.csv]\n"
      "                                audit data quality, optionally fix\n"
      "  diagnose  --p P.csv --q Q.csv report model separability\n"
      "  calibrate --p P.csv --q Q.csv [--matcher nb|alpha] [--budget 10]\n"
      "            [--queries 50]      auto-pick thresholds for a budget\n"
      "  enrich    --p P.csv --q Q.csv --query L1 --candidate L2\n"
      "                                merge a linked pair (Figure 2)\n"
      "  convert   --in D.csv --out D.ftb [--to ftb|csv]\n"
      "                                convert between CSV and the FTB\n"
      "                                binary columnar store\n"
      "  metrics   [--format prom|json]\n"
      "                                dump the process metrics registry\n"
      "  ingest    --store DIR --in D.csv\n"
      "                                append trajectories to a crash-safe\n"
      "                                WAL-backed store (one atomic batch\n"
      "                                per trajectory; DESIGN.md §12)\n"
      "    --wal-sync MODE           always|interval|never: fsync policy\n"
      "                              (default interval; always = every\n"
      "                              acked append survives any crash)\n"
      "    --wal-sync-interval-ms MS fsync cadence for interval mode\n"
      "                              (default 50)\n"
      "    --flush-threshold N       memtable records before an automatic\n"
      "                              flush to an immutable FTB segment\n"
      "                              (default 100000)\n"
      "    --flush-max-age-s S       also flush when the memtable is older\n"
      "                              than S seconds (default 0 = off)\n"
      "    --backpressure-factor F   reject appends (exit code 5) once the\n"
      "                              memtable exceeds F x flush-threshold\n"
      "                              with flushes failing (default 4)\n"
      "    --flush                   force a final flush after ingesting\n"
      "    --compact-trigger N       compact once the store holds >= N\n"
      "                              segments (default 0 = off); ingest\n"
      "                              compacts inline before exiting, serve\n"
      "                              runs a background compactor thread\n"
      "    --compact-max-segments M  segments merged per compaction round\n"
      "                              (default 8, minimum 2)\n"
      "  serve     --p P.csv --ftb Q.ftb [--ftb MORE.ftb ...]\n"
      "                                run the long-lived query daemon:\n"
      "                                HTTP/1.1 JSON API (POST /v1/query,\n"
      "                                POST /v1/rank, POST /v1/ingest,\n"
      "                                GET /metrics, GET /healthz,\n"
      "                                GET /readyz, POST /admin/shutdown)\n"
      "    --listen H:P              bind address (default 127.0.0.1:8080)\n"
      "    --ftb FILE                candidate shard, repeatable; shards\n"
      "                              merge in flag order (CSV or FTB,\n"
      "                              sniffed by magic bytes)\n"
      "    --store DIR               candidate side is a live store\n"
      "                              instead of static shards: /v1/ingest\n"
      "                              appends (visible immediately), the\n"
      "                              port binds before recovery + training\n"
      "                              and /readyz gates the warm-up; the\n"
      "                              ingest flags above apply\n"
      "    --threads N               worker threads (default: one per\n"
      "                              hardware thread; with --query-threads\n"
      "                              set, defaults to hardware threads /\n"
      "                              query threads to keep the product\n"
      "                              within the machine)\n"
      "    --query-threads N         store mode: shard each query's\n"
      "                              segment walk over N threads; results\n"
      "                              stay byte-identical (default 1)\n"
      "    --max-queue N             bounded request queue; beyond it new\n"
      "                              requests get 503 + Retry-After\n"
      "                              (default 128)\n"
      "    --request-deadline-ms MS  default per-request deadline; expired\n"
      "                              requests get 408 with the partial\n"
      "                              result (default 0 = none)\n"
      "    --matcher nb|alpha        default matcher for requests that\n"
      "                              name none (default nb)\n"
      "                              see docs/OPERATIONS.md + docs/API.md\n"
      "\n"
      "candidate generation (link + serve, DESIGN.md §13):\n"
      "  --blocking MODE       off (default, exhaustive) | guaranteed\n"
      "                        (prune with byte-identical results) |\n"
      "                        aggressive (span-overlap + co-visitation\n"
      "                        heuristics; recall < 1)\n"
      "  --blocking-bucket-s S time-bucket width, seconds (default 3600)\n"
      "  --blocking-slack-s S  aggressive span slack, seconds\n"
      "                        (default 21600)\n"
      "  --blocking-cell-m M   aggressive grid cell size, meters\n"
      "                        (default 3000)\n"
      "  --blocking-min-cells N  shared cells required (0 disables the\n"
      "                        spatial blocker; default 1)\n"
      "  --blocking-neighborhood R  cell expansion rings (default 1)\n"
      "\n"
      "Any --p/--q/--db/--in input may be a .ftb file (detected by magic\n"
      "bytes, loaded zero-copy via mmap) instead of CSV.\n"
      "\n"
      "global flags:\n"
      "  --lenient             quarantine malformed CSV rows instead of\n"
      "                        failing the load (summary printed)\n"
      "  --quarantine-out F    with --lenient, write quarantined rows of\n"
      "                        each input to F.<flag>.csv\n"
      "  --failpoints SPEC     arm fault injection: site=action[:arg];...\n"
      "                        (also via the FTL_FAILPOINTS env var)\n"
      "  --metrics-out F       after the command runs, write a metrics\n"
      "                        snapshot to F (.prom/.txt: Prometheus text,\n"
      "                        otherwise JSON); written even on failure\n";
}

namespace {

/// Loads one input (CSV or FTB, sniffed by magic bytes) honoring the
/// global --lenient / --quarantine-out flags. `flag` names the sidecar
/// suffix and diagnostics only; `path` is the actual input.
Result<traj::TrajectoryDatabase> LoadDbFromPath(const std::string& path,
                                                const ArgMap& args,
                                                const std::string& flag,
                                                std::ostream& out) {
  if (path.empty()) {
    return Status::InvalidArgument("missing required --" + flag);
  }
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
  if (!args.Has("lenient")) return io::ReadCsv(path, path);
  io::CsvReadOptions opts;
  opts.lenient = true;
  std::string sidecar = args.Get("quarantine-out", "");
  if (!sidecar.empty()) {
    opts.sidecar_path = sidecar + "." + flag + ".csv";
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

Result<traj::TrajectoryDatabase> LoadDb(const ArgMap& args,
                                        const std::string& flag,
                                        std::ostream& out) {
  return LoadDbFromPath(args.Get(flag, ""), args, flag, out);
}

Result<core::EngineOptions> EngineOptionsFromArgs(const ArgMap& args) {
  core::EngineOptions eo;
  auto vmax = args.GetDouble("vmax-kph", 120.0);
  if (!vmax.ok()) return vmax.status();
  eo.training.vmax_mps = geo::KphToMps(vmax.value());
  auto unit = args.GetInt("unit-s", 60);
  if (!unit.ok()) return unit.status();
  eo.training.time_unit_seconds = unit.value();
  auto horizon = args.GetInt("horizon", 60);
  if (!horizon.ok()) return horizon.status();
  eo.training.horizon_units = horizon.value();
  auto phi = args.GetDouble("phi", 0.01);
  if (!phi.ok()) return phi.status();
  eo.naive_bayes.phi_r = phi.value();
  auto a1 = args.GetDouble("alpha1", 0.01);
  if (!a1.ok()) return a1.status();
  auto a2 = args.GetDouble("alpha2", 0.1);
  if (!a2.ok()) return a2.status();
  eo.alpha = {a1.value(), a2.value()};
  auto threads = args.GetInt("threads", 1);
  if (!threads.ok()) return threads.status();
  eo.num_threads = static_cast<size_t>(std::max<int64_t>(1,
                                                          threads.value()));
  return eo;
}

/// Parses `--matcher` (default nb), shared by `ftl link`,
/// `ftl calibrate` and `ftl serve`.
Result<core::Matcher> MatcherFromArgs(const ArgMap& args) {
  auto m = core::ParseMatcher(args.Get("matcher", "nb"));
  if (!m.ok()) {
    return Status::InvalidArgument("--matcher: " + m.status().message());
  }
  return m;
}

/// Parses the shared candidate-generation flags (`ftl link`,
/// `ftl serve`, and the store commands): --blocking MODE plus the
/// tuning knobs. Returns mode kOff when the flag is absent.
Status BlockingFromArgs(const ArgMap& args, core::BlockingMode* mode,
                        core::BlockingOptions* bo) {
  auto m = core::ParseBlockingMode(args.Get("blocking", "off"));
  if (!m.ok()) return m.status();
  *mode = m.value();
  auto cell = args.GetDouble("blocking-cell-m", bo->cell_size_meters);
  if (!cell.ok()) return cell.status();
  bo->cell_size_meters = cell.value();
  auto slack = args.GetInt("blocking-slack-s", bo->temporal_slack_seconds);
  if (!slack.ok()) return slack.status();
  bo->temporal_slack_seconds = slack.value();
  auto bucket = args.GetInt("blocking-bucket-s", bo->time_bucket_seconds);
  if (!bucket.ok()) return bucket.status();
  bo->time_bucket_seconds = bucket.value();
  auto cells = args.GetInt("blocking-min-cells",
                           static_cast<int64_t>(bo->min_shared_cells));
  if (!cells.ok()) return cells.status();
  if (cells.value() < 0) {
    return Status::InvalidArgument("--blocking-min-cells must be >= 0");
  }
  bo->min_shared_cells = static_cast<size_t>(cells.value());
  auto hood = args.GetInt("blocking-neighborhood", bo->neighborhood);
  if (!hood.ok()) return hood.status();
  bo->neighborhood = static_cast<int>(hood.value());
  if (*mode != core::BlockingMode::kOff) {
    FTL_RETURN_NOT_OK(bo->Validate());
  }
  return Status::OK();
}

/// Parses the shared store flags (`ftl ingest`, `ftl serve --store`).
Result<store::StoreOptions> StoreOptionsFromArgs(const ArgMap& args) {
  store::StoreOptions so;
  auto sync = store::ParseWalSync(args.Get("wal-sync", "interval"));
  if (!sync.ok()) return sync.status();
  so.wal_sync = sync.value();
  auto interval = args.GetInt("wal-sync-interval-ms", 50);
  if (!interval.ok()) return interval.status();
  if (interval.value() < 1) {
    return Status::InvalidArgument("--wal-sync-interval-ms must be >= 1");
  }
  so.wal_sync_interval_ms = interval.value();
  auto threshold = args.GetInt("flush-threshold", 100000);
  if (!threshold.ok()) return threshold.status();
  if (threshold.value() < 1) {
    return Status::InvalidArgument("--flush-threshold must be >= 1");
  }
  so.flush_threshold_records = static_cast<size_t>(threshold.value());
  auto age = args.GetDouble("flush-max-age-s", 0.0);
  if (!age.ok()) return age.status();
  if (age.value() < 0) {
    return Status::InvalidArgument("--flush-max-age-s must be >= 0");
  }
  so.flush_max_age_seconds = age.value();
  auto bp = args.GetDouble("backpressure-factor", 4.0);
  if (!bp.ok()) return bp.status();
  if (bp.value() < 1.0) {
    return Status::InvalidArgument("--backpressure-factor must be >= 1");
  }
  so.backpressure_factor = bp.value();
  auto trigger = args.GetInt("compact-trigger", 0);
  if (!trigger.ok()) return trigger.status();
  if (trigger.value() < 0) {
    return Status::InvalidArgument("--compact-trigger must be >= 0");
  }
  so.compact_trigger = static_cast<size_t>(trigger.value());
  auto maxseg = args.GetInt("compact-max-segments", 8);
  if (!maxseg.ok()) return maxseg.status();
  if (maxseg.value() < 2) {
    return Status::InvalidArgument("--compact-max-segments must be >= 2");
  }
  so.compact_max_segments = static_cast<size_t>(maxseg.value());
  FTL_RETURN_NOT_OK(BlockingFromArgs(args, &so.blocking_mode, &so.blocking));
  return so;
}

void PrintRecoveryInfo(const store::RecoveryInfo& info, std::ostream& out) {
  out << "recovered store: generation " << info.generation << ", "
      << info.segments << " segment(s), replayed " << info.replayed_batches
      << " batch(es) / " << info.replayed_records << " record(s)";
  if (info.torn_bytes_dropped > 0) {
    out << ", dropped " << info.torn_bytes_dropped << " torn WAL byte(s)";
  }
  if (info.orphans_removed > 0) {
    out << ", removed " << info.orphans_removed << " orphan file(s)";
  }
  out << " in " << info.seconds << "s\n";
}

}  // namespace

Status CmdIngest(const ArgMap& args, std::ostream& out) {
  std::string dir = args.Get("store", "");
  if (dir.empty()) {
    return Status::InvalidArgument("ingest needs --store DIR");
  }
  auto db = LoadDb(args, "in", out);
  if (!db.ok()) return db.status();

  auto so = StoreOptionsFromArgs(args);
  if (!so.ok()) return so.status();
  store::RecoveryInfo info;
  auto opened = store::Store::Open(dir, so.value(), &info);
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
  if (args.Has("flush")) {
    FTL_RETURN_NOT_OK(store.Flush());
  }
  // With a trigger configured, pack the segments before exiting — the
  // one-shot CLI has no background thread, so compaction runs inline.
  size_t compaction_rounds = 0;
  while (store.CompactionDue()) {
    auto cr = store.CompactOnce();
    if (!cr.ok()) return cr.status();
    if (cr.value().inputs == 0) break;
    ++compaction_rounds;
    out << "compacted " << cr.value().inputs << " segment(s) ("
        << cr.value().input_records << " record(s)) into 1 in "
        << cr.value().seconds << "s: generation " << cr.value().generation
        << "\n";
  }
  out << "ingested " << batches << " trajectory(ies) (" << records
      << " record(s)) into " << dir << ": generation "
      << store.generation() << ", " << store.num_segments()
      << " segment(s), " << store.memtable_records()
      << " memtable record(s), " << store.total_records()
      << " total record(s), wal-sync="
      << store::WalSyncName(so.value().wal_sync) << "\n";
  return Status::OK();
}

Status CmdSimulate(const ArgMap& args, std::ostream& out) {
  std::string out_p = args.Get("out-p", "");
  std::string out_q = args.Get("out-q", "");
  if (out_p.empty() || out_q.empty()) {
    return Status::InvalidArgument("simulate needs --out-p and --out-q");
  }
  std::string config_name = args.Get("config", "SF");
  sim::DatasetConfig config = sim::FindConfig(config_name);
  if (config.name.empty()) {
    return Status::InvalidArgument("unknown config '" + config_name +
                                   "' (expected SA..SF or TA..TF)");
  }
  auto objects = args.GetInt("objects", 200);
  if (!objects.ok()) return objects.status();
  auto seed = args.GetInt("seed", 1);
  if (!seed.ok()) return seed.status();
  sim::DatasetPair pair =
      sim::BuildDataset(config, static_cast<size_t>(objects.value()),
                        static_cast<uint64_t>(seed.value()));
  FTL_RETURN_NOT_OK(io::WriteCsv(pair.p, out_p));
  FTL_RETURN_NOT_OK(io::WriteCsv(pair.q, out_q));
  out << "simulated " << config.name << ": wrote " << pair.p.size()
      << " trajectories (" << pair.p.TotalRecords() << " records) to "
      << out_p << ", " << pair.q.size() << " trajectories ("
      << pair.q.TotalRecords() << " records) to " << out_q << "\n";
  return Status::OK();
}

Status CmdStats(const ArgMap& args, std::ostream& out) {
  auto db = LoadDb(args, "db", out);
  if (!db.ok()) return db.status();
  out << "database: " << db.value().name() << "\n"
      << traj::ToString(traj::Summarize(db.value())) << "\n";
  return Status::OK();
}

Status CmdTrain(const ArgMap& args, std::ostream& out) {
  auto p = LoadDb(args, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(args, "q", out);
  if (!q.ok()) return q.status();
  std::string out_rej = args.Get("out-rejection", "");
  std::string out_acc = args.Get("out-acceptance", "");
  if (out_rej.empty() || out_acc.empty()) {
    return Status::InvalidArgument(
        "train needs --out-rejection and --out-acceptance");
  }
  auto eo = EngineOptionsFromArgs(args);
  if (!eo.ok()) return eo.status();
  auto models = core::BuildModels(p.value(), q.value(),
                                  eo.value().training);
  if (!models.ok()) return models.status();
  FTL_RETURN_NOT_OK(io::WriteModel(models.value().rejection, out_rej));
  FTL_RETURN_NOT_OK(io::WriteModel(models.value().acceptance, out_acc));
  out << "trained models on " << p.value().size() << " x "
      << q.value().size() << " trajectories\n"
      << "rejection:  " << models.value().rejection.ToString() << "\n"
      << "acceptance: " << models.value().acceptance.ToString() << "\n";
  return Status::OK();
}

Status CmdLink(const ArgMap& args, std::ostream& out) {
  auto p = LoadDb(args, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(args, "q", out);
  if (!q.ok()) return q.status();
  auto eo = EngineOptionsFromArgs(args);
  if (!eo.ok()) return eo.status();
  auto matcher = MatcherFromArgs(args);
  if (!matcher.ok()) return matcher.status();
  auto top = args.GetInt("top", 10);
  if (!top.ok()) return top.status();
  core::BlockingMode blocking_mode = core::BlockingMode::kOff;
  core::BlockingOptions blocking_opts;
  FTL_RETURN_NOT_OK(BlockingFromArgs(args, &blocking_mode, &blocking_opts));

  core::FtlEngine engine(eo.value());
  FTL_RETURN_NOT_OK(engine.Train(p.value(), q.value()));

  // Candidate generation: build the index over Q once, reuse the
  // scratch across queries (DESIGN.md §13).
  std::unique_ptr<const core::BlockingIndex> blocking_index;
  core::BlockingScratch blocking_scratch;
  if (blocking_mode != core::BlockingMode::kOff) {
    blocking_index = std::make_unique<const core::BlockingIndex>(
        q.value(), blocking_opts);
  }

  std::vector<size_t> query_indices;
  if (args.Has("query")) {
    size_t idx = p.value().Find(args.Get("query", ""));
    if (idx == traj::TrajectoryDatabase::npos) {
      return Status::NotFound("query label '" + args.Get("query", "") +
                              "' not in P");
    }
    query_indices.push_back(idx);
  } else {
    for (size_t i = 0; i < p.value().size(); ++i) query_indices.push_back(i);
  }

  for (size_t qi : query_indices) {
    const auto& query = p.value()[qi];
    auto result = blocking_index != nullptr
                      ? engine.QueryBlocked(query, q.value(), *blocking_index,
                                            blocking_mode, matcher.value(),
                                            &blocking_scratch)
                      : engine.Query(query, q.value(), matcher.value());
    if (!result.ok()) return result.status();
    if (args.Has("json")) {
      // One JSON document per query, byte-identical to what the serve
      // daemon's /v1/query endpoint returns for the same inputs (both
      // call the same engine entry point and serializer).
      out << io::QueryResultToJson(query.label(), result.value()) << "\n";
      continue;
    }
    out << query.label() << " -> " << result.value().candidates.size()
        << " candidate(s)";
    size_t shown = 0;
    for (const auto& c : result.value().candidates) {
      if (shown++ >= static_cast<size_t>(top.value())) break;
      out << (shown == 1 ? ": " : ", ") << c.label << "("
          << FormatDouble(c.score, 4) << ")";
    }
    out << "\n";
  }
  return Status::OK();
}

Status CmdExport(const ArgMap& args, std::ostream& out) {
  auto db = LoadDb(args, "db", out);
  if (!db.ok()) return db.status();
  std::string path = args.Get("out", "");
  if (path.empty()) return Status::InvalidArgument("export needs --out");
  FTL_RETURN_NOT_OK(io::WriteGeoJson(db.value(), path));
  out << "wrote " << db.value().size() << " features to " << path << "\n";
  return Status::OK();
}

Status CmdValidate(const ArgMap& args, std::ostream& out) {
  auto db = LoadDb(args, "db", out);
  if (!db.ok()) return db.status();
  auto report = traj::ValidateDatabase(db.value());
  out << report.ToString() << "\n";
  if (args.Has("sanitized-out")) {
    auto clean = traj::Sanitize(db.value());
    FTL_RETURN_NOT_OK(io::WriteCsv(clean, args.Get("sanitized-out", "")));
    out << "sanitized copy (" << clean.size() << " trajectories, "
        << clean.TotalRecords() << " records) written to "
        << args.Get("sanitized-out", "") << "\n";
  }
  return Status::OK();
}

Status CmdDiagnose(const ArgMap& args, std::ostream& out) {
  auto p = LoadDb(args, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(args, "q", out);
  if (!q.ok()) return q.status();
  auto eo = EngineOptionsFromArgs(args);
  if (!eo.ok()) return eo.status();
  auto models = core::BuildModels(p.value(), q.value(),
                                  eo.value().training);
  if (!models.ok()) return models.status();
  auto diag = core::DiagnoseModels(models.value());
  out << diag.ToString() << "\n";
  out << "rejection:  " << models.value().rejection.ToString() << "\n";
  out << "acceptance: " << models.value().acceptance.ToString() << "\n";
  return Status::OK();
}

Status CmdCalibrate(const ArgMap& args, std::ostream& out) {
  auto p = LoadDb(args, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(args, "q", out);
  if (!q.ok()) return q.status();
  auto eo = EngineOptionsFromArgs(args);
  if (!eo.ok()) return eo.status();
  auto matcher = MatcherFromArgs(args);
  if (!matcher.ok()) return matcher.status();
  auto budget = args.GetDouble("budget", 10.0);
  if (!budget.ok()) return budget.status();
  auto queries = args.GetInt("queries", 50);
  if (!queries.ok()) return queries.status();

  core::FtlEngine engine(eo.value());
  FTL_RETURN_NOT_OK(engine.Train(p.value(), q.value()));
  eval::CalibrationTarget target;
  target.max_mean_candidates = budget.value();
  eval::WorkloadOptions wo;
  wo.num_queries = static_cast<size_t>(queries.value());
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
      << " (budget " << FormatDouble(budget.value(), 1)
      << "), perceptiveness " << FormatDouble(r.perceptiveness, 3)
      << ", selectiveness " << FormatDouble(r.selectiveness, 5) << "\n";
  if (!r.feasible) {
    out << "warning: budget infeasible -- even the strictest grid point "
           "exceeds "
        << FormatDouble(budget.value(), 1)
        << " mean candidates/query; returned setting is the strictest "
           "available\n";
  }
  return Status::OK();
}

Status CmdEnrich(const ArgMap& args, std::ostream& out) {
  auto p = LoadDb(args, "p", out);
  if (!p.ok()) return p.status();
  auto q = LoadDb(args, "q", out);
  if (!q.ok()) return q.status();
  size_t pi = p.value().Find(args.Get("query", ""));
  if (pi == traj::TrajectoryDatabase::npos) {
    return Status::NotFound("query label '" + args.Get("query", "") +
                            "' not in P");
  }
  size_t qi = q.value().Find(args.Get("candidate", ""));
  if (qi == traj::TrajectoryDatabase::npos) {
    return Status::NotFound("candidate label '" +
                            args.Get("candidate", "") + "' not in Q");
  }
  core::EnrichmentOptions opts;
  opts.p_source_name = "P";
  opts.q_source_name = "Q";
  auto vmax = args.GetDouble("vmax-kph", 120.0);
  if (!vmax.ok()) return vmax.status();
  opts.vmax_mps = geo::KphToMps(vmax.value());
  auto enriched = core::Enrich(p.value()[pi], q.value()[qi], opts);
  if (!enriched.ok()) return enriched.status();
  out << core::ToTableString(enriched.value(), 30);
  out << "densification x" +
             FormatDouble(enriched.value().densification_factor, 2)
      << ", incompatible mutual segments "
      << enriched.value().incompatible_mutual_segments << "\n";
  return Status::OK();
}

Status CmdConvert(const ArgMap& args, std::ostream& out) {
  auto db = LoadDb(args, "in", out);
  if (!db.ok()) return db.status();
  std::string out_path = args.Get("out", "");
  if (out_path.empty()) {
    return Status::InvalidArgument("convert needs --out");
  }
  std::string to = args.Get("to", "");
  if (to.empty()) {
    // Infer the target from the output extension; FTB is the default
    // (the whole point of converting).
    bool csv = out_path.size() >= 4 &&
               out_path.compare(out_path.size() - 4, 4, ".csv") == 0;
    to = csv ? "csv" : "ftb";
  }
  if (to == "ftb") {
    traj::FlatDatabase flat = traj::FlatDatabase::FromDatabase(db.value());
    FTL_RETURN_NOT_OK(io::WriteFtb(flat, out_path));
    out << "wrote " << flat.size() << " trajectories ("
        << flat.TotalRecords() << " records) to " << out_path << " (FTB)\n";
  } else if (to == "csv") {
    FTL_RETURN_NOT_OK(io::WriteCsv(db.value(), out_path));
    out << "wrote " << db.value().size() << " trajectories ("
        << db.value().TotalRecords() << " records) to " << out_path
        << " (CSV)\n";
  } else {
    return Status::InvalidArgument("--to expects ftb|csv, got '" + to + "'");
  }
  return Status::OK();
}

Status CmdServe(const ArgMap& args, std::ostream& out) {
  auto p = LoadDb(args, "p", out);
  if (!p.ok()) return p.status();

  // Candidate side: either static shards (--ftb/--q, merged in flag
  // order) or a live store (--store DIR) that /v1/ingest appends to.
  const std::string store_dir = args.Get("store", "");
  std::vector<std::string> shard_paths = args.GetAll("ftb");
  for (const auto& path : args.GetAll("q")) shard_paths.push_back(path);
  if (store_dir.empty() && shard_paths.empty()) {
    return Status::InvalidArgument(
        "serve needs --store DIR or at least one --ftb (or --q) shard");
  }
  if (!store_dir.empty() && !shard_paths.empty()) {
    return Status::InvalidArgument(
        "--store and --ftb/--q are mutually exclusive");
  }
  traj::TrajectoryDatabase q("Q");
  for (const auto& path : shard_paths) {
    auto shard = LoadDbFromPath(path, args, "ftb", out);
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

  auto eo = EngineOptionsFromArgs(args);
  if (!eo.ok()) return eo.status();
  // Worker-pool parallelism across requests, serial inside each query;
  // --threads sizes the pool, not the engine.
  size_t workers = eo.value().num_threads;
  if (!args.Has("threads")) workers = 0;  // 0 = hardware concurrency
  core::EngineOptions engine_opts = eo.value();
  engine_opts.num_threads = 1;

  serve::ServeOptions so;
  std::string listen = args.Get("listen", "127.0.0.1:8080");
  size_t colon = listen.rfind(':');
  int64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseInt64(listen.substr(colon + 1), &port) || port < 0 ||
      port > 65535) {
    return Status::InvalidArgument("--listen expects HOST:PORT, got '" +
                                   listen + "'");
  }
  so.host = listen.substr(0, colon);
  so.port = static_cast<int>(port);
  so.num_threads = workers;
  auto max_queue = args.GetInt("max-queue", 128);
  if (!max_queue.ok()) return max_queue.status();
  if (max_queue.value() < 1) {
    return Status::InvalidArgument("--max-queue must be at least 1");
  }
  so.max_queue = static_cast<size_t>(max_queue.value());
  auto deadline_ms = args.GetInt("request-deadline-ms", 0);
  if (!deadline_ms.ok()) return deadline_ms.status();
  if (deadline_ms.value() < 0) {
    return Status::InvalidArgument("--request-deadline-ms must be >= 0");
  }
  so.request_deadline_ms = deadline_ms.value();
  auto qthreads = args.GetInt("query-threads", 1);
  if (!qthreads.ok()) return qthreads.status();
  if (qthreads.value() < 1) {
    return Status::InvalidArgument("--query-threads must be at least 1");
  }
  if (qthreads.value() > 1 && store_dir.empty()) {
    return Status::InvalidArgument("--query-threads requires --store");
  }
  so.store_query_threads = static_cast<size_t>(qthreads.value());
  if (!args.Has("threads") && so.store_query_threads > 1) {
    // Keep workers x query-threads within the machine when --threads is
    // left to default.
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    size_t sized = hw / so.store_query_threads;
    so.num_threads = sized > 0 ? sized : 1;
  }
  auto matcher = MatcherFromArgs(args);
  if (!matcher.ok()) return matcher.status();
  so.default_matcher = matcher.value();
  // Engine mode applies --blocking via the server's index over the
  // static Q; store mode applies it via StoreOptionsFromArgs below
  // (per-segment indices inside the snapshots).
  FTL_RETURN_NOT_OK(BlockingFromArgs(args, &so.blocking_mode, &so.blocking));

  core::FtlEngine engine(engine_opts);

  // SIGTERM / SIGINT trigger the same graceful drain as
  // POST /admin/shutdown: stop accepting, finish what was admitted.
  static std::atomic<int> stop_flag{0};
  stop_flag.store(0);
  serve::InstallShutdownSignalHandlers(&stop_flag);
  so.stop_flag = &stop_flag;

  if (!store_dir.empty()) {
    // Store mode is two-phase: bind first so probes reach the process
    // (/readyz answers 503), then run the possibly-long recovery and
    // training behind the readiness gate.
    auto sto = StoreOptionsFromArgs(args);
    if (!sto.ok()) return sto.status();
    std::unique_ptr<store::Store> store =
        store::Store::Create(store_dir, sto.value());
    so.start_ready = false;
    serve::FtlServer server(so, &engine, &p.value(), store.get());
    // Background compaction (--compact-trigger): started only after
    // recovery succeeds; Stop() joins any in-flight round on exit.
    store::Compactor compactor(store.get());
    FTL_RETURN_NOT_OK(server.Start());
    out << "listening on " << so.host << ":" << server.port()
        << " (store=" << store_dir << ", warming up: /readyz is 503)\n";
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
  serve::FtlServer server(so, &engine, &p.value(), &q);
  FTL_RETURN_NOT_OK(server.Start());
  out << "serving |P|=" << p.value().size() << " |Q|=" << q.size() << " on "
      << so.host << ":" << server.port() << " (workers="
      << (so.num_threads == 0 ? std::thread::hardware_concurrency()
                              : so.num_threads)
      << ", max-queue=" << so.max_queue << ", request-deadline-ms="
      << so.request_deadline_ms
      << ", matcher=" << args.Get("matcher", "nb") << ")\n";
  out.flush();
  server.Wait();
  out << "drained " << server.requests_handled() << " request(s); bye\n";
  return Status::OK();
}

Status CmdMetrics(const ArgMap& args, std::ostream& out) {
  std::string format = args.Get("format", "prom");
  if (format == "prom") {
    out << obs::DumpPrometheus();
  } else if (format == "json") {
    out << obs::DumpJson() << "\n";
  } else {
    return Status::InvalidArgument("--format expects prom|json, got '" +
                                   format + "'");
  }
  return Status::OK();
}

namespace {

/// True when `path` names a Prometheus-text output (.prom/.txt);
/// everything else gets JSON.
bool WantsPrometheus(const std::string& path) {
  auto ends_with = [&path](const char* suffix) {
    std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(".prom") || ends_with(".txt");
}

/// Writes the metrics snapshot for --metrics-out. Uses a plain ofstream
/// rather than io::WriteTextFile so armed IO failpoints cannot block the
/// observability channel that would report them.
Status WriteMetricsSnapshot(const std::string& path) {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) {
    return Status::IOError("cannot open metrics output '" + path + "'");
  }
  if (WantsPrometheus(path)) {
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

}  // namespace

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
  std::string cmd = args[0];
  auto parsed = ArgMap::Parse({args.begin() + 1, args.end()});
  if (!parsed.ok()) {
    err << "error: " << parsed.status().ToString() << "\n";
    return 1;
  }
  if (parsed.value().Has("failpoints")) {
    Status fp = failpoint::Configure(parsed.value().Get("failpoints", ""));
    if (!fp.ok()) {
      err << "error: " << fp.ToString() << "\n";
      return ExitCodeForStatus(fp);
    }
  }
  Status st;
  if (cmd == "simulate") {
    st = CmdSimulate(parsed.value(), out);
  } else if (cmd == "stats") {
    st = CmdStats(parsed.value(), out);
  } else if (cmd == "train") {
    st = CmdTrain(parsed.value(), out);
  } else if (cmd == "link") {
    st = CmdLink(parsed.value(), out);
  } else if (cmd == "export") {
    st = CmdExport(parsed.value(), out);
  } else if (cmd == "validate") {
    st = CmdValidate(parsed.value(), out);
  } else if (cmd == "diagnose") {
    st = CmdDiagnose(parsed.value(), out);
  } else if (cmd == "calibrate") {
    st = CmdCalibrate(parsed.value(), out);
  } else if (cmd == "enrich") {
    st = CmdEnrich(parsed.value(), out);
  } else if (cmd == "convert") {
    st = CmdConvert(parsed.value(), out);
  } else if (cmd == "metrics") {
    st = CmdMetrics(parsed.value(), out);
  } else if (cmd == "ingest") {
    st = CmdIngest(parsed.value(), out);
  } else if (cmd == "serve") {
    st = CmdServe(parsed.value(), out);
  } else {
    err << "error: unknown command '" << cmd << "'\n" << UsageText();
    return 1;
  }
  // The snapshot is written even when the command failed: counters
  // explaining the failure (quarantines, failpoint trips, truncations)
  // are exactly what a post-mortem wants.
  std::string metrics_out = parsed.value().Get("metrics-out", "");
  if (!metrics_out.empty()) {
    Status ms = WriteMetricsSnapshot(metrics_out);
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
