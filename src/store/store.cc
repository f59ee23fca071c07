#include "store/store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <utility>

#include "io/ftb.h"
#include "io/file_util.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftl::store {

namespace {

/// Metric handles resolved once (DESIGN.md §8 discipline): the append
/// hot path touches pre-resolved counters only. Stores share the
/// process-global registry, so counters aggregate across instances and
/// gauges reflect the most recent writer.
struct StoreMetrics {
  obs::Counter* wal_bytes;
  obs::Counter* wal_appends;
  obs::Counter* wal_syncs;
  obs::Counter* wal_torn_bytes;
  obs::Counter* ingest_records;
  obs::Counter* replay_batches;
  obs::Counter* replay_records;
  obs::Counter* flushes;
  obs::Counter* compactions;
  obs::Counter* compaction_input_segments;
  obs::Counter* compaction_output_records;
  obs::Counter* query_units;
  obs::Counter* parallel_queries;
  obs::Gauge* segments_live;
  obs::Gauge* memtable_records;
  obs::Gauge* generation;
  obs::Histogram* flush_latency_us;
  obs::Histogram* compaction_latency_us;

  StoreMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    wal_bytes = &reg.GetCounter("ftl_store_wal_bytes_total");
    wal_appends = &reg.GetCounter("ftl_store_wal_appends_total");
    wal_syncs = &reg.GetCounter("ftl_store_wal_syncs_total");
    wal_torn_bytes = &reg.GetCounter("ftl_store_wal_torn_bytes_total");
    ingest_records = &reg.GetCounter("ftl_store_ingest_records_total");
    replay_batches = &reg.GetCounter("ftl_store_replay_batches_total");
    replay_records = &reg.GetCounter("ftl_store_replay_records_total");
    flushes = &reg.GetCounter("ftl_store_flush_total");
    compactions = &reg.GetCounter("ftl_store_compactions_total");
    compaction_input_segments =
        &reg.GetCounter("ftl_store_compaction_input_segments_total");
    compaction_output_records =
        &reg.GetCounter("ftl_store_compaction_output_records_total");
    query_units = &reg.GetCounter("ftl_store_query_units_total");
    parallel_queries = &reg.GetCounter("ftl_store_parallel_queries_total");
    segments_live = &reg.GetGauge("ftl_store_segments_live");
    memtable_records = &reg.GetGauge("ftl_store_memtable_records");
    generation = &reg.GetGauge("ftl_store_generation");
    flush_latency_us = &reg.GetHistogram("ftl_store_flush_latency_us");
    compaction_latency_us =
        &reg.GetHistogram("ftl_store_compaction_latency_us");
  }
};

StoreMetrics& Metrics() {
  static StoreMetrics* m = new StoreMetrics();  // leaked: shutdown-safe
  return *m;
}

/// A filename this store layout could have produced. Orphan cleanup
/// only ever deletes names matching these shapes, so foreign files in
/// the directory are never touched.
bool IsStoreFileName(const std::string& name) {
  auto shaped = [&](const char* prefix, const char* suffix) {
    const std::string p(prefix), s(suffix);
    return name.size() == p.size() + 6 + s.size() &&
           name.compare(0, p.size(), p) == 0 &&
           name.compare(name.size() - s.size(), s.size(), s) == 0 &&
           std::all_of(name.begin() + static_cast<long>(p.size()),
                       name.begin() + static_cast<long>(p.size()) + 6,
                       [](char c) { return c >= '0' && c <= '9'; });
  };
  return shaped("seg-", ".ftb") || shaped("wal-", ".log") ||
         shaped("compact-", ".tmp") || name == "MANIFEST.tmp";
}

/// A one-trajectory FlatDatabase holding `t`, so an AoS query can be
/// scored through the engine's SoA entry point.
traj::FlatDatabase FlatOf(const traj::Trajectory& t) {
  traj::TrajectoryDatabase db;
  (void)db.Add(t);
  return traj::FlatDatabase::FromDatabase(db);
}

}  // namespace

// ---------------------------------------------------------------------------
// StoreSnapshot

std::shared_ptr<const StoreSnapshot> StoreSnapshot::Build(
    const std::vector<std::shared_ptr<const traj::FlatDatabase>>& segments,
    const MutableSegment& memtable, uint64_t generation, uint64_t version,
    std::vector<std::shared_ptr<const core::BlockingIndex>> segment_indices,
    core::BlockingMode blocking_mode) {
  auto snap = std::shared_ptr<StoreSnapshot>(new StoreSnapshot());
  snap->segments_ = segments;
  snap->segment_indices_ = std::move(segment_indices);
  snap->blocking_mode_ = blocking_mode;
  snap->memtable_db_ =
      traj::FlatDatabase::FromDatabase(memtable.ToDatabase("memtable"));
  snap->generation_ = generation;
  snap->version_ = version;

  const size_t nseg = segments.size();
  const size_t nsources = nseg + 1;
  snap->global_of_.resize(nsources);

  // Pass 1: canonical order = first-appearance walk over sources in
  // ingest order (segments oldest-first, then the memtable).
  auto visit = [&](size_t source, size_t local, std::string label,
                   size_t records) {
    auto [it, inserted] = snap->by_label_.emplace(std::move(label),
                                                 snap->canon_.size());
    if (inserted) {
      CanonEntry e;
      e.contribs.push_back({static_cast<uint32_t>(source),
                            static_cast<uint32_t>(local)});
      snap->canon_.push_back(std::move(e));
    } else {
      snap->canon_[it->second].contribs.push_back(
          {static_cast<uint32_t>(source), static_cast<uint32_t>(local)});
    }
    snap->global_of_[source].push_back(it->second);
    snap->total_records_ += records;
  };
  for (size_t s = 0; s < nsources; ++s) {
    const traj::FlatDatabase& src = snap->source(s);
    snap->global_of_[s].reserve(src.size());
    for (size_t i = 0; i < src.size(); ++i) {
      visit(s, i, std::string(src.label(i)), src[i].size());
    }
  }

  // Pass 2: pre-merge every label that spans sources into the overlay
  // database, at its canonical first-appearance position.
  std::vector<size_t> overlay_of_global(snap->canon_.size(), npos);
  traj::TrajectoryDatabase overlay;
  for (size_t g = 0; g < snap->canon_.size(); ++g) {
    if (snap->canon_[g].contribs.size() <= 1) continue;
    overlay_of_global[g] = snap->overlay_global_.size();
    snap->overlay_global_.push_back(g);
    (void)overlay.Add(snap->Materialize(g));
  }
  snap->overlay_db_ = traj::FlatDatabase::FromDatabase(overlay);

  // Pass 3: per-source query plans. Walking locals in order, shadowed
  // entries (later homes of a multi-source label) are omitted, overlay
  // entries break the plain run so evaluation order stays canonical.
  snap->plans_.resize(nsources);
  for (size_t s = 0; s < nsources; ++s) {
    std::vector<Run>& plan = snap->plans_[s];
    Run plain;
    auto flush_plain = [&]() {
      if (!plain.indices.empty()) {
        plan.push_back(std::move(plain));
        plain = Run{};
      }
    };
    const std::vector<size_t>& globals = snap->global_of_[s];
    for (size_t local = 0; local < globals.size(); ++local) {
      const CanonEntry& e = snap->canon_[globals[local]];
      if (e.contribs.size() == 1) {
        plain.indices.push_back(local);
        continue;
      }
      const SourceRef& first = e.contribs.front();
      if (first.source == s && first.local == local) {
        flush_plain();
        Run ov;
        ov.overlay = true;
        ov.indices.push_back(overlay_of_global[globals[local]]);
        plan.push_back(std::move(ov));
      }
      // Later homes: shadowed, not evaluated from this source.
    }
    flush_plain();
  }
  return snap;
}

size_t StoreSnapshot::Find(std::string_view label) const {
  auto it = by_label_.find(std::string(label));
  return it == by_label_.end() ? npos : it->second;
}

std::string_view StoreSnapshot::label(size_t g) const {
  const SourceRef& first = canon_[g].contribs.front();
  return source(first.source).label(first.local);
}

traj::Trajectory StoreSnapshot::Materialize(size_t g) const {
  const CanonEntry& e = canon_[g];
  std::string lbl(label(g));
  traj::OwnerId owner = traj::kUnknownOwner;
  std::vector<traj::Record> records;
  for (const SourceRef& ref : e.contribs) {
    traj::FlatTrajectoryView v = source(ref.source)[ref.local];
    for (size_t i = 0; i < v.size(); ++i) records.push_back(v[i]);
    if (owner == traj::kUnknownOwner) owner = v.owner();
  }
  // The Trajectory constructor stable-sorts by time; because each
  // contribution is itself time-sorted and contributions are
  // concatenated in ingest order, the result equals stable-sorting the
  // full ingest-order row sequence — the never-flushed oracle.
  return traj::Trajectory(std::move(lbl), owner, std::move(records));
}

traj::TrajectoryDatabase StoreSnapshot::MaterializeAll(
    const std::string& name) const {
  traj::TrajectoryDatabase db(name);
  for (size_t g = 0; g < canon_.size(); ++g) {
    (void)db.Add(Materialize(g));
  }
  return db;
}

Result<core::QueryResult> StoreSnapshot::Query(
    const core::FtlEngine& engine, const traj::Trajectory& query,
    core::Matcher matcher, const core::QueryOptions* qopts,
    size_t num_threads) const {
  if (empty()) {
    // Match the engine's wording for an empty merged database.
    return Status::InvalidArgument("candidate database is empty");
  }

  // SoA copy of the query, built once and shared by every sub-query
  // (segments score zero-copy off their mmap'd columns).
  const traj::FlatDatabase qflat = FlatOf(query);
  const traj::FlatTrajectoryView qview = qflat[0];

  // Candidate generation: when the snapshot carries per-segment
  // BlockingIndexes, each plain segment run is intersected with the
  // index survivors before scoring (guaranteed mode keeps the result
  // byte-identical — see DESIGN.md §13; aggressive mode trades recall).
  // Overlay and memtable runs are always scored exhaustively.
  const bool blocked = blocking_mode_ != core::BlockingMode::kOff &&
                       !segment_indices_.empty() && engine.trained();
  core::BlockingGuarantee guarantee;
  if (blocked && blocking_mode_ == core::BlockingMode::kGuaranteed) {
    guarantee = engine.DeriveBlockingGuarantee(matcher);
  }

  // The fan-out, flattened into an ordered list of work units — unit
  // order IS canonical evaluation order, each unit one span of one
  // run's candidate list. Serial execution keeps one unit per run
  // (zero copies, exactly the pre-sharding walk); with num_threads > 1
  // runs are also split into ~kUnitCandidates spans so one fat segment
  // cannot serialize the tail. Because every unit's sub-result is
  // stable-sorted by score with ties in canonical order, concatenating
  // units in order and re-running the final stable sort yields the
  // same bytes for any unit decomposition (DESIGN.md §14).
  struct Unit {
    uint32_t source = 0;
    bool overlay = false;
    const std::vector<size_t>* base = nullptr;  ///< whole-run candidates
    size_t begin = 0, end = 0;                  ///< span of *base
  };
  constexpr size_t kUnitCandidates = 256;
  const size_t workers_hint = num_threads < 1 ? 1 : num_threads;
  const size_t nseg = segments_.size();

  std::deque<std::vector<size_t>> filtered_keep;  // stable addresses
  std::vector<Unit> units;
  {
    core::BlockingScratch bscratch;
    std::vector<size_t> survivors;  // per-segment, ascending
    for (size_t s = 0; s < plans_.size(); ++s) {
      const core::BlockingIndex* index =
          blocked && s < nseg && s < segment_indices_.size()
              ? segment_indices_[s].get()
              : nullptr;
      if (index != nullptr) {
        if (blocking_mode_ == core::BlockingMode::kGuaranteed) {
          index->GuaranteedCandidates(qview, guarantee, &bscratch,
                                      &survivors);
        } else {
          index->Candidates(qview, &bscratch, &survivors);
        }
      }
      for (const Run& run : plans_[s]) {
        if (run.indices.empty()) continue;
        const std::vector<size_t>* run_indices = &run.indices;
        if (index != nullptr && !run.overlay) {
          // Plain-run locals are ascending within a run (Build pushes
          // them in local order), as are the survivors, so a sorted
          // intersection preserves canonical evaluation order.
          std::vector<size_t> filtered;
          std::set_intersection(run.indices.begin(), run.indices.end(),
                                survivors.begin(), survivors.end(),
                                std::back_inserter(filtered));
          if (filtered.empty()) continue;
          filtered_keep.push_back(std::move(filtered));
          run_indices = &filtered_keep.back();
        }
        const size_t n = run_indices->size();
        const size_t step = workers_hint > 1 ? kUnitCandidates : n;
        for (size_t b = 0; b < n; b += step) {
          Unit u;
          u.source = static_cast<uint32_t>(s);
          u.overlay = run.overlay;
          u.base = run_indices;
          u.begin = b;
          u.end = std::min(n, b + step);
          units.push_back(u);
        }
      }
    }
  }

  const size_t nunits = units.size();
  const size_t workers = ParallelWorkerCount(nunits, workers_hint);
  {
    StoreMetrics& m = Metrics();
    m.query_units->Add(static_cast<int64_t>(nunits));
    if (workers > 1) m.parallel_queries->Add(1);
  }

  // Per-unit results land in `ustate`; `first_stop` tracks the lowest
  // unit that truncated or hard-errored. Units beyond it are skipped
  // (their results would be discarded), and because the chunked
  // scheduler claims units in increasing order and runs every claimed
  // chunk, units [0, first_stop] are guaranteed to have run — the
  // returned candidates always form a prefix of the canonical
  // evaluation order, exactly like the serial walk.
  struct UnitState {
    core::QueryResult result;
    Status error;
  };
  std::vector<UnitState> ustate(nunits);
  std::vector<core::QueryScratch> scratches(workers);
  std::vector<std::vector<size_t>> span_buf(workers);  // reused chunk copy
  std::atomic<size_t> first_stop{nunits};

  auto bump_stop = [&first_stop](size_t u) {
    size_t cur = first_stop.load(std::memory_order_relaxed);
    while (u < cur && !first_stop.compare_exchange_weak(
                          cur, u, std::memory_order_relaxed)) {
    }
  };
  auto run_unit = [&](size_t worker, size_t u) {
    const Unit& unit = units[u];
    const std::vector<size_t>* idx = unit.base;
    if (unit.begin != 0 || unit.end != idx->size()) {
      std::vector<size_t>& buf = span_buf[worker];
      buf.assign(idx->begin() + static_cast<long>(unit.begin),
                 idx->begin() + static_cast<long>(unit.end));
      idx = &buf;
    }
    Result<core::QueryResult> r = engine.QueryWithCandidates(
        qview, unit.overlay ? overlay_db_ : source(unit.source), *idx,
        matcher, qopts, &scratches[worker]);
    UnitState& st = ustate[u];
    if (!r.ok()) {
      st.error = r.status();
      bump_stop(u);
      return;
    }
    st.result = std::move(r).value();
    for (core::MatchCandidate& c : st.result.candidates) {
      c.index = unit.overlay ? overlay_global_[c.index]
                             : global_of_[unit.source][c.index];
    }
    if (st.result.truncated) bump_stop(u);
  };

  const size_t processed = ParallelForWorkers(
      nunits, workers_hint,
      [&]() {
        return first_stop.load(std::memory_order_relaxed) != nunits ||
               (qopts != nullptr && !qopts->Check().ok());
      },
      [&](size_t worker, size_t b, size_t e) {
        for (size_t u = b; u < e; ++u) {
          if (u > first_stop.load(std::memory_order_relaxed)) break;
          run_unit(worker, u);
        }
      });

  // Every unit below first_stop ran cleanly (a skipped unit is always
  // above the final first_stop), so the unit at first_stop is exactly
  // where the serial walk would have stopped: a hard error there fails
  // the query, a truncation there ends the prefix.
  const size_t stop_unit = first_stop.load(std::memory_order_relaxed);
  if (stop_unit != nunits && !ustate[stop_unit].error.ok()) {
    return ustate[stop_unit].error;
  }

  core::QueryResult out;
  const size_t last =
      stop_unit == nunits ? processed : std::min(processed, stop_unit + 1);
  for (size_t u = 0; u < last; ++u) {
    core::QueryResult& sub = ustate[u].result;
    for (core::MatchCandidate& c : sub.candidates) {
      out.candidates.push_back(std::move(c));
    }
    out.evaluated += sub.evaluated;
  }
  if (stop_unit != nunits) {
    out.truncated = true;
    out.status = ustate[stop_unit].result.status;
  } else if (processed < nunits) {
    // The limit fired between units: every included unit is complete
    // and they form a canonical-order prefix.
    out.truncated = true;
    out.status = qopts != nullptr ? qopts->Check() : Status::OK();
  }
  // Each sub-result is already stable-sorted by score with candidates
  // collected in canonical order, so one more pass of the engine's
  // exact comparator reproduces the merged-database sort byte-for-byte
  // (ties keep canonical order).
  std::stable_sort(out.candidates.begin(), out.candidates.end(),
                   [](const core::MatchCandidate& a,
                      const core::MatchCandidate& b) {
                     return a.score > b.score;
                   });
  out.selectiveness = static_cast<double>(out.candidates.size()) /
                      static_cast<double>(size());
  return out;
}

Result<core::QueryResult> StoreSnapshot::Rank(
    const core::FtlEngine& engine, const traj::Trajectory& query,
    const std::vector<std::string>& candidates, core::Matcher matcher,
    const core::QueryOptions* qopts) const {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidates to rank");
  }
  // Materialize the named candidates once into a scratch database and
  // rank there; scoring depends only on the record data, so the result
  // needs just an index remap to match the canonical database.
  traj::TrajectoryDatabase scratch;
  std::vector<size_t> scratch_global;   // scratch idx -> global
  std::vector<size_t> indices;          // request order, scratch indices
  indices.reserve(candidates.size());
  for (const std::string& label : candidates) {
    size_t g = Find(label);
    if (g == npos) {
      return Status::NotFound("candidate label '" + label + "' not in Q");
    }
    size_t si = scratch.Find(label);
    if (si == traj::TrajectoryDatabase::npos) {
      si = scratch.size();
      FTL_RETURN_NOT_OK(scratch.Add(Materialize(g)));
      scratch_global.push_back(g);
    }
    indices.push_back(si);
  }
  const traj::FlatDatabase qflat = FlatOf(query);
  auto r = engine.QueryWithCandidates(
      qflat[0], traj::FlatDatabase::FromDatabase(scratch), indices, matcher,
      qopts);
  if (!r.ok()) return r.status();
  core::QueryResult result = std::move(r).value();
  for (core::MatchCandidate& c : result.candidates) {
    c.index = scratch_global[c.index];
  }
  result.selectiveness = static_cast<double>(result.candidates.size()) /
                         static_cast<double>(size());
  return result;
}

// ---------------------------------------------------------------------------
// Store

Store::Store(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

std::unique_ptr<Store> Store::Create(std::string dir, StoreOptions options) {
  return std::unique_ptr<Store>(new Store(std::move(dir), options));
}

Result<std::unique_ptr<Store>> Store::Open(const std::string& dir,
                                           const StoreOptions& options,
                                           RecoveryInfo* info) {
  std::unique_ptr<Store> store = Create(dir, options);
  FTL_RETURN_NOT_OK(store->Recover(info));
  return store;
}

Status Store::Recover(RecoveryInfo* info) {
  std::lock_guard<std::mutex> lock(mu_);
  return RecoverLocked(info);
}

Status Store::RecoverLocked(RecoveryInfo* info) {
  if (recovered_) return Status::FailedPrecondition("store already recovered");
  Stopwatch sw;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("create store dir " + dir_ + ": " + ec.message());
  }

  auto mr = ReadManifest(dir_);
  if (mr.ok()) {
    manifest_ = std::move(mr).value();
  } else if (mr.status().code() == StatusCode::kNotFound) {
    // Fresh store: install generation 0 with an empty segment list so
    // the directory is always manifest-rooted from the first open.
    manifest_ = Manifest{0, {}, WalFileName(0)};
    FTL_RETURN_NOT_OK(WriteManifest(dir_, manifest_));
  } else {
    return mr.status();
  }

  segments_.clear();
  segment_indices_.clear();
  for (const std::string& seg : manifest_.segments) {
    auto r = io::ReadFtb(dir_ + "/" + seg);
    if (!r.ok()) {
      return Status::IOError("segment " + seg + ": " +
                             r.status().ToString());
    }
    segments_.push_back(
        std::make_shared<traj::FlatDatabase>(std::move(r).value()));
    if (options_.blocking_mode != core::BlockingMode::kOff) {
      segment_indices_.push_back(std::make_shared<const core::BlockingIndex>(
          *segments_.back(), options_.blocking));
    }
  }

  // WAL replay: repair the torn tail in place, then apply every
  // surviving batch to the memtable — rebuilding exactly the mutable
  // state the pre-crash process had at its last complete frame.
  memtable_.Clear();
  WalReplayStats stats;
  const std::string wal_path = dir_ + "/" + manifest_.wal;
  uint64_t replayed_batches = 0;
  uint64_t replayed_records = 0;
  Status rst = ReplayWal(
      wal_path,
      [&](uint64_t seqno, std::string_view payload) -> Status {
        auto batch = DecodeBatch(payload);
        if (!batch.ok()) {
          return Status::IOError("WAL frame " + std::to_string(seqno) +
                                 " undecodable: " + batch.status().message());
        }
        replayed_records += batch.value().rows.size();
        ++replayed_batches;
        memtable_.Apply(batch.value());
        return Status::OK();
      },
      &stats);
  if (!rst.ok()) return rst;

  WalWriterOptions wopts;
  wopts.sync = options_.wal_sync;
  wopts.sync_interval_ms = options_.wal_sync_interval_ms;
  auto w = WalWriter::Open(wal_path, wopts, stats.last_seqno + 1);
  if (!w.ok()) return w.status();
  wal_ = std::move(w).value();

  // Orphan cleanup: an interrupted flush can leave a segment or WAL
  // file that never made it into the manifest; recovery removes them
  // so the directory always equals the manifest's view.
  uint64_t orphans = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (!IsStoreFileName(name)) continue;
    bool live = name == manifest_.wal;
    for (const std::string& seg : manifest_.segments) {
      live = live || name == seg;
    }
    if (live) continue;
    std::error_code rec;
    if (std::filesystem::remove(entry.path(), rec)) ++orphans;
  }

  recovered_ = true;
  version_ = 1;

  StoreMetrics& m = Metrics();
  m.replay_batches->Add(static_cast<int64_t>(replayed_batches));
  m.replay_records->Add(static_cast<int64_t>(replayed_records));
  m.wal_torn_bytes->Add(static_cast<int64_t>(stats.torn_bytes_dropped));
  m.segments_live->Set(static_cast<int64_t>(segments_.size()));
  m.memtable_records->Set(static_cast<int64_t>(memtable_.num_records()));
  m.generation->Set(static_cast<int64_t>(manifest_.generation));

  if (info != nullptr) {
    info->generation = manifest_.generation;
    info->segments = segments_.size();
    info->replayed_batches = replayed_batches;
    info->replayed_records = replayed_records;
    info->torn_bytes_dropped = stats.torn_bytes_dropped;
    info->orphans_removed = orphans;
    info->seconds = sw.ElapsedSeconds();
  }
  return Status::OK();
}

Status Store::Append(const IngestBatch& batch) {
  if (batch.rows.empty()) {
    return Status::InvalidArgument("empty ingest batch");
  }
  for (const IngestRow& row : batch.rows) {
    if (row.label.empty()) {
      return Status::InvalidArgument("ingest row with empty label");
    }
    if (row.label.size() > 65536) {
      return Status::InvalidArgument("ingest label longer than 65536 bytes");
    }
    // Rejected before the WAL: every flush re-reads its segment through
    // ReadFtb, which refuses non-finite coordinates.
    if (!std::isfinite(row.x) || !std::isfinite(row.y)) {
      return Status::InvalidArgument("ingest row with non-finite coordinate");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!recovered_) return Status::FailedPrecondition("store not recovered");
  if (broken_) {
    return Status::FailedPrecondition(
        "store is broken after a failed flush commit; reopen to recover");
  }

  const size_t cap = static_cast<size_t>(
      static_cast<double>(options_.flush_threshold_records) *
      options_.backpressure_factor);
  bool flush_due =
      memtable_.num_records() >= options_.flush_threshold_records ||
      (options_.flush_max_age_seconds > 0 && !memtable_.empty() &&
       memtable_.age_seconds() >= options_.flush_max_age_seconds);
  if (flush_due) {
    Status fst = FlushLocked();
    if (!fst.ok() && memtable_.num_records() >= cap) {
      // Admission control: flushes are failing and the memtable is at
      // the cap — shed load with a retryable rejection instead of
      // growing without bound.
      return Status::OutOfRange("store backpressure: memtable at " +
                                std::to_string(memtable_.num_records()) +
                                " records with flush failing: " +
                                fst.message());
    }
    if (broken_) {
      return Status::FailedPrecondition(
          "store is broken after a failed flush commit; reopen to recover");
    }
  }

  const uint64_t before = wal_.bytes();
  Status st = wal_.Append(EncodeBatch(batch));
  StoreMetrics& m = Metrics();
  if (!st.ok()) {
    // Not acked, not visible — but the frame may be partially on disk,
    // and replay truncates at the first invalid frame, which would
    // strand any *later* acked frames behind the tear. Repair in place
    // by cutting the file back to the pre-append length; if even that
    // fails the WAL can no longer be trusted for further appends.
    if (wal_.bytes() > before) {
      m.wal_torn_bytes->Add(static_cast<int64_t>(wal_.bytes() - before));
      Status trunc = wal_.TruncateTo(before);
      if (!trunc.ok()) {
        broken_ = true;
        return Status::Internal("WAL append failed (" + st.message() +
                                ") and torn-tail repair failed: " +
                                trunc.message());
      }
    }
    return st;
  }
  m.wal_bytes->Add(static_cast<int64_t>(wal_.bytes() - before));
  memtable_.Apply(batch);
  ++version_;
  m.wal_appends->Add(1);
  m.ingest_records->Add(static_cast<int64_t>(batch.rows.size()));
  m.memtable_records->Set(static_cast<int64_t>(memtable_.num_records()));
  return Status::OK();
}

Status Store::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recovered_) return Status::FailedPrecondition("store not recovered");
  if (broken_) {
    return Status::FailedPrecondition(
        "store is broken after a failed flush commit; reopen to recover");
  }
  return FlushLocked();
}

Status Store::FlushLocked() {
  if (memtable_.empty()) return Status::OK();
  FTL_FAILPOINT("store.flush.segment");
  Stopwatch sw;
  const uint64_t gen = manifest_.generation + 1;
  const std::string seg_name = SegmentFileName(gen);
  const std::string seg_path = dir_ + "/" + seg_name;

  traj::FlatDatabase flat =
      traj::FlatDatabase::FromDatabase(memtable_.ToDatabase(seg_name));
  Status wst = io::WriteFtb(flat, seg_path);
  if (!wst.ok()) {
    std::error_code ec;
    std::filesystem::remove(seg_path, ec);
    return wst;
  }
  FTL_RETURN_NOT_OK(io::SyncFile(seg_path));
  // Validate the segment end-to-end (CRCs, invariants) *before* the
  // manifest names it: a bad segment must never become live.
  auto reread = io::ReadFtb(seg_path);
  if (!reread.ok()) {
    std::error_code ec;
    std::filesystem::remove(seg_path, ec);
    return Status::IOError("flush validation failed for " + seg_name + ": " +
                           reread.status().ToString());
  }

  Manifest next;
  next.generation = gen;
  next.segments = manifest_.segments;
  next.segments.push_back(seg_name);
  next.wal = WalFileName(gen);
  Status mst = WriteManifest(dir_, next);
  if (!mst.ok()) {
    std::error_code ec;
    std::filesystem::remove(seg_path, ec);
    return mst;
  }

  // The swap is the commit point: the new manifest is durable. Any
  // in-memory failure past here leaves disk ahead of memory, so the
  // store marks itself broken rather than risk appending to a WAL the
  // manifest no longer references.
  WalWriterOptions wopts;
  wopts.sync = options_.wal_sync;
  wopts.sync_interval_ms = options_.wal_sync_interval_ms;
  auto w = WalWriter::Open(dir_ + "/" + next.wal, wopts, 1);
  if (!w.ok()) {
    broken_ = true;
    return Status::Internal("flush committed but new WAL failed to open (" +
                            w.status().message() + "); reopen the store");
  }
  const std::string old_wal_path = dir_ + "/" + manifest_.wal;
  wal_.Close();
  wal_ = std::move(w).value();
  segments_.push_back(
      std::make_shared<traj::FlatDatabase>(std::move(reread).value()));
  if (options_.blocking_mode != core::BlockingMode::kOff) {
    segment_indices_.push_back(std::make_shared<const core::BlockingIndex>(
        *segments_.back(), options_.blocking));
  }
  memtable_.Clear();
  manifest_ = std::move(next);
  ++version_;
  {
    std::error_code ec;
    std::filesystem::remove(old_wal_path, ec);
  }

  StoreMetrics& m = Metrics();
  m.flushes->Add(1);
  m.flush_latency_us->Record(
      static_cast<int64_t>(sw.ElapsedSeconds() * 1e6));
  m.segments_live->Set(static_cast<int64_t>(segments_.size()));
  m.memtable_records->Set(0);
  m.generation->Set(static_cast<int64_t>(manifest_.generation));
  return Status::OK();
}

bool Store::CompactionDue() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_ && !broken_ && options_.compact_trigger > 0 &&
         segments_.size() >= options_.compact_trigger;
}

Result<CompactionStats> Store::CompactOnce(bool force) {
  Stopwatch sw;

  // Phase 1 (locked): pick the input window and pin the inputs. Only a
  // *contiguous* run of manifest-adjacent segments may merge — a
  // non-contiguous merge would reorder the canonical first-appearance
  // walk and change query bytes. Size-tiered pick: the contiguous
  // window of compact_max_segments segments with the fewest total
  // records, so small flush-sized segments coalesce first and big
  // merged segments are not rewritten every round.
  size_t window_begin = 0;
  uint64_t gen_hint = 0;
  std::vector<std::string> input_names;
  std::vector<std::shared_ptr<const traj::FlatDatabase>> inputs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!recovered_) return Status::FailedPrecondition("store not recovered");
    if (broken_) {
      return Status::FailedPrecondition(
          "store is broken after a failed flush commit; reopen to recover");
    }
    const bool due = options_.compact_trigger > 0 &&
                     segments_.size() >= options_.compact_trigger;
    if ((!due && !force) || segments_.size() < 2) return CompactionStats{};
    const size_t width = std::min(
        std::max<size_t>(2, options_.compact_max_segments), segments_.size());
    size_t best = 0;
    uint64_t best_cost = ~uint64_t{0};
    for (size_t b = 0; b + width <= segments_.size(); ++b) {
      uint64_t cost = 0;
      for (size_t i = b; i < b + width; ++i) {
        cost += segments_[i]->TotalRecords();
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = b;
      }
    }
    window_begin = best;
    gen_hint = manifest_.generation + 1;
    for (size_t i = best; i < best + width; ++i) {
      input_names.push_back(manifest_.segments[i]);
      inputs.push_back(segments_[i]);
    }
  }

  // Phase 2 (unlocked — appends and flushes proceed concurrently): the
  // merged segment is the snapshot merge semantics restricted to the
  // window (first-appearance label order, per-label records time-sorted
  // with ingest order breaking ties, first non-unknown owner), written
  // under a temp name no manifest ever references, then validated
  // end-to-end before it can become live. A crash past any of this
  // leaves an orphan that recovery GCs.
  CompactionStats stats;
  stats.inputs = inputs.size();
  for (const auto& seg : inputs) {
    stats.input_records += seg->TotalRecords();
  }
  const std::string out_name_hint = SegmentFileName(gen_hint);
  const std::string tmp_name = CompactTempFileName(gen_hint);
  const std::string tmp_path = dir_ + "/" + tmp_name;
  auto drop_tmp = [&tmp_path]() {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
  };

  FTL_FAILPOINT("store.compact.write");
  traj::FlatDatabase merged = [&]() {
    MutableSegment no_memtable;
    auto mini = StoreSnapshot::Build(inputs, no_memtable, 0, 0);
    return traj::FlatDatabase::FromDatabase(
        mini->MaterializeAll(out_name_hint));
  }();
  stats.output_records = merged.TotalRecords();
  stats.output_labels = merged.size();

  Status wst = io::WriteFtb(merged, tmp_path);
  if (!wst.ok()) {
    drop_tmp();
    return wst;
  }
  {
    Status sst = io::SyncFile(tmp_path);
    if (!sst.ok()) {
      drop_tmp();
      return sst;
    }
  }
  // Validate end-to-end (CRCs, invariants) *before* the manifest can
  // name it: a bad merged segment must never become live.
  auto reread = io::ReadFtb(tmp_path);
  if (!reread.ok()) {
    drop_tmp();
    return Status::IOError("compaction validation failed for " + tmp_name +
                           ": " + reread.status().ToString());
  }
  auto seg_db =
      std::make_shared<traj::FlatDatabase>(std::move(reread).value());
  std::shared_ptr<const core::BlockingIndex> seg_index;
  if (options_.blocking_mode != core::BlockingMode::kOff) {
    seg_index = std::make_shared<const core::BlockingIndex>(
        *seg_db, options_.blocking);
  }

  // Phase 3 (locked): commit. Rename the output into place, swap a
  // manifest that splices the window, then splice memory. Nothing
  // fallible happens after the manifest swap, so compaction never
  // leaves the store broken: any failure before the swap aborts with
  // the old segment set fully live.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) {
      drop_tmp();
      return Status::FailedPrecondition(
          "store is broken after a failed flush commit; reopen to recover");
    }
    // Re-validate the window. Concurrent flushes only append, and a
    // store runs at most one compactor, so the names must still sit at
    // the same positions; anything else means a caller raced two
    // compactions — abort rather than guess.
    bool window_intact =
        window_begin + input_names.size() <= manifest_.segments.size();
    for (size_t i = 0; window_intact && i < input_names.size(); ++i) {
      window_intact = manifest_.segments[window_begin + i] == input_names[i];
    }
    if (!window_intact) {
      drop_tmp();
      return Status::FailedPrecondition(
          "compaction window changed during merge");
    }

    {
      Status fst = [&]() -> Status {
        FTL_FAILPOINT("store.compact.swap");
        return Status::OK();
      }();
      if (!fst.ok()) {
        drop_tmp();
        return fst;
      }
    }

    const uint64_t gen = manifest_.generation + 1;
    const std::string seg_name = SegmentFileName(gen);
    const std::string seg_path = dir_ + "/" + seg_name;
    std::error_code ec;
    std::filesystem::rename(tmp_path, seg_path, ec);
    if (ec) {
      drop_tmp();
      return Status::IOError("rename " + tmp_name + " -> " + seg_name + ": " +
                             ec.message());
    }
    // The directory fsync inside WriteManifest makes the rename and the
    // manifest durable together; a crash in between leaves the renamed
    // file as an orphan the next recovery GCs.
    Manifest next;
    next.generation = gen;
    next.wal = manifest_.wal;  // compaction never touches WAL/memtable
    next.segments.assign(manifest_.segments.begin(),
                         manifest_.segments.begin() +
                             static_cast<long>(window_begin));
    next.segments.push_back(seg_name);
    next.segments.insert(next.segments.end(),
                         manifest_.segments.begin() +
                             static_cast<long>(window_begin +
                                               input_names.size()),
                         manifest_.segments.end());
    Status mst = WriteManifest(dir_, next);
    if (!mst.ok()) {
      std::error_code rec;
      std::filesystem::remove(seg_path, rec);
      return mst;
    }

    // Committed on disk; switch memory (infallible).
    segments_.erase(segments_.begin() + static_cast<long>(window_begin),
                    segments_.begin() +
                        static_cast<long>(window_begin + inputs.size()));
    segments_.insert(segments_.begin() + static_cast<long>(window_begin),
                     seg_db);
    if (options_.blocking_mode != core::BlockingMode::kOff &&
        segment_indices_.size() >= window_begin + inputs.size()) {
      segment_indices_.erase(
          segment_indices_.begin() + static_cast<long>(window_begin),
          segment_indices_.begin() +
              static_cast<long>(window_begin + inputs.size()));
      segment_indices_.insert(
          segment_indices_.begin() + static_cast<long>(window_begin),
          seg_index);
    }
    manifest_ = std::move(next);
    ++version_;
    stats.generation = manifest_.generation;

    // The merged-away inputs are immutable and unreferenced by the new
    // manifest: unlink best-effort (live snapshots keep reading through
    // their shared_ptr mmaps; a crash before the unlinks leaves orphans
    // for recovery GC).
    for (const std::string& name : input_names) {
      std::error_code rec;
      std::filesystem::remove(dir_ + "/" + name, rec);
    }

    StoreMetrics& m = Metrics();
    m.compactions->Add(1);
    m.compaction_input_segments->Add(static_cast<int64_t>(stats.inputs));
    m.compaction_output_records->Add(
        static_cast<int64_t>(stats.output_records));
    m.segments_live->Set(static_cast<int64_t>(segments_.size()));
    m.generation->Set(static_cast<int64_t>(manifest_.generation));
  }

  stats.seconds = sw.ElapsedSeconds();
  Metrics().compaction_latency_us->Record(
      static_cast<int64_t>(stats.seconds * 1e6));
  return stats;
}

std::shared_ptr<const StoreSnapshot> Store::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ == nullptr || snapshot_version_ != version_) {
    snapshot_ = StoreSnapshot::Build(segments_, memtable_,
                                     manifest_.generation, version_,
                                     segment_indices_,
                                     options_.blocking_mode);
    snapshot_version_ = version_;
  }
  return snapshot_;
}

traj::TrajectoryDatabase Store::MaterializeAll(const std::string& name) const {
  return Snapshot()->MaterializeAll(name);
}

bool Store::recovered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_;
}

bool Store::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

uint64_t Store::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_.generation;
}

size_t Store::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

size_t Store::memtable_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memtable_.num_records();
}

size_t Store::total_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = memtable_.num_records();
  for (const auto& seg : segments_) n += seg->TotalRecords();
  return n;
}

uint64_t Store::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.bytes();
}

}  // namespace ftl::store
