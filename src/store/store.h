#ifndef FTL_STORE_STORE_H_
#define FTL_STORE_STORE_H_

/// \file store.h
/// The LSM-flavored multi-segment trajectory store: crash-safe
/// incremental ingest for the candidate side of the linkage engine.
///
/// Write path: Append() frames the batch into the write-ahead log
/// (store/wal.h, fsync policy WalSync), then applies it to the
/// in-memory MutableSegment, where queries see it immediately. When the
/// memtable crosses a size/age threshold it is flushed to an immutable
/// FTB segment (io/ftb.h) and the MANIFEST is atomically swapped
/// (store/manifest.h) to name the new segment and a fresh WAL; the old
/// WAL is then deleted.
///
/// Recovery: Recover() loads the manifest, mmaps the live segments,
/// truncates any torn WAL tail, replays the surviving frames into the
/// memtable, and deletes orphan files from interrupted flushes. The
/// recovered state is always a *prefix* of the appended batches — a
/// batch is either fully restored or fully dropped, never partially —
/// and with WalSync::kAlways every acknowledged Append survives.
///
/// Read path: Snapshot() returns an immutable StoreSnapshot that
/// answers queries by fanning out over every segment plus the memtable
/// and merging, **byte-identically** to querying one merged database
/// (docs: DESIGN.md §12 has the argument; tests/store_chaos_test.cc
/// enforces it at every failpoint).
///
/// Thread-safety: all public Store methods are safe to call
/// concurrently; writes serialize on an internal mutex and snapshots
/// are immutable.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "core/engine.h"
#include "store/manifest.h"
#include "store/memtable.h"
#include "store/wal.h"
#include "traj/database.h"
#include "traj/flat_database.h"
#include "util/status.h"

namespace ftl::store {

struct StoreOptions {
  /// WAL durability policy (`--wal-sync`), see store/wal.h.
  WalSync wal_sync = WalSync::kInterval;
  int64_t wal_sync_interval_ms = 50;

  /// Flush the memtable to an immutable FTB segment once it holds this
  /// many records.
  size_t flush_threshold_records = 100000;

  /// Also flush when the oldest memtable record is older than this
  /// (seconds; 0 disables the age trigger). Checked on Append.
  double flush_max_age_seconds = 0.0;

  /// Admission control: when flushing fails (e.g. disk fault) the
  /// memtable keeps absorbing appends until it reaches
  /// backpressure_factor × flush_threshold_records, after which
  /// Append returns OutOfRange (HTTP 503 / exit code 5) until a flush
  /// succeeds.
  double backpressure_factor = 4.0;

  /// Background compaction trigger (`--compact-trigger`): once the
  /// store holds at least this many immutable segments, CompactionDue()
  /// reports true and a store::Compactor (or an explicit CompactOnce
  /// call) merges a window of them. 0 disables compaction entirely —
  /// the store then behaves exactly like the pre-compaction store.
  size_t compact_trigger = 0;

  /// Most segments merged per compaction round
  /// (`--compact-max-segments`). Each round replaces one contiguous
  /// window of up to this many manifest-adjacent segments with a
  /// single merged segment; clamped to at least 2.
  size_t compact_max_segments = 8;

  /// Candidate generation for snapshot queries (`--blocking`). When
  /// not kOff, every immutable segment gets a BlockingIndex built at
  /// flush/recovery time and snapshot queries score only the segment
  /// survivors (kGuaranteed preserves accept sets byte-identically;
  /// kAggressive applies the heuristic span/co-visitation blockers).
  /// The memtable and the cross-segment overlay are always scored
  /// exhaustively — they are small and churn too fast to index.
  core::BlockingMode blocking_mode = core::BlockingMode::kOff;
  core::BlockingOptions blocking;
};

/// What Recover() did, for operator output and tests.
struct RecoveryInfo {
  uint64_t generation = 0;         ///< manifest generation after recovery
  uint64_t segments = 0;           ///< live immutable segments loaded
  uint64_t replayed_batches = 0;   ///< WAL batches replayed
  uint64_t replayed_records = 0;   ///< rows restored into the memtable
  uint64_t torn_bytes_dropped = 0; ///< torn-tail bytes truncated from the WAL
  uint64_t orphans_removed = 0;    ///< unreferenced files deleted
  double seconds = 0.0;            ///< wall time of the whole recovery
};

/// What one CompactOnce() round did, for operator output, metrics and
/// tests. inputs == 0 means no round ran (nothing was due).
struct CompactionStats {
  uint64_t generation = 0;   ///< manifest generation after the commit
  size_t inputs = 0;         ///< segments merged away this round
  size_t input_records = 0;  ///< records across the merged inputs
  size_t output_records = 0; ///< records in the merged output segment
  size_t output_labels = 0;  ///< canonical labels in the output segment
  double seconds = 0.0;      ///< wall time of the round
};

/// An immutable, consistent view of the store at one version: the
/// segment set, a copy of the memtable, and the query plan that makes
/// multi-segment results byte-identical to a single merged database.
///
/// The canonical merged database is defined as: every label in
/// first-appearance order (segments oldest-first, then the memtable),
/// with a label's records merged across all the segments it spans,
/// time-sorted with ingest order breaking ties, and its owner the
/// first non-unknown owner in ingest order. MaterializeAll() *is* that
/// database; Query() reproduces querying it byte-for-byte without
/// materializing anything.
class StoreSnapshot {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Canonical trajectory count (the merged |Q|).
  size_t size() const { return canon_.size(); }
  bool empty() const { return canon_.empty(); }

  /// Total records across all canonical trajectories.
  size_t total_records() const { return total_records_; }

  /// Manifest generation and store version this snapshot reflects.
  uint64_t generation() const { return generation_; }
  uint64_t version() const { return version_; }

  size_t num_segments() const { return segments_.size(); }

  /// Global index of `label` in the canonical order, or npos.
  size_t Find(std::string_view label) const;

  /// Label of canonical trajectory `g`.
  std::string_view label(size_t g) const;

  /// AoS copy of canonical trajectory `g` (records merged across
  /// segments as defined above).
  traj::Trajectory Materialize(size_t g) const;

  /// The full canonical merged database. This is the oracle the chaos
  /// tests compare against, and what `ftl serve` trains the engine on.
  traj::TrajectoryDatabase MaterializeAll(const std::string& name) const;

  /// Scores `query` against the whole canonical database: fans out one
  /// engine sub-query per segment run (SoA, zero-copy over the mmap)
  /// plus the memtable and the cross-segment overlay, concatenates in
  /// canonical order, and re-applies the engine's stable score sort.
  /// Byte-identical to engine.Query(query, MaterializeAll(), matcher)
  /// — candidate indices are canonical global indices. `qopts` may be
  /// null; a fired deadline yields a truncated prefix of the canonical
  /// order.
  ///
  /// `num_threads > 1` shards the fan-out: the plan is cut into
  /// per-segment candidate chunks that score in parallel on that many
  /// workers (each with its own core::QueryScratch), and the merge
  /// re-assembles chunk results in canonical order — complete results
  /// are byte-identical to the serial walk for any thread count, and
  /// truncated results are still a canonical-order prefix (DESIGN.md
  /// §14). Callers already parallel at a coarser grain (serve workers)
  /// should keep workers × num_threads within the machine.
  Result<core::QueryResult> Query(const core::FtlEngine& engine,
                                  const traj::Trajectory& query,
                                  core::Matcher matcher,
                                  const core::QueryOptions* qopts,
                                  size_t num_threads = 1) const;

  /// Scores `query` against the named candidates only (the /v1/rank
  /// path). Evaluation order is the request order; returned indices
  /// are canonical global indices. NotFound for an unknown label.
  /// `qopts` may be null; a fired deadline yields a truncated prefix of
  /// the request order.
  Result<core::QueryResult> Rank(const core::FtlEngine& engine,
                                 const traj::Trajectory& query,
                                 const std::vector<std::string>& candidates,
                                 core::Matcher matcher,
                                 const core::QueryOptions* qopts =
                                     nullptr) const;

 private:
  friend class Store;

  /// Where one canonical trajectory's rows live. Sources are numbered
  /// segments-first (0..num_segments-1), then the memtable.
  struct SourceRef {
    uint32_t source = 0;
    uint32_t local = 0;
  };

  /// One canonical trajectory: every (source, local) contribution in
  /// ingest order. Single-element for labels that never span a flush.
  struct CanonEntry {
    std::vector<SourceRef> contribs;
  };

  /// One step of a source's query plan: either a list of plain local
  /// indices (single-home labels, queried straight off the source), or
  /// a list of overlay-database indices (labels whose rows span
  /// sources, queried off the pre-merged overlay at their canonical
  /// first-appearance position).
  struct Run {
    bool overlay = false;
    std::vector<size_t> indices;
  };

  static std::shared_ptr<const StoreSnapshot> Build(
      const std::vector<std::shared_ptr<const traj::FlatDatabase>>& segments,
      const MutableSegment& memtable, uint64_t generation, uint64_t version,
      std::vector<std::shared_ptr<const core::BlockingIndex>> segment_indices =
          {},
      core::BlockingMode blocking_mode = core::BlockingMode::kOff);

  StoreSnapshot() = default;

  /// Source `s`: a segment for s < num_segments(), else the memtable.
  const traj::FlatDatabase& source(size_t s) const {
    return s < segments_.size() ? *segments_[s] : memtable_db_;
  }

  std::vector<std::shared_ptr<const traj::FlatDatabase>> segments_;
  /// Per-segment candidate-generation indices (parallel to segments_;
  /// empty when blocking_mode_ == kOff). Query() intersects each plain
  /// segment run with the index survivors; overlay and memtable runs
  /// stay exhaustive.
  std::vector<std::shared_ptr<const core::BlockingIndex>> segment_indices_;
  core::BlockingMode blocking_mode_ = core::BlockingMode::kOff;
  traj::FlatDatabase memtable_db_;  ///< snapshot copy of the memtable
  traj::FlatDatabase overlay_db_;   ///< pre-merged multi-home labels

  std::vector<CanonEntry> canon_;                    ///< canonical order
  std::unordered_map<std::string, size_t> by_label_; ///< label -> global
  std::vector<std::vector<size_t>> global_of_;       ///< [source][local] -> g
  std::vector<size_t> overlay_global_;               ///< overlay idx -> g
  std::vector<std::vector<Run>> plans_;              ///< [source] -> steps

  size_t total_records_ = 0;
  uint64_t generation_ = 0;
  uint64_t version_ = 0;
};

/// The store. Construction is two-phase so a server can bind its
/// listen socket (and answer /readyz 503) before the possibly-long
/// recovery runs:
///
///   auto store = Store::Create(dir, options);   // no IO yet
///   ... start serving 503s ...
///   RecoveryInfo info;
///   FTL_RETURN_NOT_OK(store->Recover(&info));   // WAL replay etc.
///   ... mark ready ...
///
/// Store::Open() is the one-shot convenience doing both.
class Store {
 public:
  static std::unique_ptr<Store> Create(std::string dir, StoreOptions options);

  /// Create + Recover.
  static Result<std::unique_ptr<Store>> Open(const std::string& dir,
                                             const StoreOptions& options,
                                             RecoveryInfo* info = nullptr);

  /// Loads the manifest (creating a fresh one for an empty directory),
  /// mmaps live segments, repairs + replays the WAL into the memtable,
  /// and removes orphan files. Until this succeeds every other method
  /// returns FailedPrecondition.
  Status Recover(RecoveryInfo* info = nullptr);

  /// Durably appends one batch, then makes it visible to queries.
  /// Atomic per batch. May flush inline first (size/age trigger);
  /// OutOfRange under backpressure (memtable over the cap with flushes
  /// failing). On any error the batch is not applied — but its WAL
  /// frame may already be (partially or fully) on disk, so a retried
  /// append is at-least-once across a crash.
  Status Append(const IngestBatch& batch);

  /// Forces a memtable flush to an immutable segment now (no-op when
  /// the memtable is empty).
  Status Flush();

  /// True when the segment count has reached options().compact_trigger
  /// (and compaction is enabled). The store::Compactor polls this.
  bool CompactionDue() const;

  /// Runs one compaction round: picks the cheapest *contiguous* window
  /// of up to compact_max_segments manifest-adjacent segments
  /// (contiguity keeps the canonical first-appearance order — and so
  /// query bytes — unchanged; DESIGN.md §14), merges them into one
  /// segment via the snapshot merge semantics, writes it behind a
  /// compact-NNNNNN.tmp temp name (failpoint "store.compact.write"),
  /// validates it end-to-end, then commits by renaming it into place
  /// and atomically swapping a manifest that splices the window
  /// (failpoint "store.compact.swap"). The WAL and memtable are
  /// untouched. A crash anywhere leaves either the old or the new
  /// segment set live; recovery GCs any orphaned output. Returns
  /// inputs == 0 when nothing was due. `force` compacts even when the
  /// trigger is unmet/disabled (tests, `ftl ingest` final packing), as
  /// long as at least two segments exist.
  Result<CompactionStats> CompactOnce(bool force = false);

  /// An immutable view of the current state (cached; rebuilt only
  /// after mutations).
  std::shared_ptr<const StoreSnapshot> Snapshot() const;

  /// Snapshot()->MaterializeAll(name).
  traj::TrajectoryDatabase MaterializeAll(const std::string& name) const;

  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }

  bool recovered() const;
  /// True after a flush committed its manifest on disk but failed to
  /// switch in memory: appends are refused (reopen to recover).
  bool broken() const;
  uint64_t generation() const;
  size_t num_segments() const;
  size_t memtable_records() const;
  size_t total_records() const;
  uint64_t wal_bytes() const;

 private:
  Store(std::string dir, StoreOptions options);

  Status FlushLocked();
  Status RecoverLocked(RecoveryInfo* info);

  const std::string dir_;
  const StoreOptions options_;

  mutable std::mutex mu_;
  bool recovered_ = false;
  bool broken_ = false;
  Manifest manifest_;
  std::vector<std::shared_ptr<const traj::FlatDatabase>> segments_;
  /// Parallel to segments_ when options_.blocking_mode != kOff (empty
  /// otherwise): the BlockingIndex built for each segment at
  /// flush/recovery time.
  std::vector<std::shared_ptr<const core::BlockingIndex>> segment_indices_;
  MutableSegment memtable_;
  WalWriter wal_;
  uint64_t version_ = 0;  ///< bumps on every visible mutation

  mutable std::shared_ptr<const StoreSnapshot> snapshot_;  // cache
  mutable uint64_t snapshot_version_ = ~0ull;
};

}  // namespace ftl::store

#endif  // FTL_STORE_STORE_H_
