#ifndef FTL_CORE_BLOCKING_H_
#define FTL_CORE_BLOCKING_H_

/// \file blocking.h
/// Sublinear candidate generation for large-scale fuzzy linking.
///
/// The paper's algorithms compare a query against *every* candidate —
/// fine at 15k trajectories, prohibitive at millions. Blocking is the
/// record-linkage community's standard answer (Christen, TKDE'12, cited
/// by the paper; SLIM, arXiv:2004.05951): cheaply prune candidates that
/// cannot plausibly match, then run the expensive classifier on the
/// survivors.
///
/// The index is built once per candidate database, for one mode, and
/// answers each query in time proportional to the query's
/// spatiotemporal footprint plus the result size — it never scans the
/// candidate list. Three structures, all CSR-flattened inverted lists,
/// of which a build keeps only those its mode probes:
///
///  * **time-bucket occupancy** — per coarse epoch bucket, the
///    candidates with ≥1 record in the bucket and their record counts.
///    Drives the *guaranteed* mode: an upper bound on the number of
///    informative mutual segments a candidate can contribute (see
///    BlockingGuarantee) that is provably no stricter than the
///    classifiers' own accept conditions, so engine accept sets stay
///    byte-identical to exhaustive scoring.
///  * **time-bucket span lists** — per bucket, the candidates whose
///    [min t, max t] span covers the bucket (candidates spanning very
///    many buckets go to a small always-checked overflow list).
///    Drives the legacy/aggressive temporal span-overlap filter; probe
///    hits are refined with the exact span predicate, so results equal
///    the old full-scan semantics.
///  * **spatial cell lists** — per coarse grid cell, the candidates
///    visiting it. Drives the aggressive co-visitation filter
///    (neighborhood expansion absorbs noise and channel offset).
///
/// Aggressive mode trades a little recall for a large candidate-set
/// reduction; guaranteed mode trades nothing (bench_blocking
/// quantifies both).

#include <cstdint>
#include <string_view>
#include <vector>

#include "traj/flat_database.h"
#include "util/status.h"

namespace ftl::core {

/// How a query pipeline uses a BlockingIndex.
enum class BlockingMode {
  kOff,         ///< exhaustive: score every candidate
  kGuaranteed,  ///< prune only provably unacceptable candidates
  kAggressive,  ///< span-overlap + co-visitation heuristics (recall < 1)
};

/// Stable lower-case name ("off" / "guaranteed" / "aggressive").
const char* BlockingModeName(BlockingMode mode);

/// Parses a BlockingModeName; InvalidArgument on anything else.
Result<BlockingMode> ParseBlockingMode(std::string_view name);

/// Blocking configuration.
struct BlockingOptions {
  /// Aggressive mode: require time-span overlap within this slack
  /// (seconds).
  bool use_temporal = true;
  int64_t temporal_slack_seconds = 6 * 3600;

  /// Aggressive mode: require at least `min_shared_cells` coarse grid
  /// cells in common after expanding each query cell by `neighborhood`
  /// rings. min_shared_cells == 0 disables the spatial filter.
  bool use_spatial = true;
  double cell_size_meters = 3000.0;
  int neighborhood = 1;
  size_t min_shared_cells = 1;

  /// Width of the coarse epoch buckets backing both temporal
  /// structures (seconds). Pure performance knob: results are
  /// identical for any positive value. Smaller buckets probe more
  /// lists but touch fewer false candidates.
  int64_t time_bucket_seconds = 3600;

  /// Sanity check: cell size positive and finite, slack non-negative,
  /// bucket width positive, neighborhood in [0, 16] (a ring expansion
  /// is (2n+1)² probes per query cell). The BlockingIndex constructor
  /// clamps invalid values to safe defaults; call Validate() first
  /// where a user-supplied configuration should be rejected instead.
  Status Validate() const;
};

/// The accept-preserving contract of guaranteed mode, derived from the
/// trained models by FtlEngine::DeriveBlockingGuarantee.
///
/// Guarantee argument (DESIGN.md §13): both classifiers accept a
/// candidate only if the pair has at least `min_segments` informative
/// mutual segments. A mutual segment pairs records adjacent in the
/// time-merged order, so each candidate record participates in at most
/// two segments, and an informative segment keeps its two records
/// within `horizon_seconds` of each other. Hence with m = number of
/// candidate records within `horizon_seconds` of some query record,
/// the informative segment count n satisfies n <= 2m. The index upper
/// bounds m by bucket co-occurrence (counting whole buckets within
/// ceil(horizon/bucket) rings of the query's occupied buckets) and
/// keeps every candidate with 2·m̂ >= min_segments — a superset of the
/// candidates any accept path (including the Chernoff fast-reject
/// survivors) can accept, for any bucket width.
struct BlockingGuarantee {
  /// Upper bound on the time distance (seconds) between the two
  /// records of an informative mutual segment.
  int64_t horizon_seconds = 3600;

  /// Minimum informative mutual segments any accepted candidate must
  /// have. 0 means "cannot prune": the accept criterion does not
  /// require evidence (e.g. Naïve Bayes with φr >= 0.5), and
  /// guaranteed mode returns every candidate.
  uint64_t min_segments = 1;
};

/// Caller-owned scratch for Candidates()/GuaranteedCandidates(): a
/// per-candidate survivor bitset, per-candidate counts for the probes
/// that need them, and probe key staging, reused across queries (and
/// across BlockingIndex instances — buffers grow to the largest index
/// probed) so a steady-state query loop allocates nothing. A probe
/// leaves the bitset and counts all zero. One instance per thread;
/// never shared concurrently. Mirrors the engine's per-thread
/// ScoreScratch.
struct BlockingScratch {
  std::vector<uint64_t> hit;    ///< bit i: candidate i touched by the probe
  std::vector<uint32_t> count;  ///< co-occurrence counts (counting probes)
  std::vector<int64_t> keys;    ///< probe cell/bucket staging
};

/// Precomputed index over a candidate database. Build once per
/// database; the backing database contents are not referenced after
/// construction.
class BlockingIndex {
 public:
  /// Builds the index by streaming the timestamp/x/y columns of `db`
  /// (e.g. an mmap'd FTB segment). Only the lists `mode`'s probe reads
  /// are built: kGuaranteed the occupancy lists; kAggressive the exact
  /// spans plus the cell lists when the spatial filter is on
  /// (use_spatial and min_shared_cells > 0), else the span lists when
  /// use_temporal is set; kOff none. Invalid options are clamped (see
  /// BlockingOptions::Validate). Candidate spans are computed as true
  /// min/max over records, so inputs that violate the sorted-trajectory
  /// invariant still index correctly.
  BlockingIndex(const traj::FlatDatabase& db, const BlockingOptions& options,
                BlockingMode mode = BlockingMode::kGuaranteed);

  /// Aggressive mode: indices of candidates surviving all enabled
  /// blockers, ascending. Every candidate when the index was not built
  /// for kAggressive.
  void Candidates(const traj::FlatTrajectoryView& query,
                  BlockingScratch* scratch, std::vector<size_t>* out) const;

  /// Guaranteed mode: indices (ascending) of every candidate whose
  /// co-occurrence upper bound allows >= guarantee.min_segments
  /// informative mutual segments with the query. Never drops a
  /// candidate either classifier could accept (see BlockingGuarantee),
  /// so engine accept sets over the survivors are byte-identical to
  /// exhaustive scoring. Ignores use_temporal/use_spatial: the filter
  /// is purely temporal (an informative segment already tolerates
  /// vmax·horizon of travel — tens of kilometres at defaults — so no
  /// spatial test can be both useful and safe; DESIGN.md §13). Every
  /// candidate when the index was not built for kGuaranteed. Both
  /// probes read survivors off the scratch bitset in ascending order;
  /// this one counts records only when min_segments > 2 (below that any
  /// co-occurring record suffices).
  void GuaranteedCandidates(const traj::FlatTrajectoryView& query,
                            const BlockingGuarantee& guarantee,
                            BlockingScratch* scratch,
                            std::vector<size_t>* out) const;

  /// Number of indexed candidates.
  size_t size() const { return num_candidates_; }

  /// Wall-clock build time, microseconds (also recorded to
  /// ftl_blocking_index_build_us).
  int64_t build_micros() const { return build_micros_; }

  const BlockingOptions& options() const { return options_; }

  /// The mode the index was built for.
  BlockingMode mode() const { return mode_; }

 private:
  /// One CSR-flattened inverted index: sorted unique keys (cell ids or
  /// bucket ids), offsets, and per-key entry rows.
  struct PostingLists {
    std::vector<int64_t> keys;     // sorted, unique
    std::vector<uint32_t> begin;   // keys.size() + 1 offsets
    std::vector<uint32_t> entry;   // candidate id per posting
    std::vector<uint32_t> weight;  // record count per posting (occupancy)
  };

  static int64_t CellKey(int32_t cx, int32_t cy) {
    return (static_cast<int64_t>(cx) << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(cy));
  }

  /// Marks every candidate sharing a probe cell with `query` in the
  /// scratch bitset, and with `counts` also counts its shared cells;
  /// probe cells are the neighborhood expansion of the query's clamped
  /// grid cells.
  void MarkSharedCells(const traj::FlatTrajectoryView& query, bool counts,
                       BlockingScratch* scratch) const;

  /// True when the candidate span overlaps [q_lo, q_hi].
  bool SpanOverlaps(uint32_t cand, int64_t q_lo, int64_t q_hi) const {
    const auto& s = spans_[cand];
    return s.first <= s.second && s.second >= q_lo && s.first <= q_hi;
  }

  size_t num_candidates_ = 0;
  BlockingOptions options_;
  BlockingMode mode_;
  int64_t build_micros_ = 0;

  /// Exact [min t, max t] per candidate; (1, 0) for empty candidates.
  /// Built only for an aggressive index with use_temporal set.
  std::vector<std::pair<int64_t, int64_t>> spans_;

  PostingLists occupancy_;  ///< bucket -> (candidate, record count)
  PostingLists span_;       ///< bucket -> candidates whose span covers it
  std::vector<uint32_t> span_overflow_;  ///< very-long-span candidates
  PostingLists cells_;      ///< grid cell -> candidates visiting it
};

}  // namespace ftl::core

#endif  // FTL_CORE_BLOCKING_H_
