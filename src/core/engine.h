#ifndef FTL_CORE_ENGINE_H_
#define FTL_CORE_ENGINE_H_

/// \file engine.h
/// FtlEngine: the user-facing façade. Trains both models from a database
/// pair, answers fuzzy-linking queries with either classifier, and ranks
/// candidates by the paper's Eq. 2 score.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/alpha_filter.h"
#include "core/blocking.h"
#include "core/model_builders.h"
#include "core/naive_bayes.h"
#include "simd/kernels.h"
#include "traj/database.h"
#include "traj/flat_database.h"
#include "util/deadline.h"
#include "util/status.h"

namespace ftl::core {

/// Which classifier a query should use.
enum class Matcher {
  kAlphaFilter,  ///< (α1, α2)-filtering, hypothesis testing
  kNaiveBayes,   ///< Naïve-Bayes-matching
};

/// Parses a matcher name ("nb" or "alpha", as on the CLI and in the
/// serve API); InvalidArgument on anything else.
Result<Matcher> ParseMatcher(std::string_view name);

/// One returned candidate, with everything needed for ranking and
/// diagnostics.
struct MatchCandidate {
  size_t index = 0;        ///< position in the candidate database Q
  std::string label;       ///< candidate trajectory label
  double p1 = 0.0;         ///< rejection-phase p-value Pr(K>=k | Mr)
  double p2 = 1.0;         ///< acceptance-phase p-value Pr(K<=k | Ma)
  double score = 0.0;      ///< ranking score v = p1 (1 - p2), Eq. 2
  double nb_log_odds = 0;  ///< Naïve-Bayes posterior log-odds (if NB ran)
  int64_t k_observed = 0;  ///< incompatible informative mutual segments
  size_t n_segments = 0;   ///< informative mutual segments
};

/// The candidate set Q_P for one query, ranked by non-increasing score.
struct QueryResult {
  std::vector<MatchCandidate> candidates;

  /// |Q_P| / |Q| for this query (selectiveness contribution).
  double selectiveness = 0.0;

  /// True when the query stopped early (deadline or cancellation)
  /// and `candidates` covers only the first `evaluated` candidates.
  bool truncated = false;

  /// Why the query was truncated (kDeadlineExceeded / kCancelled);
  /// OK for complete results.
  Status status;

  /// Candidates actually scored. Equals the candidate count of the
  /// run when not truncated; for truncated results the evaluated
  /// candidates are always a prefix of the evaluation order, so a
  /// truncated result equals the full result filtered to indices
  /// that were reached.
  size_t evaluated = 0;
};

/// Per-query limits, all optional and inert by default: a
/// default-constructed QueryOptions never reads the clock and adds no
/// observable behavior. Checked cooperatively between candidates: a
/// serial query polls them every `check_every` candidates, a parallel
/// one once per chunk claim, so the evaluated candidates always form a
/// prefix of the evaluation order.
struct QueryOptions {
  /// Stop scoring once this deadline passes; the partial result is
  /// returned with truncated=true and status kDeadlineExceeded.
  Deadline deadline;

  /// Cooperative cancellation; the partial result is returned with
  /// truncated=true and status kCancelled. Cancellation wins over the
  /// deadline when both fire.
  CancelToken cancel;

  /// How many candidates a serial query scores between checks.
  /// Smaller = tighter latency bound, larger = less checking overhead.
  size_t check_every = 16;

  /// kCancelled if cancellation was requested, kDeadlineExceeded if
  /// the deadline passed, OK otherwise.
  Status Check() const;
};

/// Engine configuration.
struct EngineOptions {
  ModelTrainingOptions training;
  AlphaFilterParams alpha;
  NaiveBayesParams naive_bayes;

  /// Candidates whose time span does not overlap the query's produce at
  /// most one informative mutual segment; when true they are still
  /// evaluated (the paper evaluates all pairs). Kept as an option so the
  /// ablation bench can measure the (small) effect of skipping them.
  bool evaluate_non_overlapping = true;

  /// Worker threads; 1 = serial. BatchQuery parallelizes across
  /// queries; a single Query parallelizes across candidates (chunked,
  /// with per-worker scratch — results are identical to serial).
  size_t num_threads = 1;
};

/// Opaque reusable scoring workspace for callers that drive many
/// serial QueryWithCandidates calls themselves — e.g. the store's
/// sharded multi-segment fan-out, which runs one engine sub-query per
/// work unit on its own workers. One instance per thread, never shared
/// concurrently; reusing it keeps steady-state scoring allocation-free
/// exactly like the engine's internal per-worker scratch.
class QueryScratch {
 public:
  QueryScratch();
  ~QueryScratch();
  QueryScratch(QueryScratch&&) noexcept;
  QueryScratch& operator=(QueryScratch&&) noexcept;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

 private:
  friend class FtlEngine;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Trains models once, then answers many queries against a candidate
/// database.
class FtlEngine {
 public:
  explicit FtlEngine(EngineOptions options = {});

  /// Trains the rejection/acceptance models from the database pair.
  /// Must be called (successfully) before any query.
  Status Train(const traj::TrajectoryDatabase& p,
               const traj::TrajectoryDatabase& q);

  /// Installs externally trained models (e.g. loaded from disk).
  void SetModels(ModelPair models);

  /// True when models are available.
  bool trained() const { return trained_; }

  /// The trained models.
  const ModelPair& models() const { return models_; }

  /// The Naïve-Bayes classifier over models() and
  /// options().naive_bayes, tabulated once per model set (Train,
  /// SetModels) and shared by every query.
  const NaiveBayesMatcher& naive_bayes() const { return nb_; }

  /// Evidence extraction parameters implied by the training options.
  EvidenceOptions evidence_options() const;

  /// Finds the candidate set Q_P for `query` in `db` with the selected
  /// matcher; candidates are ranked by non-increasing Eq. 2 score.
  /// For kAlphaFilter, a candidate enters Q_P iff it passes both phases;
  /// for kNaiveBayes, iff the posterior favors "same person". In both
  /// cases p1/p2/score are computed for ranking. Runs on
  /// options().num_threads workers; results are identical for any
  /// thread count. `qopts` (may be null) carries a deadline /
  /// cancellation token: when a limit fires the result is still OK, and
  /// carries the candidates scored so far with truncated=true and a
  /// status explaining why.
  Result<QueryResult> Query(const traj::Trajectory& query,
                            const traj::TrajectoryDatabase& db,
                            Matcher matcher,
                            const QueryOptions* qopts = nullptr) const;

  /// Columnar (SoA) form: scores against a FlatDatabase, streaming
  /// candidate records straight out of its contiguous columns (e.g. an
  /// mmap'd FTB file) with no per-record indirection. The evidence
  /// kernel is shared with the AoS path, so for equal record data the
  /// results are byte-identical to the TrajectoryDatabase form.
  Result<QueryResult> Query(const traj::FlatTrajectoryView& query,
                            const traj::FlatDatabase& db, Matcher matcher,
                            const QueryOptions* qopts = nullptr) const;

  /// Like Query, but with an explicit worker-thread override and no
  /// limits. Callers that already parallelize at a coarser grain pass
  /// 1 to keep the inner loop serial instead of oversubscribing.
  Result<QueryResult> Query(const traj::Trajectory& query,
                            const traj::TrajectoryDatabase& db,
                            Matcher matcher, size_t num_threads) const;

  /// Like Query, but only evaluates the candidates at `candidate_indices`
  /// (e.g. the survivors of a BlockingIndex, or one sub-range of a
  /// multi-segment store fan-out). Selectiveness remains relative to
  /// the whole database. Candidates are evaluated in `candidate_indices`
  /// order and results are stable-sorted by score, so concatenating
  /// per-range results and re-running the same stable sort reproduces a
  /// whole-database query byte-for-byte (store::StoreSnapshot relies on
  /// this; DESIGN.md §12). A fired limit truncates to a prefix of
  /// `candidate_indices`.
  ///
  /// Always serial on the calling thread (never the engine pool), so a
  /// caller that shards candidates across its own workers — one
  /// `scratch` per worker — composes sub-results without
  /// oversubscribing threads. `qopts` and `scratch` may each be null.
  Result<QueryResult> QueryWithCandidates(
      const traj::Trajectory& query, const traj::TrajectoryDatabase& db,
      const std::vector<size_t>& candidate_indices, Matcher matcher,
      const QueryOptions* qopts = nullptr,
      QueryScratch* scratch = nullptr) const;
  Result<QueryResult> QueryWithCandidates(
      const traj::FlatTrajectoryView& query, const traj::FlatDatabase& db,
      const std::vector<size_t>& candidate_indices, Matcher matcher,
      const QueryOptions* qopts = nullptr,
      QueryScratch* scratch = nullptr) const;

  /// Derives the accept-preserving blocking contract for `matcher`
  /// from the trained models (requires trained()): `horizon_seconds`
  /// is the largest time gap an informative mutual segment can have
  /// under the evidence discretization, and `min_segments` the fewest
  /// informative segments any accepted candidate must carry — for
  /// kAlphaFilter from p2 >= Pr(K=0 | Ma) >= (1-p_max)^n against
  /// alpha2 (widened by the sanctioned RNA absolute-error budget), for
  /// kNaiveBayes from n · max-per-segment-LLR >= the prior log-odds
  /// gap. A BlockingIndex pruning only candidates that cannot reach
  /// `min_segments` therefore never changes an accept decision, so
  /// guaranteed-mode accept sets are byte-identical to exhaustive
  /// scoring (DESIGN.md §13). The identity assumes the default
  /// evaluate_non_overlapping=true; with the ablation-only false
  /// setting, exhaustive runs themselves skip non-overlapping
  /// candidates that blocking may score.
  BlockingGuarantee DeriveBlockingGuarantee(Matcher matcher) const;

  /// Query through a BlockingIndex built over `db`: generates the
  /// candidate set in `mode` (kOff scores everything, kGuaranteed
  /// preserves accept sets exactly, kAggressive applies the heuristic
  /// span/co-visitation blockers) and scores the survivors on the
  /// engine's thread pool. `scratch` (optional) keeps a query loop
  /// allocation-free; `qopts` (optional) carries deadline/cancel
  /// limits. The index must have been built over this `db`.
  Result<QueryResult> QueryBlocked(const traj::Trajectory& query,
                                   const traj::TrajectoryDatabase& db,
                                   const BlockingIndex& index,
                                   BlockingMode mode, Matcher matcher,
                                   BlockingScratch* scratch = nullptr,
                                   const QueryOptions* qopts = nullptr) const;
  Result<QueryResult> QueryBlocked(const traj::FlatTrajectoryView& query,
                                   const traj::FlatDatabase& db,
                                   const BlockingIndex& index,
                                   BlockingMode mode, Matcher matcher,
                                   BlockingScratch* scratch = nullptr,
                                   const QueryOptions* qopts = nullptr) const;

  /// Answers many queries, optionally in parallel
  /// (options.num_threads > 1). Results align with `queries` order.
  /// `qopts` (may be null) is a deadline / cancellation token shared by
  /// the batch. A fired limit never fails the batch: queries that
  /// started return their partial result (truncated=true), queries that
  /// had not started return an empty truncated result, and each carries
  /// its own status. Hard per-query errors still fail the batch.
  Result<std::vector<QueryResult>> BatchQuery(
      const std::vector<traj::Trajectory>& queries,
      const traj::TrajectoryDatabase& db, Matcher matcher,
      const QueryOptions* qopts = nullptr) const;

  const EngineOptions& options() const { return options_; }

 private:
  friend class QueryScratch;  // wraps ScoreScratch for external callers

  /// Per-thread scratch arena for the scoring hot path: evidence
  /// buffers, trial groups, pmf workspaces and the batch staging slots
  /// are reused across pairs instead of reallocated, so steady-state
  /// scoring is allocation free. One instance per worker thread; never
  /// shared concurrently.
  struct ScoreScratch {
    BucketEvidence evidence;
    stats::GroupedPbWorkspace pb;

    /// Segment staging buffers of the vector evidence kernels
    /// (simd/kernels.h); unused (but harmless) under scalar dispatch.
    simd::EvidenceScratch ev_scratch;

    /// Per-slot results of one ScorePairBatch call.
    std::vector<MatchCandidate> batch;

    /// Local metric tallies: plain integers bumped per pair and
    /// flushed to the global obs counters once per query, so the
    /// steady-state per-pair metrics cost is a handful of register
    /// increments (no atomics, no clock reads).
    int64_t n_candidates = 0;
    int64_t n_fast_reject = 0;
    int64_t n_nb_reject = 0;
    int64_t n_exact_tail = 0;
    int64_t n_rna_tail = 0;

    /// Stage-timer sampling phase: every kStageSampleEvery-th pair of
    /// this scratch's stream (including the first) is wall-clocked
    /// per stage into the ftl_stage_* histograms.
    uint32_t sample_tick = 0;
  };

  /// Scores one (query, candidate) pair with every per-batch handle
  /// already hoisted by the caller: evidence options and the alpha
  /// filter view (the Naïve-Bayes matcher is the engine's own nb_).
  /// The innermost unit of ScorePairBatch; returns true when the
  /// candidate should enter Q_P. Template over the trajectory
  /// representation (Trajectory or FlatTrajectoryView); all
  /// instantiations live in engine.cc.
  template <typename QueryT, typename CandT>
  bool ScoreOne(const QueryT& query, const CandT& cand, Matcher matcher,
                const EvidenceOptions& ev_opts, const AlphaFilter& filter,
                MatchCandidate* out, ScoreScratch* scratch) const;

  /// Batch scoring entry point of the hot path: streams the `n`
  /// database candidates listed in `indices` through ScoreOne with
  /// kernel setup (evidence options, alpha filter view) hoisted once
  /// per batch. Writes per-candidate results to out[b] / accepted[b]
  /// (parallel to `indices`). Candidate evaluation order inside the
  /// batch is the `indices` order.
  template <typename QueryT, typename DbT>
  void ScorePairBatch(const QueryT& query, const DbT& db,
                      const size_t* indices, size_t n, Matcher matcher,
                      MatchCandidate* out, uint8_t* accepted,
                      ScoreScratch* scratch) const;

  /// Shared implementation of every public query entry point (the one
  /// scoring loop), template over the storage backend: DbT is
  /// TrajectoryDatabase (AoS) or FlatDatabase (SoA columns), QueryT the
  /// matching trajectory type. `candidate_indices == nullptr` scores
  /// the whole database (and applies the evaluate_non_overlapping
  /// pre-filter). Candidates stream through ScorePairBatch in a stable
  /// evaluation order: serially on `scratch` (may be null; a local one
  /// is used) when num_threads <= 1, otherwise in chunks across the
  /// workers, each with its own scratch, and re-collected in order.
  /// `qopts` may be null (no limits); when set, a serial run polls it
  /// every qopts->check_every candidates and a parallel run once per
  /// chunk claim, and a fired limit yields an OK partial result with
  /// truncated=true. Truncation always keeps a prefix of the
  /// evaluation order, so partial results are reproducible.
  template <typename QueryT, typename DbT>
  Result<QueryResult> QueryImpl(const QueryT& query, const DbT& db,
                                const std::vector<size_t>* candidate_indices,
                                Matcher matcher, size_t num_threads,
                                ScoreScratch* scratch,
                                const QueryOptions* qopts) const;

  /// Shared body of the QueryBlocked overloads: candidate generation
  /// in `mode` followed by QueryImpl over the survivors on the engine's
  /// thread pool.
  template <typename QueryT, typename DbT>
  Result<QueryResult> QueryBlockedImpl(const QueryT& query, const DbT& db,
                                       const BlockingIndex& index,
                                       BlockingMode mode, Matcher matcher,
                                       BlockingScratch* scratch,
                                       const QueryOptions* qopts) const;

  EngineOptions options_;
  ModelPair models_;
  NaiveBayesMatcher nb_;  ///< rebuilt whenever models_ changes
  bool trained_ = false;
};

}  // namespace ftl::core

#endif  // FTL_CORE_ENGINE_H_
