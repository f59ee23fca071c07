#ifndef FTL_CORE_STREAMING_H_
#define FTL_CORE_STREAMING_H_

/// \file streaming.h
/// Online fuzzy linking over live record streams.
///
/// The paper's batch setting assumes both databases are complete. Its
/// motivating applications (disease control, investigations) are really
/// *monitoring* problems: records keep arriving and an analyst watches a
/// few query identities against a population of candidates. The
/// StreamingLinker keeps each label's records as a time-ordered
/// trajectory and scores a (watch query, candidate) pair on demand with
/// the walk batch scoring uses (CollectEvidence into BucketEvidence) and
/// the two grouped tails. Ingest is an amortized O(1) append and state
/// is O(records); a belief costs O(|watch| + |candidate|) plus its
/// tails.
///
/// Invariant: after ingesting any prefix of the merged record streams in
/// non-decreasing time order, each belief's evidence equals
/// CollectEvidence() on the batch prefixes, by construction; in
/// particular equal timestamps merge P-first whatever their arrival
/// order.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evidence.h"
#include "core/model_builders.h"
#include "traj/record.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace ftl::core {

/// Which side of the linking problem a streamed record belongs to.
enum class StreamSide : uint8_t {
  kQuery = 0,      ///< the watched P side
  kCandidate = 1,  ///< the population Q side
};

/// Current belief about one (watch, candidate) pair.
struct PairBelief {
  std::string watch_label;
  std::string candidate_label;
  size_t informative_segments = 0;
  int64_t incompatible = 0;
  double p1 = 1.0;     ///< Pr(K >= k | Mr)
  double p2 = 1.0;     ///< Pr(K <= k | Ma)
  double score = 0.0;  ///< Eq. 2 ranking score

  /// Current alpha-filter style decision at the given significance
  /// levels.
  bool Accepted(double alpha1, double alpha2) const {
    return p1 >= alpha1 && p2 < alpha2;
  }
};

/// Incremental linker for a fixed set of watched queries.
class StreamingLinker {
 public:
  /// `models` are copied; evidence discretization comes from `options`.
  StreamingLinker(ModelPair models, EvidenceOptions options);

  /// Registers a watched query identity (the P side). Records for it
  /// are fed via Ingest(kQuery, label, ...). Fails on duplicates.
  Status AddWatch(const std::string& label);

  /// Ingests one record. Records must arrive in non-decreasing global
  /// time order (InvalidArgument otherwise). Candidate labels are
  /// auto-registered on first sight; query labels must have been added
  /// via AddWatch.
  Status Ingest(StreamSide side, const std::string& label,
                const traj::Record& record);

  /// Current belief for one pair; p-values computed on demand.
  /// NotFound if either label is unknown.
  Result<PairBelief> Belief(const std::string& watch_label,
                            const std::string& candidate_label) const;

  /// All current beliefs for a watch, ranked by non-increasing score.
  Result<std::vector<PairBelief>> RankedCandidates(
      const std::string& watch_label) const;

  /// Number of ingested records.
  int64_t ingested() const { return ingested_; }

  /// Known candidate labels in first-seen order.
  const std::vector<std::string>& candidate_labels() const {
    return candidate_labels_;
  }

 private:
  /// Reusable buffers for belief evaluation across a ranking pass.
  struct BeliefScratch {
    BucketEvidence buckets;
    stats::GroupedPbWorkspace pb;
  };

  PairBelief MakeBelief(const traj::Trajectory& watch, size_t cand_idx,
                        BeliefScratch* scratch) const;

  ModelPair models_;
  EvidenceOptions options_;
  std::vector<traj::Trajectory> watches_;
  std::unordered_map<std::string, size_t> watch_index_;
  std::vector<traj::Trajectory> candidates_;  ///< parallel to candidate_labels_
  std::vector<std::string> candidate_labels_;
  std::unordered_map<std::string, size_t> candidate_index_;
  int64_t last_time_ = 0;
  int64_t ingested_ = 0;
};

}  // namespace ftl::core

#endif  // FTL_CORE_STREAMING_H_
