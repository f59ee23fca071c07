#include "core/streaming.h"

#include <algorithm>

#include "stats/grouped_poisson_binomial.h"

namespace ftl::core {

StreamingLinker::StreamingLinker(ModelPair models, EvidenceOptions options)
    : models_(std::move(models)), options_(options) {}

Status StreamingLinker::AddWatch(const std::string& label) {
  auto [it, inserted] = watch_index_.emplace(label, watches_.size());
  if (!inserted) {
    return Status::InvalidArgument("watch '" + label +
                                   "' already registered");
  }
  watches_.emplace_back(label, traj::kUnknownOwner,
                        std::vector<traj::Record>{});
  return Status::OK();
}

Status StreamingLinker::Ingest(StreamSide side, const std::string& label,
                               const traj::Record& record) {
  if (ingested_ > 0 && record.t < last_time_) {
    return Status::InvalidArgument(
        "records must arrive in non-decreasing time order (got t=" +
        std::to_string(record.t) + " after t=" +
        std::to_string(last_time_) + ")");
  }
  traj::Trajectory* owner;
  if (side == StreamSide::kQuery) {
    auto it = watch_index_.find(label);
    if (it == watch_index_.end()) {
      return Status::NotFound("query label '" + label +
                              "' was not registered with AddWatch");
    }
    owner = &watches_[it->second];
  } else {
    auto [it, inserted] =
        candidate_index_.emplace(label, candidate_labels_.size());
    if (inserted) {
      candidate_labels_.push_back(label);
      candidates_.emplace_back();
    }
    owner = &candidates_[it->second];
  }
  // Global time order implies each label's, so the append cannot fail.
  FTL_RETURN_NOT_OK(owner->Append(record));
  last_time_ = record.t;
  ++ingested_;
  return Status::OK();
}

PairBelief StreamingLinker::MakeBelief(const traj::Trajectory& watch,
                                       size_t cand_idx,
                                       BeliefScratch* scratch) const {
  // The watch is the alignment's P side, so ties merge P-first exactly
  // as in batch scoring.
  BucketEvidence& ev = scratch->buckets;
  CollectEvidence(watch, candidates_[cand_idx], options_, &ev);
  PairBelief b;
  b.watch_label = watch.label();
  b.candidate_label = candidate_labels_[cand_idx];
  b.informative_segments = static_cast<size_t>(ev.informative);
  b.incompatible = ev.k_observed;
  stats::GroupedTailParams tail;
  ev.GroupsUnder(models_.rejection, &scratch->pb.groups);
  b.p1 = stats::GroupedPoissonBinomialTails(scratch->pb.groups,
                                            b.incompatible, tail,
                                            &scratch->pb)
             .upper;
  ev.GroupsUnder(models_.acceptance, &scratch->pb.groups);
  b.p2 = stats::GroupedPoissonBinomialTails(scratch->pb.groups,
                                            b.incompatible, tail,
                                            &scratch->pb)
             .lower;
  b.score = b.p1 * (1.0 - b.p2);
  return b;
}

Result<PairBelief> StreamingLinker::Belief(
    const std::string& watch_label,
    const std::string& candidate_label) const {
  auto wit = watch_index_.find(watch_label);
  if (wit == watch_index_.end()) {
    return Status::NotFound("unknown watch '" + watch_label + "'");
  }
  auto cit = candidate_index_.find(candidate_label);
  if (cit == candidate_index_.end()) {
    return Status::NotFound("unknown candidate '" + candidate_label + "'");
  }
  BeliefScratch scratch;
  return MakeBelief(watches_[wit->second], cit->second, &scratch);
}

Result<std::vector<PairBelief>> StreamingLinker::RankedCandidates(
    const std::string& watch_label) const {
  auto wit = watch_index_.find(watch_label);
  if (wit == watch_index_.end()) {
    return Status::NotFound("unknown watch '" + watch_label + "'");
  }
  const traj::Trajectory& watch = watches_[wit->second];
  std::vector<PairBelief> beliefs;
  beliefs.reserve(candidates_.size());
  BeliefScratch scratch;
  for (size_t ci = 0; ci < candidates_.size(); ++ci) {
    beliefs.push_back(MakeBelief(watch, ci, &scratch));
  }
  std::stable_sort(beliefs.begin(), beliefs.end(),
                   [](const PairBelief& a, const PairBelief& b) {
                     return a.score > b.score;
                   });
  return beliefs;
}

}  // namespace ftl::core
