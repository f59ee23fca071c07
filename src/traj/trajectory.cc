#include "traj/trajectory.h"

#include <algorithm>

namespace ftl::traj {

Trajectory::Trajectory(std::string label, OwnerId owner,
                       std::vector<Record> records)
    : label_(std::move(label)), owner_(owner), records_(std::move(records)) {
  SortByTime();
}

Status Trajectory::Append(const Record& r) {
  if (!records_.empty() && r.t < records_.back().t) {
    return Status::InvalidArgument(
        "Append would break time order for trajectory '" + label_ + "'");
  }
  records_.push_back(r);
  return Status::OK();
}

void Trajectory::SortByTime() {
  // Sorted input (every FTB segment row, so every single-home store
  // label) skips the stable sort and its temporary buffer; the sort
  // would leave it unchanged.
  if (!IsSorted()) {
    std::stable_sort(
        records_.begin(), records_.end(),
        [](const Record& a, const Record& b) { return a.t < b.t; });
  }
  maybe_unsorted_ = false;
}

int64_t Trajectory::DurationSeconds() const {
  if (records_.size() < 2) return 0;
  return records_.back().t - records_.front().t;
}

double Trajectory::MeanGapSeconds() const {
  if (records_.size() < 2) return 0.0;
  return static_cast<double>(DurationSeconds()) /
         static_cast<double>(records_.size() - 1);
}

size_t Trajectory::LowerBound(Timestamp t0) const {
  assert(!maybe_unsorted_ && "Trajectory::LowerBound after AppendUnchecked "
                             "without SortByTime()");
  auto it = std::lower_bound(
      records_.begin(), records_.end(), t0,
      [](const Record& r, Timestamp t) { return r.t < t; });
  return static_cast<size_t>(it - records_.begin());
}

Trajectory Trajectory::SliceTime(Timestamp t0, Timestamp t1) const {
  Trajectory out;
  out.label_ = label_;
  out.owner_ = owner_;
  size_t b = LowerBound(t0);
  size_t e = LowerBound(t1);
  out.records_.assign(records_.begin() + b, records_.begin() + e);
  return out;
}

bool Trajectory::IsSorted() const {
  return std::is_sorted(
      records_.begin(), records_.end(),
      [](const Record& a, const Record& b) { return a.t < b.t; });
}

}  // namespace ftl::traj
