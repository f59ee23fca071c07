#ifndef FTL_TRAJ_ALIGNMENT_H_
#define FTL_TRAJ_ALIGNMENT_H_

/// \file alignment.h
/// Trajectory alignment and self/mutual segments (paper Section IV-A).
///
/// The alignment W_PQ of trajectories P and Q is the time-ordered merge
/// of their records. Consecutive pairs (w_i, w_{i+1}) are *segments*:
/// a **self-segment** when both records come from the same trajectory,
/// a **mutual segment** when they straddle P and Q. Mutual segments carry
/// the discriminating signal FTL is built on.

#include <cstdint>
#include <functional>
#include <vector>

#include "traj/trajectory.h"

namespace ftl::traj {

/// Which source trajectory an aligned record came from.
enum class Source : uint8_t { kP = 0, kQ = 1 };

/// One record of an aligned trajectory, tagged with its source.
struct AlignedRecord {
  Record record;
  Source source;
};

/// A segment of the alignment: two time-consecutive records.
struct Segment {
  Record first;
  Record second;
  bool mutual;  ///< True when the two records come from different sources.

  /// Segment time length, seconds.
  int64_t TimeLengthSeconds() const { return TimeDiff(first, second); }
};

/// Materializes the full alignment W_PQ (the paper's align(P, Q)).
///
/// Ties (equal timestamps) are broken P-first; tie order does not affect
/// any model statistic because a zero-length mutual segment's
/// compatibility is symmetric.
std::vector<AlignedRecord> Align(const Trajectory& p, const Trajectory& q);

/// Allocation-free forward cursor over the segments of W_PQ, merging
/// the two record sequences on the fly. The iterator-style counterpart
/// of VisitSegments for call sites where a callback is awkward.
///
///   SegmentCursor cur(p, q);
///   Segment s;
///   while (cur.Next(&s)) { ... }
///
/// Works over any trajectory-like type (`size()` plus `operator[]`
/// yielding a Record, by reference or by value): the AoS Trajectory and
/// the SoA FlatTrajectoryView both qualify, so the same merge streams
/// records out of heap vectors or straight out of mmap'd columns. Both
/// trajectories must outlive the cursor. Records are held by value
/// between steps (24 bytes), which keeps the cursor valid for by-value
/// accessors.
template <typename TP, typename TQ = TP>
class SegmentCursor {
 public:
  SegmentCursor(const TP& p, const TQ& q) : p_(&p), q_(&q) {}

  /// Advances to the next segment of the alignment; returns false when
  /// the alignment is exhausted (fewer than two records overall).
  bool Next(Segment* out) {
    const TP& p = *p_;
    const TQ& q = *q_;
    while (i_ < p.size() || j_ < q.size()) {
      Record cur;
      Source cur_src;
      if (i_ < p.size() && (j_ >= q.size() || p[i_].t <= q[j_].t)) {
        cur = p[i_++];
        cur_src = Source::kP;
      } else {
        cur = q[j_++];
        cur_src = Source::kQ;
      }
      if (have_prev_) {
        out->first = prev_;
        out->second = cur;
        out->mutual = prev_src_ != cur_src;
        prev_ = cur;
        prev_src_ = cur_src;
        return true;
      }
      have_prev_ = true;
      prev_ = cur;
      prev_src_ = cur_src;
    }
    return false;
  }

 private:
  const TP* p_;
  const TQ* q_;
  size_t i_ = 0, j_ = 0;
  Record prev_{};
  bool have_prev_ = false;
  Source prev_src_ = Source::kP;
};

/// Streams every segment of W_PQ to `fn` in time order without
/// materializing the merge. Template variant: the callback is inlined
/// into the merge loop, with no std::function indirection. This is the
/// innermost loop of model training and query evaluation. Like
/// SegmentCursor, TP/TQ may be any trajectory-like type (Trajectory or
/// FlatTrajectoryView).
template <typename TP, typename TQ, typename Fn>
void VisitSegments(const TP& p, const TQ& q, Fn&& fn) {
  size_t i = 0, j = 0;
  Record prev{};
  bool have_prev = false;
  Source prev_src = Source::kP;
  while (i < p.size() || j < q.size()) {
    Record cur;
    Source cur_src;
    if (i < p.size() && (j >= q.size() || p[i].t <= q[j].t)) {
      cur = p[i++];
      cur_src = Source::kP;
    } else {
      cur = q[j++];
      cur_src = Source::kQ;
    }
    if (have_prev) {
      fn(Segment{prev, cur, prev_src != cur_src});
    }
    have_prev = true;
    prev = cur;
    prev_src = cur_src;
  }
}

/// Streams only the mutual segments of W_PQ to `fn` (template variant,
/// callback inlined).
template <typename TP, typename TQ, typename Fn>
void VisitMutualSegments(const TP& p, const TQ& q, Fn&& fn) {
  VisitSegments(p, q, [&fn](const Segment& s) {
    if (s.mutual) fn(s);
  });
}

/// Streams every segment of W_PQ to `fn` in time order. Type-erased
/// convenience wrapper over VisitSegments; prefer the template (or
/// SegmentCursor) on hot paths.
void ForEachSegment(const Trajectory& p, const Trajectory& q,
                    const std::function<void(const Segment&)>& fn);

/// Streams only the mutual segments of W_PQ to `fn`.
void ForEachMutualSegment(const Trajectory& p, const Trajectory& q,
                          const std::function<void(const Segment&)>& fn);

/// Materializes all mutual segments of W_PQ.
std::vector<Segment> MutualSegments(const Trajectory& p, const Trajectory& q);

/// Number of mutual segments in W_PQ.
size_t CountMutualSegments(const Trajectory& p, const Trajectory& q);

}  // namespace ftl::traj

#endif  // FTL_TRAJ_ALIGNMENT_H_
