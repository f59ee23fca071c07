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
/// Ties (equal timestamps) are broken P-first, and every walk of W_PQ
/// breaks them the same way: tie order decides which records pair up
/// (p@0, q@0, q@60 has one mutual segment P-first, two Q-first).
std::vector<AlignedRecord> Align(const Trajectory& p, const Trajectory& q);

/// Streams every segment of W_PQ to `fn` in time order without
/// materializing the merge; the callback is inlined into the merge
/// loop. TP/TQ may be any trajectory-like type (`size()` plus
/// `operator[]` yielding a Record, by reference or by value): the AoS
/// Trajectory and the SoA FlatTrajectoryView both qualify. This is the
/// record-by-record reference merge; the query hot path and model
/// training count mutual segments with core::CollectEvidence's
/// run-skipping walk, which yields the same segments in the same order.
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

/// Streams only the mutual segments of W_PQ to `fn`.
template <typename TP, typename TQ, typename Fn>
void VisitMutualSegments(const TP& p, const TQ& q, Fn&& fn) {
  VisitSegments(p, q, [&fn](const Segment& s) {
    if (s.mutual) fn(s);
  });
}

}  // namespace ftl::traj

#endif  // FTL_TRAJ_ALIGNMENT_H_
