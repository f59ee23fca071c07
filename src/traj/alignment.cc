#include "traj/alignment.h"

#include <algorithm>

namespace ftl::traj {

std::vector<AlignedRecord> Align(const Trajectory& p, const Trajectory& q) {
  std::vector<AlignedRecord> out;
  out.reserve(p.size() + q.size());
  size_t i = 0, j = 0;
  while (i < p.size() || j < q.size()) {
    bool take_p;
    if (i >= p.size()) {
      take_p = false;
    } else if (j >= q.size()) {
      take_p = true;
    } else {
      take_p = p[i].t <= q[j].t;  // tie-break: P first
    }
    if (take_p) {
      out.push_back({p[i++], Source::kP});
    } else {
      out.push_back({q[j++], Source::kQ});
    }
  }
  return out;
}

}  // namespace ftl::traj
