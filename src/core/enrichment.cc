#include "core/enrichment.h"

#include <algorithm>

#include "util/string_util.h"

namespace ftl::core {

Result<EnrichedTrajectory> Enrich(const traj::Trajectory& p,
                                  const traj::Trajectory& q,
                                  const EnrichmentOptions& options) {
  if (p.empty() && q.empty()) {
    return Status::InvalidArgument("both trajectories are empty");
  }
  EnrichedTrajectory out;
  out.p_label = p.label();
  out.q_label = q.label();
  auto aligned = traj::Align(p, q);
  out.records.reserve(aligned.size());
  for (size_t i = 0; i < aligned.size(); ++i) {
    const traj::AlignedRecord& ar = aligned[i];
    out.records.push_back(EnrichedRecord{
        ar.record, ar.source == traj::Source::kP ? options.p_source_name
                                                 : options.q_source_name});
    // A mutual segment is a source change between adjacent records.
    if (i > 0 && aligned[i - 1].source != ar.source &&
        !traj::IsCompatible(aligned[i - 1].record, ar.record,
                            options.vmax_mps)) {
      ++out.incompatible_mutual_segments;
    }
  }
  out.p_fraction = aligned.empty()
                       ? 0.0
                       : static_cast<double>(p.size()) /
                             static_cast<double>(aligned.size());

  // Densification: mean sampling gap of the merge vs the denser source.
  auto mean_gap = [](const traj::Trajectory& t) {
    return t.size() >= 2 ? t.MeanGapSeconds() : 0.0;
  };
  double merged_gap =
      aligned.size() >= 2
          ? static_cast<double>(aligned.back().record.t -
                                aligned.front().record.t) /
                static_cast<double>(aligned.size() - 1)
          : 0.0;
  double best_single = 0.0;
  if (p.size() >= 2 && q.size() >= 2) {
    best_single = std::min(mean_gap(p), mean_gap(q));
  } else if (p.size() >= 2) {
    best_single = mean_gap(p);
  } else if (q.size() >= 2) {
    best_single = mean_gap(q);
  }
  out.densification_factor =
      (merged_gap > 0.0 && best_single > 0.0) ? best_single / merged_gap
                                              : 1.0;
  return out;
}

std::string ToTableString(const EnrichedTrajectory& enriched,
                          size_t max_rows) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"time", "x", "y", "source"});
  size_t shown = 0;
  for (const auto& er : enriched.records) {
    if (shown++ >= max_rows) break;
    rows.push_back({std::to_string(er.record.t),
                    FormatDouble(er.record.location.x, 1),
                    FormatDouble(er.record.location.y, 1), er.source});
  }
  std::string out = "linked: " + enriched.p_label + " <-> " +
                    enriched.q_label + "\n";
  out += RenderTable(rows);
  if (enriched.records.size() > max_rows) {
    out += "... (" + std::to_string(enriched.records.size() - max_rows) +
           " more rows)\n";
  }
  return out;
}

}  // namespace ftl::core
