// Live linking monitor: records arrive as a stream and an analyst
// watches how the belief about a target identity sharpens over time —
// the online version of the paper's investigation scenarios.
//
// Build & run:  ./build/examples/streaming_monitor

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ftl/ftl.h"

int main() {
  using namespace ftl;

  // Simulate the population whose records will be replayed as a stream.
  sim::PopulationOptions pop;
  pop.num_persons = 80;
  pop.duration_days = 10;
  pop.cdr_accesses_per_day = 12.0;
  pop.transit_accesses_per_day = 8.0;
  pop.seed = 77;
  sim::PopulationData data = sim::SimulatePopulation(pop);

  // Train compatibility models up front (in practice: on historical
  // data).
  core::ModelTrainingOptions to;
  to.horizon_units = 40;
  auto models = core::BuildModels(data.cdr_db, data.transit_db, to);
  if (!models.ok()) {
    std::printf("training failed: %s\n",
                models.status().ToString().c_str());
    return 1;
  }

  // Watch one phone identity; replay every transit record and the
  // watch's own CDR records in global time order.
  const traj::Trajectory& watch = data.cdr_db[11];
  core::StreamingLinker linker(models.value(), core::EvidenceOptionsFor(to));
  Status st = linker.AddWatch(watch.label());
  if (!st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Watching '%s' (%zu CDR records over %lld days)\n",
              watch.label().c_str(), watch.size(),
              static_cast<long long>(watch.DurationSeconds() / 86400));

  struct Event {
    traj::Timestamp t;
    core::StreamSide side;
    const std::string* label;
    traj::Record rec;
  };
  std::vector<Event> events;
  for (const auto& r : watch.records()) {
    events.push_back({r.t, core::StreamSide::kQuery, &watch.label(), r});
  }
  for (const auto& cand : data.transit_db) {
    for (const auto& r : cand.records()) {
      events.push_back(
          {r.t, core::StreamSide::kCandidate, &cand.label(), r});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });

  // Replay, reporting the top candidate at the end of each day.
  int64_t next_report = 86400;
  std::printf("\n%-6s %-12s %-10s %-8s %-8s\n", "day", "top candidate",
              "score", "#segs", "truth?");
  for (const auto& e : events) {
    st = linker.Ingest(e.side, *e.label, e.rec);
    if (!st.ok()) {
      std::printf("ingest failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (e.t >= next_report) {
      auto ranked = linker.RankedCandidates(watch.label());
      if (ranked.ok() && !ranked.value().empty()) {
        const auto& top = ranked.value().front();
        size_t idx = data.transit_db.Find(top.candidate_label);
        bool truth = idx != traj::TrajectoryDatabase::npos &&
                     data.transit_db[idx].owner() == watch.owner();
        std::printf("%-6lld %-12s %-10.4f %-8zu %s\n",
                    static_cast<long long>(next_report / 86400),
                    top.candidate_label.c_str(), top.score,
                    top.informative_segments, truth ? "yes" : "no");
      }
      next_report += 86400;
    }
  }
  std::printf("\n(%lld records ingested; belief sharpens as evidence "
              "accumulates)\n",
              static_cast<long long>(linker.ingested()));
  return 0;
}
