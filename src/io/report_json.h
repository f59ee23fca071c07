#ifndef FTL_IO_REPORT_JSON_H_
#define FTL_IO_REPORT_JSON_H_

/// \file report_json.h
/// JSON serialization for linking results, so FTL output can feed
/// downstream tooling (dashboards, case-management systems) without
/// parsing human-oriented tables.
///
/// A tiny purpose-built writer (no external JSON dependency); numbers
/// are emitted with enough precision to round-trip scores.

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/identity_graph.h"
#include "eval/metrics.h"
#include "traj/database.h"

namespace ftl::io {

/// Minimal JSON writer: objects/arrays/values with correct escaping.
/// Usage:
///   JsonWriter w;
///   w.BeginObject(); w.Key("x"); w.Value(1.5); w.EndObject();
///   std::string out = w.str();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Writes an object key (must be inside an object).
  void Key(const std::string& k);
  void Value(const std::string& v);
  void Value(const char* v);
  void Value(double v);
  void Value(int64_t v);
  void Value(uint64_t v);
  void Value(bool v);
  void Null();

  /// The serialized document.
  const std::string& str() const { return out_; }

 private:
  void Separate();
  /// Appends `s` JSON-escaped (as is when nothing needs escaping).
  void AppendEscaped(const std::string& s);

  std::string out_;
  std::vector<bool> needs_comma_;  // per open container
  bool after_key_ = false;
};

/// Serializes one query's result: query label, candidate array with
/// label/score/p-values, selectiveness, plus the truncation marker and
/// evaluated-candidate count (so deadline-expired partial results are
/// self-describing — the serve API returns them with HTTP 408).
std::string QueryResultToJson(const std::string& query_label,
                              const core::QueryResult& result);

/// Serializes workload metrics (perceptiveness, selectiveness, ranks).
std::string MetricsToJson(const eval::WorkloadMetrics& metrics);

/// Serializes resolved identity clusters with trajectory labels; `dbs`
/// must match the sources the graph was built over.
std::string ClustersToJson(
    const std::vector<core::IdentityCluster>& clusters,
    const std::vector<const traj::TrajectoryDatabase*>& dbs);

}  // namespace ftl::io

#endif  // FTL_IO_REPORT_JSON_H_
