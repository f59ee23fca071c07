#include "io/report_json.h"

#include <charconv>
#include <cstdio>

namespace ftl::io {
namespace {

/// Appends `v` as std::to_chars writes it: the same characters as
/// snprintf's "%.15g" for a double at precision 15, and as "%" PRId64 /
/// PRIu64 for integers, without the format-string parse.
template <typename T, typename... Format>
void AppendNumber(std::string* out, T v, Format... format) {
  char buf[40];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, format...);
  out->append(buf, r.ptr);
}

bool NeedsEscape(const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

}  // namespace

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::AppendEscaped(const std::string& s) {
  if (!NeedsEscape(s)) {
    out_ += s;
    return;
  }
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::Key(const std::string& k) {
  Separate();
  out_ += '"';
  AppendEscaped(k);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::Value(const std::string& v) {
  Separate();
  out_ += '"';
  AppendEscaped(v);
  out_ += '"';
}

void JsonWriter::Value(const char* v) { Value(std::string(v)); }

void JsonWriter::Value(double v) {
  Separate();
  AppendNumber(&out_, v, std::chars_format::general, 15);
}

void JsonWriter::Value(int64_t v) {
  Separate();
  AppendNumber(&out_, v);
}

void JsonWriter::Value(uint64_t v) {
  Separate();
  AppendNumber(&out_, v);
}

void JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

std::string QueryResultToJson(const std::string& query_label,
                              const core::QueryResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("query");
  w.Value(query_label);
  w.Key("selectiveness");
  w.Value(result.selectiveness);
  w.Key("truncated");
  w.Value(result.truncated);
  w.Key("evaluated");
  w.Value(static_cast<uint64_t>(result.evaluated));
  w.Key("candidates");
  w.BeginArray();
  for (const auto& c : result.candidates) {
    w.BeginObject();
    w.Key("label");
    w.Value(c.label);
    w.Key("index");
    w.Value(static_cast<uint64_t>(c.index));
    w.Key("score");
    w.Value(c.score);
    w.Key("p1");
    w.Value(c.p1);
    w.Key("p2");
    w.Value(c.p2);
    w.Key("incompatible");
    w.Value(static_cast<int64_t>(c.k_observed));
    w.Key("segments");
    w.Value(static_cast<uint64_t>(c.n_segments));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string MetricsToJson(const eval::WorkloadMetrics& metrics) {
  JsonWriter w;
  w.BeginObject();
  w.Key("num_queries");
  w.Value(static_cast<uint64_t>(metrics.num_queries));
  w.Key("perceptiveness");
  w.Value(metrics.perceptiveness);
  w.Key("selectiveness");
  w.Value(metrics.selectiveness);
  w.Key("mean_candidates");
  w.Value(metrics.mean_candidates);
  w.Key("true_match_ranks");
  w.BeginArray();
  for (int64_t r : metrics.true_match_ranks) w.Value(r);
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ClustersToJson(
    const std::vector<core::IdentityCluster>& clusters,
    const std::vector<const traj::TrajectoryDatabase*>& dbs) {
  JsonWriter w;
  w.BeginObject();
  w.Key("identities");
  w.BeginArray();
  for (const auto& cluster : clusters) {
    w.BeginObject();
    w.Key("members");
    w.BeginArray();
    for (const auto& m : cluster.members) {
      w.BeginObject();
      w.Key("source");
      w.Value(static_cast<uint64_t>(m.source));
      w.Key("index");
      w.Value(static_cast<uint64_t>(m.index));
      if (m.source < dbs.size() && dbs[m.source] != nullptr &&
          m.index < dbs[m.source]->size()) {
        w.Key("label");
        w.Value((*dbs[m.source])[m.index].label());
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace ftl::io
