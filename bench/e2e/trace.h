#ifndef FTL_BENCH_E2E_TRACE_H_
#define FTL_BENCH_E2E_TRACE_H_

/// \file trace.h
/// In-memory span log for bench_e2e's traced pass. Spans are recorded
/// by the bench around its own calls into each layer (nothing inside
/// the program is instrumented), kept in memory, and written once at
/// the end in Chrome trace format (chrome://tracing, Perfetto):
/// complete events ("ph":"X") whose args carry the request id, the
/// span id and the id of the span that caused it.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace ftl::bench_e2e {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Runs `fn`, records it as span `name` of request `request_id` under
  /// `parent` (0 = root), and returns its duration in microseconds.
  template <typename Fn>
  double Time(const char* name, uint64_t request_id, uint64_t parent,
              Fn&& fn) {
    const uint64_t id = ++last_id_;
    const Clock::time_point start = Clock::now();
    std::forward<Fn>(fn)();
    const Clock::time_point end = Clock::now();
    spans_.push_back(
        {name, request_id, id, parent, Micros(start), Micros(end)});
    return Micros(end) - Micros(start);
  }

  /// Reserves a span id for a span whose interval is recorded later
  /// with Add (a parent that must exist before its children run).
  uint64_t NewId() { return ++last_id_; }

  void Add(const char* name, uint64_t request_id, uint64_t id, uint64_t parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(
        {name, request_id, id, parent, Micros(start), Micros(end)});
  }

  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request_id\":%llu,"
                   "\"span_id\":%llu,\"parent_id\":%llu}}%s\n",
                   s.name, s.start_us, s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.request_id),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literal
    uint64_t request_id;
    uint64_t id;
    uint64_t parent;
    double start_us;
    double end_us;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace ftl::bench_e2e

#endif  // FTL_BENCH_E2E_TRACE_H_
