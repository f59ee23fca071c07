#ifndef FTL_BENCH_E2E_ARTIFACT_H_
#define FTL_BENCH_E2E_ARTIFACT_H_

/// \file artifact.h
/// The header every bench_e2e run.json starts with: enough to tell
/// whether two runs are comparable at all (same host shape, same ISA,
/// same build type, same workload and window) before comparing their
/// numbers. bench_diff.py refuses run sets whose host, nproc or ISA
/// differ.

#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>

#include "io/report_json.h"
#include "simd/dispatch.h"

#ifndef FTL_BENCH_COMMIT
#define FTL_BENCH_COMMIT "unknown"
#endif
#ifndef FTL_BENCH_BUILD_TYPE
#define FTL_BENCH_BUILD_TYPE "unknown"
#endif

namespace ftl::bench_e2e {

struct ArtifactHeader {
  std::string commit;      ///< git revision at configure time, or "unknown"
  std::string host;        ///< hostname
  uint64_t nproc = 0;      ///< hardware threads
  std::string isa;         ///< active SIMD kernel table (simd::Dispatch)
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string workload;
  uint64_t seed = 0;
  double window_s = 0.0;   ///< measured window length
};

inline ArtifactHeader MakeArtifactHeader(const std::string& workload,
                                         uint64_t seed, double window_s) {
  ArtifactHeader h;
  h.commit = FTL_BENCH_COMMIT;
  char host[256] = {0};
  h.host = ::gethostname(host, sizeof(host) - 1) == 0 ? host : "unknown";
  h.nproc = std::thread::hardware_concurrency();
  h.isa = simd::Dispatch().name;
  h.build_type = FTL_BENCH_BUILD_TYPE;
  h.workload = workload;
  h.seed = seed;
  h.window_s = window_s;
  return h;
}

/// Writes the header as the value of the current key of `w`.
inline void WriteArtifactHeader(const ArtifactHeader& h, io::JsonWriter* w) {
  w->BeginObject();
  w->Key("commit");
  w->Value(h.commit);
  w->Key("host");
  w->Value(h.host);
  w->Key("nproc");
  w->Value(h.nproc);
  w->Key("isa");
  w->Value(h.isa);
  w->Key("build_type");
  w->Value(h.build_type);
  w->Key("workload");
  w->Value(h.workload);
  w->Key("seed");
  w->Value(h.seed);
  w->Key("window_s");
  w->Value(h.window_s);
  w->EndObject();
}

}  // namespace ftl::bench_e2e

#endif  // FTL_BENCH_E2E_ARTIFACT_H_
