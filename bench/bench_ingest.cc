// Ingest-path benchmark for the crash-safe store (DESIGN.md §12):
//
//   * ingest: always / interval / never — append the whole candidate
//     database one batch per trajectory under each WAL sync policy,
//     reporting records/sec and the flush/segment counts. This is the
//     durability dial quantified: `always` pays one fsync per ack,
//     `interval` amortizes it, `never` is the upper bound.
//   * recovery — crash-drop a store whose WAL holds every record (no
//     flush), reopen, and report WAL replay records/sec plus the
//     recovery wall time (the serve-daemon warm-up cost).
//   * identity — the acceptance gate: on a recovered multi-segment
//     store, every query response must serialize byte-identically to
//     querying one merged database. The process exits non-zero when it
//     does not, so CI fails loudly rather than recording a lie.
//
// Emits BENCH_ingest.json (path overridable via argv[1]), headed by the
// commit/host/nproc/isa header bench_e2e artifacts carry.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/e2e/artifact.h"
#include "bench_common.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace {

using namespace ftl;

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<store::IngestBatch> ToBatches(const traj::TrajectoryDatabase& db) {
  std::vector<store::IngestBatch> batches;
  batches.reserve(db.size());
  for (const traj::Trajectory& t : db) {
    store::IngestBatch b;
    b.rows.reserve(t.size());
    for (const traj::Record& r : t.records()) {
      b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                        r.location.x, r.location.y});
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

struct IngestResult {
  std::string policy;
  double seconds = 0.0;
  double records_per_sec = 0.0;
  uint64_t segments = 0;
  uint64_t wal_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_ingest.json";
  const std::string config = "SC";
  const size_t num_objects = bench::PaperScale() ? 1000 : 200;
  const size_t num_queries = bench::PaperScale() ? 64 : 24;
  // window_s is filled in with the run's length.
  Stopwatch run_sw;
  bench_e2e::ArtifactHeader header =
      bench_e2e::MakeArtifactHeader(config, bench::BenchSeed(), 0.0);

  sim::DatasetPair pair = sim::BuildDataset(sim::FindConfig(config),
                                            num_objects, bench::BenchSeed());
  std::vector<store::IngestBatch> batches = ToBatches(pair.q);
  size_t total_records = 0;
  for (const auto& b : batches) total_records += b.rows.size();
  std::printf("config=%s objects=%zu batches=%zu records=%zu\n", config.c_str(),
              num_objects, batches.size(), total_records);

  // ---------------------------------------------------- ingest throughput
  const store::WalSync policies[] = {
      store::WalSync::kAlways, store::WalSync::kInterval,
      store::WalSync::kNever};
  std::vector<IngestResult> ingest;
  for (store::WalSync sync : policies) {
    std::string dir = TempDir(std::string("ftl_bench_ingest_") +
                              store::WalSyncName(sync));
    store::StoreOptions so;
    so.wal_sync = sync;
    so.flush_threshold_records = total_records / 4 + 1;  // a few flushes
    auto s = store::Store::Open(dir, so);
    if (!s.ok()) {
      std::fprintf(stderr, "open: %s\n", s.status().ToString().c_str());
      return 1;
    }
    Stopwatch sw;
    for (const auto& b : batches) {
      Status st = s.value()->Append(b);
      if (!st.ok()) {
        std::fprintf(stderr, "append: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    IngestResult r;
    r.policy = store::WalSyncName(sync);
    r.seconds = sw.ElapsedSeconds();
    r.records_per_sec = static_cast<double>(total_records) / r.seconds;
    r.segments = s.value()->num_segments();
    r.wal_bytes = s.value()->wal_bytes();
    std::printf("ingest %-8s %8.0f records/sec  (%.3fs, %llu segments)\n",
                r.policy.c_str(), r.records_per_sec, r.seconds,
                static_cast<unsigned long long>(r.segments));
    ingest.push_back(r);
    std::filesystem::remove_all(dir);
  }

  // ---------------------------------------------------- recovery replay
  std::string rec_dir = TempDir("ftl_bench_ingest_recovery");
  {
    store::StoreOptions so;
    so.wal_sync = store::WalSync::kNever;  // everything stays in the WAL
    auto s = store::Store::Open(rec_dir, so);
    if (!s.ok()) return 1;
    for (const auto& b : batches) {
      if (!s.value()->Append(b).ok()) return 1;
    }
    // Crash: the unique_ptr drops with no flush and no clean close.
  }
  store::RecoveryInfo rec;
  double recovery_seconds = 0.0;
  {
    store::StoreOptions so;
    so.wal_sync = store::WalSync::kNever;
    Stopwatch sw;
    auto s = store::Store::Open(rec_dir, so, &rec);
    recovery_seconds = sw.ElapsedSeconds();
    if (!s.ok()) {
      std::fprintf(stderr, "recover: %s\n", s.status().ToString().c_str());
      return 1;
    }
    if (s.value()->total_records() != total_records) {
      std::fprintf(stderr, "recovery lost records: %zu != %zu\n",
                   s.value()->total_records(), total_records);
      return 2;
    }
  }
  double replay_rps =
      static_cast<double>(rec.replayed_records) / recovery_seconds;
  std::printf("recovery %.3fs: replayed %llu batches / %llu records "
              "(%8.0f records/sec)\n",
              recovery_seconds,
              static_cast<unsigned long long>(rec.replayed_batches),
              static_cast<unsigned long long>(rec.replayed_records),
              replay_rps);
  std::filesystem::remove_all(rec_dir);

  // ---------------------------------------------------- identity gate
  std::string id_dir = TempDir("ftl_bench_ingest_identity");
  bool identical = true;
  size_t checked = 0;
  {
    store::StoreOptions so;
    so.wal_sync = store::WalSync::kNever;
    so.flush_threshold_records = total_records / 6 + 1;  // multi-segment
    auto s = store::Store::Open(id_dir, so);
    if (!s.ok()) return 1;
    for (const auto& b : batches) {
      if (!s.value()->Append(b).ok()) return 1;
    }
    traj::TrajectoryDatabase merged = s.value()->MaterializeAll("merged");
    core::FtlEngine engine{core::EngineOptions{}};
    Status ts = engine.Train(pair.p, merged);
    if (!ts.ok()) {
      std::fprintf(stderr, "train: %s\n", ts.ToString().c_str());
      return 1;
    }
    auto snap = s.value()->Snapshot();
    for (size_t qi = 0; qi < pair.p.size() && checked < num_queries; ++qi) {
      auto want =
          engine.Query(pair.p[qi], merged, core::Matcher::kNaiveBayes);
      auto got = snap->Query(engine, pair.p[qi], core::Matcher::kNaiveBayes,
                             nullptr);
      if (want.ok() != got.ok()) {
        identical = false;
        break;
      }
      if (!want.ok()) continue;
      ++checked;
      if (io::QueryResultToJson(pair.p[qi].label(), got.value()) !=
          io::QueryResultToJson(pair.p[qi].label(), want.value())) {
        std::fprintf(stderr, "identity violated for query %s\n",
                     std::string(pair.p[qi].label()).c_str());
        identical = false;
        break;
      }
    }
    std::printf("identity: %zu multi-segment query responses %s\n", checked,
                identical ? "byte-identical to the merged database"
                          : "DIVERGED");
  }
  std::filesystem::remove_all(id_dir);

  header.window_s = run_sw.ElapsedSeconds();
  io::JsonWriter hw;
  bench_e2e::WriteArtifactHeader(header, &hw);
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"header\": %s,\n"
               "  \"config\": \"%s\",\n"
               "  \"num_objects\": %zu,\n"
               "  \"num_batches\": %zu,\n"
               "  \"num_records\": %zu,\n"
               "  \"ingest\": {\n",
               hw.str().c_str(), config.c_str(), num_objects,
               batches.size(), total_records);
  for (size_t i = 0; i < ingest.size(); ++i) {
    const IngestResult& r = ingest[i];
    std::fprintf(f,
                 "    \"%s\": { \"seconds\": %.6f, "
                 "\"records_per_sec\": %.1f, \"segments\": %llu, "
                 "\"wal_bytes\": %llu }%s\n",
                 r.policy.c_str(), r.seconds, r.records_per_sec,
                 static_cast<unsigned long long>(r.segments),
                 static_cast<unsigned long long>(r.wal_bytes),
                 i + 1 < ingest.size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n"
               "  \"recovery\": {\n"
               "    \"seconds\": %.6f,\n"
               "    \"replayed_batches\": %llu,\n"
               "    \"replayed_records\": %llu,\n"
               "    \"replay_records_per_sec\": %.1f\n"
               "  },\n"
               "  \"identity\": { \"queries\": %zu, "
               "\"byte_identical\": %s },\n"
               "  \"metrics\": %s\n"
               "}\n",
               recovery_seconds,
               static_cast<unsigned long long>(rec.replayed_batches),
               static_cast<unsigned long long>(rec.replayed_records),
               replay_rps, checked, identical ? "true" : "false",
               obs::DumpJson().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return identical ? 0 : 2;
}
