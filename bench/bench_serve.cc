// `ftl serve` throughput benchmark: an in-process FtlServer on an
// ephemeral loopback port, hammered by N concurrent HTTP clients
// issuing POST /v1/query round-robin over the P labels. Reports
// queries/sec plus p50/p99 end-to-end latency (connect + request +
// engine + response), and re-checks the byte-identity contract: every
// response body must equal the direct FtlEngine call serialized with
// the same writer.
//
// The daemon serves Q as `ftl serve --ftb` does: a one-segment
// StoreSnapshot (StoreSnapshot::Static), so this is the benchmark of
// the static-shard serve path.
//
// Emits BENCH_serve.json (path overridable via argv[1]), headed by the
// commit/host/nproc/isa header bench_e2e artifacts carry. Acceptance
// floor: >= 1000 queries/sec with 8 loopback clients.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/artifact.h"
#include "bench_common.h"
#include "ftl/ftl.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace {

using namespace ftl;

core::EngineOptions ServeBenchOptions() {
  core::EngineOptions eo;
  eo.training.horizon_units = 60;
  eo.alpha.alpha1 = 0.01;
  eo.alpha.alpha2 = 0.1;
  eo.naive_bayes.phi_r = 0.005;
  eo.num_threads = 1;  // parallelism comes from the serve worker pool
  return eo;
}

struct Percentiles {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Percentiles ComputePercentiles(std::vector<double>* us) {
  Percentiles p;
  if (us->empty()) return p;
  std::sort(us->begin(), us->end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(us->size() - 1));
    return (*us)[i];
  };
  p.p50_us = at(0.50);
  p.p99_us = at(0.99);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const std::string config = "SD";
  const size_t num_objects = bench::PaperScale() ? 500 : 100;
  const size_t kClients = 8;
  const size_t requests_per_client = bench::PaperScale() ? 1000 : 400;
  const size_t total_requests = kClients * requests_per_client;
  const size_t workers = std::max(1u, std::thread::hardware_concurrency());
  // window_s is filled in with the run's length.
  Stopwatch run_sw;
  bench_e2e::ArtifactHeader header =
      bench_e2e::MakeArtifactHeader(config, bench::BenchSeed(), 0.0);

  sim::DatasetPair pair = sim::BuildDataset(sim::FindConfig(config),
                                            num_objects, bench::BenchSeed());
  core::FtlEngine engine(ServeBenchOptions());
  if (!engine.Train(pair.p, pair.q).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  auto snap = store::StoreSnapshot::Static(
      traj::FlatDatabase::FromDatabase(pair.q), core::BlockingMode::kOff, {});
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }
  serve::ServeOptions so;
  so.port = 0;  // ephemeral
  so.num_threads = workers;
  so.max_queue = 256;
  serve::FtlServer server(so, &engine, &pair.p, snap.value());
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const int port = server.port();
  std::printf(
      "config=%s |P|=%zu |Q|=%zu workers=%zu clients=%zu requests=%zu "
      "port=%d\n\n",
      config.c_str(), pair.p.size(), pair.q.size(), workers, kClients,
      total_requests, port);

  // Expected bodies for the byte-identity check, computed up front so
  // the comparison costs the timed loop nothing but a string compare.
  std::vector<std::string> labels, expected;
  labels.reserve(pair.p.size());
  expected.reserve(pair.p.size());
  for (size_t i = 0; i < pair.p.size(); ++i) {
    labels.push_back(pair.p[i].label());
    auto direct = engine.Query(pair.p[i], pair.q, core::Matcher::kNaiveBayes);
    if (!direct.ok()) {
      std::fprintf(stderr, "direct query failed: %s\n",
                   direct.status().ToString().c_str());
      return 1;
    }
    expected.push_back(io::QueryResultToJson(labels[i], direct.value()));
  }

  std::vector<std::vector<double>> latencies(kClients);
  std::atomic<size_t> errors{0};
  std::atomic<size_t> mismatches{0};
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    latencies[c].reserve(requests_per_client);
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < requests_per_client; ++i) {
        size_t li = (c * requests_per_client + i) % labels.size();
        std::string body = "{\"query\":\"" + labels[li] + "\"}";
        Stopwatch sw;
        auto r = serve::HttpRequestOnce("127.0.0.1", port, "POST",
                                        "/v1/query", body,
                                        /*timeout_ms=*/30000);
        double us = sw.ElapsedSeconds() * 1e6;
        if (!r.ok() || r.value().status != 200) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (r.value().body != expected[li]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        latencies[c].push_back(us);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds = wall.ElapsedSeconds();

  server.Shutdown();
  server.Wait();

  std::vector<double> all;
  all.reserve(total_requests);
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  const size_t ok = all.size();
  const double qps = static_cast<double>(ok) / seconds;
  Percentiles pct = ComputePercentiles(&all);
  const bool byte_identical = mismatches.load() == 0 && ok > 0;

  std::printf(
      "completed %zu/%zu requests in %.3fs\n"
      "  %10.0f queries/sec  (acceptance floor 1000)\n"
      "  p50=%8.0fus  p99=%8.0fus  errors=%zu  mismatches=%zu\n"
      "  results_byte_identical=%s\n",
      ok, total_requests, seconds, qps, pct.p50_us, pct.p99_us,
      errors.load(), mismatches.load(), byte_identical ? "true" : "false");

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
               "  \"bench\": \"serve\",\n"
               "  \"config\": \"%s\",\n"
               "  \"p_size\": %zu,\n"
               "  \"q_size\": %zu,\n"
               "  \"workers\": %zu,\n"
               "  \"clients\": %zu,\n"
               "  \"requests\": %zu,\n"
               "  \"completed\": %zu,\n"
               "  \"errors\": %zu,\n"
               "  \"seconds\": %.6f,\n"
               "  \"queries_per_sec\": %.1f,\n"
               "  \"p50_us\": %.1f,\n"
               "  \"p99_us\": %.1f,\n"
               "  \"results_byte_identical\": %s,\n"
               "  \"metrics\": %s\n"
               "}\n",
               hw.str().c_str(), config.c_str(), pair.p.size(),
               pair.q.size(), workers, kClients, total_requests, ok,
               errors.load(), seconds, qps,
               pct.p50_us, pct.p99_us, byte_identical ? "true" : "false",
               ftl::obs::DumpJson().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!byte_identical) return 2;
  if (errors.load() > 0) return 2;
  return 0;
}
