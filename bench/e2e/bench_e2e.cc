// bench_e2e: the repository's end-to-end benchmark.
//
// Runs the stack `ftl serve --store` runs — serve::FtlServer over a
// store::Store answering with a core::FtlEngine — in one process, drives
// it from loopback HTTP clients, and reports named end-to-end metrics
// for one workload. A separate traced pass then splits served requests
// into the repo's layers (serve, io, store, core blocking/engine) by
// replaying each request in-process through the same public functions
// the server calls, timed from here; nothing inside the program is
// instrumented for the bench.
//
//   bench_e2e --workload <name> [--seed <n>] [--seconds <window>]
//             [--out <run.json>] [--trace <spans.json>] [--workdir <dir>]
//   bench_e2e --smoke [--benchmark-json <BENCHMARK.json>]
//
// Per run: prepare (untimed: generate the population from the seed and
// write it into a fresh store), set up several times (timed: recover,
// materialize, train, start, mark ready — CmdServe's store mode), build
// the scalar exhaustive oracle (untimed), warm up, measure the window,
// then optionally trace. Every response is checked against the oracle;
// any mismatch makes the exit code non-zero. README.md has the
// workload and metric tables.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "artifact.h"
#include "core/blocking.h"
#include "core/engine.h"
#include "fleet.h"
#include "io/ftb.h"
#include "io/json_parse.h"
#include "io/report_json.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "simd/dispatch.h"
#include "store/compactor.h"
#include "store/manifest.h"
#include "store/store.h"
#include "store/wal.h"
#include "trace.h"
#include "traj/database.h"
#include "traj/flat_database.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace ftl;
using bench_e2e::Clock;
using bench_e2e::SpanLog;

constexpr uint64_t kDefaultSeed = 20160501;
const char* const kHost = "127.0.0.1";
const char* const kWorkloads[] = {"fleet_query", "dense_query", "fleet_ingest",
                                  "fleet_fanout"};

/// Fleet size: ~72 records per object, so ~1.44M candidate records
/// (~35 MB of FTB columns across the segments). Sized so prepare, the
/// repeated setup and the oracle fit the per-run time budget.
constexpr size_t kFleetObjects = 20000;
constexpr size_t kFleetQueries = 256;
/// Setup repeats per run (setup_s is their median): at least
/// kMinSetups, then more until kSetupSeconds of setup were measured.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupSeconds = 3.0;
/// Traced pass: untraced serial reference requests, then traced ones,
/// stopping early after kTraceBudgetSeconds (or half the window).
constexpr size_t kReferenceRequests = 50;
constexpr size_t kTracedRequests = 500;
constexpr double kTraceBudgetSeconds = 5.0;
/// The window is split into this many equal sub-windows; each
/// end-to-end timing is the median of its per-sub-window values, so a
/// neighbour on the host that slows a few of them does not move it
/// (2 s each in BENCHMARK.json's 30 s window).
constexpr size_t kSubWindows = 15;
/// fleet_ingest's quiesced pass re-checks this many labels in full.
constexpr size_t kQuiescedLabels = 64;
/// The layers must account for the server's handle time within this.
constexpr double kCoverageLo = 0.95;
constexpr double kCoverageHi = 1.05;

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  std::string name;
  bool fleet = true;      ///< the fleet model; false = `sim` config SD
  size_t objects = 0;     ///< candidate objects
  size_t queries = 0;     ///< P labels clients draw from (fleet)
  size_t segments = 0;    ///< immutable segments the store starts with
  double memtable_frac = 0.0;  ///< share of objects left in the memtable
  core::Matcher matcher = core::Matcher::kNaiveBayes;
  bool matcher_in_body = false;  ///< send "matcher":"alpha" per request
  size_t clients = 4;      ///< closed-loop query clients (at most nproc)
  size_t workers = 0;      ///< serve workers; 0 = nproc, `ftl serve`'s default
  size_t query_threads = 1;
  double ingest_rate = 0.0;   ///< open-loop ingest batches/s (0 = none)
  size_t ingest_objects = 3;  ///< new objects per ingest batch
  store::StoreOptions store;
};

Result<Spec> MakeSpec(const std::string& name, bool smoke) {
  Spec s;
  s.name = name;
  s.objects = smoke ? 8000 : kFleetObjects;
  s.queries = smoke ? 32 : kFleetQueries;
  s.segments = 8;
  s.memtable_frac = 0.02;
  s.store.blocking_mode = core::BlockingMode::kGuaranteed;
  if (name == "fleet_query") {
    // Half the CPUs: on a shared host, 4 clients and 4 workers on 4 CPUs
    // queue whenever a neighbour takes a CPU, and their p50 spread about
    // twice as widely from run to run as 2 or 1 client(s) did.
    s.clients = 2;
    s.workers = 2;
    return s;
  }
  if (name == "fleet_fanout") {
    s.clients = 1;
    s.workers = 1;
    s.query_threads = 4;
    return s;
  }
  if (name == "fleet_ingest") {
    // ~25 batches/s x 3 objects x ~72 records = ~5.4k records/s, so a
    // 5000-record flush threshold gives about one flush per second and,
    // with trigger 10 / window 4, a compaction round every ~3 flushes.
    s.clients = 2;
    s.ingest_rate = 25.0;
    s.store.flush_threshold_records = smoke ? 1000 : 5000;
    s.store.compact_trigger = 10;
    s.store.compact_max_segments = 4;
    s.store.wal_sync = store::WalSync::kInterval;
    s.store.wal_sync_interval_ms = 50;
    return s;
  }
  if (name == "dense_query") {
    // Already small; a smaller smoke population would leave the fixed
    // per-request costs the replay does not repeat (routing, gauges) a
    // visible share of the handle time.
    s.fleet = false;
    s.objects = 200;
    s.queries = 0;
    s.segments = 2;
    s.memtable_frac = 0.2;
    s.store.blocking_mode = core::BlockingMode::kOff;
    s.matcher = core::Matcher::kAlphaFilter;
    s.matcher_in_body = true;
    // One request at a time, so its p50 is the per-request cost with no
    // queue; more clients made this ~0.45 ms request spread more widely.
    s.clients = 1;
    s.workers = 1;
    return s;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

/// How a served body is checked against its expected bytes.
enum class Compare {
  kFull,           ///< every byte
  kMaskEvaluated,  ///< every byte but "evaluated": blocking scores fewer
                   ///< candidates than the exhaustive oracle and says so
  kCandidates,     ///< the "candidates" array only (|Q| grows under ingest)
};

std::string MaskEvaluated(const std::string& body) {
  const std::string key = "\"evaluated\":";
  size_t at = body.find(key);
  if (at == std::string::npos) return body;
  size_t end = body.find(',', at);
  return body.substr(0, at) + body.substr(end == std::string::npos ? body.size()
                                                                   : end + 1);
}

bool Matches(Compare mode, const std::string& got, const std::string& want) {
  switch (mode) {
    case Compare::kFull:
      return got == want;
    case Compare::kMaskEvaluated:
      return MaskEvaluated(got) == MaskEvaluated(want);
    case Compare::kCandidates: {
      size_t g = got.find("\"candidates\":");
      size_t w = want.find("\"candidates\":");
      return g != std::string::npos && w != std::string::npos &&
             got.compare(g, std::string::npos, want, w) == 0;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Small measurement helpers

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Nearest-rank quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double ProcessCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// First integer after `key` in a /proc/self text file, or -1.
int64_t ReadProcField(const char* path, const std::string& key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::atoll(line.c_str() + key.size());
    }
  }
  return -1;
}

/// The registry values the window is measured from (deltas only: the
/// registry is process-global and earlier phases also write to it).
struct RegState {
  int64_t handle_sum = 0, handle_count = 0, rejected = 0;
  int64_t flushes = 0, flush_us = 0, compactions = 0, compaction_us = 0;
  double cpu_s = 0.0;
  int64_t wchar = -1;  ///< bytes the process passed to write(2)
};

RegState ReadRegState() {
  auto& reg = obs::MetricsRegistry::Global();
  RegState s;
  const obs::Histogram& handle =
      reg.GetHistogram("ftl_serve_request_latency_us");
  s.handle_sum = handle.Sum();
  s.handle_count = handle.Count();
  s.rejected = reg.GetCounter("ftl_serve_rejected_total").Value();
  s.flushes = reg.GetCounter("ftl_store_flush_total").Value();
  s.flush_us = reg.GetHistogram("ftl_store_flush_latency_us").Sum();
  s.compactions = reg.GetCounter("ftl_store_compactions_total").Value();
  s.compaction_us = reg.GetHistogram("ftl_store_compaction_latency_us").Sum();
  s.cpu_s = ProcessCpuSeconds();
  s.wchar = ReadProcField("/proc/self/io", "wchar:");
  return s;
}

// ---------------------------------------------------------------------------
// Prepare: the population and the store it starts in

struct Population {
  traj::TrajectoryDatabase p{"P"};
  std::vector<size_t> query_idx;  ///< P indices the clients query
};

/// Streams objects into a store in ingest order, flushing at segment
/// boundaries so the store ends with `segments` immutable segments plus
/// the last `memtable_frac` of the objects in the WAL (the memtable).
/// Flushes fall between objects, so no label spans two sources.
class StoreWriter {
 public:
  StoreWriter(store::Store* store, size_t total, size_t segments,
              double memtable_frac)
      : store_(store) {
    const size_t mem = static_cast<size_t>(
        std::ceil(static_cast<double>(total) * memtable_frac));
    const size_t flushed = total > mem ? total - mem : 0;
    for (size_t s = 1; s <= segments; ++s) {
      boundaries_.push_back(s * flushed / segments);
    }
  }

  Status Add(const std::string& label, traj::OwnerId owner,
             const std::vector<traj::Record>& records) {
    for (const traj::Record& r : records) {
      batch_.rows.push_back(
          store::IngestRow{label, owner, r.t, r.location.x, r.location.y});
    }
    ++added_;
    bool boundary = false;
    while (next_ < boundaries_.size() && boundaries_[next_] == added_) {
      boundary = true;
      ++next_;
    }
    if (boundary || ++batch_objects_ == kObjectsPerBatch) {
      FTL_RETURN_NOT_OK(AppendBatch());
    }
    if (boundary) FTL_RETURN_NOT_OK(store_->Flush());
    return Status::OK();
  }

  Status Finish() { return AppendBatch(); }

 private:
  static constexpr size_t kObjectsPerBatch = 64;

  Status AppendBatch() {
    batch_objects_ = 0;
    if (batch_.rows.empty()) return Status::OK();
    Status st = store_->Append(batch_);
    batch_.rows.clear();
    return st;
  }

  store::Store* store_;
  std::vector<size_t> boundaries_;
  size_t next_ = 0;
  size_t added_ = 0;
  size_t batch_objects_ = 0;
  store::IngestBatch batch_;
};

Status Prepare(const Spec& spec, uint64_t seed, const std::string& dir,
               Population* pop) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  store::StoreOptions opts;
  opts.wal_sync = store::WalSync::kNever;
  opts.flush_threshold_records = std::numeric_limits<size_t>::max() / 8;
  auto opened = store::Store::Open(dir, opts);
  if (!opened.ok()) return opened.status();
  store::Store& st = *opened.value();
  if (spec.fleet) {
    // Query objects are spread evenly, so their true matches live in
    // every segment and in the memtable.
    StoreWriter w(&st, spec.objects, spec.segments, spec.memtable_frac);
    const size_t stride = std::max<size_t>(1, spec.objects / spec.queries);
    for (size_t i = 0; i < spec.objects; ++i) {
      const bool is_query = i % stride == 0 && pop->p.size() < spec.queries;
      bench_e2e::FleetObject obj =
          bench_e2e::MakeFleetObject(seed, i, is_query, /*after_epoch=*/false);
      FTL_RETURN_NOT_OK(w.Add("c" + std::to_string(i), i, obj.candidate));
      if (is_query) {
        pop->query_idx.push_back(pop->p.size());
        FTL_RETURN_NOT_OK(pop->p.Add(traj::Trajectory(
            "p" + std::to_string(i), i, std::move(obj.query))));
      }
    }
    return w.Finish();
  }
  sim::DatasetPair pair =
      sim::BuildDataset(sim::FindConfig("SD"), spec.objects, seed);
  StoreWriter w(&st, pair.q.size(), spec.segments, spec.memtable_frac);
  for (const traj::Trajectory& t : pair.q) {
    FTL_RETURN_NOT_OK(w.Add(t.label(), t.owner(), t.records()));
  }
  FTL_RETURN_NOT_OK(w.Finish());
  pop->p = std::move(pair.p);
  for (size_t i = 0; i < pop->p.size(); ++i) {
    if (!pop->p[i].empty()) pop->query_idx.push_back(i);
  }
  return Status::OK();
}

/// One ingest batch of the open-loop schedule.
struct IngestBatchData {
  std::string body;  ///< POST /v1/ingest JSON
  /// The same rows split by object into two halves, for the traced
  /// pass's in-process appends (one half before the served request,
  /// one before its replay).
  store::IngestBatch first_half, second_half;
  size_t user_bytes = 0;  ///< EncodeBatch size: the rows' own bytes
};

/// fleet_ingest's open-loop schedule: batch k is due at start + k/rate.
/// New objects are active only after the epoch, so they can never
/// overlap a query and no query's accept set changes while they land.
/// Batches are generated when they are about to be sent, so the bench
/// holds none of them in memory.
struct IngestPlan {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  Clock::time_point start;
  size_t next = 0;  ///< first batch not yet sent

  Clock::time_point Due(size_t k) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k) / spec->ingest_rate));
  }

  IngestBatchData Make(size_t k) const {
    IngestBatchData out;
    io::JsonWriter w;
    w.BeginObject();
    w.Key("records");
    w.BeginArray();
    store::IngestBatch whole;
    for (size_t j = 0; j < spec->ingest_objects; ++j) {
      const uint64_t serial = k * spec->ingest_objects + j;
      const uint64_t id = spec->objects + serial;
      bench_e2e::FleetObject obj = bench_e2e::MakeFleetObject(
          seed, id, /*with_query=*/false, /*after_epoch=*/true);
      const std::string label = "live-" + std::to_string(serial);
      store::IngestBatch& half =
          2 * j < spec->ingest_objects ? out.first_half : out.second_half;
      for (const traj::Record& r : obj.candidate) {
        store::IngestRow row{label, id, r.t, r.location.x, r.location.y};
        whole.rows.push_back(row);
        half.rows.push_back(row);
        w.BeginObject();
        w.Key("label");
        w.Value(label);
        w.Key("t");
        w.Value(static_cast<int64_t>(r.t));
        w.Key("x");
        w.Value(r.location.x);
        w.Key("y");
        w.Value(r.location.y);
        w.Key("owner");
        w.Value(id);
        w.EndObject();
      }
    }
    w.EndArray();
    w.EndObject();
    out.body = w.str();
    out.user_bytes = store::EncodeBatch(whole).size();
    return out;
  }
};

/// The row decode POST /v1/ingest performs after parsing (mirrors
/// FtlServer::HandleIngest), replayed to time io.ingest_parse_us.
size_t DecodeIngestBody(const std::string& body) {
  auto parsed = io::ParseJson(body);
  if (!parsed.ok() || !parsed.value().is_object()) return 0;
  const io::JsonValue* records = parsed.value().Find("records");
  if (records == nullptr || !records->is_array()) return 0;
  store::IngestBatch batch;
  batch.rows.reserve(records->items().size());
  for (const io::JsonValue& rec : records->items()) {
    const io::JsonValue* label = rec.Find("label");
    const io::JsonValue* t = rec.Find("t");
    const io::JsonValue* x = rec.Find("x");
    const io::JsonValue* y = rec.Find("y");
    if (label == nullptr || t == nullptr || x == nullptr || y == nullptr) {
      return 0;
    }
    store::IngestRow row;
    row.label = label->AsString();
    row.t = t->AsInt64().ok() ? t->AsInt64().value() : 0;
    row.x = x->AsDouble();
    row.y = y->AsDouble();
    if (const io::JsonValue* o = rec.Find("owner")) {
      auto v = o->AsInt64();
      if (v.ok()) row.owner = static_cast<traj::OwnerId>(v.value());
    }
    batch.rows.push_back(std::move(row));
  }
  return batch.rows.size();
}

// ---------------------------------------------------------------------------
// Setup: CmdServe's store mode (tools/cli.cc), in process

core::EngineOptions ServeEngineOptions() {
  // `ftl serve` flag defaults (EngineOptionsFromArgs); serve workers
  // parallelize across requests, so the engine itself is serial.
  core::EngineOptions eo;
  eo.training.vmax_mps = 120.0 * 1000.0 / 3600.0;
  eo.training.time_unit_seconds = 60;
  eo.training.horizon_units = 60;
  eo.naive_bayes.phi_r = 0.01;
  eo.alpha.alpha1 = 0.01;
  eo.alpha.alpha2 = 0.1;
  eo.num_threads = 1;
  return eo;
}

/// One serving stack. Members are destroyed in reverse order: the
/// compactor stops, then the server drains, before the store and the
/// engine they point to go away. Reset() tears down in the same order.
struct Stack {
  std::unique_ptr<core::FtlEngine> engine;
  std::unique_ptr<store::Store> store;
  std::unique_ptr<serve::FtlServer> server;
  std::unique_ptr<store::Compactor> compactor;

  void Reset() {
    compactor.reset();
    server.reset();
    store.reset();
    engine.reset();
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double recover_ms = 0.0;
  double materialize_ms = 0.0;
  double train_ms = 0.0;
};

Result<SetupTimes> SetUp(const Spec& spec, const traj::TrajectoryDatabase& p,
                         const std::string& dir, Stack* stack,
                         traj::TrajectoryDatabase* merged_out) {
  SetupTimes t;
  Stopwatch total;
  stack->engine = std::make_unique<core::FtlEngine>(ServeEngineOptions());
  stack->store = store::Store::Create(dir, spec.store);
  serve::ServeOptions so;
  so.host = kHost;
  so.port = 0;
  so.num_threads = spec.workers;
  so.store_query_threads = spec.query_threads;
  so.start_ready = false;
  stack->server = std::make_unique<serve::FtlServer>(
      so, stack->engine.get(), &p, stack->store.get());
  stack->compactor = std::make_unique<store::Compactor>(stack->store.get());
  FTL_RETURN_NOT_OK(stack->server->Start());
  Stopwatch step;
  FTL_RETURN_NOT_OK(stack->store->Recover(nullptr));
  t.recover_ms = step.ElapsedMillis();
  step.Reset();
  traj::TrajectoryDatabase merged = stack->store->MaterializeAll("store");
  t.materialize_ms = step.ElapsedMillis();
  step.Reset();
  FTL_RETURN_NOT_OK(stack->engine->Train(p, merged));
  t.train_ms = step.ElapsedMillis();
  if (spec.store.compact_trigger > 0) stack->compactor->Start();
  stack->server->MarkReady();
  t.total_s = total.ElapsedSeconds();
  if (merged_out != nullptr) *merged_out = std::move(merged);
  return t;
}

/// The oracle: each label scored by the exhaustive AoS path over the
/// merged database with the scalar kernel table, serialized with the
/// server's writer. Independent of segments, blocking, SIMD and
/// intra-query threads, which are what the served path exercises.
Result<std::vector<std::string>> ScalarOracle(
    const core::FtlEngine& engine, const traj::TrajectoryDatabase& p,
    const std::vector<size_t>& labels, const traj::TrajectoryDatabase& merged,
    core::Matcher matcher) {
  const simd::IsaLevel active = simd::Dispatch().level;
  simd::SetDispatchForTest(simd::IsaLevel::kScalar);
  const size_t threads = Nproc();
  std::vector<std::string> out;
  out.reserve(labels.size());
  Status failed;
  for (size_t idx : labels) {
    auto r = engine.Query(p[idx], merged, matcher, threads);
    if (!r.ok()) {
      failed = r.status();
      break;
    }
    out.push_back(io::QueryResultToJson(p[idx].label(), r.value()));
  }
  simd::SetDispatchForTest(active);
  if (!failed.ok()) return failed;
  return out;
}

// ---------------------------------------------------------------------------
// Load: closed-loop query clients, open-loop ingest client

/// One acknowledged ingest batch, in seconds since the run's origin.
struct IngestSample {
  double due_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  size_t user_bytes = 0;
};

struct ClientLog {
  /// Round trips (us) of the queries that completed in each sub-window
  /// of the measured window; the rest are only counted, so the bench's
  /// own memory stays small next to the server's.
  std::array<std::vector<float>, kSubWindows> window_us;
  std::vector<IngestSample> ingest;
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct Target {
  int port = 0;
  const std::vector<std::string>* bodies = nullptr;  ///< per query label
  const std::vector<std::string>* oracle = nullptr;  ///< per query label
  Compare mode = Compare::kFull;
  Clock::time_point origin;
  double window_start_s = 0.0;  ///< since origin
  double sub_window_s = 0.0;
  const std::atomic<bool>* stop = nullptr;

  /// The sub-window a request completing at `end_s` belongs to, or
  /// kSubWindows when it is outside the measured window.
  size_t SubWindow(double end_s) const {
    const double at = (end_s - window_start_s) / sub_window_s;
    return at < 0.0 || at >= static_cast<double>(kSubWindows)
               ? kSubWindows
               : static_cast<size_t>(at);
  }
};

void ReportFailure(const char* what, const Result<serve::HttpResponse>& r) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) >= 5) return;
  std::fprintf(stderr, "bench_e2e: %s failed: %s\n", what,
               r.ok() ? ("status " + std::to_string(r.value().status) +
                         ", body " + r.value().body.substr(0, 200))
                            .c_str()
                      : r.status().ToString().c_str());
}

void QueryClient(const Target& t, uint64_t seed, ClientLog* log) {
  std::mt19937_64 rng(seed);
  const size_t n = t.bodies->size();
  while (!t.stop->load(std::memory_order_relaxed)) {
    const size_t k = rng() % n;
    const Clock::time_point start = Clock::now();
    auto r = serve::HttpRequestOnce(kHost, t.port, "POST", "/v1/query",
                                    (*t.bodies)[k], /*timeout_ms=*/30000);
    const Clock::time_point end = Clock::now();
    ++log->attempted;
    if (r.ok() && r.value().status == 200 &&
        Matches(t.mode, r.value().body, (*t.oracle)[k])) {
      const size_t sub = t.SubWindow(Seconds(t.origin, end));
      if (sub < kSubWindows) {
        log->window_us[sub].push_back(
            static_cast<float>(Seconds(start, end) * 1e6));
      }
    } else {
      ++log->failed;
      ReportFailure("query", r);
    }
  }
}

void IngestClient(const Target& t, IngestPlan* plan, ClientLog* log) {
  size_t k = plan->next;
  while (!t.stop->load(std::memory_order_relaxed)) {
    const IngestBatchData batch = plan->Make(k);
    const Clock::time_point due = plan->Due(k);
    std::this_thread::sleep_until(due);  // returns at once when late
    if (t.stop->load(std::memory_order_relaxed)) break;
    const Clock::time_point start = Clock::now();
    auto r = serve::HttpRequestOnce(kHost, t.port, "POST", "/v1/ingest",
                                    batch.body, /*timeout_ms=*/30000);
    const Clock::time_point end = Clock::now();
    ++log->attempted;
    if (r.ok() && r.value().status == 200) {
      log->ingest.push_back({Seconds(t.origin, due), Seconds(t.origin, start),
                             Seconds(t.origin, end), batch.user_bytes});
    } else {
      ++log->failed;
      ReportFailure("ingest", r);
    }
    ++k;
  }
  plan->next = k;
}

// ---------------------------------------------------------------------------
// Traced pass

/// A loopback TCP listener the replays use to get a connected socket
/// pair, so the replayed read and write cross the same transport as a
/// served request.
class LoopbackPair {
 public:
  LoopbackPair() = default;
  ~LoopbackPair() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  Status Open() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IOError("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, kHost, &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 4) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      return Status::IOError(std::string("loopback listener: ") +
                             std::strerror(errno));
    }
    addr_ = addr;
    return Status::OK();
  }

  Status Connect(int* client_fd, int* server_fd) {
    int c = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c < 0) return Status::IOError("socket");
    if (::connect(c, reinterpret_cast<sockaddr*>(&addr_), sizeof(addr_)) != 0) {
      ::close(c);
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    int s = ::accept(listen_fd_, nullptr, nullptr);
    if (s < 0) {
      ::close(c);
      return Status::IOError(std::string("accept: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    *client_fd = c;
    *server_fd = s;
    return Status::OK();
  }

 private:
  int listen_fd_ = -1;
  sockaddr_in addr_{};
};

void DrainAndClose(int fd) {
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
}

/// One replayed connection: the server end, read and written by the
/// replay, and a peer thread on the client end that behaves like
/// serve::HttpRequestOnce — it sends the request, then blocks reading
/// the response — so the replayed write wakes a blocked reader as the
/// served write does.
class ReplayConnection {
 public:
  ReplayConnection() = default;
  ~ReplayConnection() {
    Close();  // the peer sees end of stream and exits
    if (peer_.joinable()) peer_.join();
  }
  ReplayConnection(const ReplayConnection&) = delete;
  ReplayConnection& operator=(const ReplayConnection&) = delete;

  /// Connects, starts the peer and returns once the request bytes have
  /// arrived, as they have when a server worker picks up a connection.
  Status Open(LoopbackPair* loopback, const std::string& request) {
    int client_fd = -1;
    FTL_RETURN_NOT_OK(loopback->Connect(&client_fd, &fd_));
    peer_ = std::thread([client_fd, &request] {
      (void)serve::WriteFull(client_fd, request);
      DrainAndClose(client_fd);
    });
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, /*timeout_ms=*/5000);
    return Status::OK();
  }

  int fd() const { return fd_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::thread peer_;
};

/// What FtlServer does to an accepted connection before reading it.
void ServerSocketOptions(int fd) {
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// The bytes serve::HttpRequestOnce sends for a POST.
std::string RequestBytes(int port, const std::string& target,
                         const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: " + kHost + ":" +
         std::to_string(port) +
         "\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
}

/// Runs every thread of the process on one CPU while alive and restores
/// the previous CPU set afterwards. A request served by one thread and
/// its replay then run on the same core under the same conditions,
/// instead of on whichever cores the scheduler picked for each, which on
/// a shared host differ in speed from run to run. Threads started while
/// pinned inherit the pin.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    CPU_ZERO(&saved_);
    const int cpu = ::sched_getcpu();
    if (cpu < 0 || ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    active_ = ApplyToAllThreads(one);
  }
  ~PinnedToOneCpu() {
    if (active_) ApplyToAllThreads(saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

  bool active() const { return active_; }

 private:
  static bool ApplyToAllThreads(const cpu_set_t& set) {
    bool ok = true;
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid =
          static_cast<pid_t>(std::atoi(task.path().filename().c_str()));
      ok = ::sched_setaffinity(tid, sizeof(set), &set) == 0 && ok;
    }
    return ok && !ec;
  }

  cpu_set_t saved_;
  bool active_ = false;
};

/// The bench's own copy of the live segments — read from the FTB files
/// the manifest names, each with a BlockingIndex built here — so the
/// traced pass can split a store query into blocking probe and pair
/// scoring with public calls.
class SegmentMirror {
 public:
  struct Segment {
    std::string name;
    std::shared_ptr<const traj::FlatDatabase> db;
    std::shared_ptr<const core::BlockingIndex> index;  ///< null: no blocking
  };

  SegmentMirror(std::string dir, core::BlockingOptions options, bool indexed)
      : dir_(std::move(dir)), options_(options), indexed_(indexed) {}

  /// Re-reads the manifest; segments already mirrored are kept. A
  /// compaction may unlink a segment between the manifest read and the
  /// file read, so a failed read retries from a fresh manifest.
  Status Refresh() {
    Status last;
    for (int attempt = 0; attempt < 8; ++attempt) {
      auto m = store::ReadManifest(dir_);
      if (!m.ok()) return m.status();
      std::vector<Segment> next;
      last = Status::OK();
      for (const std::string& name : m.value().segments) {
        auto have = std::find_if(live_.begin(), live_.end(),
                                 [&](const Segment& s) {
                                   return s.name == name;
                                 });
        if (have != live_.end()) {
          next.push_back(*have);
          continue;
        }
        auto db = io::ReadFtb(dir_ + "/" + name);
        if (!db.ok()) {
          last = db.status();
          break;
        }
        Segment seg{name,
                    std::make_shared<traj::FlatDatabase>(std::move(db).value()),
                    nullptr};
        if (indexed_) {
          Stopwatch sw;
          seg.index = std::make_shared<core::BlockingIndex>(*seg.db, options_);
          build_ms_ += sw.ElapsedMillis();
        }
        next.push_back(std::move(seg));
      }
      if (last.ok()) {
        live_ = std::move(next);
        generation_ = m.value().generation;
        return Status::OK();
      }
    }
    return last;
  }

  const std::vector<Segment>& live() const { return live_; }
  uint64_t generation() const { return generation_; }
  size_t labels() const {
    size_t n = 0;
    for (const Segment& s : live_) n += s.db->size();
    return n;
  }
  double build_ms() const { return build_ms_; }

 private:
  std::string dir_;
  core::BlockingOptions options_;
  bool indexed_;
  std::vector<Segment> live_;
  uint64_t generation_ = ~0ull;
  double build_ms_ = 0.0;
};

/// One traced request: the served side and its replayed layers, in us.
struct TracedRequest {
  bool replay_first = false;
  bool usable = false;  ///< served OK, handle recorded, replay OK
  double rt = 0, handle = 0;
  double read = 0, parse = 0, snapshot = 0, query = 0, serialize = 0,
         write = 0;

  double Layers() const {
    return read + parse + snapshot + query + serialize + write;
  }
};

struct TraceResult {
  std::vector<double> reference_rt;  ///< untraced serial round trips, us
  std::vector<TracedRequest> requests;
  std::vector<double> query_serial, probe, score, append, ingest_parse;
  std::vector<double> response_bytes;
  size_t rebuilds = 0;
  double survivors = 0, segment_candidates = 0, pairs = 0, accepted = 0;
  int64_t scored = 0, fast_rejects = 0;  ///< engine counters, decomposition
  double index_build_ms = 0.0;
  double alignment_ns = 0.0, decision_ns = 0.0;
  int64_t attempted = 0, failed = 0;
  int64_t replay_mismatches = 0;
  int64_t decomposition_mismatches = 0;
  bool pinned = false;  ///< the pass ran on one CPU (PinnedToOneCpu)
};

struct TraceInputs {
  const Spec* spec = nullptr;
  Stack* stack = nullptr;
  const Population* pop = nullptr;
  const std::vector<std::string>* bodies = nullptr;
  const std::vector<std::string>* oracle = nullptr;
  Compare mode = Compare::kFull;
  std::string dir;
  uint64_t seed = 0;
  size_t reference_requests = 0;
  size_t traced_requests = 0;
  double budget_s = 0.0;
};

Status RunTracedPass(const TraceInputs& in, IngestPlan* plan, SpanLog* spans,
                     TraceResult* tr) {
  const Spec& spec = *in.spec;
  store::Store& st = *in.stack->store;
  const core::FtlEngine& engine = *in.stack->engine;
  const traj::TrajectoryDatabase& p = in.pop->p;
  const int port = in.stack->server->port();
  auto& reg = obs::MetricsRegistry::Global();
  const obs::Histogram& handle_h =
      reg.GetHistogram("ftl_serve_request_latency_us");
  obs::Histogram& align_h = reg.GetHistogram("ftl_stage_alignment_ns");
  obs::Histogram& decide_h = reg.GetHistogram("ftl_stage_decision_ns");
  const obs::Counter& cand_c = reg.GetCounter("ftl_query_candidates_total");
  const obs::Counter& fr_c = reg.GetCounter("ftl_query_fast_reject_total");
  align_h.Reset();
  decide_h.Reset();

  const bool blocked = spec.store.blocking_mode != core::BlockingMode::kOff;
  const core::BlockingGuarantee guarantee =
      blocked ? engine.DeriveBlockingGuarantee(spec.matcher)
              : core::BlockingGuarantee{};
  SegmentMirror mirror(in.dir, spec.store.blocking, blocked);
  FTL_RETURN_NOT_OK(mirror.Refresh());
  tr->index_build_ms = mirror.build_ms();
  LoopbackPair loopback;
  FTL_RETURN_NOT_OK(loopback.Open());
  std::vector<std::unique_ptr<ThreadPool>> replay_threads;
  const size_t server_workers = spec.workers != 0 ? spec.workers : Nproc();
  for (size_t i = 0; i < server_workers; ++i) {
    replay_threads.push_back(std::make_unique<ThreadPool>(1));
  }
  size_t next_replay_thread = 0;
  // A query served by one thread is traced on one CPU; a parallel query
  // keeps the whole machine, or its replay would not be parallel.
  std::unique_ptr<PinnedToOneCpu> pin;
  if (spec.query_threads == 1) pin = std::make_unique<PinnedToOneCpu>();
  tr->pinned = pin != nullptr && pin->active();

  const traj::FlatDatabase p_flat = traj::FlatDatabase::FromDatabase(p);
  std::vector<std::string> request_bytes;
  for (const std::string& body : *in.bodies) {
    request_bytes.push_back(RequestBytes(port, "/v1/query", body));
  }
  const Compare replay_mode =
      plan != nullptr ? Compare::kCandidates : Compare::kFull;

  // Snapshots are tracked by version, not held: holding one would keep
  // it alive past the served request, so the replay's rebuild (and not
  // the served one) would pay for freeing it.
  uint64_t last_version = st.Snapshot()->version();
  uint64_t memtable_version = ~0ull;
  traj::TrajectoryDatabase memtable;
  std::vector<size_t> memtable_all;
  core::BlockingScratch bscratch;
  core::QueryScratch qscratch;
  std::vector<size_t> survivors;
  std::mt19937_64 rng(in.seed ^ 0x7472616365ull);

  // fleet_ingest keeps ingesting at the open-loop rate, in process: each
  // due batch's first half lands before a request's first run (served or
  // replayed) and its second half before the second, so both see a
  // snapshot rebuild exactly when a batch was due.
  std::vector<IngestBatchData> pending;
  auto append_due = [&](bool first, uint64_t rid) {
    if (plan == nullptr) return;
    if (first) {
      const Clock::time_point now = Clock::now();
      while (plan->Due(plan->next) <= now) {
        pending.push_back(plan->Make(plan->next++));
      }
    }
    for (const IngestBatchData& b : pending) {
      if (first) {
        size_t rows = 0;
        tr->ingest_parse.push_back(spans->Time("io.ingest_parse", rid, 0, [&] {
          rows = DecodeIngestBody(b.body);
        }));
        if (rows == 0) ++tr->replay_mismatches;
      }
      const store::IngestBatch& half = first ? b.first_half : b.second_half;
      if (half.rows.empty()) continue;
      Status s;
      tr->append.push_back(
          spans->Time("store.append", rid, 0, [&] { s = st.Append(half); }));
      ++tr->attempted;
      if (!s.ok()) {
        ++tr->failed;
        std::fprintf(stderr, "bench_e2e: append failed: %s\n",
                     s.ToString().c_str());
      }
    }
    if (!first) pending.clear();
  };

  // One served request: its client round trip and the server's own
  // handle time (the delta of the latency histogram's sum).
  struct Served {
    bool ok = false;        ///< 200 and matching the oracle
    bool recorded = false;  ///< exactly this request entered the histogram
    std::string body;
    double rt_us = 0.0, handle_us = 0.0;
  };
  auto serve_once = [&](uint64_t r, size_t k) {
    Served s;
    const int64_t count0 = handle_h.Count();
    const int64_t sum0 = handle_h.Sum();
    const Clock::time_point t0 = Clock::now();
    auto resp = serve::HttpRequestOnce(kHost, port, "POST", "/v1/query",
                                       (*in.bodies)[k], /*timeout_ms=*/30000);
    const Clock::time_point t1 = Clock::now();
    ++tr->attempted;
    s.ok = resp.ok() && resp.value().status == 200 &&
           Matches(in.mode, resp.value().body, (*in.oracle)[k]);
    if (!s.ok) {
      ++tr->failed;
      ReportFailure("traced query", resp);
    } else {
      s.body = resp.value().body;
    }
    // The server records its handle time just after closing the
    // socket, so the client can see the last byte first. Poll by
    // sleeping: a spinning client would compete with the worker it is
    // waiting for.
    Stopwatch wait;
    while (handle_h.Count() <= count0 && wait.ElapsedSeconds() < 1.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    s.recorded = handle_h.Count() == count0 + 1;
    s.handle_us = static_cast<double>(handle_h.Sum() - sum0);
    s.rt_us = Seconds(t0, t1) * 1e6;
    spans->Add("http.query", r, spans->NewId(), 0, t0, t1);
    return s;
  };

  // One replay of the same request through the server's public calls,
  // followed by the split of its store query into candidate generation
  // (the blocking probe per segment) and pair scoring (survivors plus
  // the exhaustive memtable), through the engine entry points the
  // snapshot fans out to. The snapshot is released on return, before
  // the next served request can rebuild the cache.
  struct Replayed {
    double read = 0, parse = 0, snapshot = 0, query = 0, serialize = 0,
           write = 0;
    std::string json;
  };
  auto replay_once = [&](uint64_t r, size_t k) -> Result<Replayed> {
    Replayed out;
    const size_t pidx = in.pop->query_idx[k];
    std::shared_ptr<const store::StoreSnapshot> snap;
    core::QueryOptions qopts;
    Result<core::QueryResult> result = Status::Internal("unset");
    auto layers = [&]() -> Status {
      const uint64_t replay_id = spans->NewId();
      const Clock::time_point replay_start = Clock::now();
      ReplayConnection conn;
      FTL_RETURN_NOT_OK(conn.Open(&loopback, request_bytes[k]));
      Result<serve::HttpRequest> req = Status::Internal("unset");
      out.read = spans->Time("serve.read", r, replay_id, [&] {
        ServerSocketOptions(conn.fd());
        req = serve::ReadHttpRequest(conn.fd());
      });
      size_t found = traj::TrajectoryDatabase::npos;
      out.parse = spans->Time("io.parse", r, replay_id, [&] {
        if (!req.ok()) return;
        auto parsed = io::ParseJson(req.value().body);
        if (!parsed.ok() || !parsed.value().is_object()) return;
        const io::JsonValue& root = parsed.value();
        const io::JsonValue* label = root.Find("query");
        (void)root.Find("matcher");
        (void)root.Find("top");
        (void)root.Find("deadline_ms");
        if (label != nullptr && label->is_string()) {
          found = p.Find(label->AsString());
        }
      });
      if (found != pidx) {
        return Status::InvalidArgument("replayed request did not parse back");
      }
      out.snapshot = spans->Time("store.snapshot", r, replay_id,
                                 [&] { snap = st.Snapshot(); });
      if (snap->version() != last_version) ++tr->rebuilds;
      last_version = snap->version();
      out.query = spans->Time("store.query", r, replay_id, [&] {
        result = snap->Query(engine, p[pidx], spec.matcher, &qopts,
                             spec.query_threads);
      });
      if (!result.ok()) return result.status();
      out.serialize = spans->Time("io.serialize", r, replay_id, [&] {
        out.json = io::QueryResultToJson(p[pidx].label(), result.value());
      });
      out.write = spans->Time("serve.write", r, replay_id, [&] {
        serve::HttpResponse resp;
        resp.body = out.json;
        (void)serve::WriteFull(conn.fd(), serve::SerializeResponse(resp));
        conn.Close();
      });
      spans->Add("replay", r, replay_id, 0, replay_start, Clock::now());
      return Status::OK();
    };
    // The layers run on a pool shaped like the server's workers, one
    // thread per worker taken in turn as the server's idle workers take
    // connections, not on the main thread, whose caches the
    // decompositions keep warm.
    ThreadPool& thread =
        *replay_threads[next_replay_thread++ % replay_threads.size()];
    Status replayed;
    thread.Submit([&] { replayed = layers(); });
    thread.Wait();
    FTL_RETURN_NOT_OK(replayed);
    tr->response_bytes.push_back(static_cast<double>(out.json.size()));

    if (spec.query_threads > 1) {
      tr->query_serial.push_back(spans->Time("store.query.serial", r, 0, [&] {
        (void)snap->Query(engine, p[pidx], spec.matcher, &qopts, 1);
      }));
    }

    if (snap->generation() != mirror.generation()) {
      FTL_RETURN_NOT_OK(mirror.Refresh());
    }
    if (memtable_version != snap->version()) {
      memtable = traj::TrajectoryDatabase("memtable");
      for (size_t g = mirror.labels(); g < snap->size(); ++g) {
        (void)memtable.Add(snap->Materialize(g));
      }
      memtable_all.resize(memtable.size());
      std::iota(memtable_all.begin(), memtable_all.end(), size_t{0});
      memtable_version = snap->version();
    }
    const uint64_t decompose_id = spans->NewId();
    const Clock::time_point decompose_start = Clock::now();
    const int64_t cand0 = cand_c.Value(), fr0 = fr_c.Value();
    double probe_us = 0.0, score_us = 0.0;
    size_t accepted = 0, evaluated = 0, kept = 0, seg_total = 0;
    const traj::FlatTrajectoryView qview = p_flat[pidx];
    for (const SegmentMirror::Segment& seg : mirror.live()) {
      seg_total += seg.db->size();
      if (seg.index != nullptr) {
        probe_us += spans->Time("core.blocking.probe", r, decompose_id, [&] {
          seg.index->GuaranteedCandidates(qview, guarantee, &bscratch,
                                          &survivors);
        });
      } else {
        survivors.resize(seg.db->size());
        std::iota(survivors.begin(), survivors.end(), size_t{0});
      }
      kept += survivors.size();
      if (survivors.empty()) continue;
      Result<core::QueryResult> part = Status::Internal("unset");
      score_us += spans->Time("core.engine.score", r, decompose_id, [&] {
        part = engine.QueryWithCandidates(qview, *seg.db, survivors,
                                          spec.matcher, &qopts, &qscratch);
      });
      if (!part.ok()) return part.status();
      accepted += part.value().candidates.size();
      evaluated += part.value().evaluated;
    }
    if (!memtable_all.empty()) {
      Result<core::QueryResult> part = Status::Internal("unset");
      score_us += spans->Time("core.engine.score", r, decompose_id, [&] {
        part = engine.QueryWithCandidates(p[pidx], memtable, memtable_all,
                                          spec.matcher, &qopts, &qscratch);
      });
      if (!part.ok()) return part.status();
      accepted += part.value().candidates.size();
      evaluated += part.value().evaluated;
    }
    spans->Add("decompose", r, decompose_id, 0, decompose_start, Clock::now());
    tr->scored += cand_c.Value() - cand0;
    tr->fast_rejects += fr_c.Value() - fr0;
    if (accepted != result.value().candidates.size() ||
        evaluated != result.value().evaluated) {
      ++tr->decomposition_mismatches;
    }
    tr->probe.push_back(probe_us);
    tr->score.push_back(score_us);
    tr->survivors += static_cast<double>(kept);
    tr->segment_candidates += static_cast<double>(seg_total);
    tr->pairs += static_cast<double>(kept + memtable_all.size());
    tr->accepted += static_cast<double>(accepted);
    return out;
  };

  // Untraced serial reference requests first (trace.overhead_frac),
  // then traced ones. Whichever of a served request and its replay runs
  // first finds this label's data colder, so the traced requests
  // alternate the order; trace.coverage pairs an even request with the
  // next odd one and both sides of the pair carry one cold and one
  // warm run.
  for (size_t r = 0; r < in.reference_requests; ++r) {
    const size_t k = rng() % in.bodies->size();
    append_due(true, r);
    tr->reference_rt.push_back(serve_once(r, k).rt_us);
    append_due(false, r);
  }
  Stopwatch budget;
  for (size_t i = 0; i < in.traced_requests; ++i) {
    const bool replay_first = i % 2 == 1;
    if (!replay_first && i >= in.traced_requests / 10 &&
        budget.ElapsedSeconds() > in.budget_s) {
      break;
    }
    const uint64_t r = in.reference_requests + i;
    const size_t k = rng() % in.bodies->size();
    Served served;
    Result<Replayed> replayed = Status::Internal("unset");
    append_due(true, r);
    if (replay_first) {
      replayed = replay_once(r, k);
      append_due(false, r);
      served = serve_once(r, k);
    } else {
      served = serve_once(r, k);
      append_due(false, r);
      replayed = replay_once(r, k);
    }
    if (!replayed.ok()) {
      if (replayed.status().code() != StatusCode::kInvalidArgument) {
        return replayed.status();
      }
      ++tr->replay_mismatches;
    } else if (served.ok &&
               !Matches(replay_mode, replayed.value().json, served.body)) {
      ++tr->replay_mismatches;
    }
    TracedRequest t;
    t.replay_first = replay_first;
    t.usable = served.ok && served.recorded && replayed.ok();
    t.rt = served.rt_us;
    t.handle = served.handle_us;
    if (replayed.ok()) {
      const Replayed& rp = replayed.value();
      t.read = rp.read;
      t.parse = rp.parse;
      t.snapshot = rp.snapshot;
      t.query = rp.query;
      t.serialize = rp.serialize;
      t.write = rp.write;
    }
    tr->requests.push_back(t);
  }
  tr->alignment_ns = align_h.Quantile(0.5);
  tr->decision_ns = decide_h.Quantile(0.5);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One run

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> e2e, layer;
  std::vector<Metric> phases;  ///< wall time of each part of the run
  int64_t attempted = 0, failed = 0;
  int64_t replay_mismatches = 0, decomposition_mismatches = 0;
  bool trace_pinned = false;
  double coverage = 0.0;
  bool traced = false;
  bool correct = false;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
  std::string trace_path;
};

/// Removes the run's store directory however the run ends.
struct DirGuard {
  std::string dir;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

Status RunWorkload(const RunArgs& args, const Spec& spec, RunOutput* out) {
  const Clock::time_point origin = Clock::now();
  SpanLog spans(origin);
  const double window_s = args.seconds;
  const double warmup_s = std::min(3.0, 0.3 * window_s);
  const std::string dir = args.workdir + "/e2e-store-" + spec.name + "-" +
                          std::to_string(::getpid());
  DirGuard guard{dir};

  // Prepare (untimed).
  Population pop;
  FTL_RETURN_NOT_OK(Prepare(spec, args.seed, dir, &pop));
  const bool ingest = spec.ingest_rate > 0.0;
  IngestPlan plan;
  plan.spec = &spec;
  plan.seed = args.seed;

  out->phases.push_back({"prepare_s", Seconds(origin, Clock::now()), "s"});

  // Setup (timed), repeated until enough of it was seen for a steady
  // median; the last stack serves the run.
  Clock::time_point phase = Clock::now();
  std::vector<SetupTimes> setups;
  Stack stack;
  traj::TrajectoryDatabase merged;
  double setup_total_s = 0.0;
  for (size_t i = 1;; ++i) {
    Stack attempt;
    merged = traj::TrajectoryDatabase();
    auto t = SetUp(spec, pop.p, dir, &attempt, &merged);
    if (!t.ok()) return t.status();
    setups.push_back(t.value());
    setup_total_s += t.value().total_s;
    if (args.smoke || (i >= kMinSetups && (setup_total_s >= kSetupSeconds ||
                                           i >= kMaxSetups))) {
      stack = std::move(attempt);
      break;
    }
  }
  out->phases.push_back({"setups_s", Seconds(phase, Clock::now()), "s"});

  // Oracle (untimed); the merged database is then freed, as CmdServe
  // frees its training copy.
  phase = Clock::now();
  std::vector<std::string> oracle;
  {
    auto o = ScalarOracle(*stack.engine, pop.p, pop.query_idx, merged,
                          spec.matcher);
    if (!o.ok()) return o.status();
    oracle = std::move(o).value();
    merged = traj::TrajectoryDatabase();
  }
  out->phases.push_back({"oracle_s", Seconds(phase, Clock::now()), "s"});
  std::vector<std::string> bodies;
  for (size_t idx : pop.query_idx) {
    bodies.push_back("{\"query\":\"" + pop.p[idx].label() + "\"" +
                     (spec.matcher_in_body ? ",\"matcher\":\"alpha\"" : "") +
                     "}");
  }
  const Compare mode = ingest ? Compare::kCandidates
                       : spec.store.blocking_mode != core::BlockingMode::kOff
                           ? Compare::kMaskEvaluated
                           : Compare::kFull;

  // Warm-up, then the measured window, split into kSubWindows equal
  // sub-windows.
  std::atomic<bool> stop{false};
  const Clock::time_point load_start = Clock::now();
  const Clock::time_point ws =
      load_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(warmup_s));
  const Clock::time_point we =
      ws + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(window_s));
  const double sub_s = window_s / static_cast<double>(kSubWindows);
  Target target;
  target.port = stack.server->port();
  target.bodies = &bodies;
  target.oracle = &oracle;
  target.mode = mode;
  target.origin = origin;
  target.window_start_s = Seconds(origin, ws);
  target.sub_window_s = sub_s;
  target.stop = &stop;
  // Load threads (query clients plus the ingest client) never exceed
  // the machine's hardware threads.
  const size_t clients =
      std::max<size_t>(1, std::min(spec.clients, Nproc() - (ingest ? 1 : 0)));
  std::vector<ClientLog> query_logs(clients);
  ClientLog ingest_log;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(QueryClient, std::cref(target),
                         args.seed * 1000003ull + c, &query_logs[c]);
  }
  if (ingest) {
    plan.start = load_start;
    threads.emplace_back(IngestClient, std::cref(target), &plan, &ingest_log);
  }
  std::this_thread::sleep_until(ws);
  const RegState a = ReadRegState();
  std::vector<double> cpu_at = {a.cpu_s};  // at each sub-window boundary
  const obs::Gauge& segments_gauge =
      obs::MetricsRegistry::Global().GetGauge("ftl_store_segments_live");
  std::vector<double> segments_seen, rss_seen_mb;
  Clock::time_point tick = ws;
  for (size_t j = 1; j <= kSubWindows; ++j) {
    const Clock::time_point sub_end = ws + (we - ws) * j / kSubWindows;
    for (; tick < sub_end; tick += std::chrono::milliseconds(250)) {
      std::this_thread::sleep_until(tick);
      segments_seen.push_back(static_cast<double>(segments_gauge.Value()));
      rss_seen_mb.push_back(
          static_cast<double>(ReadProcField("/proc/self/status", "VmRSS:")) /
          1024.0);
    }
    std::this_thread::sleep_until(sub_end);
    cpu_at.push_back(ProcessCpuSeconds());
  }
  const RegState b = ReadRegState();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  // Window statistics. Each timing is the median over the sub-windows,
  // so a burst from a neighbour on the host that slows part of the
  // window moves it less.
  // The p99 is taken over the whole window instead: a sub-window of a
  // short window holds too few queries for ten samples beyond its p99.
  std::vector<double> sub_qps, sub_p50, sub_cpu_ms, window_ms;
  std::vector<double> completed(kSubWindows, 0.0);
  double client_us_sum = 0.0, query_n = 0.0;
  for (size_t j = 0; j < kSubWindows; ++j) {
    std::vector<double> ms;
    for (const ClientLog& log : query_logs) {
      for (float us : log.window_us[j]) {
        ms.push_back(us * 1e-3);
        client_us_sum += us;
      }
    }
    query_n += static_cast<double>(ms.size());
    completed[j] = static_cast<double>(ms.size());
    sub_qps.push_back(static_cast<double>(ms.size()) / sub_s);
    sub_p50.push_back(Quantile(ms, 0.50));
    window_ms.insert(window_ms.end(), ms.begin(), ms.end());
  }
  std::vector<double> ingest_ms, lateness_ms;
  double ingest_user_bytes = 0.0;
  for (const IngestSample& s : ingest_log.ingest) {
    const size_t j = target.SubWindow(s.end_s);
    if (j == kSubWindows) continue;
    ingest_ms.push_back((s.end_s - s.due_s) * 1e3);
    lateness_ms.push_back((s.start_s - s.due_s) * 1e3);
    client_us_sum += (s.end_s - s.start_s) * 1e6;
    ingest_user_bytes += static_cast<double>(s.user_bytes);
    completed[j] += 1.0;
  }
  for (size_t j = 0; j < kSubWindows; ++j) {
    sub_cpu_ms.push_back(
        Ratio((cpu_at[j + 1] - cpu_at[j]) * 1e3, completed[j]));
  }
  out->attempted += ingest_log.attempted;
  out->failed += ingest_log.failed;
  for (const ClientLog& log : query_logs) {
    out->attempted += log.attempted;
    out->failed += log.failed;
  }
  query_logs.clear();
  ingest_log = ClientLog();
  const double cpu_s = b.cpu_s - a.cpu_s;
  const double window_client_us =
      Ratio(client_us_sum, query_n + static_cast<double>(ingest_ms.size()));
  const double window_handle_us = Ratio(
      static_cast<double>(b.handle_sum - a.handle_sum),
      static_cast<double>(b.handle_count - a.handle_count));
  out->phases.push_back({"load_s", Seconds(load_start, Clock::now()), "s"});

  // Traced pass.
  phase = Clock::now();
  TraceResult tr;
  if (args.trace) {
    TraceInputs in;
    in.spec = &spec;
    in.stack = &stack;
    in.pop = &pop;
    in.bodies = &bodies;
    in.oracle = &oracle;
    in.mode = mode;
    in.dir = dir;
    in.seed = args.seed;
    in.reference_requests = kReferenceRequests;
    in.traced_requests = kTracedRequests;
    in.budget_s = std::min(kTraceBudgetSeconds, 0.5 * window_s);
    FTL_RETURN_NOT_OK(
        RunTracedPass(in, ingest ? &plan : nullptr, &spans, &tr));
    out->attempted += tr.attempted;
    out->failed += tr.failed;
    out->replay_mismatches = tr.replay_mismatches;
    out->decomposition_mismatches = tr.decomposition_mismatches;
    out->trace_pinned = tr.pinned;
    out->phases.push_back({"trace_s", Seconds(phase, Clock::now()), "s"});
  }

  // fleet_ingest: with ingest stopped, every byte (but "evaluated")
  // must match the exhaustive oracle over everything now in the store.
  phase = Clock::now();
  if (ingest) {
    traj::TrajectoryDatabase now = stack.store->MaterializeAll("quiesced");
    std::vector<size_t> labels, positions;
    const size_t step =
        std::max<size_t>(1, pop.query_idx.size() / kQuiescedLabels);
    for (size_t k = 0; k < pop.query_idx.size(); k += step) {
      labels.push_back(pop.query_idx[k]);
      positions.push_back(k);
    }
    auto want = ScalarOracle(*stack.engine, pop.p, labels, now, spec.matcher);
    if (!want.ok()) return want.status();
    for (size_t i = 0; i < labels.size(); ++i) {
      auto r = serve::HttpRequestOnce(kHost, stack.server->port(), "POST",
                                      "/v1/query", bodies[positions[i]], 30000);
      ++out->attempted;
      if (!r.ok() || r.value().status != 200 ||
          !Matches(Compare::kMaskEvaluated, r.value().body, want.value()[i])) {
        ++out->failed;
        ReportFailure("quiesced query", r);
      }
    }
    out->phases.push_back({"quiesce_s", Seconds(phase, Clock::now()), "s"});
  }
  stack.Reset();
  out->phases.push_back({"total_s", Seconds(origin, Clock::now()), "s"});
  if (args.trace && !args.trace_path.empty() &&
      !spans.WriteChromeTrace(args.trace_path)) {
    return Status::IOError("cannot write " + args.trace_path);
  }

  // End-to-end metrics.
  std::vector<double> setup_s, recover_ms, materialize_ms, train_ms;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total_s);
    recover_ms.push_back(t.recover_ms);
    materialize_ms.push_back(t.materialize_ms);
    train_ms.push_back(t.train_ms);
  }
  const double nproc = static_cast<double>(Nproc());
  out->e2e = {
      {"query_p50_ms", Quantile(sub_p50, 0.5), "ms"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"cpu_ms_per_request", Quantile(sub_cpu_ms, 0.5), "ms"},
      {"rss_mb", Quantile(rss_seen_mb, 0.5), "MB"},
  };

  // Layer metrics measured in the window.
  const double error_frac = Ratio(static_cast<double>(out->failed),
                                  static_cast<double>(out->attempted));
  const double flushes = static_cast<double>(b.flushes - a.flushes);
  const double compactions = static_cast<double>(b.compactions - a.compactions);
  const double wchar = a.wchar >= 0 && b.wchar >= 0
                           ? static_cast<double>(b.wchar - a.wchar)
                           : 0.0;
  // query_qps is a mean (clients / mean round trip in a closed loop), so
  // a neighbour's stalls on the host move it far more than the p50: over
  // 10 seeds it spread up to 0.45 where query_p50_ms spread 0.17.
  out->layer = {
      {"error_frac", error_frac, "ratio"},
      {"query_qps", Quantile(sub_qps, 0.5), "1/s"},
      {"query_p99_ms", Quantile(window_ms, 0.99), "ms"},
      {"query_n", query_n, "count"},
      {"ingest_n", static_cast<double>(ingest_ms.size()), "count"},
      {"ingest_p50_ms", Quantile(ingest_ms, 0.50), "ms"},
      {"ingest_p99_ms", Quantile(ingest_ms, 0.99), "ms"},
      {"ingest.lateness_p99_ms", Quantile(lateness_ms, 0.99), "ms"},
      {"serve.rejected", static_cast<double>(b.rejected - a.rejected), "count"},
      {"store.flushes", flushes, "count"},
      {"store.compactions", compactions, "count"},
      {"store.flush_ms",
       Ratio(static_cast<double>(b.flush_us - a.flush_us) / 1e3, flushes),
       "ms"},
      {"store.compaction_ms",
       Ratio(static_cast<double>(b.compaction_us - a.compaction_us) / 1e3,
             compactions),
       "ms"},
      {"store.segments_mean", Mean(segments_seen), "count"},
      {"store.write_amp", Ratio(wchar, ingest_user_bytes), "ratio"},
      {"store.recover_ms", Quantile(recover_ms, 0.5), "ms"},
      {"store.materialize_ms", Quantile(materialize_ms, 0.5), "ms"},
      {"core.engine.train_ms", Quantile(train_ms, 0.5), "ms"},
      {"proc.cpu_util", Ratio(cpu_s, window_s * nproc), "ratio"},
  };

  // Layer metrics from the traced pass.
  out->traced = args.trace;
  if (args.trace) {
    std::vector<double> handles, rts, first_rts, reads, parses, snapshots,
        queries, serializes, writes;
    for (const TracedRequest& t : tr.requests) {
      if (!t.usable) continue;
      handles.push_back(t.handle);
      rts.push_back(t.rt);
      if (!t.replay_first) first_rts.push_back(t.rt);
      reads.push_back(t.read);
      parses.push_back(t.parse);
      snapshots.push_back(t.snapshot);
      queries.push_back(t.query);
      serializes.push_back(t.serialize);
      writes.push_back(t.write);
    }
    const double handle = Mean(handles);
    const double query = Mean(queries);
    const double transport = Mean(rts) - handle;
    // Coverage per pair of consecutive requests (one served first, one
    // replayed first), then the median over pairs, so one request a
    // neighbour on the host interfered with cannot decide whether the
    // layers add up.
    std::vector<double> covered, unattributed;
    for (size_t i = 0; i + 1 < tr.requests.size(); i += 2) {
      const TracedRequest& a = tr.requests[i];
      const TracedRequest& b = tr.requests[i + 1];
      if (!a.usable || !b.usable) continue;
      const double served = a.handle + b.handle;
      const double layers = a.Layers() + b.Layers();
      covered.push_back(Ratio(layers, served));
      unattributed.push_back((served - layers) / 2.0);
    }
    out->coverage = Quantile(covered, 0.5);
    const double speedup =
        tr.query_serial.empty() ? 1.0 : Ratio(Mean(tr.query_serial), query);
    const double traced_requests = static_cast<double>(handles.size());
    const double decompositions = static_cast<double>(tr.probe.size());
    std::vector<Metric> traced = {
        {"serve.handle_us", handle, "us"},
        {"serve.transport_us", transport, "us"},
        {"serve.queue_wait_us", window_client_us - window_handle_us - transport,
         "us"},
        {"serve.read_us", Mean(reads), "us"},
        {"serve.write_us", Mean(writes), "us"},
        {"serve.unattributed_us", Quantile(unattributed, 0.5), "us"},
        {"io.parse_us", Mean(parses), "us"},
        {"io.serialize_us", Mean(serializes), "us"},
        {"io.response_bytes", Mean(tr.response_bytes), "bytes"},
        {"io.ingest_parse_us", Mean(tr.ingest_parse), "us"},
        {"store.snapshot_us", Mean(snapshots), "us"},
        {"store.snapshot_p99_us", Quantile(snapshots, 0.99), "us"},
        {"store.snapshot_rebuild_frac",
         Ratio(static_cast<double>(tr.rebuilds), decompositions), "ratio"},
        {"store.query_us", query, "us"},
        {"store.parallel_speedup", speedup, "ratio"},
        {"store.append_us", Mean(tr.append), "us"},
        {"store.append_p99_us", Quantile(tr.append, 0.99), "us"},
        {"core.blocking.probe_us", Mean(tr.probe), "us"},
        {"core.blocking.survivor_frac",
         Ratio(tr.survivors, tr.segment_candidates), "ratio"},
        {"core.blocking.build_ms", tr.index_build_ms, "ms"},
        {"core.engine.score_us", Mean(tr.score), "us"},
        {"core.engine.pairs", Ratio(tr.pairs, decompositions), "count"},
        {"core.engine.pair_ns",
         Ratio(Mean(tr.score) * 1e3, Ratio(tr.pairs, decompositions)), "ns"},
        {"core.engine.accept_frac", Ratio(tr.accepted, tr.pairs), "ratio"},
        {"core.engine.fast_reject_frac",
         Ratio(static_cast<double>(tr.fast_rejects),
               static_cast<double>(tr.scored)),
         "ratio"},
        {"core.engine.alignment_ns", tr.alignment_ns, "ns"},
        {"core.engine.decision_ns", tr.decision_ns, "ns"},
        {"trace.coverage", out->coverage, "ratio"},
        {"trace.overhead_frac",
         Ratio(Quantile(first_rts, 0.5), Quantile(tr.reference_rt, 0.5)) - 1.0,
         "ratio"},
        {"trace.requests", traced_requests, "count"},
    };
    out->layer.insert(out->layer.end(), traced.begin(), traced.end());
  }
  out->correct = out->failed == 0 && out->replay_mismatches == 0;
  return Status::OK();
}

std::string RunJson(const RunArgs& args, const RunOutput& out) {
  io::JsonWriter w;
  w.BeginObject();
  w.Key("header");
  bench_e2e::WriteArtifactHeader(
      bench_e2e::MakeArtifactHeader(args.workload, args.seed, args.seconds),
      &w);
  w.Key("correct");
  w.Value(out.correct);
  w.Key("attempted");
  w.Value(out.attempted);
  w.Key("failed");
  w.Value(out.failed);
  w.Key("replay_mismatches");
  w.Value(out.replay_mismatches);
  w.Key("decomposition_mismatches");
  w.Value(out.decomposition_mismatches);
  w.Key("traced");
  w.Value(out.traced);
  w.Key("trace_pinned");
  w.Value(out.trace_pinned);
  auto section = [&w](const char* key, const std::vector<Metric>& ms) {
    w.Key(key);
    w.BeginObject();
    for (const Metric& m : ms) {
      w.Key(m.name);
      w.BeginObject();
      w.Key("value");
      w.Value(m.value);
      w.Key("unit");
      w.Value(m.unit);
      w.EndObject();
    }
    w.EndObject();
  };
  section("end_to_end", out.e2e);
  section("per_layer", out.layer);
  section("phases", out.phases);
  w.EndObject();
  return w.str();
}

void PrintMetrics(const RunOutput& out) {
  for (const auto* list : {&out.e2e, &out.layer}) {
    for (const Metric& m : *list) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::fflush(stdout);
  for (const Metric& m : out.phases) {
    std::fprintf(stderr, "phase %s %.3f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// Smoke: every workload for ~2 s on a tiny population, traced; the
/// run must be correct, the trace must add up, and every metric
/// BENCHMARK.json lists must be reported (its end-to-end ones exactly).
int RunSmoke(const std::string& workdir, const std::string& benchmark_json) {
  std::ifstream f(benchmark_json);
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  auto parsed = io::ParseJson(text);
  if (!parsed.ok() || !parsed.value().is_object()) {
    std::fprintf(stderr, "smoke: cannot read %s\n", benchmark_json.c_str());
    return 2;
  }
  auto names = [&](const char* key) {
    std::set<std::string> out;
    if (const io::JsonValue* list = parsed.value().Find(key)) {
      for (const io::JsonValue& m : list->items()) {
        if (const io::JsonValue* n = m.Find("name")) out.insert(n->AsString());
      }
    }
    return out;
  };
  const std::set<std::string> want_e2e = names("end_to_end");
  const std::set<std::string> want_layer = names("per_layer");
  bool pass = true;
  for (const char* workload : kWorkloads) {
    RunArgs args;
    args.workload = workload;
    args.seconds = 2.0;
    args.trace = true;
    args.smoke = true;
    args.workdir = workdir;
    RunOutput out;
    Status st = RunWorkload(args, MakeSpec(workload, true).value(), &out);
    if (!st.ok()) {
      std::printf("smoke %s: FAILED to run: %s\n", workload,
                  st.ToString().c_str());
      pass = false;
      continue;
    }
    std::set<std::string> got_e2e, got_layer;
    for (const Metric& m : out.e2e) got_e2e.insert(m.name);
    for (const Metric& m : out.layer) got_layer.insert(m.name);
    // BENCHMARK.json lists the layer metrics of its own workloads; the
    // ingest and fan-out ones are reported in run.json only.
    const bool names_ok =
        got_e2e == want_e2e &&
        std::includes(got_layer.begin(), got_layer.end(), want_layer.begin(),
                      want_layer.end());
    const bool coverage_ok =
        out.coverage >= kCoverageLo && out.coverage <= kCoverageHi;
    std::printf(
        "smoke %-12s attempted=%lld failed=%lld replay_mismatches=%lld "
        "coverage=%.3f names=%s -> %s\n",
        workload, static_cast<long long>(out.attempted),
        static_cast<long long>(out.failed),
        static_cast<long long>(out.replay_mismatches), out.coverage,
        names_ok ? "ok" : "DIFFER",
        out.correct && names_ok && coverage_ok ? "ok" : "FAIL");
    pass = pass && out.correct && names_ok && coverage_ok;
  }
  return pass ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload fleet_query|dense_query|"
               "fleet_ingest|fleet_fanout [--seed N] [--seconds S]\n"
               "                 [--out run.json] [--trace spans.json] "
               "[--workdir DIR]\n"
               "       bench_e2e --smoke [--benchmark-json BENCHMARK.json] "
               "[--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string out_path;
  std::string benchmark_json = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace") {
      args.trace = true;
      args.trace_path = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--benchmark-json") {
      benchmark_json = value;
    } else {
      return Usage();
    }
  }
  if (args.smoke) return RunSmoke(args.workdir, benchmark_json);
  auto spec = MakeSpec(args.workload, false);
  if (!spec.ok() || !(args.seconds >= 1.0)) return Usage();

  RunOutput out;
  Status st = RunWorkload(args, spec.value(), &out);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
    return 1;
  }
  PrintMetrics(out);
  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::trunc);
    f << RunJson(args, out) << "\n";
    if (!f.flush()) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  if (args.trace &&
      (out.coverage < kCoverageLo || out.coverage > kCoverageHi)) {
    std::fprintf(stderr,
                 "bench_e2e: warning: layers cover %.3f of the handle time "
                 "(gate [%.2f, %.2f])\n",
                 out.coverage, kCoverageLo, kCoverageHi);
  }
  if (!out.correct) {
    std::fprintf(stderr,
                 "bench_e2e: %lld of %lld requests failed, %lld replay "
                 "mismatch(es)\n",
                 static_cast<long long>(out.failed),
                 static_cast<long long>(out.attempted),
                 static_cast<long long>(out.replay_mismatches));
    return 3;
  }
  return 0;
}
