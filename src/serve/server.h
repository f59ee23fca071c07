#ifndef FTL_SERVE_SERVER_H_
#define FTL_SERVE_SERVER_H_

/// \file server.h
/// FtlServer: the `ftl serve` long-lived query daemon. A resident
/// process loads the databases once (FTB shards mmap through the
/// normal loaders), trains the engine once, and then answers many
/// concurrent queries over a small HTTP/1.1 JSON API:
///
///   POST /v1/query       score one query label against all of Q
///   POST /v1/rank        score one query label against named candidates
///   POST /v1/ingest      append trajectory records (store mode only)
///   GET  /metrics        Prometheus text exposition of the process
///                        metrics registry (src/obs)
///   GET  /healthz        liveness snapshot (always 200 while the
///                        process can answer)
///   GET  /readyz         readiness probe: 503 until recovery/training
///                        completes and again once draining begins
///   POST /admin/shutdown begin a graceful drain
///
/// The candidate side Q is either a static database, held as a fixed
/// one-segment store::StoreSnapshot (StoreSnapshot::Static), or a
/// store::Store (store mode), whose current snapshot answers each
/// request — byte-identical to the merged database — and where
/// POST /v1/ingest appends through the WAL, visible to the next query
/// immediately. Both modes score through StoreSnapshot::Query/Rank.
///
/// Threading model (DESIGN.md §11): one accept thread owns the listen
/// socket and performs admission control — when the bounded request
/// queue is full it answers 503 with Retry-After instead of queueing —
/// and N worker tasks on the PR 1 ThreadPool pop connections and run
/// the engine. Per-request deadlines reuse core::QueryOptions /
/// Deadline (PR 2): an expired request returns HTTP 408 carrying the
/// prefix-consistent partial result. Results are byte-identical to
/// one-shot `ftl link --json` runs because both paths call the same
/// StoreSnapshot entry points and the same JSON serializer.
///
/// Graceful drain: Shutdown() (or SIGTERM via
/// InstallShutdownSignalHandlers, or POST /admin/shutdown) stops the
/// accept loop; already-accepted requests — queued and in-flight —
/// still complete before Wait() returns.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <condition_variable>

#include "core/engine.h"
#include "serve/http.h"
#include "traj/database.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftl::store {
class Store;
class StoreSnapshot;
}  // namespace ftl::store

namespace ftl::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace ftl::obs

namespace ftl::serve {

/// Daemon configuration. The defaults match `ftl serve` flag defaults
/// documented in docs/OPERATIONS.md.
struct ServeOptions {
  /// IPv4 address and port to bind. Port 0 binds an ephemeral port;
  /// FtlServer::port() reports the resolved one (tests/bench).
  std::string host = "127.0.0.1";
  int port = 8080;

  /// Worker tasks popping the request queue; 0 = hardware concurrency.
  size_t num_threads = 0;

  /// Bounded request-queue capacity. An accepted connection beyond
  /// this is answered 503 + `Retry-After: 1` and closed (admission
  /// control), so overload degrades with fast rejections instead of
  /// unbounded queueing.
  size_t max_queue = 128;

  /// Default per-request deadline in ms (0 = none). A request body may
  /// set its own `deadline_ms`; the server default applies otherwise.
  /// Expired requests answer 408 with the partial result.
  int64_t request_deadline_ms = 0;

  /// Matcher when a request does not name one.
  core::Matcher default_matcher = core::Matcher::kNaiveBayes;

  /// Socket read/write timeout per connection (slowloris guard).
  int64_t io_timeout_ms = 5000;

  /// Accept-loop poll tick: the latency bound on noticing Shutdown()
  /// or `stop_flag`.
  int64_t poll_interval_ms = 50;

  /// Request-body size cap (413 beyond it).
  size_t max_body_bytes = 1024 * 1024;

  /// Optional external drain trigger, polled by the accept loop every
  /// `poll_interval_ms`: when non-null and *stop_flag becomes non-zero
  /// the server begins the same graceful drain as Shutdown(). Wired to
  /// SIGTERM/SIGINT by InstallShutdownSignalHandlers.
  const std::atomic<int>* stop_flag = nullptr;

  /// Per-request parallel fan-out (`--query-threads`). Each /v1/query
  /// shards the snapshot's walk onto this many threads
  /// (StoreSnapshot::Query num_threads), over a static Q as over a
  /// store — results stay byte-identical to the serial walk. Total
  /// concurrency is num_threads × store_query_threads; keep the product
  /// within the machine or set `--threads` down to compensate
  /// (CmdServe's auto-sizing does this when `--threads` is unset).
  size_t store_query_threads = 1;

  /// When false the server starts NOT ready: /readyz answers 503 and
  /// the /v1/* endpoints reject with 503 + Retry-After until
  /// MarkReady() is called. This lets `ftl serve --store` bind its
  /// port (so probes see the process) before the possibly-long store
  /// recovery + engine training run. With true (the default) the
  /// engine must already be trained at Start().
  bool start_ready = true;
};

/// The daemon. The engine and P must outlive the server and are never
/// mutated by it; `engine` must already be trained with
/// `num_threads == 1` (request-level parallelism comes from the worker
/// pool and `store_query_threads`, not the engine's own threads).
class FtlServer {
 public:
  /// Static Q: every request scores against the fixed snapshot `q`
  /// (see StoreSnapshot::Static, which also carries the blocking mode).
  FtlServer(ServeOptions options, const core::FtlEngine* engine,
            const traj::TrajectoryDatabase* p,
            std::shared_ptr<const store::StoreSnapshot> q);

  /// Store mode: the candidate side is a mutable store::Store instead
  /// of a static Q. /v1/query and /v1/rank evaluate against the
  /// store's current snapshot and /v1/ingest appends to it. The store
  /// must outlive the server; it need not be recovered yet when
  /// `options.start_ready` is false (recover, train, then MarkReady()).
  FtlServer(ServeOptions options, const core::FtlEngine* engine,
            const traj::TrajectoryDatabase* p, store::Store* store);

  /// Shutdown() + Wait().
  ~FtlServer();

  FtlServer(const FtlServer&) = delete;
  FtlServer& operator=(const FtlServer&) = delete;

  /// Binds, listens, and spawns the accept thread + worker tasks.
  /// InvalidArgument / FailedPrecondition on bad config or an
  /// untrained engine; IOError when the bind fails.
  Status Start();

  /// The bound port (after Start); useful with options.port == 0.
  int port() const { return port_; }

  /// Begins a graceful drain: stop accepting, finish queued and
  /// in-flight requests. Non-blocking and idempotent; safe to call
  /// from a worker (the /admin/shutdown handler does).
  void Shutdown();

  /// Blocks until the drain completes and all threads have exited.
  void Wait();

  /// True once Shutdown() / stop_flag / /admin/shutdown triggered.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Flips the readiness gate open (no-op when already ready). In
  /// store mode call this only after Recover() and engine training
  /// have completed; until then /v1/* answer 503.
  void MarkReady() { ready_.store(true, std::memory_order_release); }

  /// True when /readyz would answer 200 (ready and not draining).
  bool ready() const {
    return ready_.load(std::memory_order_acquire) &&
           !draining_.load(std::memory_order_acquire);
  }

  /// Requests answered so far (any status), for tests.
  int64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }

 private:
  struct MetricHandles;

  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);

  /// Routes one parsed request; returns the response plus the endpoint
  /// index used for metric labels.
  HttpResponse Dispatch(const HttpRequest& req, size_t* endpoint_idx);

  HttpResponse HandleQuery(const HttpRequest& req);
  HttpResponse HandleRank(const HttpRequest& req);
  HttpResponse HandleIngest(const HttpRequest& req);
  HttpResponse HandleHealthz() const;
  HttpResponse HandleReadyz() const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleShutdown();

  void RecordRequest(size_t endpoint_idx, int status, int64_t latency_us);

  /// The snapshot a request scores against: the store's current one,
  /// or the static Q.
  std::shared_ptr<const store::StoreSnapshot> Snapshot() const;

  ServeOptions options_;
  const core::FtlEngine* engine_;
  const traj::TrajectoryDatabase* p_;
  std::shared_ptr<const store::StoreSnapshot> static_q_;  // null in store mode
  store::Store* store_ = nullptr;  // store mode; null with a static Q

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
  Stopwatch uptime_;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;  // accepted connection fds awaiting a worker
  std::mutex wait_mu_;     // serializes Wait() callers

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> ready_{true};
  std::atomic<int64_t> requests_handled_{0};

  std::unique_ptr<MetricHandles> metrics_;
};

/// Installs SIGTERM/SIGINT handlers that store 1 into `*flag` (which
/// must outlive the process's use of the handlers). Pair with
/// ServeOptions::stop_flag for signal-triggered graceful drain.
void InstallShutdownSignalHandlers(std::atomic<int>* flag);

}  // namespace ftl::serve

#endif  // FTL_SERVE_SERVER_H_
