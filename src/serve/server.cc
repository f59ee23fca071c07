#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <string_view>

#include "io/json_parse.h"
#include "io/report_json.h"
#include "obs/metrics.h"
#include "store/store.h"
#include "util/deadline.h"

namespace ftl::serve {

namespace {

/// Metric label order; "other" collects unrouted paths, "admission"
/// collects 503s rejected before routing (queue full).
constexpr const char* kEndpointNames[] = {
    "/v1/query", "/v1/rank",        "/v1/ingest", "/metrics", "/healthz",
    "/readyz",   "/admin/shutdown", "other",      "admission"};
constexpr size_t kNumEndpoints = sizeof(kEndpointNames) / sizeof(char*);
constexpr size_t kEndpointOther = 7;
constexpr size_t kEndpointAdmission = 8;

/// Statuses with pre-resolved counters; anything else resolves through
/// the registry mutex on first sight (rare by construction).
constexpr int kCodes[] = {200, 400, 404, 405, 408, 413, 499, 500, 503};
constexpr size_t kNumCodes = sizeof(kCodes) / sizeof(int);

std::string RequestsCounterName(size_t endpoint_idx, int code) {
  return std::string("ftl_serve_requests_total{endpoint=\"") +
         kEndpointNames[endpoint_idx] + "\",code=\"" + std::to_string(code) +
         "\"}";
}

void SetSocketTimeouts(int fd, int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// JSON error payload: {"error":{"code":"NotFound","message":"..."}}.
/// The code string is the StatusCode name, so API clients and CLI
/// scripts branch on the same vocabulary (docs/API.md).
HttpResponse ErrorResponse(const Status& status) {
  io::JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.Value(StatusCodeName(status.code()));
  w.Key("message");
  w.Value(status.message());
  w.EndObject();
  w.EndObject();
  HttpResponse resp;
  resp.status = HttpStatusForStatus(status);
  resp.body = w.str();
  return resp;
}

HttpResponse MethodNotAllowed(const std::string& allow) {
  HttpResponse resp = ErrorResponse(
      Status::InvalidArgument("method not allowed; use " + allow));
  resp.status = 405;
  resp.extra_headers.emplace_back("Allow", allow);
  return resp;
}

/// Reads the optional shared request fields ("matcher", "top",
/// "deadline_ms") of a /v1/query or /v1/rank body.
Status ParseCommonFields(const io::JsonValue& root,
                         core::Matcher default_matcher,
                         core::Matcher* matcher, int64_t* top,
                         int64_t* deadline_ms) {
  *matcher = default_matcher;
  if (const io::JsonValue* m = root.Find("matcher")) {
    if (!m->is_string()) {
      return Status::InvalidArgument("'matcher' must be a string");
    }
    auto parsed = core::ParseMatcher(m->AsString());
    if (!parsed.ok()) {
      return Status::InvalidArgument("'matcher': " +
                                     parsed.status().message());
    }
    *matcher = parsed.value();
  }
  if (const io::JsonValue* t = root.Find("top")) {
    auto v = t->AsInt64();
    if (!v.ok() || v.value() < 0) {
      return Status::InvalidArgument("'top' must be a non-negative integer");
    }
    *top = v.value();
  }
  if (const io::JsonValue* d = root.Find("deadline_ms")) {
    auto v = d->AsInt64();
    if (!v.ok() || v.value() <= 0) {
      return Status::InvalidArgument("'deadline_ms' must be a positive "
                                     "integer");
    }
    *deadline_ms = v.value();
  }
  return Status::OK();
}

/// The response for a /v1/query or /v1/rank result, cut to its `top`
/// candidates (all when negative). A fired deadline still carries its
/// prefix-consistent partial result; the 408 tells the client it is
/// partial.
HttpResponse ResultResponse(const std::string& label,
                            core::QueryResult result, int64_t top) {
  if (top >= 0 && result.candidates.size() > static_cast<size_t>(top)) {
    result.candidates.resize(static_cast<size_t>(top));
  }
  HttpResponse resp;
  resp.status = result.truncated ? HttpStatusForStatus(result.status) : 200;
  resp.body = io::QueryResultToJson(label, result);
  return resp;
}

/// InvalidArgument naming the first member of `object` that is not one
/// of `fields`, or that repeats an earlier one; `what` names the object.
Status CheckFields(const io::JsonValue& object,
                   std::initializer_list<std::string_view> fields,
                   const char* what) {
  const auto& members = object.members();
  for (size_t i = 0; i < members.size(); ++i) {
    const std::string& key = members[i].first;
    if (std::find(fields.begin(), fields.end(), key) == fields.end()) {
      return Status::InvalidArgument(std::string(what) +
                                     " has unknown field '" + key + "'");
    }
    for (size_t j = 0; j < i; ++j) {
      if (members[j].first == key) {
        return Status::InvalidArgument(std::string(what) +
                                       " repeats field '" + key + "'");
      }
    }
  }
  return Status::OK();
}

/// Parses the body of a POST endpoint into its JSON object root, which
/// may hold only `fields`, each at most once.
Result<io::JsonValue> ParseBodyObject(
    const HttpRequest& req, std::initializer_list<std::string_view> fields) {
  auto parsed = io::ParseJson(req.body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  FTL_RETURN_NOT_OK(CheckFields(parsed.value(), fields, "request"));
  return parsed;
}

}  // namespace

struct FtlServer::MetricHandles {
  obs::Counter* requests[kNumEndpoints][kNumCodes];
  obs::Counter* rejected;
  obs::Counter* connections;
  obs::Gauge* queue_depth;
  obs::Gauge* inflight;
  obs::Gauge* draining;
  obs::Histogram* latency_us;

  MetricHandles() {
    auto& reg = obs::MetricsRegistry::Global();
    for (size_t e = 0; e < kNumEndpoints; ++e) {
      for (size_t c = 0; c < kNumCodes; ++c) {
        requests[e][c] = &reg.GetCounter(RequestsCounterName(e, kCodes[c]));
      }
    }
    rejected = &reg.GetCounter("ftl_serve_rejected_total");
    connections = &reg.GetCounter("ftl_serve_connections_total");
    queue_depth = &reg.GetGauge("ftl_serve_queue_depth");
    inflight = &reg.GetGauge("ftl_serve_inflight");
    draining = &reg.GetGauge("ftl_serve_draining");
    latency_us = &reg.GetHistogram("ftl_serve_request_latency_us");
  }
};

FtlServer::FtlServer(ServeOptions options, const core::FtlEngine* engine,
                     const traj::TrajectoryDatabase* p,
                     std::shared_ptr<const store::StoreSnapshot> q)
    : options_(std::move(options)),
      engine_(engine),
      p_(p),
      static_q_(std::move(q)) {
  ready_.store(options_.start_ready, std::memory_order_release);
}

FtlServer::FtlServer(ServeOptions options, const core::FtlEngine* engine,
                     const traj::TrajectoryDatabase* p, store::Store* store)
    : options_(std::move(options)), engine_(engine), p_(p), store_(store) {
  ready_.store(options_.start_ready, std::memory_order_release);
}

FtlServer::~FtlServer() {
  Shutdown();
  Wait();
}

Status FtlServer::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  if (engine_ == nullptr || p_ == nullptr ||
      (static_q_ == nullptr) == (store_ == nullptr)) {
    return Status::InvalidArgument(
        "engine, P, and exactly one candidate side (Q or store) are "
        "required");
  }
  // With start_ready=false training happens behind the readiness gate
  // (store mode: bind, recover, train, MarkReady), so the trained
  // check moves to the first gated request.
  if (options_.start_ready && !engine_->trained()) {
    return Status::FailedPrecondition("engine must be trained before serving");
  }
  if (options_.max_queue == 0) {
    return Status::InvalidArgument("--max-queue must be at least 1");
  }
  if (options_.store_query_threads == 0) {
    return Status::InvalidArgument("--query-threads must be at least 1");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad IPv4 listen address '" +
                                   options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::IOError("bind " + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  metrics_ = std::make_unique<MetricHandles>();
  metrics_->draining->Set(0);
  uptime_.Reset();

  size_t workers = options_.num_threads;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 4;
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  for (size_t i = 0; i < workers; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_.store(true);
  return Status::OK();
}

void FtlServer::Shutdown() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  if (metrics_) metrics_->draining->Set(1);
  queue_cv_.notify_all();
}

void FtlServer::Wait() {
  std::lock_guard<std::mutex> lk(wait_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_) pool_->Wait();
}

void FtlServer::AcceptLoop() {
  // Canned admission rejection; Retry-After tells well-behaved clients
  // to back off for a beat instead of hammering the full queue.
  HttpResponse reject =
      ErrorResponse(Status::OutOfRange("request queue is full"));
  reject.status = 503;
  reject.extra_headers.emplace_back("Retry-After", "1");
  const std::string reject_bytes = SerializeResponse(reject);

  while (true) {
    if (draining_.load(std::memory_order_acquire)) break;
    if (options_.stop_flag != nullptr &&
        options_.stop_flag->load(std::memory_order_acquire) != 0) {
      break;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, static_cast<int>(options_.poll_interval_ms));
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      break;
    }
    metrics_->connections->Add(1);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!draining_.load(std::memory_order_relaxed) &&
          queue_.size() < options_.max_queue) {
        queue_.push_back(fd);
        metrics_->queue_depth->Set(static_cast<int64_t>(queue_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
      continue;
    }
    metrics_->rejected->Add(1);
    SetSocketTimeouts(fd, 1000);
    (void)WriteFull(fd, reject_bytes);
    ::close(fd);
    RecordRequest(kEndpointAdmission, 503, 0);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Reached via Shutdown(), stop_flag, or a hard accept error: in all
  // cases the drain contract is the same — workers finish what was
  // already admitted, then exit.
  Shutdown();
}

void FtlServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] {
        return !queue_.empty() || draining_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) break;  // draining and nothing left: exit
      fd = queue_.front();
      queue_.pop_front();
      metrics_->queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    HandleConnection(fd);
  }
}

void FtlServer::HandleConnection(int fd) {
  Stopwatch sw;
  metrics_->inflight->Add(1);
  SetSocketTimeouts(fd, options_.io_timeout_ms);
  HttpLimits limits;
  limits.max_body_bytes = options_.max_body_bytes;
  auto req = ReadHttpRequest(fd, limits);
  size_t endpoint_idx = kEndpointOther;
  if (!req.ok()) {
    if (req.status().code() == StatusCode::kIOError) {
      // Timeout / peer reset / close before a full request: nothing to
      // answer, and no request to account for.
      ::close(fd);
      metrics_->inflight->Sub(1);
      return;
    }
    HttpResponse resp = ErrorResponse(req.status());
    // Size-limit violations are 413, not the generic retryable 503.
    if (req.status().code() == StatusCode::kOutOfRange) resp.status = 413;
    (void)WriteFull(fd, SerializeResponse(resp));
    ::close(fd);
    RecordRequest(endpoint_idx, resp.status,
                  static_cast<int64_t>(sw.ElapsedSeconds() * 1e6));
    metrics_->inflight->Sub(1);
    return;
  }
  HttpResponse resp = Dispatch(req.value(), &endpoint_idx);
  (void)WriteFull(fd, SerializeResponse(resp));
  ::close(fd);
  RecordRequest(endpoint_idx, resp.status,
                static_cast<int64_t>(sw.ElapsedSeconds() * 1e6));
  metrics_->inflight->Sub(1);
}

HttpResponse FtlServer::Dispatch(const HttpRequest& req,
                                 size_t* endpoint_idx) {
  std::string path = req.target.substr(0, req.target.find('?'));
  // The /v1/* endpoints sit behind the readiness gate: before
  // MarkReady() the engine may not be trained (store mode trains after
  // recovery), so they answer a retryable 503. Probes and /metrics
  // stay open throughout.
  auto gated = [&](size_t idx, const char* method,
                   HttpResponse (FtlServer::*handler)(const HttpRequest&))
      -> HttpResponse {
    *endpoint_idx = idx;
    if (req.method != method) return MethodNotAllowed(method);
    if (!ready_.load(std::memory_order_acquire)) {
      HttpResponse resp = ErrorResponse(Status::FailedPrecondition(
          "server is warming up (recovery/training in progress)"));
      resp.extra_headers.emplace_back("Retry-After", "1");
      return resp;
    }
    return (this->*handler)(req);
  };
  if (path == "/v1/query") return gated(0, "POST", &FtlServer::HandleQuery);
  if (path == "/v1/rank") return gated(1, "POST", &FtlServer::HandleRank);
  if (path == "/v1/ingest") return gated(2, "POST", &FtlServer::HandleIngest);
  if (path == "/metrics") {
    *endpoint_idx = 3;
    if (req.method != "GET") return MethodNotAllowed("GET");
    return HandleMetrics();
  }
  if (path == "/healthz") {
    *endpoint_idx = 4;
    if (req.method != "GET") return MethodNotAllowed("GET");
    return HandleHealthz();
  }
  if (path == "/readyz") {
    *endpoint_idx = 5;
    if (req.method != "GET") return MethodNotAllowed("GET");
    return HandleReadyz();
  }
  if (path == "/admin/shutdown") {
    *endpoint_idx = 6;
    if (req.method != "POST") return MethodNotAllowed("POST");
    return HandleShutdown();
  }
  *endpoint_idx = kEndpointOther;
  return ErrorResponse(Status::NotFound("no such endpoint: " + path));
}

HttpResponse FtlServer::HandleQuery(const HttpRequest& req) {
  auto parsed =
      ParseBodyObject(req, {"query", "matcher", "top", "deadline_ms"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const io::JsonValue& root = parsed.value();
  const io::JsonValue* label_v = root.Find("query");
  if (label_v == nullptr || !label_v->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("missing string field 'query'"));
  }
  core::Matcher matcher;
  int64_t top = -1;
  int64_t deadline_ms = options_.request_deadline_ms;
  Status st = ParseCommonFields(root, options_.default_matcher, &matcher,
                                &top, &deadline_ms);
  if (!st.ok()) return ErrorResponse(st);

  const std::string& label = label_v->AsString();
  size_t idx = p_->Find(label);
  if (idx == traj::TrajectoryDatabase::npos) {
    return ErrorResponse(
        Status::NotFound("query label '" + label + "' not in P"));
  }
  core::QueryOptions qopts;
  if (deadline_ms > 0) qopts.deadline = Deadline::AfterMillis(deadline_ms);
  auto r = Snapshot()->Query(*engine_, (*p_)[idx], matcher, &qopts,
                             options_.store_query_threads);
  if (!r.ok()) return ErrorResponse(r.status());
  return ResultResponse(label, std::move(r).value(), top);
}

HttpResponse FtlServer::HandleRank(const HttpRequest& req) {
  auto parsed = ParseBodyObject(
      req, {"query", "candidates", "matcher", "top", "deadline_ms"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const io::JsonValue& root = parsed.value();
  const io::JsonValue* label_v = root.Find("query");
  if (label_v == nullptr || !label_v->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("missing string field 'query'"));
  }
  const io::JsonValue* cands_v = root.Find("candidates");
  if (cands_v == nullptr || !cands_v->is_array() ||
      cands_v->items().empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "missing non-empty array field 'candidates'"));
  }
  core::Matcher matcher;
  int64_t top = -1;
  int64_t deadline_ms = options_.request_deadline_ms;
  Status st = ParseCommonFields(root, options_.default_matcher, &matcher,
                                &top, &deadline_ms);
  if (!st.ok()) return ErrorResponse(st);

  const std::string& label = label_v->AsString();
  size_t qidx = p_->Find(label);
  if (qidx == traj::TrajectoryDatabase::npos) {
    return ErrorResponse(
        Status::NotFound("query label '" + label + "' not in P"));
  }
  std::vector<std::string> labels;
  labels.reserve(cands_v->items().size());
  for (const io::JsonValue& c : cands_v->items()) {
    if (!c.is_string()) {
      return ErrorResponse(
          Status::InvalidArgument("'candidates' entries must be strings"));
    }
    labels.push_back(c.AsString());
  }
  core::QueryOptions qopts;
  if (deadline_ms > 0) qopts.deadline = Deadline::AfterMillis(deadline_ms);
  auto r = Snapshot()->Rank(*engine_, (*p_)[qidx], labels, matcher, &qopts);
  if (!r.ok()) return ErrorResponse(r.status());
  return ResultResponse(label, std::move(r).value(), top);
}

HttpResponse FtlServer::HandleIngest(const HttpRequest& req) {
  if (store_ == nullptr) {
    return ErrorResponse(Status::InvalidArgument(
        "ingest requires store mode (`ftl serve --store`)"));
  }
  auto parsed = ParseBodyObject(req, {"records"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const io::JsonValue& root = parsed.value();
  const io::JsonValue* records_v = root.Find("records");
  if (records_v == nullptr || !records_v->is_array() ||
      records_v->items().empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "missing non-empty array field 'records'"));
  }
  store::IngestBatch batch;
  batch.rows.reserve(records_v->items().size());
  for (const io::JsonValue& rec : records_v->items()) {
    if (!rec.is_object()) {
      return ErrorResponse(
          Status::InvalidArgument("'records' entries must be objects"));
    }
    Status fields = CheckFields(rec, {"label", "t", "x", "y", "owner"},
                                "record");
    if (!fields.ok()) return ErrorResponse(fields);
    store::IngestRow row;
    const io::JsonValue* label_v = rec.Find("label");
    if (label_v == nullptr || !label_v->is_string() ||
        label_v->AsString().empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "record missing non-empty string field 'label'"));
    }
    row.label = label_v->AsString();
    const io::JsonValue* t_v = rec.Find("t");
    if (t_v == nullptr || !t_v->is_number()) {
      return ErrorResponse(
          Status::InvalidArgument("record missing number field 't'"));
    }
    auto t = t_v->AsInt64();
    if (!t.ok()) {
      return ErrorResponse(
          Status::InvalidArgument("record field 't' must be an integer"));
    }
    row.t = t.value();
    const io::JsonValue* x_v = rec.Find("x");
    const io::JsonValue* y_v = rec.Find("y");
    if (x_v == nullptr || !x_v->is_number() || y_v == nullptr ||
        !y_v->is_number()) {
      return ErrorResponse(
          Status::InvalidArgument("record missing number fields 'x'/'y'"));
    }
    row.x = x_v->AsDouble();
    row.y = y_v->AsDouble();
    if (const io::JsonValue* o = rec.Find("owner")) {
      auto v = o->AsInt64();
      if (!v.ok() || v.value() < 0) {
        return ErrorResponse(Status::InvalidArgument(
            "record field 'owner' must be a non-negative integer"));
      }
      row.owner = static_cast<traj::OwnerId>(v.value());
    }
    batch.rows.push_back(std::move(row));
  }
  Status st = store_->Append(batch);
  if (!st.ok()) {
    HttpResponse resp = ErrorResponse(st);
    // Backpressure (OutOfRange -> 503) is retryable; say so.
    if (st.code() == StatusCode::kOutOfRange) {
      resp.extra_headers.emplace_back("Retry-After", "1");
    }
    return resp;
  }
  io::JsonWriter w;
  w.BeginObject();
  w.Key("appended");
  w.Value(static_cast<uint64_t>(batch.rows.size()));
  w.Key("generation");
  w.Value(store_->generation());
  w.Key("memtable_records");
  w.Value(static_cast<uint64_t>(store_->memtable_records()));
  w.Key("total_records");
  w.Value(static_cast<uint64_t>(store_->total_records()));
  w.EndObject();
  HttpResponse resp;
  resp.body = w.str();
  return resp;
}

HttpResponse FtlServer::HandleHealthz() const {
  io::JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.Value(draining_.load(std::memory_order_acquire)
              ? "draining"
              : (ready_.load(std::memory_order_acquire) ? "ok"
                                                        : "starting"));
  w.Key("uptime_seconds");
  w.Value(uptime_.ElapsedSeconds());
  w.Key("p_trajectories");
  w.Value(static_cast<uint64_t>(p_->size()));
  if (static_q_ != nullptr) {
    w.Key("q_trajectories");
    w.Value(static_cast<uint64_t>(static_q_->size()));
  }
  if (store_ != nullptr) {
    w.Key("store");
    w.BeginObject();
    w.Key("recovered");
    w.Value(store_->recovered());
    w.Key("generation");
    w.Value(store_->generation());
    w.Key("segments");
    w.Value(static_cast<uint64_t>(store_->num_segments()));
    w.Key("memtable_records");
    w.Value(static_cast<uint64_t>(store_->memtable_records()));
    w.Key("total_records");
    w.Value(static_cast<uint64_t>(store_->total_records()));
    w.EndObject();
  }
  w.Key("queue_depth");
  w.Value(metrics_->queue_depth->Value());
  w.Key("requests_handled");
  w.Value(requests_handled_.load(std::memory_order_relaxed));
  w.EndObject();
  HttpResponse resp;
  resp.body = w.str();
  return resp;
}

HttpResponse FtlServer::HandleReadyz() const {
  const bool draining = draining_.load(std::memory_order_acquire);
  const bool is_ready = ready_.load(std::memory_order_acquire) && !draining;
  io::JsonWriter w;
  w.BeginObject();
  w.Key("ready");
  w.Value(is_ready);
  if (!is_ready) {
    w.Key("reason");
    w.Value(draining ? "draining" : "recovery/training in progress");
  }
  w.EndObject();
  HttpResponse resp;
  resp.status = is_ready ? 200 : 503;
  resp.body = w.str();
  if (!is_ready && !draining) {
    resp.extra_headers.emplace_back("Retry-After", "1");
  }
  return resp;
}

HttpResponse FtlServer::HandleMetrics() const {
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = obs::DumpPrometheus();
  return resp;
}

HttpResponse FtlServer::HandleShutdown() {
  Shutdown();
  HttpResponse resp;
  resp.body = "{\"status\":\"draining\"}";
  return resp;
}

std::shared_ptr<const store::StoreSnapshot> FtlServer::Snapshot() const {
  return store_ != nullptr ? store_->Snapshot() : static_q_;
}

void FtlServer::RecordRequest(size_t endpoint_idx, int status,
                              int64_t latency_us) {
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  metrics_->latency_us->Record(latency_us);
  for (size_t c = 0; c < kNumCodes; ++c) {
    if (kCodes[c] == status) {
      metrics_->requests[endpoint_idx][c]->Add(1);
      return;
    }
  }
  // Unlisted status (should not happen): resolve through the registry.
  obs::MetricsRegistry::Global()
      .GetCounter(RequestsCounterName(endpoint_idx, status))
      .Add(1);
}

namespace {

std::atomic<std::atomic<int>*> g_shutdown_flag{nullptr};

void OnShutdownSignal(int) {
  std::atomic<int>* flag = g_shutdown_flag.load(std::memory_order_relaxed);
  if (flag != nullptr) flag->store(1, std::memory_order_relaxed);
}

}  // namespace

void InstallShutdownSignalHandlers(std::atomic<int>* flag) {
  g_shutdown_flag.store(flag, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

}  // namespace ftl::serve
