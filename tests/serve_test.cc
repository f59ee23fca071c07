// `ftl serve` daemon coverage: HTTP framing, the status-mapping
// contract, byte-identity between the serve path and direct engine
// calls, admission control under a full queue, per-request deadlines
// (408 + prefix-consistent partial), and graceful drain on Shutdown(),
// /admin/shutdown, and SIGTERM.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "io/json_parse.h"
#include "io/report_json.h"
#include "serve/http.h"
#include "sim/population_sim.h"
#include "store/store.h"
#include "util/failpoint.h"

namespace ftl {
namespace {

using core::EngineOptions;
using core::FtlEngine;
using core::Matcher;
using serve::FtlServer;
using serve::HttpRequestOnce;
using serve::HttpResponse;
using serve::ServeOptions;

// ------------------------------------------------------ status mapping

TEST(HttpStatusForStatusTest, CoversTheSharedTable) {
  EXPECT_EQ(serve::HttpStatusForStatus(Status::OK()), 200);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::DeadlineExceeded("x")), 408);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::Cancelled("x")), 499);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::FailedPrecondition("x")), 503);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::OutOfRange("x")), 503);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::IOError("x")), 500);
  EXPECT_EQ(serve::HttpStatusForStatus(Status::Internal("x")), 500);
}

TEST(HttpFramingTest, SerializeResponseFramesContentLength) {
  HttpResponse resp;
  resp.status = 503;
  resp.extra_headers.emplace_back("Retry-After", "1");
  resp.body = "{}";
  std::string wire = serve::SerializeResponse(resp);
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 2), "{}");
}

// --------------------------------------------------------- the daemon

EngineOptions ServeEngineOptions() {
  EngineOptions o;
  o.training.horizon_units = 20;
  o.training.acceptance_pairs_per_db = 100;
  o.alpha = {0.01, 0.2};
  o.naive_bayes.phi_r = 0.05;
  o.num_threads = 1;  // request-level parallelism only
  return o;
}

// One trained engine + population for the whole suite (training per
// test would dominate runtime).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::PopulationOptions po;
    po.num_persons = 20;
    po.duration_days = 3;
    po.cdr_accesses_per_day = 15.0;
    po.transit_accesses_per_day = 15.0;
    po.seed = 23;
    data_ = new sim::PopulationData(sim::SimulatePopulation(po));
    engine_ = new FtlEngine(ServeEngineOptions());
    ASSERT_TRUE(engine_->Train(data_->cdr_db, data_->transit_db).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete data_;
    engine_ = nullptr;
    data_ = nullptr;
  }
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }

  // Starts a daemon on an ephemeral port.
  ServeOptions EphemeralOptions() {
    ServeOptions so;
    so.port = 0;
    so.num_threads = 4;
    return so;
  }

  static sim::PopulationData* data_;
  static FtlEngine* engine_;
};

sim::PopulationData* ServeTest::data_ = nullptr;
FtlEngine* ServeTest::engine_ = nullptr;

// A /v1/rank body naming every trajectory of `db` in index order, so
// request positions equal candidate indices; `extra` adds fields.
std::string RankAllBody(const std::string& query,
                        const traj::TrajectoryDatabase& db,
                        const std::string& extra = "") {
  std::string body = "{\"query\":\"" + query + "\",\"candidates\":[";
  for (size_t i = 0; i < db.size(); ++i) {
    body += (i > 0 ? ",\"" : "\"") + db[i].label() + "\"";
  }
  return body + "]" + extra + "}";
}

// A /v1/rank answer cut short by a deadline: 408, and its candidates
// are the complete ranking `full` over the same request restricted to
// the evaluated prefix of the request order.
void ExpectRankPrefixPartial(const Result<HttpResponse>& r,
                             const core::QueryResult& full,
                             size_t requested) {
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 408) << r.value().body;
  auto parsed = io::ParseJson(r.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const io::JsonValue& body = parsed.value();
  EXPECT_TRUE(body.Find("truncated")->AsBool());
  auto evaluated = body.Find("evaluated")->AsInt64();
  ASSERT_TRUE(evaluated.ok());
  ASSERT_LT(static_cast<size_t>(evaluated.value()), requested);
  std::vector<std::string> want;
  for (const auto& c : full.candidates) {
    if (c.index < static_cast<size_t>(evaluated.value())) {
      want.push_back(c.label);
    }
  }
  std::vector<std::string> got;
  for (const auto& c : body.Find("candidates")->items()) {
    got.push_back(c.Find("label")->AsString());
  }
  EXPECT_EQ(got, want);
}

TEST_F(ServeTest, StartRejectsBadConfig) {
  ServeOptions so = EphemeralOptions();
  so.max_queue = 0;
  FtlServer bad_queue(so, engine_, &data_->cdr_db, &data_->transit_db);
  EXPECT_EQ(bad_queue.Start().code(), StatusCode::kInvalidArgument);

  FtlEngine untrained(ServeEngineOptions());
  FtlServer bad_engine(EphemeralOptions(), &untrained, &data_->cdr_db,
                       &data_->transit_db);
  EXPECT_EQ(bad_engine.Start().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, HealthzReportsReadiness) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  auto r = HttpRequestOnce("127.0.0.1", server.port(), "GET", "/healthz", "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 200);
  auto parsed = io::ParseJson(r.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const io::JsonValue& h = parsed.value();
  EXPECT_EQ(h.Find("status")->AsString(), "ok");
  EXPECT_EQ(h.Find("p_trajectories")->AsDouble(), data_->cdr_db.size());
  EXPECT_EQ(h.Find("q_trajectories")->AsDouble(), data_->transit_db.size());
  server.Shutdown();
  server.Wait();
}

TEST_F(ServeTest, BadRequestsMapToTheContract) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  // Unknown path → 404 with a JSON error envelope.
  auto not_found = HttpRequestOnce("127.0.0.1", port, "GET", "/nope", "");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found.value().status, 404);
  EXPECT_NE(not_found.value().body.find("\"NotFound\""), std::string::npos);

  // Wrong method → 405 with Allow.
  auto bad_method = HttpRequestOnce("127.0.0.1", port, "GET", "/v1/query", "");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method.value().status, 405);

  // Malformed JSON body → 400.
  auto bad_json =
      HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query", "{nope");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status, 400);

  // Valid JSON, missing required field → 400.
  auto no_field =
      HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query", "{}");
  ASSERT_TRUE(no_field.ok());
  EXPECT_EQ(no_field.value().status, 400);

  // Unknown query label → 404.
  auto no_label = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                                  "{\"query\":\"no-such-label\"}");
  ASSERT_TRUE(no_label.ok());
  EXPECT_EQ(no_label.value().status, 404);

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeTest, OversizedBodyReturns413) {
  ServeOptions so = EphemeralOptions();
  so.max_body_bytes = 64;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  std::string big = "{\"query\":\"" + std::string(200, 'x') + "\"}";
  auto r = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/query",
                           big);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 413);
  server.Shutdown();
  server.Wait();
}

// The core contract: N concurrent clients each get a response that is
// byte-identical to calling FtlEngine directly and serializing with
// the same writer — the serve layer adds no numeric or ordering drift.
TEST_F(ServeTest, ConcurrentClientsGetByteIdenticalResults) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  constexpr size_t kClients = 8;
  std::vector<std::string> got(kClients), want(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (size_t i = 0; i < kClients; ++i) {
    const std::string label = data_->cdr_db[i].label();
    auto direct = engine_->Query(data_->cdr_db[i], data_->transit_db,
                                 Matcher::kNaiveBayes);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    want[i] = io::QueryResultToJson(label, direct.value());
    clients.emplace_back([&, i, label] {
      auto r = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                               "{\"query\":\"" + label + "\"}");
      if (!r.ok() || r.value().status != 200) {
        failures.fetch_add(1);
        return;
      }
      got[i] = r.value().body;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(got[i], want[i]) << "client " << i << " diverged";
  }
  server.Shutdown();
  server.Wait();
}

TEST_F(ServeTest, BlockedQueriesByteIdenticalInGuaranteedMode) {
  // Engine mode with --blocking guaranteed: the server builds the
  // index over Q at Start() and every /v1/query response must stay
  // byte-identical to direct exhaustive engine calls.
  ServeOptions so = EphemeralOptions();
  so.blocking_mode = core::BlockingMode::kGuaranteed;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();
  for (size_t i = 0; i < 6; ++i) {
    const std::string label = data_->cdr_db[i].label();
    auto direct = engine_->Query(data_->cdr_db[i], data_->transit_db,
                                 Matcher::kNaiveBayes);
    ASSERT_TRUE(direct.ok());
    auto r = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                             "{\"query\":\"" + label + "\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().status, 200);
    EXPECT_EQ(r.value().body, io::QueryResultToJson(label, direct.value()))
        << "query " << label;
  }
  server.Shutdown();
  server.Wait();
}

TEST_F(ServeTest, StartRejectsInvalidBlockingOptions) {
  ServeOptions so = EphemeralOptions();
  so.blocking_mode = core::BlockingMode::kAggressive;
  so.blocking.cell_size_meters = -1.0;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, RankMatchesQueryWithCandidates) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());

  const std::string query = data_->cdr_db[0].label();
  const std::string c0 = data_->transit_db[0].label();
  const std::string c3 = data_->transit_db[3].label();
  auto direct = engine_->QueryWithCandidates(
      data_->cdr_db[0], data_->transit_db, {0, 3}, Matcher::kNaiveBayes);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto r = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/rank",
                           "{\"query\":\"" + query + "\",\"candidates\":[\"" +
                               c0 + "\",\"" + c3 + "\"]}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 200);
  EXPECT_EQ(r.value().body, io::QueryResultToJson(query, direct.value()));

  // Unknown candidate label → 404.
  auto bad = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/rank",
                             "{\"query\":\"" + query +
                                 "\",\"candidates\":[\"no-such\"]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status, 404);

  server.Shutdown();
  server.Wait();
}

// Admission control: one worker, a queue of one, and slow queries. A
// burst of clients must see a mix of 200s and fast 503s — and every
// client must get SOME answer (no deadlock, no hung connection).
TEST_F(ServeTest, FullQueueRejectsWith503WithoutDeadlock) {
  ServeOptions so = EphemeralOptions();
  so.num_threads = 1;
  so.max_queue = 1;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  // ~5 ms per candidate x 20 candidates ≈ 100 ms per query: long
  // enough that a burst of 8 overflows worker+queue capacity.
  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 5});
  const std::string label = data_->cdr_db[0].label();

  constexpr size_t kClients = 8;
  std::vector<int> statuses(kClients, -1);
  // One byte per client: std::vector<bool> packs the flags into shared
  // words, so concurrent writes from the client threads would race.
  std::vector<uint8_t> saw_retry_after(kClients, 0);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto r = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                               "{\"query\":\"" + label + "\"}",
                               /*timeout_ms=*/10000);
      if (!r.ok()) return;
      statuses[i] = r.value().status;
      for (const auto& [name, value] : r.value().extra_headers) {
        if (name == "retry-after" && value == "1") saw_retry_after[i] = 1;
      }
    });
  }
  for (auto& t : clients) t.join();
  failpoint::DisarmAll();

  size_t ok = 0, rejected = 0;
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_NE(statuses[i], -1) << "client " << i << " got no response";
    if (statuses[i] == 200) ++ok;
    if (statuses[i] == 503) {
      ++rejected;
      EXPECT_TRUE(saw_retry_after[i])
          << "503 without Retry-After (client " << i << ")";
    }
  }
  EXPECT_EQ(ok + rejected, kClients);
  EXPECT_GE(ok, 1u) << "admission control rejected everything";
  EXPECT_GE(rejected, 1u) << "burst of 8 never overflowed queue of 1";

  // The daemon must still be healthy after the burst.
  auto h = HttpRequestOnce("127.0.0.1", port, "GET", "/healthz", "");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h.value().status, 200);

  server.Shutdown();
  server.Wait();
}

// Deadline handling: an expired request answers 408, and the partial
// result it carries is the full run truncated to the evaluated prefix
// (same contract as the engine-level deadline tests).
TEST_F(ServeTest, DeadlineExceededReturns408WithPrefixPartial) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());

  const std::string label = data_->cdr_db[0].label();
  auto full = engine_->Query(data_->cdr_db[0], data_->transit_db,
                             Matcher::kNaiveBayes);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 5});
  auto r = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/query",
                           "{\"query\":\"" + label + "\",\"deadline_ms\":20}");
  failpoint::DisarmAll();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 408);

  auto parsed = io::ParseJson(r.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const io::JsonValue& body = parsed.value();
  EXPECT_TRUE(body.Find("truncated")->AsBool());
  auto evaluated = body.Find("evaluated")->AsInt64();
  ASSERT_TRUE(evaluated.ok());
  ASSERT_LT(static_cast<size_t>(evaluated.value()),
            data_->transit_db.size());

  // Prefix consistency: every returned candidate appears in the full
  // run with the same label at the same index, and candidates are
  // exactly the full run filtered to index < evaluated.
  std::vector<std::string> want;
  for (const auto& c : full.value().candidates) {
    if (c.index < static_cast<size_t>(evaluated.value())) {
      want.push_back(c.label);
    }
  }
  std::vector<std::string> got;
  for (const auto& c : body.Find("candidates")->items()) {
    got.push_back(c.Find("label")->AsString());
  }
  EXPECT_EQ(got, want);

  server.Shutdown();
  server.Wait();
}

// A server-wide default deadline applies when the request names none.
TEST_F(ServeTest, ServerDefaultDeadlineApplies) {
  ServeOptions so = EphemeralOptions();
  so.request_deadline_ms = 20;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());

  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 5});
  auto r = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/query",
                           "{\"query\":\"" + data_->cdr_db[0].label() + "\"}");
  failpoint::DisarmAll();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 408);

  server.Shutdown();
  server.Wait();
}

// /v1/rank applies the server default deadline too, and answers 408
// with the prefix of the request order it reached.
TEST_F(ServeTest, RankAppliesServerDefaultDeadline) {
  ServeOptions so = EphemeralOptions();
  so.request_deadline_ms = 20;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());

  const std::string label = data_->cdr_db[0].label();
  std::vector<size_t> all(data_->transit_db.size());
  std::iota(all.begin(), all.end(), size_t{0});
  auto full = engine_->QueryWithCandidates(data_->cdr_db[0],
                                           data_->transit_db, all,
                                           Matcher::kNaiveBayes);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 5});
  auto r = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/rank",
                           RankAllBody(label, data_->transit_db));
  failpoint::DisarmAll();
  ExpectRankPrefixPartial(r, full.value(), all.size());

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeTest, MetricsEndpointExposesServeCounters) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  auto q = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                           "{\"query\":\"" + data_->cdr_db[0].label() + "\"}");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q.value().status, 200);

  auto m = HttpRequestOnce("127.0.0.1", port, "GET", "/metrics", "");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().status, 200);
  EXPECT_NE(m.value().content_type.find("text/plain"), std::string::npos);
  const std::string& text = m.value().body;
  EXPECT_NE(
      text.find(
          "ftl_serve_requests_total{endpoint=\"/v1/query\",code=\"200\"}"),
      std::string::npos);
  EXPECT_NE(text.find("ftl_serve_connections_total"), std::string::npos);
  EXPECT_NE(text.find("ftl_serve_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("ftl_serve_request_latency_us"), std::string::npos);

  server.Shutdown();
  server.Wait();
}

TEST_F(ServeTest, AdminShutdownDrains) {
  FtlServer server(EphemeralOptions(), engine_, &data_->cdr_db,
                   &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  auto r = HttpRequestOnce("127.0.0.1", port, "POST", "/admin/shutdown", "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status, 200);
  EXPECT_NE(r.value().body.find("\"draining\""), std::string::npos);
  server.Wait();
  EXPECT_TRUE(server.draining());

  // New connections are refused after the drain completes.
  auto after = HttpRequestOnce("127.0.0.1", port, "GET", "/healthz", "",
                               /*timeout_ms=*/500);
  EXPECT_FALSE(after.ok());
}

// Graceful drain: Shutdown() while a slow request is in flight must
// let it finish with a 200, not kill it.
TEST_F(ServeTest, ShutdownDrainsInFlightRequests) {
  ServeOptions so = EphemeralOptions();
  so.num_threads = 2;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 5});
  std::atomic<int> status{-1};
  std::thread client([&] {
    auto r = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                             "{\"query\":\"" + data_->cdr_db[0].label() +
                                 "\"}",
                             /*timeout_ms=*/10000);
    if (r.ok()) status.store(r.value().status);
  });
  // Let the request get in flight, then start the drain under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Shutdown();
  server.Wait();
  client.join();
  failpoint::DisarmAll();

  EXPECT_EQ(status.load(), 200) << "in-flight request was not drained";
  EXPECT_GE(server.requests_handled(), 1);
}

// SIGTERM → stop_flag → drain, end to end through the real handler.
TEST_F(ServeTest, SigtermTriggersGracefulDrain) {
  static std::atomic<int> stop_flag{0};
  stop_flag.store(0);
  serve::InstallShutdownSignalHandlers(&stop_flag);

  ServeOptions so = EphemeralOptions();
  so.stop_flag = &stop_flag;
  so.poll_interval_ms = 10;
  FtlServer server(so, engine_, &data_->cdr_db, &data_->transit_db);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  auto before = HttpRequestOnce("127.0.0.1", port, "GET", "/healthz", "");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().status, 200);

  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_EQ(stop_flag.load(), 1) << "signal handler did not set the flag";
  server.Wait();
  EXPECT_TRUE(server.draining());

  // Restore default disposition so a stray later SIGTERM isn't eaten.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

// Store mode with --query-threads > 1: the per-request parallel segment
// walk must keep every response byte-identical to a direct engine query
// over the materialized merged database.
TEST_F(ServeTest, StoreQueryThreadsByteIdentical) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("ftl_serve_qthreads." +
                      std::to_string(static_cast<long long>(::getpid()))))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store::StoreOptions sto;
  sto.wal_sync = store::WalSync::kNever;
  sto.flush_threshold_records = 60;
  std::unique_ptr<store::Store> store = store::Store::Create(dir, sto);

  ServeOptions so = EphemeralOptions();
  so.num_threads = 2;
  so.store_query_threads = 3;
  so.start_ready = false;
  FtlEngine engine(ServeEngineOptions());
  FtlServer server(so, &engine, &data_->cdr_db, store.get());
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  ASSERT_TRUE(store->Recover().ok());
  // Seed Q in per-trajectory halves so labels span segment boundaries.
  for (int round = 0; round < 2; ++round) {
    for (const traj::Trajectory& t : data_->transit_db) {
      store::IngestBatch b;
      size_t half = t.size() / 2;
      for (size_t i = round == 0 ? 0 : half;
           i < (round == 0 ? half : t.size()); ++i) {
        const traj::Record& r = t.records()[i];
        b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                          r.location.x, r.location.y});
      }
      if (!b.rows.empty()) ASSERT_TRUE(store->Append(b).ok());
    }
  }
  ASSERT_GE(store->num_segments(), 2u);
  traj::TrajectoryDatabase merged = store->MaterializeAll("store");
  ASSERT_TRUE(engine.Train(data_->cdr_db, merged).ok());
  server.MarkReady();

  for (size_t i = 0; i < 6 && i < data_->cdr_db.size(); ++i) {
    const std::string label = data_->cdr_db[i].label();
    auto direct = engine.Query(data_->cdr_db[i], merged,
                               Matcher::kNaiveBayes);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto r = HttpRequestOnce("127.0.0.1", port, "POST", "/v1/query",
                             "{\"query\":\"" + label + "\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().status, 200) << r.value().body;
    EXPECT_EQ(r.value().body, io::QueryResultToJson(label, direct.value()))
        << "query " << label;
  }

  server.Shutdown();
  server.Wait();
  store.reset();
  std::filesystem::remove_all(dir);
}

// Store mode: a body deadline_ms cuts /v1/rank short the same way.
TEST_F(ServeTest, StoreRankAppliesBodyDeadline) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("ftl_serve_rank_deadline." +
                      std::to_string(static_cast<long long>(::getpid()))))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store::StoreOptions sto;
  sto.wal_sync = store::WalSync::kNever;
  sto.flush_threshold_records = 60;
  std::unique_ptr<store::Store> store = store::Store::Create(dir, sto);

  ServeOptions so = EphemeralOptions();
  so.start_ready = false;
  FtlEngine engine(ServeEngineOptions());
  FtlServer server(so, &engine, &data_->cdr_db, store.get());
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(store->Recover().ok());
  for (const traj::Trajectory& t : data_->transit_db) {
    store::IngestBatch b;
    for (const traj::Record& r : t.records()) {
      b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                        r.location.x, r.location.y});
    }
    ASSERT_TRUE(store->Append(b).ok());
  }
  ASSERT_GE(store->num_segments(), 1u);
  traj::TrajectoryDatabase merged = store->MaterializeAll("store");
  ASSERT_TRUE(engine.Train(data_->cdr_db, merged).ok());
  server.MarkReady();

  // Naming the candidates in canonical order makes request positions
  // canonical indices.
  const std::string label = data_->cdr_db[0].label();
  std::vector<std::string> labels;
  for (const traj::Trajectory& t : merged) labels.push_back(t.label());
  auto full = store->Snapshot()->Rank(engine, data_->cdr_db[0], labels,
                                      Matcher::kNaiveBayes);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  failpoint::Arm("core.query.candidate", {failpoint::Action::kDelay, 5});
  auto r = HttpRequestOnce("127.0.0.1", server.port(), "POST", "/v1/rank",
                           RankAllBody(label, merged, ",\"deadline_ms\":20"));
  failpoint::DisarmAll();
  ExpectRankPrefixPartial(r, full.value(), labels.size());

  server.Shutdown();
  server.Wait();
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, StartRejectsZeroStoreQueryThreads) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("ftl_serve_qthreads0." +
                      std::to_string(static_cast<long long>(::getpid()))))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::unique_ptr<store::Store> store =
      store::Store::Create(dir, store::StoreOptions{});
  ServeOptions so = EphemeralOptions();
  so.store_query_threads = 0;
  so.start_ready = false;
  FtlEngine engine(ServeEngineOptions());
  FtlServer server(so, &engine, &data_->cdr_db, store.get());
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ftl
