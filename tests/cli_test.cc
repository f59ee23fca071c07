#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/csv.h"
#include "io/json_parse.h"
#include "tools/cli.h"
#include "util/failpoint.h"

namespace ftl::tools {
namespace {

namespace fs = std::filesystem;

std::string Tmp(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

struct TempFiles {
  std::vector<std::string> paths;
  std::string Add(const std::string& name) {
    paths.push_back(Tmp(name));
    return paths.back();
  }
  ~TempFiles() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
};

// ---------------------------------------------------------------- ArgMap

TEST(ArgMapTest, ParsesKeyValuePairs) {
  auto m = ArgMap::Parse({"--a", "1", "--b", "x"});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().Get("a", ""), "1");
  EXPECT_EQ(m.value().Get("b", ""), "x");
  EXPECT_EQ(m.value().Get("c", "zz"), "zz");
  EXPECT_TRUE(m.value().Has("a"));
  EXPECT_FALSE(m.value().Has("c"));
}

TEST(ArgMapTest, ValuelessFlagGetsTrue) {
  auto m = ArgMap::Parse({"--verbose", "--k", "3"});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().Get("verbose", ""), "true");
  EXPECT_EQ(m.value().Get("k", ""), "3");
}

TEST(ArgMapTest, RejectsBareToken) {
  EXPECT_FALSE(ArgMap::Parse({"oops"}).ok());
  EXPECT_FALSE(ArgMap::Parse({"--ok", "1", "--"}).ok());
}

TEST(ArgMapTest, NumericAccessors) {
  auto m = ArgMap::Parse({"--d", "2.5", "--i", "42", "--bad", "xyz"});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().GetDouble("d", 0).value(), 2.5);
  EXPECT_EQ(m.value().GetInt("i", 0).value(), 42);
  EXPECT_DOUBLE_EQ(m.value().GetDouble("missing", 7.0).value(), 7.0);
  EXPECT_FALSE(m.value().GetDouble("bad", 0).ok());
  EXPECT_FALSE(m.value().GetInt("d", 0).ok());
}

// ------------------------------------------------------------- Commands

TEST(CliTest, UsageOnNoArgs) {
  std::ostringstream out;
  EXPECT_EQ(RunCli({}, out), 1);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliTest, HelpIsSuccess) {
  std::ostringstream out;
  EXPECT_EQ(RunCli({"help"}, out), 0);
}

TEST(CliTest, UsageListsServeWithItsFlags) {
  std::string usage = UsageText();
  EXPECT_NE(usage.find("serve"), std::string::npos);
  for (const char* flag : {"--listen", "--ftb", "--max-queue",
                           "--request-deadline-ms", "--threads"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << "usage missing " << flag;
  }
  EXPECT_NE(usage.find("--json"), std::string::npos);  // link --json
}

TEST(ArgMapTest, GetAllReturnsRepeatedFlagInOrder) {
  auto m = ArgMap::Parse(
      {"--ftb", "a.ftb", "--p", "p.csv", "--ftb", "b.ftb", "--ftb", "c.ftb"});
  ASSERT_TRUE(m.ok());
  std::vector<std::string> shards = m.value().GetAll("ftb");
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], "a.ftb");
  EXPECT_EQ(shards[1], "b.ftb");
  EXPECT_EQ(shards[2], "c.ftb");
  EXPECT_TRUE(m.value().GetAll("absent").empty());
}

// The one-shot CLI and the daemon share one status table: exit codes
// come from util/status (re-exported here) and the HTTP mapping derives
// from the same enum — spot-check the pairing stays coherent.
TEST(CliTest, ExitCodeTableIsTheSharedOne) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::IOError("x")), 4);
  EXPECT_EQ(ExitCodeForStatus(Status::OutOfRange("x")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::FailedPrecondition("x")), 6);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), 7);
  EXPECT_EQ(ExitCodeForStatus(Status::DeadlineExceeded("x")), 8);
  EXPECT_EQ(ExitCodeForStatus(Status::Cancelled("x")), 9);
}

TEST(CliTest, UnknownCommand) {
  std::ostringstream out;
  EXPECT_EQ(RunCli({"frobnicate"}, out), 1);
  EXPECT_NE(out.str().find("unknown command"), std::string::npos);
}

TEST(CliTest, SimulateRequiresOutputs) {
  std::ostringstream out;
  EXPECT_EQ(RunCli({"simulate"}, out), 2);  // InvalidArgument
  EXPECT_NE(out.str().find("out-p"), std::string::npos);
}

TEST(CliTest, SimulateRejectsUnknownConfig) {
  std::ostringstream out;
  int rc = RunCli({"simulate", "--out-p", Tmp("x.csv"), "--out-q",
                   Tmp("y.csv"), "--config", "ZZ"},
                  out);
  EXPECT_EQ(rc, 2);  // InvalidArgument
  EXPECT_NE(out.str().find("unknown config"), std::string::npos);
}

TEST(CliTest, EndToEndPipeline) {
  TempFiles files;
  std::string p_csv = files.Add("cli_p.csv");
  std::string q_csv = files.Add("cli_q.csv");
  std::string rej = files.Add("cli_rej.model");
  std::string acc = files.Add("cli_acc.model");
  std::string gj = files.Add("cli_out.geojson");

  // simulate
  {
    std::ostringstream out;
    int rc = RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                     "--config", "SD", "--objects", "40", "--seed", "5"},
                    out);
    ASSERT_EQ(rc, 0) << out.str();
    EXPECT_NE(out.str().find("simulated SD"), std::string::npos);
  }
  // stats
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"stats", "--db", p_csv}, out), 0) << out.str();
    EXPECT_NE(out.str().find("trajectories=40"), std::string::npos);
  }
  // train
  {
    std::ostringstream out;
    int rc = RunCli({"train", "--p", p_csv, "--q", q_csv,
                     "--out-rejection", rej, "--out-acceptance", acc},
                    out);
    ASSERT_EQ(rc, 0) << out.str();
    EXPECT_NE(out.str().find("trained models"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(rej));
    EXPECT_TRUE(std::filesystem::exists(acc));
  }
  // link (single query)
  {
    std::ostringstream out;
    int rc = RunCli({"link", "--p", p_csv, "--q", q_csv, "--query",
                     "log-0", "--matcher", "nb", "--phi", "0.05"},
                    out);
    ASSERT_EQ(rc, 0) << out.str();
    EXPECT_NE(out.str().find("log-0 ->"), std::string::npos);
  }
  // export
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"export", "--db", q_csv, "--out", gj}, out), 0)
        << out.str();
    EXPECT_TRUE(std::filesystem::exists(gj));
  }
}

TEST(CliTest, ConvertRoundTripsAndFtbInputsLinkIdentically) {
  TempFiles files;
  std::string p_csv = files.Add("cli_ftb_p.csv");
  std::string q_csv = files.Add("cli_ftb_q.csv");
  std::string q_ftb = files.Add("cli_ftb_q.ftb");
  std::string q2_csv = files.Add("cli_ftb_q2.csv");
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                      "--config", "SD", "--objects", "20", "--seed", "5"},
                     out),
              0)
        << out.str();
  }
  // CSV -> FTB; magic-byte sniffing then accepts it anywhere.
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"convert", "--in", q_csv, "--out", q_ftb}, out), 0)
        << out.str();
    EXPECT_NE(out.str().find("(FTB)"), std::string::npos);
  }
  std::string link_csv, link_ftb;
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--query",
                      "log-0", "--matcher", "alpha"},
                     out),
              0)
        << out.str();
    link_csv = out.str();
  }
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"link", "--p", p_csv, "--q", q_ftb, "--query",
                      "log-0", "--matcher", "alpha"},
                     out),
              0)
        << out.str();
    link_ftb = out.str();
  }
  EXPECT_EQ(link_csv, link_ftb);
  // FTB -> CSV round-trip preserves every record.
  {
    std::ostringstream out;
    ASSERT_EQ(
        RunCli({"convert", "--in", q_ftb, "--out", q2_csv, "--to", "csv"},
               out),
        0)
        << out.str();
  }
  auto a = io::ReadCsv(q_csv, "a");
  auto b = io::ReadCsv(q2_csv, "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(io::ToCsvString(a.value()), io::ToCsvString(b.value()));
}

// `link --json` emits one machine-readable JSON object per query line
// — the same serializer the serve daemon uses, so downstream tooling
// (and the CI byte-identity check) can diff the two paths.
TEST(CliTest, LinkJsonEmitsParseableObjects) {
  TempFiles files;
  std::string p_csv = files.Add("cli_json_p.csv");
  std::string q_csv = files.Add("cli_json_q.csv");
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                      "--config", "SD", "--objects", "20", "--seed", "5"},
                     out),
              0)
        << out.str();
  }
  std::ostringstream out;
  ASSERT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--query", "log-0",
                    "--matcher", "alpha", "--json"},
                   out),
            0)
      << out.str();
  std::istringstream lines(out.str());
  std::string line;
  size_t objects = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto parsed = io::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    EXPECT_EQ(parsed.value().Find("query")->AsString(), "log-0");
    ASSERT_NE(parsed.value().Find("truncated"), nullptr);
    ASSERT_NE(parsed.value().Find("candidates"), nullptr);
    ++objects;
  }
  EXPECT_EQ(objects, 1u);
}

TEST(CliTest, LinkBlockingGuaranteedIsByteIdentical) {
  TempFiles files;
  std::string p_csv = files.Add("cli_blk_p.csv");
  std::string q_csv = files.Add("cli_blk_q.csv");
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                      "--config", "SD", "--objects", "25", "--seed", "6"},
                     out),
              0)
        << out.str();
  }
  std::ostringstream off, guaranteed;
  ASSERT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--json"}, off), 0);
  ASSERT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--json",
                    "--blocking", "guaranteed"},
                   guaranteed),
            0);
  // The serve wire format covers every index, score, and p-value: one
  // string compare proves the accept sets identical.
  EXPECT_EQ(off.str(), guaranteed.str());

  // Aggressive mode runs (results may legitimately differ).
  std::ostringstream aggressive;
  EXPECT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--json",
                    "--blocking", "aggressive"},
                   aggressive),
            0);

  // Bad mode and bad tuning are rejected up front.
  std::ostringstream err1, err2;
  EXPECT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--blocking",
                    "sometimes"},
                   err1),
            2);
  EXPECT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--blocking",
                    "guaranteed", "--blocking-cell-m", "-3"},
                   err2),
            2);
}

TEST(CliTest, LinkRejectsBadMatcher) {
  TempFiles files;
  std::string p_csv = files.Add("cli_p2.csv");
  std::string q_csv = files.Add("cli_q2.csv");
  std::ostringstream out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "10"},
                   out),
            0);
  // Every command taking --matcher rejects an unknown name the same way.
  for (const char* cmd : {"link", "calibrate", "serve"}) {
    std::ostringstream out2;
    int rc = RunCli({cmd, "--p", p_csv, "--q", q_csv, "--matcher", "bogus"},
                    out2);
    EXPECT_EQ(rc, 2) << cmd;  // InvalidArgument
    EXPECT_NE(out2.str().find("--matcher"), std::string::npos) << cmd;
  }
}

TEST(CliTest, LinkUnknownQueryLabel) {
  TempFiles files;
  std::string p_csv = files.Add("cli_p3.csv");
  std::string q_csv = files.Add("cli_q3.csv");
  std::ostringstream out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "10"},
                   out),
            0);
  std::ostringstream out2;
  EXPECT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--query",
                    "no-such-label"},
                   out2),
            3);  // NotFound
  EXPECT_NE(out2.str().find("NotFound"), std::string::npos);
}

TEST(CliTest, ValidateDiagnoseCalibrateEnrich) {
  TempFiles files;
  std::string p_csv = files.Add("cli_p4.csv");
  std::string q_csv = files.Add("cli_q4.csv");
  std::string clean_csv = files.Add("cli_clean4.csv");
  std::ostringstream sim_out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "25", "--seed", "9"},
                   sim_out),
            0);
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"validate", "--db", p_csv, "--sanitized-out",
                      clean_csv},
                     out),
              0)
        << out.str();
    EXPECT_NE(out.str().find("trajectories=25"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(clean_csv));
  }
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"diagnose", "--p", p_csv, "--q", q_csv}, out), 0)
        << out.str();
    EXPECT_NE(out.str().find("mean_js_bits"), std::string::npos);
  }
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"calibrate", "--p", p_csv, "--q", q_csv,
                      "--budget", "5", "--queries", "10"},
                     out),
              0)
        << out.str();
    EXPECT_NE(out.str().find("calibrated phi_r="), std::string::npos);
  }
  {
    std::ostringstream out;
    ASSERT_EQ(RunCli({"enrich", "--p", p_csv, "--q", q_csv, "--query",
                      "log-1", "--candidate", "trip-1"},
                     out),
              0)
        << out.str();
    EXPECT_NE(out.str().find("linked: log-1 <-> trip-1"),
              std::string::npos);
    EXPECT_NE(out.str().find("densification"), std::string::npos);
  }
  {
    std::ostringstream out;
    EXPECT_EQ(RunCli({"enrich", "--p", p_csv, "--q", q_csv, "--query",
                      "nope", "--candidate", "trip-1"},
                     out),
              3);  // NotFound
  }
}

TEST(CliTest, StatsMissingFile) {
  std::ostringstream out;
  EXPECT_EQ(RunCli({"stats", "--db", "/nonexistent/f.csv"}, out),
            4);  // IOError
  EXPECT_NE(out.str().find("IOError"), std::string::npos);
}

// ----------------------------------------------------- Robustness flags

TEST(CliTest, ErrorsGoToTheErrorStream) {
  std::ostringstream out, err;
  EXPECT_EQ(RunCli({"stats", "--db", "/nonexistent/f.csv"}, out, err), 4);
  EXPECT_TRUE(out.str().empty()) << out.str();
  EXPECT_NE(err.str().find("IOError"), std::string::npos);
}

TEST(CliTest, LenientLoadQuarantinesCorruptRows) {
  TempFiles files;
  std::string db_csv = files.Add("cli_corrupt.csv");
  std::string sidecar = files.Add("cli_quar");
  std::string sidecar_file = sidecar + ".db.csv";
  {
    std::ofstream f(db_csv);
    f << "label,owner,t,x,y\n"
      << "a,1,0,0,0\n"
      << "a,1,60,30,30\n"
      << "a,1,120,bogus,30\n"
      << "b,2,0,5,5\n";
  }
  // Strict load fails with the row-level reason...
  std::ostringstream strict_out, strict_err;
  EXPECT_EQ(RunCli({"stats", "--db", db_csv}, strict_out, strict_err), 4);
  EXPECT_NE(strict_err.str().find("line 4"), std::string::npos)
      << strict_err.str();
  // ...and --lenient loads the clean remainder, reporting the rest.
  std::ostringstream out;
  ASSERT_EQ(RunCli({"stats", "--db", db_csv, "--lenient",
                    "--quarantine-out", sidecar},
                   out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("quarantined 1/4 rows"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("unparseable"), std::string::npos);
  EXPECT_NE(out.str().find("trajectories=2"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(sidecar_file));
  files.paths.push_back(sidecar_file);
}

TEST(CliTest, FailpointsFlagInjectsFaults) {
  TempFiles files;
  std::string p_csv = files.Add("cli_fp_p.csv");
  std::string q_csv = files.Add("cli_fp_q.csv");
  std::ostringstream sim_out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "10"},
                   sim_out),
            0);
  {
    std::ostringstream out, err;
    int rc = RunCli({"stats", "--db", p_csv, "--failpoints",
                     "io.read_csv=error"},
                    out, err);
    failpoint::DisarmAll();
    EXPECT_EQ(rc, 7);  // Internal
    EXPECT_NE(err.str().find("failpoint"), std::string::npos)
        << err.str();
  }
  {
    std::ostringstream out, err;
    int rc = RunCli({"stats", "--db", p_csv, "--failpoints",
                     "io.read_csv=explode"},
                    out, err);
    failpoint::DisarmAll();
    EXPECT_EQ(rc, 2);  // InvalidArgument: malformed spec
  }
  {
    // Disarmed again: the same command succeeds.
    std::ostringstream out;
    EXPECT_EQ(RunCli({"stats", "--db", p_csv}, out), 0) << out.str();
  }
}

// ------------------------------------------------------- Observability

std::string ReadWholeFile(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(CliTest, MetricsOutWritesJsonSnapshot) {
  TempFiles files;
  std::string p_csv = files.Add("cli_mx_p.csv");
  std::string q_csv = files.Add("cli_mx_q.csv");
  std::string metrics = files.Add("cli_mx.json");
  std::ostringstream sim_out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "10"},
                   sim_out),
            0);
  std::ostringstream out;
  ASSERT_EQ(RunCli({"link", "--p", p_csv, "--q", q_csv, "--matcher",
                    "alpha", "--metrics-out", metrics},
                   out),
            0)
      << out.str();
  std::string dump = ReadWholeFile(metrics);
  EXPECT_NE(dump.find("\"counters\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("ftl_query_total"), std::string::npos);
  EXPECT_NE(dump.find("ftl_ingest_rows_total"), std::string::npos);
  EXPECT_NE(dump.find("ftl_query_latency_us"), std::string::npos);
}

TEST(CliTest, MetricsOutPromExtensionSelectsPrometheus) {
  TempFiles files;
  std::string p_csv = files.Add("cli_mp_p.csv");
  std::string q_csv = files.Add("cli_mp_q.csv");
  std::string metrics = files.Add("cli_mp.prom");
  std::ostringstream sim_out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "10"},
                   sim_out),
            0);
  std::ostringstream out;
  ASSERT_EQ(RunCli({"stats", "--db", p_csv, "--metrics-out", metrics},
                   out),
            0);
  std::string dump = ReadWholeFile(metrics);
  EXPECT_NE(dump.find("# TYPE ftl_ingest_rows_total counter"),
            std::string::npos)
      << dump;
}

TEST(CliTest, MetricsOutWrittenEvenOnCommandFailure) {
  TempFiles files;
  std::string metrics = files.Add("cli_mf.json");
  std::ostringstream out, err;
  EXPECT_EQ(RunCli({"stats", "--db", "/nonexistent/f.csv",
                    "--metrics-out", metrics},
                   out, err),
            4);  // the command's IOError wins the exit code
  EXPECT_TRUE(std::filesystem::exists(metrics));
  EXPECT_NE(ReadWholeFile(metrics).find("\"counters\""),
            std::string::npos);
}

TEST(CliTest, MetricsSubcommandDumps) {
  TempFiles files;
  std::string p_csv = files.Add("cli_ms_p.csv");
  std::string q_csv = files.Add("cli_ms_q.csv");
  std::ostringstream sim_out;
  ASSERT_EQ(RunCli({"simulate", "--out-p", p_csv, "--out-q", q_csv,
                    "--config", "SD", "--objects", "10"},
                   sim_out),
            0);
  std::ostringstream stats_out;
  ASSERT_EQ(RunCli({"stats", "--db", p_csv}, stats_out), 0);
  std::ostringstream prom;
  EXPECT_EQ(RunCli({"metrics"}, prom), 0);
  EXPECT_NE(prom.str().find("# TYPE ftl_ingest_rows_total counter"),
            std::string::npos)
      << prom.str();
  std::ostringstream json;
  EXPECT_EQ(RunCli({"metrics", "--format", "json"}, json), 0);
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  std::ostringstream bad, bad_err;
  EXPECT_EQ(RunCli({"metrics", "--format", "xml"}, bad, bad_err), 2);
}

}  // namespace
}  // namespace ftl::tools
