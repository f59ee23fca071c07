#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/blocking.h"
#include "io/csv.h"
#include "io/json_parse.h"
#include "store/store.h"
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

// ------------------------------------------------------------ ParseArgs

TEST(ArgMapTest, ParsesKeyValuePairs) {
  auto m = ParseArgs("link", {"--p", "p.csv", "--q", "q.csv", "--query",
                              "log-0", "--matcher", "alpha"});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().p, "p.csv");
  EXPECT_EQ(m.value().q, "q.csv");
  EXPECT_EQ(m.value().query, "log-0");
  EXPECT_EQ(m.value().matcher, "alpha");
  // Flags left out take the table's defaults.
  EXPECT_EQ(m.value().top, 10);
  EXPECT_EQ(m.value().blocking, "off");
  EXPECT_FALSE(m.value().json);
}

TEST(ArgMapTest, ValuelessFlagGetsTrue) {
  auto m = ParseArgs("link", {"--json", "--p", "p.csv", "--q", "q.csv"});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE(m.value().json);
  EXPECT_EQ(m.value().p, "p.csv");
  // A bool flag takes no value, so a word after it is a bare token.
  EXPECT_FALSE(ParseArgs("link", {"--p", "a", "--q", "b", "--json", "yes"})
                   .ok());
}

TEST(ArgMapTest, RejectsBareToken) {
  EXPECT_FALSE(ParseArgs("link", {"oops"}).ok());
  EXPECT_FALSE(ParseArgs("link", {"--p", "a", "--q", "b", "--"}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunCli({"link", "oops"}, out), 2);
  EXPECT_NE(out.str().find("'oops'"), std::string::npos) << out.str();
}

TEST(ArgMapTest, NumericAccessors) {
  auto m = ParseArgs("calibrate", {"--p", "a", "--q", "b", "--budget", "2.5",
                                   "--queries", "42"});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_DOUBLE_EQ(m.value().budget, 2.5);
  EXPECT_EQ(m.value().queries, 42);
  EXPECT_DOUBLE_EQ(m.value().vmax_kph, 120.0);  // default
  for (std::vector<std::string> bad :
       {std::vector<std::string>{"--budget", "xyz"},
        {"--queries", "2.5"},
        {"--queries", "7x"},
        {"--vmax-kph", "inf"}}) {
    bad.insert(bad.begin(), {"--p", "a", "--q", "b"});
    auto r = ParseArgs("calibrate", bad);
    ASSERT_FALSE(r.ok()) << bad[4];
    EXPECT_NE(r.status().message().find(bad[4]), std::string::npos)
        << r.status().message();
  }
}

TEST(ArgMapTest, GetAllReturnsRepeatedFlagInOrder) {
  auto m = ParseArgs("serve", {"--ftb", "a.ftb", "--p", "p.csv", "--q",
                               "z.csv", "--ftb", "b.ftb", "--ftb", "c.ftb"});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().ftb, (std::vector<std::string>{"a.ftb", "b.ftb",
                                                      "c.ftb"}));
  EXPECT_EQ(m.value().q_shards, std::vector<std::string>{"z.csv"});
  auto none = ParseArgs("serve", {"--p", "p.csv", "--store", "d"});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none.value().ftb.empty());
  // Every other flag is single-valued.
  EXPECT_FALSE(
      ParseArgs("serve", {"--p", "a", "--p", "b", "--store", "d"}).ok());
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

// The one-shot CLI and the daemon share one status table: exit codes
// come from util/status and the HTTP mapping derives
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

// ------------------------------------------------------ Declared flags

// Inputs that do not exist: a command that read one would exit 4
// (IOError), so exit 2 shows the line was rejected before any read.
const std::string kNoP = "/nonexistent/p.csv";
const std::string kNoQ = "/nonexistent/q.csv";

// A misspelled, repeated or non-finite flag exits 2 naming the flag,
// and creates no file or store directory.
TEST(CliTest, UndeclaredRepeatedOrNonFiniteFlagsExit2BeforeRunning) {
  const std::string store_dir = Tmp("cli_decl_store");
  const std::string model = Tmp("cli_decl.model");
  fs::remove_all(store_dir);
  std::remove(model.c_str());
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      cases = {
          {{"ingest", "--store", store_dir, "--in", kNoQ, "--wal-synk",
            "always"},
           "--wal-synk"},
          {{"link", "--p", kNoP, "--q", kNoQ, "--blocking-cel-m", "5",
            "--thread", "4"},
           "--blocking-cel-m"},
          {{"link", "--p", kNoP, "--q", kNoQ, "--thread", "4"}, "--thread"},
          {{"link", "--p", kNoP, "--q", kNoQ, "--query", "a", "--query",
            "b"},
           "--query"},
          {{"stats", "--db", kNoP, "--json", "yes"}, "--json"},
          {{"link", "--p", kNoP, "--q", kNoQ, "--vmax-kph", "nan"},
           "--vmax-kph"},
          {{"train", "--p", kNoP, "--q", kNoQ, "--out-rejection", model,
            "--out-acceptance", model, "--phi", "nan"},
           "--phi"},
          {{"ingest", "--store", store_dir, "--in", kNoQ, "--wal-sync",
            "alwys"},
           "--wal-sync"},
          // Training runs on every hardware thread; neither command
          // takes a thread count.
          {{"train", "--p", kNoP, "--q", kNoQ, "--out-rejection", model,
            "--out-acceptance", model, "--threads", "4"},
           "--threads"},
          {{"diagnose", "--p", kNoP, "--q", kNoQ, "--threads", "4"},
           "--threads"},
      };
  for (const auto& [argv, flag] : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(RunCli(argv, out, err), 2) << flag;
    EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
  }
  EXPECT_FALSE(fs::exists(store_dir));
  EXPECT_FALSE(fs::exists(model));
}

TEST(CliTest, OutOfRangeValuesExit2BeforeRunning) {
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"--phi", "nan"},
        {"--phi", "2"},
        {"--threads", "-4"},
        {"--top", "-1"},
        {"--alpha2", "-inf"},
        {"--blocking-neighborhood", "17"}}) {
    std::vector<std::string> argv = {"link", "--p", kNoP, "--q", kNoQ};
    argv.insert(argv.end(), bad.begin(), bad.end());
    std::ostringstream out, err;
    EXPECT_EQ(RunCli(argv, out, err), 2) << bad[0] << " " << bad[1];
    EXPECT_NE(err.str().find(bad[0]), std::string::npos) << err.str();
  }
}

// The flags each command takes, by name. A flag added to or dropped
// from a table changes this list and the usage together.
TEST(CliTest, EachCommandTakesItsDeclaredFlags) {
  const std::string input = " lenient quarantine-out";
  const std::string global = " failpoints metrics-out";
  const std::string engine = " vmax-kph unit-s horizon phi alpha1 alpha2";
  const std::string blocking =
      " blocking blocking-bucket-s blocking-slack-s blocking-cell-m"
      " blocking-min-cells blocking-neighborhood";
  const std::string store =
      " wal-sync wal-sync-interval-ms flush-threshold flush-max-age-s"
      " backpressure-factor compact-trigger compact-max-segments";
  const std::vector<std::pair<std::string, std::string>> want = {
      {"simulate", "out-p out-q config objects seed" + global},
      {"stats", "db" + input + global},
      {"train", "p q out-rejection out-acceptance" + engine + input + global},
      {"link", "p q query matcher top json threads" + engine + blocking +
                   input + global},
      {"export", "db out" + input + global},
      {"validate", "db sanitized-out" + input + global},
      {"diagnose", "p q" + engine + input + global},
      {"calibrate", "p q matcher budget queries threads" + engine + input +
                        global},
      {"enrich", "p q query candidate vmax-kph" + input + global},
      {"convert", "in out to" + input + global},
      {"metrics", "format" + global},
      {"ingest", "store in flush" + store + blocking + input + global},
      {"serve", "p ftb q store listen threads query-threads max-queue"
                " request-deadline-ms matcher" +
                    engine + blocking + store + input + global},
  };
  for (const auto& [command, names] : want) {
    std::istringstream words(names);
    std::vector<std::string> expected{std::istream_iterator<std::string>(words),
                                      std::istream_iterator<std::string>()};
    std::vector<std::string> got = FlagNames(command);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << command;
  }
  EXPECT_TRUE(FlagNames("frobnicate").empty());
}

// A blocking or store flag left out means the library's own default
// (core::BlockingOptions, store::StoreOptions).
TEST(CliTest, TableDefaultsAreTheLibraryDefaults) {
  auto a = ParseArgs("serve", {"--p", "p.csv", "--store", "d"});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const core::BlockingOptions bo;
  EXPECT_EQ(a.value().blocking_cell_m, bo.cell_size_meters);
  EXPECT_EQ(a.value().blocking_slack_s, bo.temporal_slack_seconds);
  EXPECT_EQ(a.value().blocking_bucket_s, bo.time_bucket_seconds);
  EXPECT_EQ(static_cast<size_t>(a.value().blocking_min_cells),
            bo.min_shared_cells);
  EXPECT_EQ(a.value().blocking_neighborhood, bo.neighborhood);
  const store::StoreOptions so;
  EXPECT_EQ(a.value().wal_sync, store::WalSyncName(so.wal_sync));
  EXPECT_EQ(a.value().wal_sync_interval_ms, so.wal_sync_interval_ms);
  EXPECT_EQ(static_cast<size_t>(a.value().flush_threshold),
            so.flush_threshold_records);
  EXPECT_EQ(a.value().flush_max_age_s, so.flush_max_age_seconds);
  EXPECT_EQ(a.value().backpressure_factor, so.backpressure_factor);
  EXPECT_EQ(static_cast<size_t>(a.value().compact_trigger),
            so.compact_trigger);
  EXPECT_EQ(static_cast<size_t>(a.value().compact_max_segments),
            so.compact_max_segments);
}

// docs/OPERATIONS.md's flag tables document serve and ingest flags;
// each must be declared for one of them and shown in the usage.
TEST(CliTest, OperationsDocFlagsAreDeclared) {
  std::ifstream doc(std::string(FTL_SOURCE_DIR) + "/docs/OPERATIONS.md");
  ASSERT_TRUE(doc.good());
  const std::string usage = UsageText();
  const std::vector<std::string> serve = FlagNames("serve");
  const std::vector<std::string> ingest = FlagNames("ingest");
  auto takes = [](const std::vector<std::string>& names,
                  const std::string& flag) {
    return std::find(names.begin(), names.end(), flag) != names.end();
  };
  const std::string row = "| `--";  // a flag table row
  size_t rows = 0;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind(row, 0) != 0) continue;
    const std::string flag = line.substr(
        row.size(), line.find_first_of(" `", row.size()) - row.size());
    EXPECT_TRUE(takes(serve, flag) || takes(ingest, flag)) << flag;
    EXPECT_NE(usage.find("--" + flag + " "), std::string::npos) << flag;
    ++rows;
  }
  EXPECT_GE(rows, 20u);
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
