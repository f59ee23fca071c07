#ifndef FTL_TOOLS_CLI_H_
#define FTL_TOOLS_CLI_H_

/// \file cli.h
/// The `ftl` command-line tool as a library, so every subcommand is
/// unit-testable. Each command's flags, with their defaults, bounds and
/// help, are declared once, in a table in cli.cc that both the parser
/// and `ftl help` read. Commands map their Status to an exit code with
/// ExitCodeForStatus (util/status.h). A command line the table rejects
/// exits 2 before anything runs; exit 1 is left for no arguments and an
/// unknown command.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.h"

namespace ftl::tools {

/// Every value an `ftl` flag sets, one field per flag. A command's table
/// declares the fields it takes, with their defaults and bounds; the
/// rest stay empty or zero.
struct Args {
  // Inputs and outputs.
  std::string p, q, db, in, out, out_p, out_q, out_rejection,
      out_acceptance, sanitized_out, store, listen;
  std::vector<std::string> ftb, q_shards;  // serve: --ftb, then --q
  // simulate, link, calibrate, enrich, convert, metrics.
  std::string config, query, candidate, matcher, to, format;
  int64_t objects{}, seed{}, top{}, queries{};
  double budget{};
  bool json{};
  // Engine.
  double vmax_kph{}, phi{}, alpha1{}, alpha2{};
  int64_t unit_s{}, horizon{}, threads{};
  // Blocking.
  std::string blocking;
  double blocking_cell_m{};
  int64_t blocking_slack_s{}, blocking_bucket_s{}, blocking_min_cells{},
      blocking_neighborhood{};
  // Store.
  std::string wal_sync;
  int64_t wal_sync_interval_ms{}, flush_threshold{}, compact_trigger{},
      compact_max_segments{};
  double flush_max_age_s{}, backpressure_factor{};
  bool flush{};
  // Serve.
  int64_t workers{}, max_queue{}, request_deadline_ms{}, query_threads{};
  // Input and global.
  bool lenient{};
  std::string quarantine_out, failpoints, metrics_out;
};

/// Checks `argv` (the tokens after the command name) against
/// `command`'s flag table and returns the typed values, defaults filled
/// in. InvalidArgument names the flag that is unknown, repeated, missing
/// its value, or given a malformed, non-finite or out-of-range one.
Result<Args> ParseArgs(const std::string& command,
                       const std::vector<std::string>& argv);

/// The flags `command` takes, without the dashes; empty for an unknown
/// command.
std::vector<std::string> FlagNames(const std::string& command);

/// Dispatches a full command line (without the program name). Returns
/// the process exit status; regular output goes to `out`, error
/// diagnostics to `err`.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// Single-stream convenience overload: errors share `out`.
int RunCli(const std::vector<std::string>& args, std::ostream& out);

/// The usage text, generated from the flag tables.
std::string UsageText();

}  // namespace ftl::tools

#endif  // FTL_TOOLS_CLI_H_
