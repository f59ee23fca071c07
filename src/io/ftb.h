#ifndef FTL_IO_FTB_H_
#define FTL_IO_FTB_H_

/// \file ftb.h
/// FTB — the FTL Trajectory Binary columnar store.
///
/// An FTB file is the on-disk form of a traj::FlatDatabase: a small
/// little-endian header, a section table, and eight aligned payload
/// sections (per-trajectory record offsets, owners, label offsets,
/// interned label pool, and the three record columns timestamp/x/y),
/// each integrity-checked by a CRC32 recorded in the section table.
/// Version 2 files start every section on a 32-byte boundary so
/// 256-bit vector loads on mmap'd columns are aligned; version 1 files
/// guaranteed only 8 bytes, and the reader accepts both.
///
/// Because the payload sections ARE the FlatDatabase
/// columns, loading is zero-copy: the reader mmaps the file, validates
/// header + checksums, and hands out column pointers straight into the
/// mapping. A heap-read fallback covers platforms without mmap (and
/// tests that want to exercise it).
///
/// Layout details (offsets, endianness, checksum policy, truncation
/// detection) are documented in DESIGN.md §9.

#include <cstddef>
#include <cstdint>
#include <string>

#include "traj/database.h"
#include "traj/flat_database.h"
#include "util/status.h"

namespace ftl::io {

/// Magic bytes at offset 0 of every FTB file (PNG-style: a high bit to
/// trip 7-bit transports, CR-LF and LF to catch newline translation,
/// 0x1a to stop accidental `type` dumps on Windows).
inline constexpr unsigned char kFtbMagic[8] = {0x89, 'F',  'T',  'B',
                                               '\r', '\n', 0x1a, '\n'};

/// Current format version, written by WriteFtb. Version 2 pads every
/// section start to 32 bytes (for aligned vector loads on mmap'd
/// columns); the payload encoding is otherwise identical to version 1.
inline constexpr uint32_t kFtbVersion = 2;

/// Oldest version ReadFtb still accepts. Version-1 files only
/// guarantee 8-byte section alignment.
inline constexpr uint32_t kFtbMinReadVersion = 1;

/// Options for ReadFtb.
struct FtbReadOptions {
  /// Verify the per-section CRC32s (and the timestamp-order and
  /// finite-coordinate invariants) at load time. Leave on outside of
  /// benchmarks; the whole-file scan is still far cheaper than a CSV
  /// parse.
  bool verify_checksums = true;

  /// Map the file instead of reading it onto the heap when the
  /// platform supports it. The mapping is read-only and private.
  bool prefer_mmap = true;
};

/// Load telemetry reported by ReadFtb.
struct FtbLoadInfo {
  size_t bytes = 0;            ///< file size (bytes mapped or read)
  bool mmapped = false;        ///< true when backed by an mmap
  double load_seconds = 0.0;   ///< wall time of the load + validation
};

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `len` bytes.
/// Exposed for tests and for tools that patch FTB files.
uint32_t Crc32(const void* data, size_t len);

/// True when `bytes` starts with the FTB magic.
bool LooksLikeFtb(const void* bytes, size_t len);

/// True when the file at `path` starts with the FTB magic. IO errors
/// report false (callers fall through to the text loaders, which
/// produce their own diagnostics).
bool SniffFtb(const std::string& path);

/// Serializes `db` to `path` in FTB format. Goes through the
/// torn-write-aware WriteTextFile helper (failpoint site
/// "io.write_ftb"), so fault-injection tests can tear the output.
Status WriteFtb(const traj::FlatDatabase& db, const std::string& path);

/// Convenience overload: converts to columnar form, then writes.
Status WriteFtb(const traj::TrajectoryDatabase& db, const std::string& path);

/// Loads an FTB file into a FlatDatabase (failpoint site
/// "io.read_ftb"). Validation always covers the header, footer, file
/// length, section bounds, offset-table monotonicity, and label
/// uniqueness; `options.verify_checksums` adds the per-section CRCs,
/// the per-trajectory timestamp order and finite coordinates. On
/// success the database's views point into the mapping (or the heap
/// buffer) with no per-record work done. `info`, when non-null,
/// receives load telemetry; the same numbers are also published as
/// ftl_io_ftb_* metrics.
Result<traj::FlatDatabase> ReadFtb(const std::string& path,
                                   const FtbReadOptions& options = {},
                                   FtbLoadInfo* info = nullptr);

}  // namespace ftl::io

#endif  // FTL_IO_FTB_H_
