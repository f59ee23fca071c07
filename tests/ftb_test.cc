// Tests for the FTB binary columnar store: round-trips, byte-identical
// query results across AoS/SoA backends, corruption rejection, the
// heap fallback, and the io.read_ftb / io.write_ftb failpoints.

#include "io/ftb.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "sim/scenario.h"
#include "traj/flat_database.h"
#include "util/failpoint.h"

namespace ftl {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

uint32_t LoadU32(const std::string& b, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof(v));
  return v;
}

uint64_t LoadU64(const std::string& b, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof(v));
  return v;
}

void StoreU32(std::string* b, size_t off, uint32_t v) {
  std::memcpy(b->data() + off, &v, sizeof(v));
}

void StoreU64(std::string* b, size_t off, uint64_t v) {
  std::memcpy(b->data() + off, &v, sizeof(v));
}

// Mirrors the on-disk layout (documented in DESIGN.md §9) so tests can
// patch files surgically.
constexpr size_t kTableOffset = 48;
constexpr size_t kEntrySize = 24;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffNumTrajectories = 16;
constexpr size_t kOffNumRecords = 24;
constexpr size_t kOffTableCrc = 40;
constexpr size_t kOffHeaderCrc = 44;

struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

SectionEntry FindSection(const std::string& bytes, uint32_t id) {
  for (size_t i = 0; i < 8; ++i) {
    size_t at = kTableOffset + i * kEntrySize;
    if (LoadU32(bytes, at) == id) {
      return SectionEntry{LoadU32(bytes, at), LoadU32(bytes, at + 4),
                          LoadU64(bytes, at + 8), LoadU64(bytes, at + 16)};
    }
  }
  ADD_FAILURE() << "section " << id << " not found";
  return {};
}

/// Recomputes section CRC (for `id`), table CRC, and header CRC after a
/// test patched payload bytes — producing a structurally self-consistent
/// but semantically altered file.
void ResealFile(std::string* bytes, uint32_t id) {
  for (size_t i = 0; i < 8; ++i) {
    size_t at = kTableOffset + i * kEntrySize;
    if (LoadU32(*bytes, at) != id) continue;
    uint64_t off = LoadU64(*bytes, at + 8);
    uint64_t len = LoadU64(*bytes, at + 16);
    StoreU32(bytes, at + 4, io::Crc32(bytes->data() + off, len));
  }
  StoreU32(bytes, kOffTableCrc,
           io::Crc32(bytes->data() + kTableOffset, 8 * kEntrySize));
  StoreU32(bytes, kOffHeaderCrc, io::Crc32(bytes->data(), kOffHeaderCrc));
}

traj::TrajectoryDatabase MakeDb() {
  traj::TrajectoryDatabase db("ftb-test");
  EXPECT_TRUE(db.Add(traj::Trajectory("alpha", 7,
                                      {{{1.5, -2.25}, -100},
                                       {{3.0, 4.0}, 0},
                                       {{-5.125, 6.5}, 42}}))
                  .ok());
  EXPECT_TRUE(db.Add(traj::Trajectory("beta", traj::kUnknownOwner,
                                      {{{1e6, -1e6}, 1000}}))
                  .ok());
  EXPECT_TRUE(db.Add(traj::Trajectory("empty", 9, {})).ok());
  return db;
}

class FtbTest : public ::testing::Test {
 protected:
  // Per-test filename: ctest runs each case as its own process, in
  // parallel, so a shared path would let tests clobber each other.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = TempPath(std::string("ftl_ftb_") + info->name() + ".ftb");
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::filesystem::remove(path_);
  }
  std::string path_;
};

TEST_F(FtbTest, RoundTripPreservesEverything) {
  traj::TrajectoryDatabase db = MakeDb();
  ASSERT_TRUE(io::WriteFtb(db, path_).ok());
  EXPECT_TRUE(io::SniffFtb(path_));

  io::FtbLoadInfo info;
  auto flat = io::ReadFtb(path_, {}, &info);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_GT(info.bytes, 0u);
  EXPECT_EQ(flat.value().size(), db.size());
  EXPECT_EQ(flat.value().TotalRecords(), db.TotalRecords());
  EXPECT_EQ(flat.value().name(), db.name());

  traj::TrajectoryDatabase back = flat.value().ToDatabase();
  ASSERT_EQ(back.size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back[i].label(), db[i].label());
    EXPECT_EQ(back[i].owner(), db[i].owner());
    ASSERT_EQ(back[i].size(), db[i].size());
    for (size_t j = 0; j < db[i].size(); ++j) {
      EXPECT_EQ(back[i][j].t, db[i][j].t);
      EXPECT_EQ(back[i][j].location.x, db[i][j].location.x);
      EXPECT_EQ(back[i][j].location.y, db[i][j].location.y);
    }
  }
  // Label lookup works off the interned pool.
  EXPECT_EQ(flat.value().Find("beta"), 1u);
  EXPECT_EQ(flat.value().Find("nope"), traj::FlatDatabase::npos);
}

TEST_F(FtbTest, EmptyDatabaseRoundTrips) {
  traj::TrajectoryDatabase db("nothing");
  ASSERT_TRUE(io::WriteFtb(db, path_).ok());
  auto flat = io::ReadFtb(path_);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(flat.value().size(), 0u);
  EXPECT_EQ(flat.value().TotalRecords(), 0u);
  EXPECT_TRUE(flat.value().ToDatabase().empty());
}

TEST_F(FtbTest, HeapFallbackMatchesMmap) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  io::FtbReadOptions heap_opts;
  heap_opts.prefer_mmap = false;
  io::FtbLoadInfo heap_info, mmap_info;
  auto heap = io::ReadFtb(path_, heap_opts, &heap_info);
  auto mapped = io::ReadFtb(path_, {}, &mmap_info);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE(mapped.ok());
  EXPECT_FALSE(heap_info.mmapped);
  ASSERT_EQ(heap.value().size(), mapped.value().size());
  for (size_t i = 0; i < heap.value().size(); ++i) {
    auto&& a = heap.value()[i];
    auto&& b = mapped.value()[i];
    EXPECT_EQ(a.label(), b.label());
    EXPECT_EQ(a.owner(), b.owner());
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].t, b[j].t);
      EXPECT_EQ(a[j].location.x, b[j].location.x);
      EXPECT_EQ(a[j].location.y, b[j].location.y);
    }
  }
}

TEST_F(FtbTest, QueryResultsByteIdenticalAcrossBackends) {
  sim::DatasetPair pair =
      sim::BuildDataset(sim::FindConfig("SC"), 40, 20160501);
  core::EngineOptions eo;
  eo.training.horizon_units = 60;
  core::FtlEngine engine(eo);
  ASSERT_TRUE(engine.Train(pair.p, pair.q).ok());

  // Round the AoS database through CSV, then derive the FTB backend
  // from that same load — what `ftl convert` produces.
  std::string csv = TempPath("ftl_ftb_parity.csv");
  ASSERT_TRUE(io::WriteCsv(pair.q, csv).ok());
  auto aos = io::ReadCsv(csv, "q");
  ASSERT_TRUE(aos.ok());
  ASSERT_TRUE(io::WriteFtb(aos.value(), path_).ok());
  auto soa = io::ReadFtb(path_);
  ASSERT_TRUE(soa.ok()) << soa.status().ToString();
  std::filesystem::remove(csv);

  for (size_t qi = 0; qi < 6 && qi < pair.p.size(); ++qi) {
    auto ra =
        engine.Query(pair.p[qi], aos.value(), core::Matcher::kAlphaFilter);
    auto rs = engine.Query(traj::FlatDatabase::FromDatabase(pair.p)[qi],
                           soa.value(), core::Matcher::kAlphaFilter);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rs.ok());
    const auto& ca = ra.value().candidates;
    const auto& cs = rs.value().candidates;
    ASSERT_EQ(ca.size(), cs.size()) << "query " << qi;
    for (size_t j = 0; j < ca.size(); ++j) {
      EXPECT_EQ(ca[j].index, cs[j].index);
      EXPECT_EQ(ca[j].label, cs[j].label);
      // Bit-pattern equality, not approximate: the SoA path must run
      // the identical arithmetic.
      uint64_t pa = 0, ps = 0;
      std::memcpy(&pa, &ca[j].score, 8);
      std::memcpy(&ps, &cs[j].score, 8);
      EXPECT_EQ(pa, ps) << "score bits, query " << qi << " cand " << j;
      std::memcpy(&pa, &ca[j].p1, 8);
      std::memcpy(&ps, &cs[j].p1, 8);
      EXPECT_EQ(pa, ps) << "p1 bits";
      std::memcpy(&pa, &ca[j].p2, 8);
      std::memcpy(&ps, &cs[j].p2, 8);
      EXPECT_EQ(pa, ps) << "p2 bits";
      EXPECT_EQ(ca[j].k_observed, cs[j].k_observed);
      EXPECT_EQ(ca[j].n_segments, cs[j].n_segments);
    }
  }
}

TEST_F(FtbTest, RejectsCorruptMagic) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  bytes[0] = 'X';
  WriteFileBytes(path_, bytes);
  EXPECT_FALSE(io::SniffFtb(path_));
  auto r = io::ReadFtb(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("magic"), std::string::npos);
}

TEST_F(FtbTest, RejectsHeaderCorruptionEvenWithChecksumsOff) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  bytes[kOffNumRecords] ^= 0x01;  // tamper with the record count
  WriteFileBytes(path_, bytes);
  io::FtbReadOptions opts;
  opts.verify_checksums = false;
  auto r = io::ReadFtb(path_, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("header CRC"), std::string::npos);
}

TEST_F(FtbTest, RejectsTruncatedFile) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  WriteFileBytes(path_, bytes.substr(0, bytes.size() - 16));
  auto r = io::ReadFtb(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("truncated"), std::string::npos);
}

TEST_F(FtbTest, RejectsWrongVersion) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string written = ReadFileBytes(path_);
  for (uint32_t bad : {io::kFtbVersion + 1, io::kFtbMinReadVersion - 1}) {
    std::string bytes = written;
    StoreU32(&bytes, kOffVersion, bad);
    StoreU32(&bytes, kOffHeaderCrc, io::Crc32(bytes.data(), kOffHeaderCrc));
    WriteFileBytes(path_, bytes);
    auto r = io::ReadFtb(path_);
    EXPECT_FALSE(r.ok()) << "version " << bad;
    EXPECT_NE(r.status().ToString().find("version"), std::string::npos);
  }
}

TEST_F(FtbTest, WriterAlignsSectionsTo32Bytes) {
  // Version 2 starts every section on a 32-byte boundary so AVX2 loads
  // on the mmap'd columns are aligned.
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  EXPECT_EQ(LoadU32(bytes, kOffVersion), io::kFtbVersion);
  for (uint32_t id = 1; id <= 8; ++id) {
    EXPECT_EQ(FindSection(bytes, id).offset % 32, 0u) << "section " << id;
  }
}

TEST_F(FtbTest, AcceptsVersion1Files) {
  // Old readers never saw version 2, but new readers must keep loading
  // version-1 files (which only guarantee 8-byte section alignment).
  // 32-byte-aligned offsets satisfy the looser v1 check, so patching
  // the version field back down yields a valid v1 file.
  traj::TrajectoryDatabase db = MakeDb();
  ASSERT_TRUE(io::WriteFtb(db, path_).ok());
  std::string bytes = ReadFileBytes(path_);
  StoreU32(&bytes, kOffVersion, 1);
  StoreU32(&bytes, kOffHeaderCrc, io::Crc32(bytes.data(), kOffHeaderCrc));
  WriteFileBytes(path_, bytes);

  auto flat = io::ReadFtb(path_);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  traj::TrajectoryDatabase back = flat.value().ToDatabase();
  ASSERT_EQ(back.size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back[i].label(), db[i].label());
    ASSERT_EQ(back[i].size(), db[i].size());
    for (size_t j = 0; j < db[i].size(); ++j) {
      EXPECT_EQ(back[i][j].t, db[i][j].t);
    }
  }
}

TEST_F(FtbTest, BadSectionCrcDetectedAndCounted) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  SectionEntry y = FindSection(bytes, 7);  // Y column payload
  ASSERT_GT(y.length, 0u);
  bytes[y.offset + y.length / 2] ^= 0xff;
  WriteFileBytes(path_, bytes);

  auto& counter = obs::MetricsRegistry::Global().GetCounter(
      "ftl_io_ftb_checksum_failures_total");
  int64_t before = counter.Value();
  auto r = io::ReadFtb(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("CRC"), std::string::npos);
  EXPECT_GT(counter.Value(), before);

  // Structural validation alone cannot see a flipped coordinate byte;
  // that is exactly the risk verify_checksums=false accepts.
  io::FtbReadOptions opts;
  opts.verify_checksums = false;
  EXPECT_TRUE(io::ReadFtb(path_, opts).ok());
}

TEST_F(FtbTest, RejectsOverflowingHeaderCounts) {
  // A crafted header with num_traj = 2^61 + 3 makes
  // (num_traj + 1) * 8 wrap to exactly the 32 bytes the real offset
  // section occupies, so without an explicit count bound the length
  // check passes and endpoint validation reads far out of bounds.
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  StoreU64(&bytes, kOffNumTrajectories, (uint64_t{1} << 61) + 3);
  StoreU32(&bytes, kOffHeaderCrc, io::Crc32(bytes.data(), kOffHeaderCrc));
  WriteFileBytes(path_, bytes);
  auto r = io::ReadFtb(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("count exceeds file size"),
            std::string::npos);

  // Same trick on the record count.
  bytes = ReadFileBytes(path_);
  StoreU64(&bytes, kOffNumTrajectories, 3);
  StoreU64(&bytes, kOffNumRecords, uint64_t{1} << 61);
  StoreU32(&bytes, kOffHeaderCrc, io::Crc32(bytes.data(), kOffHeaderCrc));
  WriteFileBytes(path_, bytes);
  r = io::ReadFtb(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("count exceeds file size"),
            std::string::npos);
}

TEST_F(FtbTest, RejectsOverlappingSections) {
  // Re-point the name section at the timestamp column. Every entry is
  // still in-bounds, aligned, and CRC-consistent after resealing, but
  // sections must be disjoint and ascending like the writer lays them
  // out.
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  std::string bytes = ReadFileBytes(path_);
  SectionEntry ts = FindSection(bytes, 5);
  ASSERT_GT(ts.length, 0u);
  for (size_t i = 0; i < 8; ++i) {
    size_t at = kTableOffset + i * kEntrySize;
    if (LoadU32(bytes, at) != 8) continue;  // name section entry
    StoreU64(&bytes, at + 8, ts.offset);
    StoreU64(&bytes, at + 16, 8);
  }
  ResealFile(&bytes, 8);
  WriteFileBytes(path_, bytes);
  auto r = io::ReadFtb(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("overlap"), std::string::npos);
}

TEST_F(FtbTest, RejectsNonFiniteCoordinates) {
  // WriteFtb serializes whatever it is handed, but ReadCsv and
  // Store::Append refuse non-finite coordinates, so the reader must
  // too: a NaN coordinate would score every segment it touches as
  // compatible, and a CSV export of the file would not load.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (geo::Point bad : {geo::Point{nan, 4.0}, geo::Point{3.0, -inf}}) {
    traj::TrajectoryDatabase db("non-finite");
    ASSERT_TRUE(db.Add(traj::Trajectory("ok", 1, {{{0.0, 0.0}, 0}})).ok());
    ASSERT_TRUE(db.Add(traj::Trajectory("bad", 2,
                                        {{{1.5, -2.25}, -100},
                                         {bad, 0},
                                         {{-5.125, 6.5}, 42}}))
                    .ok());
    ASSERT_TRUE(io::WriteFtb(db, path_).ok());
    for (bool mmap : {true, false}) {
      io::FtbReadOptions opts;
      opts.prefer_mmap = mmap;
      auto r = io::ReadFtb(path_, opts);
      ASSERT_FALSE(r.ok()) << "mmap=" << mmap;
      EXPECT_EQ(r.status().code(), StatusCode::kIOError);
      EXPECT_NE(r.status().ToString().find("FTB corruption"),
                std::string::npos);
      EXPECT_NE(r.status().ToString().find("non-finite coordinate"),
                std::string::npos)
          << r.status().ToString();
    }
  }
}

TEST_F(FtbTest, DefaultConstructedFlatDatabaseWrites) {
  // Null column pointers with one-entry offset-table sections must not
  // reach memcpy; the file still round-trips as an empty database.
  traj::FlatDatabase empty;
  ASSERT_TRUE(io::WriteFtb(empty, path_).ok());
  auto r = io::ReadFtb(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 0u);
  EXPECT_EQ(r.value().TotalRecords(), 0u);
}

TEST_F(FtbTest, DuplicateLabelsRejected) {
  traj::TrajectoryDatabase db("dups");
  ASSERT_TRUE(db.Add(traj::Trajectory("aa", 1, {{{0, 0}, 0}})).ok());
  ASSERT_TRUE(db.Add(traj::Trajectory("ab", 2, {{{1, 1}, 1}})).ok());
  ASSERT_TRUE(io::WriteFtb(db, path_).ok());
  std::string bytes = ReadFileBytes(path_);
  SectionEntry pool = FindSection(bytes, 4);  // label pool: "aaab"
  ASSERT_EQ(pool.length, 4u);
  bytes[pool.offset + 3] = 'a';  // second label becomes "aa" too
  ResealFile(&bytes, 4);
  WriteFileBytes(path_, bytes);
  auto r = io::ReadFtb(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("duplicate"), std::string::npos);
}

TEST_F(FtbTest, ReadFailpointInjectsError) {
  ASSERT_TRUE(io::WriteFtb(MakeDb(), path_).ok());
  failpoint::Arm("io.read_ftb", {failpoint::Action::kError, 0});
  EXPECT_FALSE(io::ReadFtb(path_).ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(io::ReadFtb(path_).ok());
}

TEST_F(FtbTest, TornWriteIsDetectedOnRead) {
  // A partial-write fault at io.write_ftb must leave a file the reader
  // refuses — the whole point of the trailing footer + length check.
  failpoint::Arm("io.write_ftb", {failpoint::Action::kPartialWrite, 64});
  Status st = io::WriteFtb(MakeDb(), path_);
  EXPECT_FALSE(st.ok());
  failpoint::DisarmAll();
  auto r = io::ReadFtb(path_);
  EXPECT_FALSE(r.ok());
}

TEST_F(FtbTest, Crc32MatchesKnownVector) {
  EXPECT_EQ(io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0u);
}

TEST_F(FtbTest, LooksLikeFtbChecksMagicOnly) {
  EXPECT_TRUE(io::LooksLikeFtb(io::kFtbMagic, sizeof(io::kFtbMagic)));
  EXPECT_FALSE(io::LooksLikeFtb("label,owner,t,x,y", 17));
  EXPECT_FALSE(io::LooksLikeFtb(io::kFtbMagic, 4));  // too short
}

}  // namespace
}  // namespace ftl
