// Unit tests for the crash-safe store layer (src/store): WAL framing
// and replay (including truncation at every byte boundary of the last
// record), the shared torn-tail repair helper, manifest encode/swap,
// memtable merge rules, flush/reopen equivalence, multi-segment query
// byte-identity, admission control, and the candidate-outcome counters
// that partition every query path's candidate set.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ftl/ftl.h"
#include "obs/metrics.h"

namespace ftl {
namespace {

std::string TempPath(const std::string& name) {
  static const std::string suffix =
      "." + std::to_string(static_cast<long long>(::getpid()));
  return (std::filesystem::temp_directory_path() / (name + suffix)).string();
}

/// A fresh (removed + recreated) store directory for one test.
std::string FreshDir(const std::string& name) {
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(f.good());
}

store::IngestBatch MakeBatch(const std::string& label, int64_t t0, size_t n,
                             traj::OwnerId owner = traj::kUnknownOwner) {
  store::IngestBatch b;
  for (size_t i = 0; i < n; ++i) {
    store::IngestRow row;
    row.label = label;
    row.owner = owner;
    row.t = t0 + static_cast<int64_t>(i) * 60;
    row.x = 100.0 * static_cast<double>(i) + 0.25;
    row.y = -50.0 * static_cast<double>(i) + 0.75;
    b.rows.push_back(std::move(row));
  }
  return b;
}

// --------------------------------------------------------------------------
// WAL framing

TEST(WalTest, EncodeDecodeRoundtrip) {
  store::IngestBatch b = MakeBatch("veh-7", 1000, 3, 42);
  b.rows[1].x = -0.0;
  b.rows[2].y = 1e-300;
  auto decoded = store::DecodeBatch(store::EncodeBatch(b));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().rows.size(), b.rows.size());
  for (size_t i = 0; i < b.rows.size(); ++i) {
    EXPECT_EQ(decoded.value().rows[i].label, b.rows[i].label);
    EXPECT_EQ(decoded.value().rows[i].owner, b.rows[i].owner);
    EXPECT_EQ(decoded.value().rows[i].t, b.rows[i].t);
    EXPECT_EQ(decoded.value().rows[i].x, b.rows[i].x);
    EXPECT_EQ(decoded.value().rows[i].y, b.rows[i].y);
  }
}

TEST(WalTest, DecodeBatchRejectsMalformedPayloads) {
  std::string good = store::EncodeBatch(MakeBatch("a", 0, 2));
  // Truncation anywhere inside the payload must fail cleanly.
  for (size_t len = 0; len < good.size(); ++len) {
    auto r = store::DecodeBatch(std::string_view(good.data(), len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too (the frame length is exact).
  EXPECT_FALSE(store::DecodeBatch(good + "x").ok());
  // Absurd row count (bounded by the 36-byte minimum row encoding).
  std::string bogus(4, '\0');
  bogus[0] = static_cast<char>(0xff);
  bogus[1] = static_cast<char>(0xff);
  bogus[2] = static_cast<char>(0xff);
  bogus[3] = static_cast<char>(0x7f);
  EXPECT_FALSE(store::DecodeBatch(bogus).ok());
}

TEST(WalTest, AppendReplayRoundtrip) {
  std::string path = TempPath("wal_roundtrip.log");
  std::filesystem::remove(path);
  store::WalWriterOptions wo;
  wo.sync = store::WalSync::kAlways;
  auto w = store::WalWriter::Open(path, wo, 1);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  std::vector<store::IngestBatch> batches = {
      MakeBatch("a", 0, 2), MakeBatch("b", 100, 3), MakeBatch("a", 200, 1)};
  for (const auto& b : batches) {
    ASSERT_TRUE(w.value().Append(store::EncodeBatch(b)).ok());
  }
  EXPECT_EQ(w.value().next_seqno(), 4u);
  EXPECT_GE(w.value().syncs(), 3u);
  w.value().Close();

  std::vector<std::pair<uint64_t, store::IngestBatch>> replayed;
  store::WalReplayStats stats;
  Status st = store::ReplayWal(
      path,
      [&](uint64_t seqno, std::string_view payload) {
        auto b = store::DecodeBatch(payload);
        EXPECT_TRUE(b.ok());
        replayed.emplace_back(seqno, std::move(b).value());
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.last_seqno, 3u);
  EXPECT_EQ(stats.torn_bytes_dropped, 0u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replayed[i].first, i + 1);
    EXPECT_EQ(replayed[i].second.rows.size(), batches[i].rows.size());
    EXPECT_EQ(replayed[i].second.rows[0].label, batches[i].rows[0].label);
  }
}

TEST(WalTest, MissingFileReplaysEmpty) {
  store::WalReplayStats stats;
  Status st = store::ReplayWal(
      TempPath("wal_never_written.log"),
      [&](uint64_t, std::string_view) { return Status::OK(); }, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.frames, 0u);
}

/// Satellite 3: a WAL truncated at EVERY byte boundary of the last
/// record either restores the full batch (only at the exact frame end)
/// or cleanly drops it — never a partial-record ghost — and the repair
/// truncates the file back to its valid prefix.
TEST(WalTest, TruncationAtEveryByteBoundaryOfLastRecord) {
  std::string orig = TempPath("wal_everybyte_orig.log");
  std::string path = TempPath("wal_everybyte.log");
  std::filesystem::remove(orig);
  std::vector<store::IngestBatch> batches = {
      MakeBatch("keep-1", 0, 2), MakeBatch("keep-2", 100, 1),
      MakeBatch("tail", 200, 3)};
  size_t keep_bytes = 0;  // bytes of the first two (surviving) frames
  {
    store::WalWriterOptions wo;
    wo.sync = store::WalSync::kNever;
    auto w = store::WalWriter::Open(orig, wo, 1);
    ASSERT_TRUE(w.ok());
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE(w.value().Append(store::EncodeBatch(batches[i])).ok());
      if (i == 1) keep_bytes = static_cast<size_t>(w.value().bytes());
    }
    w.value().Close();
  }
  const std::string image = ReadAll(orig);
  ASSERT_GT(image.size(), keep_bytes);

  for (size_t cut = keep_bytes; cut <= image.size(); ++cut) {
    WriteAll(path, image.substr(0, cut));
    size_t replayed = 0;
    size_t total_rows = 0;
    store::WalReplayStats stats;
    Status st = store::ReplayWal(
        path,
        [&](uint64_t, std::string_view payload) {
          auto b = store::DecodeBatch(payload);
          EXPECT_TRUE(b.ok()) << "ghost frame at cut " << cut;
          ++replayed;
          total_rows += b.value().rows.size();
          return Status::OK();
        },
        &stats);
    ASSERT_TRUE(st.ok()) << "cut " << cut << ": " << st.ToString();
    if (cut == image.size()) {
      EXPECT_EQ(replayed, 3u) << "cut " << cut;
      EXPECT_EQ(total_rows, 6u) << "cut " << cut;
      EXPECT_EQ(stats.torn_bytes_dropped, 0u);
    } else {
      // Any cut inside the last frame drops exactly that frame: the
      // first two batches survive whole, nothing partial appears.
      EXPECT_EQ(replayed, 2u) << "cut " << cut;
      EXPECT_EQ(total_rows, 3u) << "cut " << cut;
      EXPECT_EQ(stats.torn_bytes_dropped, cut - keep_bytes) << "cut " << cut;
      // The repair shrank the file back to the valid prefix, so a
      // writer reopened for append starts at a frame boundary.
      EXPECT_EQ(std::filesystem::file_size(path), keep_bytes)
          << "cut " << cut;
    }
  }

  // Bit corruption inside the last frame behaves like a torn tail.
  std::string corrupted = image;
  corrupted[keep_bytes + 20] ^= 0x40;
  WriteAll(path, corrupted);
  size_t replayed = 0;
  Status st = store::ReplayWal(
      path,
      [&](uint64_t, std::string_view) {
        ++replayed;
        return Status::OK();
      },
      nullptr);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(replayed, 2u);
}

// --------------------------------------------------------------------------
// Shared torn-tail repair helper (satellite 2)

TEST(FileUtilTest, TruncateToLastValidRecordLines) {
  std::string path = TempPath("truncate_lines.txt");
  WriteAll(path, "row1\nrow2\nrow3 torn");
  auto r = io::TruncateToLastValidRecord(path, io::LastCompleteLinePrefix);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), std::string("row3 torn").size());
  EXPECT_EQ(ReadAll(path), "row1\nrow2\n");

  // Already-clean file: no bytes dropped.
  auto r2 = io::TruncateToLastValidRecord(path, io::LastCompleteLinePrefix);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 0u);

  // Missing file is NotFound, not a crash.
  EXPECT_EQ(io::TruncateToLastValidRecord(TempPath("truncate_absent.txt"),
                                          io::LastCompleteLinePrefix)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(FileUtilTest, LastCompleteLinePrefix) {
  EXPECT_EQ(io::LastCompleteLinePrefix(""), 0u);
  EXPECT_EQ(io::LastCompleteLinePrefix("abc"), 0u);
  EXPECT_EQ(io::LastCompleteLinePrefix("abc\n"), 4u);
  EXPECT_EQ(io::LastCompleteLinePrefix("abc\ndef"), 4u);
  EXPECT_EQ(io::LastCompleteLinePrefix("abc\ndef\n"), 8u);
}

// --------------------------------------------------------------------------
// Manifest

TEST(ManifestTest, RoundtripAndAtomicSwap) {
  store::Manifest m;
  m.generation = 7;
  m.segments = {store::SegmentFileName(3), store::SegmentFileName(7)};
  m.wal = store::WalFileName(7);
  auto decoded = store::DecodeManifest(store::EncodeManifest(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().generation, 7u);
  EXPECT_EQ(decoded.value().segments, m.segments);
  EXPECT_EQ(decoded.value().wal, m.wal);

  std::string dir = FreshDir("manifest_swap");
  ASSERT_TRUE(store::WriteManifest(dir, m).ok());
  auto read = store::ReadManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().generation, 7u);
  // The swap leaves no temp debris behind.
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.tmp"));
}

TEST(ManifestTest, CorruptionIsDetected) {
  store::Manifest m;
  m.generation = 1;
  m.wal = store::WalFileName(1);
  std::string text = store::EncodeManifest(m);
  for (size_t i = 0; i < text.size(); ++i) {
    std::string bad = text;
    bad[i] ^= 0x01;
    auto r = store::DecodeManifest(bad);
    // Every single-bit flip must be rejected (CRC or structure).
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " accepted";
  }
  EXPECT_FALSE(store::DecodeManifest("").ok());
  EXPECT_FALSE(store::DecodeManifest(text.substr(0, text.size() - 1)).ok());
  EXPECT_EQ(store::ReadManifest(FreshDir("manifest_absent")).status().code(),
            StatusCode::kNotFound);
}

// --------------------------------------------------------------------------
// Memtable

TEST(MemtableTest, MergeRules) {
  store::MutableSegment mt;
  mt.Apply(MakeBatch("b", 100, 2));
  mt.Apply(MakeBatch("a", 0, 1));
  // Same label again: records merge into the existing entry, and the
  // first non-unknown owner is adopted exactly once.
  mt.Apply(MakeBatch("b", 50, 1, 9));
  mt.Apply(MakeBatch("b", 500, 1, 12));
  EXPECT_EQ(mt.num_trajectories(), 2u);
  EXPECT_EQ(mt.num_records(), 5u);

  traj::TrajectoryDatabase db = mt.ToDatabase("mt");
  ASSERT_EQ(db.size(), 2u);
  // First-appearance order: b before a.
  EXPECT_EQ(db[0].label(), "b");
  EXPECT_EQ(db[1].label(), "a");
  EXPECT_EQ(db[0].owner(), 9u);
  // Records are time-sorted by the Trajectory constructor.
  ASSERT_EQ(db[0].size(), 4u);
  EXPECT_EQ(db[0].records()[0].t, 50);
  EXPECT_EQ(db[0].records()[1].t, 100);
  EXPECT_EQ(db[0].records()[3].t, 500);

  mt.Clear();
  EXPECT_TRUE(mt.empty());
  EXPECT_EQ(mt.num_records(), 0u);
}

// --------------------------------------------------------------------------
// Store

store::StoreOptions SmallStoreOptions(size_t flush_threshold = 1u << 30) {
  store::StoreOptions so;
  so.wal_sync = store::WalSync::kNever;  // fast tests; durability covered
                                         // by the chaos suite
  so.flush_threshold_records = flush_threshold;
  return so;
}

/// Databases must agree exactly: labels, owners, and every record.
void ExpectSameDatabase(const traj::TrajectoryDatabase& a,
                        const traj::TrajectoryDatabase& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label()) << "trajectory " << i;
    EXPECT_EQ(a[i].owner(), b[i].owner()) << "trajectory " << i;
    ASSERT_EQ(a[i].size(), b[i].size()) << "trajectory " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i].records()[j], b[i].records()[j])
          << "trajectory " << i << " record " << j;
      EXPECT_EQ(a[i].records()[j].t, b[i].records()[j].t);
    }
  }
}

TEST(StoreTest, TwoPhaseOpenRefusesBeforeRecover) {
  auto s = store::Store::Create(FreshDir("store_twophase"),
                                SmallStoreOptions());
  EXPECT_EQ(s->Append(MakeBatch("a", 0, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s->Flush().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(s->Recover().ok());
  EXPECT_TRUE(s->recovered());
  EXPECT_TRUE(s->Append(MakeBatch("a", 0, 1)).ok());
  // Recover is one-shot.
  EXPECT_EQ(s->Recover().code(), StatusCode::kFailedPrecondition);
}

TEST(StoreTest, AppendValidation) {
  auto s = store::Store::Open(FreshDir("store_validate"),
                              SmallStoreOptions());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->Append({}).code(), StatusCode::kInvalidArgument);
  store::IngestBatch empty_label = MakeBatch("", 0, 1);
  EXPECT_EQ(s.value()->Append(empty_label).code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreTest, FlushReopenEquivalence) {
  std::string dir = FreshDir("store_reopen");
  std::vector<store::IngestBatch> batches;
  for (int i = 0; i < 12; ++i) {
    batches.push_back(
        MakeBatch("veh-" + std::to_string(i % 5), i * 1000, 4,
                  i % 3 == 0 ? static_cast<traj::OwnerId>(i + 1)
                             : traj::kUnknownOwner));
  }

  // Flushing store: threshold 10 records => several segments, labels
  // spanning segments and the memtable.
  {
    auto s = store::Store::Open(dir, SmallStoreOptions(10));
    ASSERT_TRUE(s.ok());
    for (const auto& b : batches) ASSERT_TRUE(s.value()->Append(b).ok());
    EXPECT_GE(s.value()->num_segments(), 2u);
  }

  // Oracle: the same appends with no flushing at all.
  auto oracle = store::Store::Open(FreshDir("store_reopen_oracle"),
                                   SmallStoreOptions());
  ASSERT_TRUE(oracle.ok());
  for (const auto& b : batches) ASSERT_TRUE(oracle.value()->Append(b).ok());

  // Reopen after "crash" (destructor without explicit flush): WAL
  // replay + segment loading restore exactly the oracle's database.
  store::RecoveryInfo info;
  auto reopened = store::Store::Open(dir, SmallStoreOptions(10), &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(info.segments, 0u);
  ExpectSameDatabase(reopened.value()->MaterializeAll("recovered"),
                     oracle.value()->MaterializeAll("recovered"));
}

TEST(StoreTest, SnapshotCachesByVersion) {
  auto s = store::Store::Open(FreshDir("store_snapver"),
                              SmallStoreOptions());
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s.value()->Append(MakeBatch("a", 0, 2)).ok());
  auto snap1 = s.value()->Snapshot();
  auto snap2 = s.value()->Snapshot();
  EXPECT_EQ(snap1.get(), snap2.get());  // unchanged store: cached
  ASSERT_TRUE(s.value()->Append(MakeBatch("b", 0, 2)).ok());
  auto snap3 = s.value()->Snapshot();
  EXPECT_NE(snap1.get(), snap3.get());
  EXPECT_EQ(snap1->size(), 1u);  // old snapshot is immutable
  EXPECT_EQ(snap3->size(), 2u);
  EXPECT_EQ(snap3->Find("b"), 1u);
  EXPECT_EQ(snap3->Find("zzz"), store::StoreSnapshot::npos);
}

TEST(StoreTest, SyncPolicyCounters) {
  store::StoreOptions always = SmallStoreOptions();
  always.wal_sync = store::WalSync::kAlways;
  auto sa = store::Store::Open(FreshDir("store_sync_always"), always);
  ASSERT_TRUE(sa.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sa.value()->Append(MakeBatch("a", i * 100, 1)).ok());
  }
  EXPECT_GT(sa.value()->wal_bytes(), 0u);

  store::StoreOptions never = SmallStoreOptions();
  auto sn = store::Store::Open(FreshDir("store_sync_never"), never);
  ASSERT_TRUE(sn.ok());
  ASSERT_TRUE(sn.value()->Append(MakeBatch("a", 0, 1)).ok());
}

TEST(StoreTest, BackpressureUnderFlushFailure) {
  failpoint::DisarmAll();
  store::StoreOptions so = SmallStoreOptions(4);
  so.backpressure_factor = 2.0;  // cap = 8 records
  auto s = store::Store::Open(FreshDir("store_backpressure"), so);
  ASSERT_TRUE(s.ok());

  failpoint::Arm("store.flush.segment", {failpoint::Action::kError, 0});
  // Appends keep succeeding in degraded mode until the memtable hits
  // backpressure_factor x threshold; then OutOfRange.
  Status st;
  size_t accepted = 0;
  for (int i = 0; i < 32; ++i) {
    st = s.value()->Append(MakeBatch("x", i * 100, 2));
    if (!st.ok()) break;
    ++accepted;
  }
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_GE(accepted, 2u);
  EXPECT_GE(s.value()->memtable_records(), 8u);

  // Clearing the fault unblocks: the triggered flush drains the
  // memtable and the append lands.
  failpoint::DisarmAll();
  EXPECT_TRUE(s.value()->Append(MakeBatch("x", 9999, 1)).ok());
  EXPECT_GE(s.value()->num_segments(), 1u);
  EXPECT_FALSE(s.value()->broken());
}

TEST(StoreTest, OrphanCleanupOnRecovery) {
  std::string dir = FreshDir("store_orphans");
  {
    auto s = store::Store::Open(dir, SmallStoreOptions(4));
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(s.value()->Append(MakeBatch("a", 0, 5)).ok());
    ASSERT_TRUE(s.value()->Flush().ok());
  }
  // Debris an interrupted flush could leave: a segment and WAL never
  // named by the manifest, plus a torn manifest temp file. A foreign
  // file must survive untouched.
  WriteAll(dir + "/" + store::SegmentFileName(999999), "junk");
  WriteAll(dir + "/" + store::WalFileName(424242), "junk");
  WriteAll(dir + "/MANIFEST.tmp", "junk");
  WriteAll(dir + "/notes.txt", "keep me");

  store::RecoveryInfo info;
  auto s = store::Store::Open(dir, SmallStoreOptions(4), &info);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(info.orphans_removed, 3u);
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + store::SegmentFileName(999999)));
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + store::WalFileName(424242)));
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  EXPECT_EQ(ReadAll(dir + "/notes.txt"), "keep me");
}

// --------------------------------------------------------------------------
// Multi-segment query byte-identity

class StoreQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::DatasetConfig config = sim::FindConfig("SD");
    ASSERT_FALSE(config.name.empty());
    sim::DatasetPair pair = sim::BuildDataset(config, 20, 11);
    p_ = std::move(pair.p);
    q_ = std::move(pair.q);

    // Feed Q through a store with a small flush threshold, splitting
    // every trajectory across two rounds so most labels span a segment
    // boundary (the hard case for byte-identity).
    std::string dir = FreshDir("store_query");
    auto opened = store::Store::Open(dir, SmallStoreOptions(120));
    ASSERT_TRUE(opened.ok());
    store_ = std::move(opened).value();
    for (int round = 0; round < 2; ++round) {
      for (const traj::Trajectory& t : q_) {
        store::IngestBatch b;
        size_t half = t.size() / 2;
        size_t begin = round == 0 ? 0 : half;
        size_t end = round == 0 ? half : t.size();
        for (size_t i = begin; i < end; ++i) {
          const traj::Record& r = t.records()[i];
          b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                            r.location.x, r.location.y});
        }
        if (!b.rows.empty()) ASSERT_TRUE(store_->Append(b).ok());
      }
    }
    ASSERT_GE(store_->num_segments(), 2u) << "test needs multiple segments";
    ASSERT_GT(store_->memtable_records(), 0u) << "test needs a live memtable";

    merged_ = store_->MaterializeAll("merged");
    core::EngineOptions eo;
    eo.training.horizon_units = 20;
    eo.training.acceptance_pairs_per_db = 100;
    engine_ = std::make_unique<core::FtlEngine>(eo);
    ASSERT_TRUE(engine_->Train(p_, merged_).ok());
  }

  traj::TrajectoryDatabase p_;
  traj::TrajectoryDatabase q_;
  std::unique_ptr<store::Store> store_;
  traj::TrajectoryDatabase merged_;
  std::unique_ptr<core::FtlEngine> engine_;
};

TEST_F(StoreQueryTest, MaterializeAllEqualsDirectIngest) {
  // The canonical merged database equals the same rows pushed through
  // a never-flushing store (the memtable-only oracle).
  auto oracle = store::Store::Open(FreshDir("store_query_oracle"),
                                   SmallStoreOptions());
  ASSERT_TRUE(oracle.ok());
  for (const traj::Trajectory& t : q_) {
    store::IngestBatch b;
    for (const traj::Record& r : t.records()) {
      b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                        r.location.x, r.location.y});
    }
    ASSERT_TRUE(oracle.value()->Append(b).ok());
  }
  ExpectSameDatabase(merged_, oracle.value()->MaterializeAll("merged"));
}

TEST_F(StoreQueryTest, SnapshotQueryByteIdenticalToMergedDatabase) {
  auto snap = store_->Snapshot();
  ASSERT_EQ(snap->size(), merged_.size());
  for (core::Matcher matcher :
       {core::Matcher::kNaiveBayes, core::Matcher::kAlphaFilter}) {
    for (size_t qi = 0; qi < p_.size(); ++qi) {
      auto want = engine_->Query(p_[qi], merged_, matcher);
      auto got = snap->Query(*engine_, p_[qi], matcher, nullptr);
      ASSERT_EQ(want.ok(), got.ok()) << p_[qi].label();
      if (!want.ok()) continue;
      // Byte-identity via the serve wire format: one string compare
      // covers every score, p-value, index, and label exactly.
      EXPECT_EQ(io::QueryResultToJson(p_[qi].label(), got.value()),
                io::QueryResultToJson(p_[qi].label(), want.value()))
          << "query " << p_[qi].label() << " matcher "
          << (matcher == core::Matcher::kNaiveBayes ? "nb" : "alpha");
      EXPECT_EQ(got.value().evaluated, want.value().evaluated);
      EXPECT_EQ(got.value().selectiveness, want.value().selectiveness);
    }
  }
}

TEST_F(StoreQueryTest, BlockedSnapshotQueryByteIdenticalToMergedDatabase) {
  // Same rows through a store with per-segment blocking indices
  // (guaranteed mode): snapshot queries must still be byte-identical
  // to exhaustive engine queries over the merged database.
  store::StoreOptions so = SmallStoreOptions(120);
  so.blocking_mode = core::BlockingMode::kGuaranteed;
  auto opened = store::Store::Open(FreshDir("store_query_blocked"), so);
  ASSERT_TRUE(opened.ok());
  store::Store& blocked_store = *opened.value();
  for (int round = 0; round < 2; ++round) {
    for (const traj::Trajectory& t : q_) {
      store::IngestBatch b;
      size_t half = t.size() / 2;
      size_t begin = round == 0 ? 0 : half;
      size_t end = round == 0 ? half : t.size();
      for (size_t i = begin; i < end; ++i) {
        const traj::Record& r = t.records()[i];
        b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                          r.location.x, r.location.y});
      }
      if (!b.rows.empty()) ASSERT_TRUE(blocked_store.Append(b).ok());
    }
  }
  ASSERT_GE(blocked_store.num_segments(), 2u);
  auto snap = blocked_store.Snapshot();
  ASSERT_EQ(snap->size(), merged_.size());
  for (core::Matcher matcher :
       {core::Matcher::kNaiveBayes, core::Matcher::kAlphaFilter}) {
    for (size_t qi = 0; qi < p_.size(); ++qi) {
      auto want = engine_->Query(p_[qi], merged_, matcher);
      auto got = snap->Query(*engine_, p_[qi], matcher, nullptr);
      ASSERT_EQ(want.ok(), got.ok()) << p_[qi].label();
      if (!want.ok()) continue;
      EXPECT_EQ(io::QueryResultToJson(p_[qi].label(), got.value()),
                io::QueryResultToJson(p_[qi].label(), want.value()))
          << "query " << p_[qi].label() << " matcher "
          << (matcher == core::Matcher::kNaiveBayes ? "nb" : "alpha");
      // Fewer pairs scored, same accept set.
      EXPECT_LE(got.value().evaluated, want.value().evaluated);
    }
  }
}

TEST_F(StoreQueryTest, BlockedIndicesSurviveRecovery) {
  // Indices are rebuilt at recovery: reopening the blocked store keeps
  // queries byte-identical and still prunes.
  store::StoreOptions so = SmallStoreOptions(120);
  so.blocking_mode = core::BlockingMode::kGuaranteed;
  std::string dir = FreshDir("store_query_blocked_recover");
  {
    auto opened = store::Store::Open(dir, so);
    ASSERT_TRUE(opened.ok());
    for (const traj::Trajectory& t : q_) {
      store::IngestBatch b;
      for (const traj::Record& r : t.records()) {
        b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                          r.location.x, r.location.y});
      }
      ASSERT_TRUE(opened.value()->Append(b).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
    ASSERT_GE(opened.value()->num_segments(), 1u);
  }
  auto reopened = store::Store::Open(dir, so);
  ASSERT_TRUE(reopened.ok());
  auto snap = reopened.value()->Snapshot();
  auto want = engine_->Query(p_[0], merged_, core::Matcher::kNaiveBayes);
  auto got = snap->Query(*engine_, p_[0], core::Matcher::kNaiveBayes,
                         nullptr);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(io::QueryResultToJson(p_[0].label(), got.value()),
            io::QueryResultToJson(p_[0].label(), want.value()));
}

TEST_F(StoreQueryTest, RankMatchesMergedDatabaseSubset) {
  auto snap = store_->Snapshot();
  std::vector<std::string> labels;
  std::vector<size_t> indices;
  for (size_t i = 0; i < merged_.size() && labels.size() < 5; i += 2) {
    labels.push_back(merged_[i].label());
    indices.push_back(i);
  }
  auto want =
      engine_->QueryWithCandidates(p_[0], merged_, indices,
                                   core::Matcher::kNaiveBayes);
  auto got = snap->Rank(*engine_, p_[0], labels, core::Matcher::kNaiveBayes);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(io::QueryResultToJson(p_[0].label(), got.value()),
            io::QueryResultToJson(p_[0].label(), want.value()));

  EXPECT_EQ(snap->Rank(*engine_, p_[0], {"no-such-label"},
                       core::Matcher::kNaiveBayes)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(StoreQueryTest, QueryRequiresEvaluateNonOverlapping) {
  core::EngineOptions eo = engine_->options();
  eo.evaluate_non_overlapping = false;
  core::FtlEngine other(eo);
  ASSERT_TRUE(other.Train(p_, merged_).ok());
  auto snap = store_->Snapshot();
  EXPECT_EQ(snap->Query(other, p_[0], core::Matcher::kNaiveBayes, nullptr)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------------------
// Parallel snapshot queries (ISSUE 10): sharding the segment walk over
// threads must not change a byte of any complete response.

TEST_F(StoreQueryTest, ParallelQueryByteIdenticalToSerial) {
  auto snap = store_->Snapshot();
  for (size_t num_threads : {size_t{2}, size_t{4}}) {
    for (core::Matcher matcher :
         {core::Matcher::kNaiveBayes, core::Matcher::kAlphaFilter}) {
      for (size_t qi = 0; qi < p_.size(); ++qi) {
        auto want = engine_->Query(p_[qi], merged_, matcher);
        auto got = snap->Query(*engine_, p_[qi], matcher, nullptr,
                               num_threads);
        ASSERT_EQ(want.ok(), got.ok()) << p_[qi].label();
        if (!want.ok()) continue;
        EXPECT_EQ(io::QueryResultToJson(p_[qi].label(), got.value()),
                  io::QueryResultToJson(p_[qi].label(), want.value()))
            << "query " << p_[qi].label() << " threads " << num_threads;
        EXPECT_EQ(got.value().evaluated, want.value().evaluated);
        EXPECT_EQ(got.value().selectiveness, want.value().selectiveness);
      }
    }
  }
}

TEST_F(StoreQueryTest, ParallelBlockedQueryByteIdenticalToSerial) {
  store::StoreOptions so = SmallStoreOptions(120);
  so.blocking_mode = core::BlockingMode::kGuaranteed;
  auto opened = store::Store::Open(FreshDir("store_query_par_blocked"), so);
  ASSERT_TRUE(opened.ok());
  for (int round = 0; round < 2; ++round) {
    for (const traj::Trajectory& t : q_) {
      store::IngestBatch b;
      size_t half = t.size() / 2;
      size_t begin = round == 0 ? 0 : half;
      size_t end = round == 0 ? half : t.size();
      for (size_t i = begin; i < end; ++i) {
        const traj::Record& r = t.records()[i];
        b.rows.push_back(store::IngestRow{t.label(), t.owner(), r.t,
                                          r.location.x, r.location.y});
      }
      if (!b.rows.empty()) ASSERT_TRUE(opened.value()->Append(b).ok());
    }
  }
  ASSERT_GE(opened.value()->num_segments(), 2u);
  auto snap = opened.value()->Snapshot();
  for (size_t qi = 0; qi < p_.size(); ++qi) {
    auto want = snap->Query(*engine_, p_[qi], core::Matcher::kNaiveBayes,
                            nullptr);
    auto got = snap->Query(*engine_, p_[qi], core::Matcher::kNaiveBayes,
                           nullptr, 4);
    ASSERT_EQ(want.ok(), got.ok()) << p_[qi].label();
    if (!want.ok()) continue;
    EXPECT_EQ(io::QueryResultToJson(p_[qi].label(), got.value()),
              io::QueryResultToJson(p_[qi].label(), want.value()))
        << "query " << p_[qi].label();
    EXPECT_EQ(got.value().evaluated, want.value().evaluated);
  }
}

TEST_F(StoreQueryTest, ParallelQueryDeadlineTruncatesPrefixConsistently) {
  auto snap = store_->Snapshot();
  core::QueryOptions qopts;
  qopts.deadline = Deadline::AfterMillis(0);  // already expired
  qopts.check_every = 1;
  for (size_t num_threads : {size_t{1}, size_t{4}}) {
    auto got = snap->Query(*engine_, p_[0], core::Matcher::kNaiveBayes,
                           &qopts, num_threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.value().truncated) << "threads " << num_threads;
    EXPECT_EQ(got.value().status.code(), StatusCode::kDeadlineExceeded)
        << "threads " << num_threads;
    // Whatever prefix was scored carries exactly the scores of the full
    // run: every truncated candidate appears in the complete result
    // with an identical score triple.
    auto full = engine_->Query(p_[0], merged_, core::Matcher::kNaiveBayes);
    ASSERT_TRUE(full.ok());
    for (const auto& c : got.value().candidates) {
      bool found = false;
      for (const auto& f : full.value().candidates) {
        if (f.label == c.label) {
          found = true;
          EXPECT_EQ(f.score, c.score) << c.label;
          EXPECT_EQ(f.p1, c.p1) << c.label;
          EXPECT_EQ(f.p2, c.p2) << c.label;
        }
      }
      EXPECT_TRUE(found) << c.label << " not in the complete result";
    }
  }
}

// --------------------------------------------------------------------------
// Compaction (ISSUE 10 tentpole): merging manifest-adjacent segments
// must never change a byte of the canonical database or any query.

TEST(StoreTest, CompactionDueRespectsTrigger) {
  store::StoreOptions so = SmallStoreOptions(4);
  so.compact_trigger = 3;
  auto s = store::Store::Open(FreshDir("store_compact_due"), so);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.value()->CompactionDue());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.value()->Append(MakeBatch("c", i * 1000, 5)).ok());
    ASSERT_TRUE(s.value()->Flush().ok());
  }
  ASSERT_GE(s.value()->num_segments(), 3u);
  EXPECT_TRUE(s.value()->CompactionDue());
  auto cst = s.value()->CompactOnce();
  ASSERT_TRUE(cst.ok()) << cst.status().ToString();
  EXPECT_GE(cst.value().inputs, 2u);
  EXPECT_LT(s.value()->num_segments(), 3u);
  EXPECT_FALSE(s.value()->CompactionDue());

  // Trigger 0 disables the policy entirely (CompactOnce(force) still
  // works for explicit callers).
  store::StoreOptions off = SmallStoreOptions(4);
  auto s2 = store::Store::Open(FreshDir("store_compact_off"), off);
  ASSERT_TRUE(s2.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s2.value()->Append(MakeBatch("c", i * 1000, 5)).ok());
  }
  EXPECT_FALSE(s2.value()->CompactionDue());
  auto noop = s2.value()->CompactOnce();
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop.value().inputs, 0u);  // not due, not forced
}

TEST(StoreTest, CompactOnceMergesWindowAndSurvivesReopen) {
  std::string dir = FreshDir("store_compact_merge");
  store::StoreOptions so = SmallStoreOptions(4);
  so.compact_max_segments = 2;
  auto s = store::Store::Open(dir, so);
  ASSERT_TRUE(s.ok());
  std::vector<store::IngestBatch> batches;
  for (int i = 0; i < 6; ++i) {
    batches.push_back(MakeBatch("m-" + std::to_string(i % 4), i * 1000, 5,
                                i % 2 == 0 ? static_cast<traj::OwnerId>(i + 1)
                                           : traj::kUnknownOwner));
    ASSERT_TRUE(s.value()->Append(batches.back()).ok());
  }
  ASSERT_TRUE(s.value()->Append(MakeBatch("m-live", 99000, 2)).ok());
  const size_t before = s.value()->num_segments();
  ASSERT_GE(before, 3u);

  // Oracle: the same rows through a never-flushing store.
  auto oracle = store::Store::Open(FreshDir("store_compact_oracle"),
                                   SmallStoreOptions());
  ASSERT_TRUE(oracle.ok());
  for (const auto& b : batches) ASSERT_TRUE(oracle.value()->Append(b).ok());
  ASSERT_TRUE(oracle.value()->Append(MakeBatch("m-live", 99000, 2)).ok());
  traj::TrajectoryDatabase want = oracle.value()->MaterializeAll("db");

  auto cst = s.value()->CompactOnce(/*force=*/true);
  ASSERT_TRUE(cst.ok()) << cst.status().ToString();
  EXPECT_EQ(cst.value().inputs, 2u);  // compact_max_segments caps the window
  EXPECT_GT(cst.value().input_records, 0u);
  EXPECT_EQ(s.value()->num_segments(), before - 1);
  ExpectSameDatabase(s.value()->MaterializeAll("db"), want);

  // Drain the rest of the segments; each round stays byte-identical.
  while (s.value()->num_segments() > 1) {
    auto round = s.value()->CompactOnce(/*force=*/true);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    ASSERT_GT(round.value().inputs, 0u);
  }
  ExpectSameDatabase(s.value()->MaterializeAll("db"), want);

  // No compaction debris: no temp files, no unreferenced segments.
  size_t ftb_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    EXPECT_EQ(name.find("compact-"), std::string::npos) << name;
    if (name.find(".ftb") != std::string::npos) ++ftb_files;
  }
  EXPECT_EQ(ftb_files, 1u);

  // Reopen: the compacted manifest recovers to the same database, and
  // the live memtable rows come back through WAL replay.
  s.value().reset();
  auto reopened = store::Store::Open(dir, so);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->num_segments(), 1u);
  ExpectSameDatabase(reopened.value()->MaterializeAll("db"), want);
}

TEST(StoreTest, CompactOnceNoOpWithoutEnoughSegments) {
  auto s = store::Store::Open(FreshDir("store_compact_noop"),
                              SmallStoreOptions(4));
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s.value()->Append(MakeBatch("one", 0, 5)).ok());
  ASSERT_TRUE(s.value()->Flush().ok());
  ASSERT_EQ(s.value()->num_segments(), 1u);
  auto cst = s.value()->CompactOnce(/*force=*/true);
  ASSERT_TRUE(cst.ok()) << cst.status().ToString();
  EXPECT_EQ(cst.value().inputs, 0u);  // nothing to merge, clean no-op
  EXPECT_EQ(s.value()->num_segments(), 1u);
}

TEST(StoreTest, OrphanCompactTmpCleanedOnRecovery) {
  std::string dir = FreshDir("store_compact_orphan");
  {
    auto s = store::Store::Open(dir, SmallStoreOptions(4));
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(s.value()->Append(MakeBatch("a", 0, 5)).ok());
    ASSERT_TRUE(s.value()->Flush().ok());
  }
  // The debris an interrupted compaction leaves: a temp output never
  // renamed, or a renamed segment whose manifest swap never landed.
  WriteAll(dir + "/" + store::CompactTempFileName(31337), "junk");
  WriteAll(dir + "/" + store::SegmentFileName(31337), "junk");
  store::RecoveryInfo info;
  auto s = store::Store::Open(dir, SmallStoreOptions(4), &info);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(info.orphans_removed, 2u);
  EXPECT_FALSE(std::filesystem::exists(
      dir + "/" + store::CompactTempFileName(31337)));
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + store::SegmentFileName(31337)));
}

TEST(StoreTest, CompactorBackgroundThreadDrainsSegments) {
  store::StoreOptions so = SmallStoreOptions(4);
  so.compact_trigger = 2;
  auto s = store::Store::Open(FreshDir("store_compactor_bg"), so);
  ASSERT_TRUE(s.ok());
  std::vector<store::IngestBatch> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back(MakeBatch("bg-" + std::to_string(i % 3), i * 1000, 5));
    ASSERT_TRUE(s.value()->Append(batches.back()).ok());
  }
  ASSERT_GE(s.value()->num_segments(), 2u);

  store::Compactor compactor(s.value().get(), {/*poll_interval_ms=*/10});
  compactor.Start();
  compactor.Notify();
  // The thread drains rounds until the segment count drops below the
  // trigger; give it (generous) wall time, then verify.
  for (int spins = 0; spins < 500 && s.value()->CompactionDue(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  compactor.Stop();
  EXPECT_FALSE(s.value()->CompactionDue());
  EXPECT_LT(s.value()->num_segments(), 2u);
  EXPECT_GE(compactor.rounds(), 1u);
  EXPECT_EQ(compactor.failures(), 0u);

  auto oracle = store::Store::Open(FreshDir("store_compactor_bg_oracle"),
                                   SmallStoreOptions());
  ASSERT_TRUE(oracle.ok());
  for (const auto& b : batches) ASSERT_TRUE(oracle.value()->Append(b).ok());
  ExpectSameDatabase(s.value()->MaterializeAll("db"),
                     oracle.value()->MaterializeAll("db"));
}

TEST_F(StoreQueryTest, CompactedSnapshotQueryByteIdenticalToUncompacted) {
  // The acceptance gate: fully compact the fixture store (which holds
  // several segments plus a live memtable) and re-run every query —
  // each response must serialize byte-identically to both the
  // uncompacted snapshot and the merged-database oracle.
  auto before = store_->Snapshot();
  while (store_->num_segments() > 1) {
    auto cst = store_->CompactOnce(/*force=*/true);
    ASSERT_TRUE(cst.ok()) << cst.status().ToString();
    ASSERT_GT(cst.value().inputs, 0u);
  }
  auto after = store_->Snapshot();
  ASSERT_NE(before.get(), after.get());
  ExpectSameDatabase(store_->MaterializeAll("merged"), merged_);
  for (core::Matcher matcher :
       {core::Matcher::kNaiveBayes, core::Matcher::kAlphaFilter}) {
    for (size_t qi = 0; qi < p_.size(); ++qi) {
      auto want = engine_->Query(p_[qi], merged_, matcher);
      auto uncompacted = before->Query(*engine_, p_[qi], matcher, nullptr);
      auto got = after->Query(*engine_, p_[qi], matcher, nullptr);
      ASSERT_EQ(want.ok(), got.ok()) << p_[qi].label();
      if (!want.ok()) continue;
      ASSERT_TRUE(uncompacted.ok());
      const std::string want_json =
          io::QueryResultToJson(p_[qi].label(), want.value());
      EXPECT_EQ(io::QueryResultToJson(p_[qi].label(), got.value()), want_json)
          << "query " << p_[qi].label();
      EXPECT_EQ(io::QueryResultToJson(p_[qi].label(), uncompacted.value()),
                want_json)
          << "query " << p_[qi].label();
    }
  }
}

// --------------------------------------------------------------------------
// Candidate outcomes: every scored candidate lands in exactly one of
// fast_reject, nb_reject, tail_exact and tail_rna, on every query path.

struct OutcomeCounts {
  int64_t candidates = 0;
  int64_t fast_reject = 0;
  int64_t nb_reject = 0;
  int64_t tail_exact = 0;
  int64_t tail_rna = 0;
};

OutcomeCounts ReadOutcomeCounts() {
  auto& reg = obs::MetricsRegistry::Global();
  OutcomeCounts c;
  c.candidates = reg.GetCounter("ftl_query_candidates_total").Value();
  c.fast_reject = reg.GetCounter("ftl_query_fast_reject_total").Value();
  c.nb_reject = reg.GetCounter("ftl_query_nb_reject_total").Value();
  c.tail_exact = reg.GetCounter("ftl_query_tail_exact_total").Value();
  c.tail_rna = reg.GetCounter("ftl_query_tail_rna_total").Value();
  return c;
}

TEST_F(StoreQueryTest, CandidateOutcomesPartitionEveryPath) {
  const core::BlockingIndex index(merged_, {});
  auto snap = store_->Snapshot();
  // The served paths pass an inert QueryOptions rather than none.
  const core::QueryOptions inert;
  core::EngineOptions parallel_opts = engine_->options();
  parallel_opts.num_threads = 4;
  core::FtlEngine parallel(parallel_opts);
  parallel.SetModels(engine_->models());
  using Run = std::function<Result<core::QueryResult>(
      const traj::Trajectory&, core::Matcher)>;
  const std::vector<std::pair<std::string, Run>> paths = {
      {"serial engine",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return engine_->Query(q, merged_, m, 1);
       }},
      {"parallel engine",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return engine_->Query(q, merged_, m, 4);
       }},
      {"guaranteed blocking",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return engine_->QueryBlocked(q, merged_, index,
                                      core::BlockingMode::kGuaranteed, m);
       }},
      {"store snapshot",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return snap->Query(*engine_, q, m, nullptr);
       }},
      {"parallel store snapshot",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return snap->Query(*engine_, q, m, nullptr, 4);
       }},
      {"served store snapshot",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return snap->Query(*engine_, q, m, &inert);
       }},
      {"parallel engine with inert limits",
       [&](const traj::Trajectory& q, core::Matcher m) {
         return parallel.Query(q, merged_, m, &inert);
       }},
  };
  for (core::Matcher matcher :
       {core::Matcher::kNaiveBayes, core::Matcher::kAlphaFilter}) {
    const bool nb = matcher == core::Matcher::kNaiveBayes;
    for (const auto& [name, run] : paths) {
      const std::string where = name + (nb ? ", nb" : ", alpha");
      const OutcomeCounts before = ReadOutcomeCounts();
      int64_t evaluated = 0;
      for (const traj::Trajectory& q : p_) {
        auto r = run(q, matcher);
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
        evaluated += static_cast<int64_t>(r.value().evaluated);
      }
      const OutcomeCounts after = ReadOutcomeCounts();
      const int64_t candidates = after.candidates - before.candidates;
      const int64_t fast = after.fast_reject - before.fast_reject;
      const int64_t nb_rejects = after.nb_reject - before.nb_reject;
      const int64_t exact = after.tail_exact - before.tail_exact;
      const int64_t rna = after.tail_rna - before.tail_rna;
      EXPECT_GT(candidates, 0) << where;
      EXPECT_EQ(candidates, evaluated) << where;
      EXPECT_EQ(fast + nb_rejects + exact + rna, candidates) << where;
      // Each matcher rejects through its own outcome only.
      EXPECT_EQ(nb ? fast : nb_rejects, 0) << where;
      EXPECT_GT(nb ? nb_rejects : fast, 0) << where;
    }
  }
}

}  // namespace
}  // namespace ftl
