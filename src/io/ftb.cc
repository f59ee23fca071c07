#include "io/ftb.h"

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "io/file_util.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define FTL_FTB_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FTL_FTB_HAS_MMAP 0
#endif

namespace ftl::io {
namespace {

// ---------------------------------------------------------------------------
// File geometry. All multi-byte fields are little-endian; every section
// starts at an 8-byte-aligned file offset so that mmap'd column
// pointers are naturally aligned for int64_t/double access.

constexpr size_t kHeaderSize = 48;
constexpr size_t kTableOffset = kHeaderSize;
constexpr size_t kEntrySize = 24;  // u32 id, u32 crc32, u64 offset, u64 length
constexpr uint32_t kSectionCount = 8;
constexpr size_t kTableSize = kSectionCount * kEntrySize;
constexpr unsigned char kFtbFooter[8] = {'F', 'T', 'B', 'E', 'N', 'D', '\r', '\n'};
constexpr size_t kFooterSize = sizeof(kFtbFooter);
constexpr size_t kMinFileSize = kHeaderSize + kTableSize + kFooterSize;

// Header field offsets.
constexpr size_t kOffVersion = 8;
constexpr size_t kOffSectionCount = 12;
constexpr size_t kOffNumTrajectories = 16;
constexpr size_t kOffNumRecords = 24;
constexpr size_t kOffFileLength = 32;
constexpr size_t kOffTableCrc = 40;
constexpr size_t kOffHeaderCrc = 44;

// Section ids, in table (and file) order.
enum SectionId : uint32_t {
  kSecRecordOffsets = 1,  // (num_trajectories + 1) × u64
  kSecOwners = 2,         // num_trajectories × u64
  kSecLabelOffsets = 3,   // (num_trajectories + 1) × u64
  kSecLabelPool = 4,      // concatenated label bytes
  kSecTimestamps = 5,     // num_records × i64
  kSecX = 6,              // num_records × f64
  kSecY = 7,              // num_records × f64
  kSecName = 8,           // database display name, UTF-8 bytes
};

bool HostIsLittleEndian() {
  uint16_t probe = 1;
  unsigned char b;
  std::memcpy(&b, &probe, 1);
  return b == 1;
}

size_t AlignUp8(size_t v) { return (v + 7u) & ~size_t{7}; }

/// Version-2 section alignment: every section starts on a 32-byte
/// boundary so 256-bit vector loads on the mmap'd columns (page
/// aligned in memory) are themselves aligned.
size_t AlignUp32(size_t v) { return (v + 31u) & ~size_t{31}; }

/// Alignment the on-disk format guarantees for section offsets:
/// version 1 padded to 8 bytes, version 2 pads to 32.
uint64_t SectionAlignment(uint32_t version) { return version >= 2 ? 32 : 8; }

void StoreU32(std::string* buf, size_t off, uint32_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}
void StoreU64(std::string* buf, size_t off, uint64_t v) {
  std::memcpy(buf->data() + off, &v, sizeof(v));
}
uint32_t LoadU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t LoadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Setup-time metric handles (DESIGN.md §8 discipline: resolve once,
// never touch the registry per event).
struct FtbMetrics {
  obs::Counter& loads_mmap;
  obs::Counter& loads_heap;
  obs::Counter& bytes_mapped;
  obs::Counter& checksum_failures;
  obs::Histogram& load_us;

  static FtbMetrics& Get() {
    static FtbMetrics m{
        obs::MetricsRegistry::Global().GetCounter(
            "ftl_io_ftb_loads_total{mode=\"mmap\"}"),
        obs::MetricsRegistry::Global().GetCounter(
            "ftl_io_ftb_loads_total{mode=\"heap\"}"),
        obs::MetricsRegistry::Global().GetCounter(
            "ftl_io_ftb_bytes_mapped_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "ftl_io_ftb_checksum_failures_total"),
        obs::MetricsRegistry::Global().GetHistogram("ftl_io_ftb_load_us"),
    };
    return m;
  }
};

// ---------------------------------------------------------------------------
// Storage backends for the reader.

#if FTL_FTB_HAS_MMAP
/// A read-only private mapping of a whole file; unmapped on release.
struct MmapStorage {
  void* base = nullptr;
  size_t size = 0;
  ~MmapStorage() {
    if (base != nullptr) ::munmap(base, size);
  }
};

Result<std::shared_ptr<MmapStorage>> MmapWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  auto storage = std::make_shared<MmapStorage>();
  storage->size = static_cast<size_t>(st.st_size);
  if (storage->size > 0) {
    void* base =
        ::mmap(nullptr, storage->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return Status::IOError("mmap failed: " + path);
    }
    storage->base = base;
  }
  ::close(fd);
  return storage;
}
#endif  // FTL_FTB_HAS_MMAP

/// Heap fallback: the whole file in a vector (operator new alignment,
/// ≥ alignof(max_align_t), so column pointers stay 8-byte aligned).
Result<std::shared_ptr<std::vector<char>>> ReadWholeFile(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::IOError("cannot open for read: " + path);
  std::streamoff size = f.tellg();
  if (size < 0) return Status::IOError("cannot size: " + path);
  auto buf = std::make_shared<std::vector<char>>(static_cast<size_t>(size));
  f.seekg(0);
  if (size > 0) f.read(buf->data(), size);
  if (!f) return Status::IOError("read failed: " + path);
  return buf;
}

Status CorruptionError(const std::string& path, const std::string& what) {
  return Status::IOError("FTB corruption in " + path + ": " + what);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  // Slicing-by-8: eight derived tables let the loop fold 8 bytes per
  // iteration instead of 1, which matters because load-time validation
  // CRCs every payload byte — the byte-at-a-time kernel capped FTB
  // loads at ~400 MB/s and ate most of the win over CSV parsing.
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // The 8-byte fold XORs the running CRC into a raw 4-byte load, which
  // is only correct little-endian; BE hosts take the byte loop (the
  // codec itself is LE-only anyway, but Crc32 is public).
  while (HostIsLittleEndian() && len >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
        tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
        tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    c = tables[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool LooksLikeFtb(const void* bytes, size_t len) {
  return len >= sizeof(kFtbMagic) &&
         std::memcmp(bytes, kFtbMagic, sizeof(kFtbMagic)) == 0;
}

bool SniffFtb(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  unsigned char head[sizeof(kFtbMagic)];
  f.read(reinterpret_cast<char*>(head), sizeof(head));
  return f.gcount() == static_cast<std::streamsize>(sizeof(head)) &&
         LooksLikeFtb(head, sizeof(head));
}

Status WriteFtb(const traj::FlatDatabase& db, const std::string& path) {
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "FTB writer requires a little-endian host");
  }
  const traj::FlatDatabase::Columns& c = db.columns();
  const std::string& name = db.name();

  struct Section {
    uint32_t id;
    const void* data;
    size_t length;
    size_t offset = 0;
  };
  Section sections[kSectionCount] = {
      {kSecRecordOffsets, c.record_offsets,
       (c.num_trajectories + 1) * sizeof(uint64_t)},
      {kSecOwners, c.owners, c.num_trajectories * sizeof(uint64_t)},
      {kSecLabelOffsets, c.label_offsets,
       (c.num_trajectories + 1) * sizeof(uint64_t)},
      {kSecLabelPool, c.label_pool, c.label_pool_size},
      {kSecTimestamps, c.ts, c.num_records * sizeof(int64_t)},
      {kSecX, c.xs, c.num_records * sizeof(double)},
      {kSecY, c.ys, c.num_records * sizeof(double)},
      {kSecName, name.data(), name.size()},
  };

  size_t pos = kTableOffset + kTableSize;
  for (Section& s : sections) {
    pos = AlignUp32(pos);
    s.offset = pos;
    pos += s.length;
  }
  pos = AlignUp8(pos);
  const size_t file_length = pos + kFooterSize;

  std::string payload(file_length, '\0');
  std::memcpy(payload.data(), kFtbMagic, sizeof(kFtbMagic));
  StoreU32(&payload, kOffVersion, kFtbVersion);
  StoreU32(&payload, kOffSectionCount, kSectionCount);
  StoreU64(&payload, kOffNumTrajectories, c.num_trajectories);
  StoreU64(&payload, kOffNumRecords, c.num_records);
  StoreU64(&payload, kOffFileLength, file_length);

  for (size_t i = 0; i < kSectionCount; ++i) {
    const Section& s = sections[i];
    // A default-constructed FlatDatabase has null offset-table pointers
    // with one-entry (8-byte) section lengths; the zero-filled payload
    // already encodes those empty prefix-sum tables, so a null source
    // is skipped rather than handed to memcpy (UB).
    if (s.length > 0 && s.data != nullptr) {
      std::memcpy(payload.data() + s.offset, s.data, s.length);
    }
    const size_t e = kTableOffset + i * kEntrySize;
    StoreU32(&payload, e, s.id);
    StoreU32(&payload, e + 4, Crc32(payload.data() + s.offset, s.length));
    StoreU64(&payload, e + 8, s.offset);
    StoreU64(&payload, e + 16, s.length);
  }
  StoreU32(&payload, kOffTableCrc,
           Crc32(payload.data() + kTableOffset, kTableSize));
  StoreU32(&payload, kOffHeaderCrc, Crc32(payload.data(), kOffHeaderCrc));
  std::memcpy(payload.data() + pos, kFtbFooter, kFooterSize);

  return WriteTextFile(path, payload, "io.write_ftb");
}

Status WriteFtb(const traj::TrajectoryDatabase& db, const std::string& path) {
  return WriteFtb(traj::FlatDatabase::FromDatabase(db), path);
}

Result<traj::FlatDatabase> ReadFtb(const std::string& path,
                                   const FtbReadOptions& options,
                                   FtbLoadInfo* info) {
  FTL_FAILPOINT("io.read_ftb");
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "FTB reader requires a little-endian host");
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Acquire the bytes: mmap when asked for and available, heap
  // otherwise. `storage` keeps whichever backing alive for the
  // lifetime of the returned database.
  std::shared_ptr<const void> storage;
  const unsigned char* base = nullptr;
  size_t size = 0;
  bool mmapped = false;
#if FTL_FTB_HAS_MMAP
  if (options.prefer_mmap) {
    auto mapped = MmapWholeFile(path);
    if (!mapped.ok()) return mapped.status();
    base = static_cast<const unsigned char*>(mapped.value()->base);
    size = mapped.value()->size;
    storage = std::move(mapped).value();
    mmapped = true;
  }
#endif
  if (!mmapped) {
    auto heap = ReadWholeFile(path);
    if (!heap.ok()) return heap.status();
    base = reinterpret_cast<const unsigned char*>(heap.value()->data());
    size = heap.value()->size();
    storage = std::move(heap).value();
  }

  // Header, footer, and length validation.
  if (size < kMinFileSize) return CorruptionError(path, "file too small");
  if (!LooksLikeFtb(base, size)) return CorruptionError(path, "bad magic");
  if (Crc32(base, kOffHeaderCrc) != LoadU32(base + kOffHeaderCrc)) {
    FtbMetrics::Get().checksum_failures.Add();
    return CorruptionError(path, "header CRC mismatch");
  }
  const uint32_t version = LoadU32(base + kOffVersion);
  if (version < kFtbMinReadVersion || version > kFtbVersion) {
    return CorruptionError(path, "unsupported version " +
                                     std::to_string(version));
  }
  if (LoadU32(base + kOffSectionCount) != kSectionCount) {
    return CorruptionError(path, "unexpected section count");
  }
  if (LoadU64(base + kOffFileLength) != size) {
    return CorruptionError(path, "file length mismatch (truncated?)");
  }
  if (std::memcmp(base + size - kFooterSize, kFtbFooter, kFooterSize) != 0) {
    return CorruptionError(path, "missing end-of-file marker");
  }
  if (Crc32(base + kTableOffset, kTableSize) != LoadU32(base + kOffTableCrc)) {
    FtbMetrics::Get().checksum_failures.Add();
    return CorruptionError(path, "section table CRC mismatch");
  }

  const uint64_t num_traj = LoadU64(base + kOffNumTrajectories);
  const uint64_t num_records = LoadU64(base + kOffNumRecords);

  // Any valid file stores (num_traj + 1) u64 offsets and num_records
  // i64 timestamps in-body, so a count at or above size/8 cannot fit.
  // Rejecting such counts here is exact, and it keeps the
  // expected-length products below from wrapping uint64 on a crafted
  // header (which would let a tiny section pass the length check and
  // send the endpoint/monotonicity validation out of bounds).
  if (num_traj >= size / sizeof(uint64_t) ||
      num_records >= size / sizeof(int64_t)) {
    return CorruptionError(path,
                           "trajectory/record count exceeds file size");
  }

  // Section table: ids in canonical order, in-bounds, aligned,
  // non-overlapping in ascending file order (what the writer
  // produces), with the lengths the header's counts dictate.
  struct Entry {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
  };
  Entry entries[kSectionCount];
  uint64_t min_offset = kTableOffset + kTableSize;
  const uint64_t expected_lengths[kSectionCount] = {
      (num_traj + 1) * sizeof(uint64_t),  // record offsets
      num_traj * sizeof(uint64_t),        // owners
      (num_traj + 1) * sizeof(uint64_t),  // label offsets
      static_cast<uint64_t>(-1),          // label pool: checked below
      num_records * sizeof(int64_t),      // timestamps
      num_records * sizeof(double),       // x
      num_records * sizeof(double),       // y
      static_cast<uint64_t>(-1),          // name: any length
  };
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const unsigned char* e = base + kTableOffset + i * kEntrySize;
    if (LoadU32(e) != i + 1) {
      return CorruptionError(path, "section id out of order");
    }
    entries[i].crc = LoadU32(e + 4);
    entries[i].offset = LoadU64(e + 8);
    entries[i].length = LoadU64(e + 16);
    if (entries[i].offset % SectionAlignment(version) != 0 ||
        entries[i].offset > size - kFooterSize ||
        entries[i].length > size - kFooterSize - entries[i].offset) {
      return CorruptionError(path, "section out of bounds");
    }
    if (entries[i].offset < min_offset) {
      return CorruptionError(path, "sections overlap or out of order");
    }
    min_offset = entries[i].offset + entries[i].length;
    if (expected_lengths[i] != static_cast<uint64_t>(-1) &&
        entries[i].length != expected_lengths[i]) {
      return CorruptionError(path, "section length mismatch");
    }
  }
  if (options.verify_checksums) {
    for (uint32_t i = 0; i < kSectionCount; ++i) {
      if (Crc32(base + entries[i].offset, entries[i].length) !=
          entries[i].crc) {
        FtbMetrics::Get().checksum_failures.Add();
        return CorruptionError(
            path, "section " + std::to_string(i + 1) + " CRC mismatch");
      }
    }
  }

  traj::FlatDatabase::Columns cols;
  cols.record_offsets = reinterpret_cast<const uint64_t*>(
      base + entries[kSecRecordOffsets - 1].offset);
  cols.owners =
      reinterpret_cast<const uint64_t*>(base + entries[kSecOwners - 1].offset);
  cols.label_offsets = reinterpret_cast<const uint64_t*>(
      base + entries[kSecLabelOffsets - 1].offset);
  cols.label_pool =
      reinterpret_cast<const char*>(base + entries[kSecLabelPool - 1].offset);
  cols.ts = reinterpret_cast<const int64_t*>(
      base + entries[kSecTimestamps - 1].offset);
  cols.xs = reinterpret_cast<const double*>(base + entries[kSecX - 1].offset);
  cols.ys = reinterpret_cast<const double*>(base + entries[kSecY - 1].offset);
  cols.num_trajectories = static_cast<size_t>(num_traj);
  cols.num_records = static_cast<size_t>(num_records);
  cols.label_pool_size =
      static_cast<size_t>(entries[kSecLabelPool - 1].length);

  // Offset tables must be monotone prefix sums that tile the columns
  // exactly; otherwise views could read out of bounds.
  if (cols.record_offsets[0] != 0 ||
      cols.record_offsets[num_traj] != num_records ||
      cols.label_offsets[0] != 0 ||
      cols.label_offsets[num_traj] != cols.label_pool_size) {
    return CorruptionError(path, "offset table endpoints mismatch");
  }
  for (uint64_t i = 0; i < num_traj; ++i) {
    if (cols.record_offsets[i] > cols.record_offsets[i + 1] ||
        cols.label_offsets[i] > cols.label_offsets[i + 1]) {
      return CorruptionError(path, "offset table not monotone");
    }
  }
  if (options.verify_checksums) {
    // Timestamp order is an engine invariant (binary search, merge
    // cursors), and finite coordinates are a loader invariant (ReadCsv
    // and Store::Append refuse the rest); a file breaking either must
    // not load.
    for (uint64_t i = 0; i < num_traj; ++i) {
      const uint64_t begin = cols.record_offsets[i];
      for (uint64_t r = begin; r < cols.record_offsets[i + 1]; ++r) {
        if (!std::isfinite(cols.xs[r]) || !std::isfinite(cols.ys[r])) {
          return CorruptionError(
              path, "non-finite coordinate in trajectory " +
                        std::to_string(i));
        }
        if (r > begin && cols.ts[r - 1] > cols.ts[r]) {
          return CorruptionError(
              path, "timestamps out of order in trajectory " +
                        std::to_string(i));
        }
      }
    }
  }

  std::string name(
      reinterpret_cast<const char*>(base + entries[kSecName - 1].offset),
      static_cast<size_t>(entries[kSecName - 1].length));
  traj::FlatDatabase db =
      traj::FlatDatabase::FromColumns(cols, std::move(storage),
                                      std::move(name));
  if (!db.HasUniqueLabels()) {
    return CorruptionError(path, "duplicate trajectory labels");
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  FtbMetrics& m = FtbMetrics::Get();
  (mmapped ? m.loads_mmap : m.loads_heap).Add();
  m.bytes_mapped.Add(static_cast<int64_t>(size));
  m.load_us.Record(static_cast<int64_t>(seconds * 1e6));
  if (info != nullptr) {
    info->bytes = size;
    info->mmapped = mmapped;
    info->load_seconds = seconds;
  }
  return db;
}

}  // namespace ftl::io
