#include "core/blocking.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace ftl::core {
namespace {

/// Grid coordinates are clamped to ±2^30 before the int32 cast, so
/// extreme coordinates (or a tiny cell size) stay well-defined and a
/// neighborhood offset can never wrap int32.
constexpr double kMaxCellCoord = 1073741824.0;  // 2^30

/// A candidate whose span covers more buckets than this goes to the
/// always-checked overflow list instead of one posting per bucket,
/// bounding index size against epoch-spanning outliers.
constexpr uint64_t kMaxSpanBuckets = 1024;

int32_t CellCoord(double v, double cell_size) {
  double c = std::floor(v / cell_size);
  if (!(c >= -kMaxCellCoord)) return static_cast<int32_t>(-kMaxCellCoord);
  if (c > kMaxCellCoord) return static_cast<int32_t>(kMaxCellCoord);
  return static_cast<int32_t>(c);
}

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b, r = a % b;
  return (r != 0 && (r < 0) != (b < 0)) ? q - 1 : q;
}

int64_t SatAdd(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    return b > 0 ? std::numeric_limits<int64_t>::max()
                 : std::numeric_limits<int64_t>::min();
  }
  return r;
}

int64_t SatSub(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) {
    return b > 0 ? std::numeric_limits<int64_t>::min()
                 : std::numeric_limits<int64_t>::max();
  }
  return r;
}

/// Pre-resolved obs handles (names are resolved once per process; the
/// per-event cost is one relaxed atomic add — DESIGN.md §8).
struct BlockingMetrics {
  obs::Counter* builds;
  obs::Histogram* build_us;
  obs::Counter* queries_aggressive;
  obs::Counter* queries_guaranteed;
  obs::Counter* pairs_examined;
  obs::Counter* pairs_pruned;
};

const BlockingMetrics& Metrics() {
  static const BlockingMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    BlockingMetrics out;
    out.builds = &r.GetCounter("ftl_blocking_index_builds_total");
    out.build_us = &r.GetHistogram("ftl_blocking_index_build_us");
    out.queries_aggressive =
        &r.GetCounter("ftl_blocking_queries_total{mode=\"aggressive\"}");
    out.queries_guaranteed =
        &r.GetCounter("ftl_blocking_queries_total{mode=\"guaranteed\"}");
    out.pairs_examined = &r.GetCounter("ftl_blocking_pairs_examined_total");
    out.pairs_pruned = &r.GetCounter("ftl_blocking_pairs_pruned_total");
    return out;
  }();
  return m;
}

void RecordQuery(bool guaranteed, size_t survivors, size_t total) {
  const BlockingMetrics& m = Metrics();
  (guaranteed ? m.queries_guaranteed : m.queries_aggressive)->Add(1);
  m.pairs_examined->Add(static_cast<int64_t>(survivors));
  m.pairs_pruned->Add(static_cast<int64_t>(total - survivors));
}

/// Sizes the scratch for `n` candidates, with a count per candidate
/// only when `counts` is set. Between probes every bit and count is
/// zero (Collect clears what a probe set), so reuse across queries and
/// across indices of any size needs no O(n) clearing.
void Prepare(BlockingScratch* s, size_t n, bool counts) {
  const size_t words = (n + 63) / 64;
  if (s->hit.size() < words) s->hit.resize(words, 0);
  if (counts && s->count.size() < n) s->count.resize(n, 0);
}

/// Marks `cand` touched and, with `counts`, adds `add` to its count
/// (saturating).
void Hit(BlockingScratch* s, uint32_t cand, uint32_t add, bool counts) {
  s->hit[cand >> 6] |= uint64_t{1} << (cand & 63);
  if (counts && __builtin_add_overflow(s->count[cand], add, &s->count[cand])) {
    s->count[cand] = std::numeric_limits<uint32_t>::max();
  }
}

/// Appends every marked candidate for which `keep` holds to `out`, in
/// ascending order, clearing the bitset as it goes. `keep` must clear
/// the candidate's count when the probe kept counts.
template <typename Keep>
void Collect(BlockingScratch* s, size_t n, std::vector<size_t>* out,
             Keep keep) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = s->hit[w];
    if (bits == 0) continue;
    s->hit[w] = 0;
    do {
      const size_t cand = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (keep(cand)) out->push_back(cand);
    } while (bits != 0);
  }
}

/// [min t, max t] over all records; computed explicitly instead of
/// trusting front()/back(), so inputs violating the sorted invariant
/// (e.g. hand-built FlatDatabase columns) still get a correct span.
std::pair<int64_t, int64_t> TimeSpan(const traj::FlatTrajectoryView& t) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t j = 0; j < t.size(); ++j) {
    int64_t ts = t[j].t;
    lo = std::min(lo, ts);
    hi = std::max(hi, ts);
  }
  return {lo, hi};
}

/// One posting as Build emits it, in ascending candidate order
/// (weight: the record count, for occupancy).
struct PostingRow {
  int64_t key;
  uint32_t cand;
  uint32_t weight;
};

/// Allocator for Build's transient buffers: each allocation is its own
/// anonymous mapping, populated when mapped (one call, not a fault per
/// page; Build allocates each buffer at its final size) and unmapped
/// when freed. From malloc, a build on a recovery worker thread would
/// leave these buffers resident in that thread's arena after the build
/// returns (DESIGN.md §12).
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}
  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) noexcept { ::munmap(p, n * sizeof(T)); }
  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Widest radix digit; the digit table holds at most 2^16 counts.
constexpr int kMaxDigitBits = 16;

/// Stable LSD radix sort of `rows` on key − min key, computed in uint64
/// so any int64 range works. The passes cover only the bits that range
/// spans, in as few digits of at most kMaxDigitBits as fit (one pass
/// for a few thousand buckets, a few for packed cell keys). Memory is
/// `spare` (resized to the rows) plus the digit table, never a slot per
/// key. Stability keeps each key's rows in candidate order.
void SortByKey(PageVector<PostingRow>* rows, PageVector<PostingRow>* spare) {
  const size_t n = rows->size();
  if (n < 2) return;
  const auto [lo, hi] = std::minmax_element(
      rows->begin(), rows->end(),
      [](const PostingRow& a, const PostingRow& b) { return a.key < b.key; });
  const uint64_t base = static_cast<uint64_t>(lo->key);
  const uint64_t range = static_cast<uint64_t>(hi->key) - base;
  if (range == 0) return;
  const int bits = 64 - __builtin_clzll(range);
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
  PageVector<size_t> next(size_t{1} << digit_bits);
  spare->resize(n);
  for (int shift = 0; shift < bits; shift += digit_bits) {
    auto digit = [&](const PostingRow& r) {
      return ((static_cast<uint64_t>(r.key) - base) >> shift) & mask;
    };
    std::fill(next.begin(), next.end(), size_t{0});
    for (const PostingRow& r : *rows) ++next[digit(r)];
    size_t at = 0;
    for (size_t& slot : next) at += std::exchange(slot, at);
    for (const PostingRow& r : *rows) (*spare)[next[digit(r)]++] = r;
    rows->swap(*spare);
  }
}

}  // namespace

const char* BlockingModeName(BlockingMode mode) {
  switch (mode) {
    case BlockingMode::kOff:
      return "off";
    case BlockingMode::kGuaranteed:
      return "guaranteed";
    case BlockingMode::kAggressive:
      return "aggressive";
  }
  return "off";
}

Result<BlockingMode> ParseBlockingMode(std::string_view name) {
  if (name == "off") return BlockingMode::kOff;
  if (name == "guaranteed") return BlockingMode::kGuaranteed;
  if (name == "aggressive") return BlockingMode::kAggressive;
  return Status::InvalidArgument(
      "unknown blocking mode '" + std::string(name) +
      "' (expected off | guaranteed | aggressive)");
}

Status BlockingOptions::Validate() const {
  if (!std::isfinite(cell_size_meters) || cell_size_meters <= 0.0) {
    return Status::InvalidArgument(
        "blocking cell_size_meters must be positive and finite");
  }
  if (temporal_slack_seconds < 0) {
    return Status::InvalidArgument(
        "blocking temporal_slack_seconds must be non-negative");
  }
  if (time_bucket_seconds <= 0) {
    return Status::InvalidArgument(
        "blocking time_bucket_seconds must be positive");
  }
  if (neighborhood < 0 || neighborhood > 16) {
    return Status::InvalidArgument(
        "blocking neighborhood must be in [0, 16]");
  }
  return Status();
}

BlockingIndex::BlockingIndex(const traj::FlatDatabase& db,
                             const BlockingOptions& options, BlockingMode mode)
    : options_(options), mode_(mode) {
  Stopwatch sw;
  // Clamp invalid knobs to safe defaults (callers that must reject
  // instead run BlockingOptions::Validate() first).
  if (!std::isfinite(options_.cell_size_meters) ||
      options_.cell_size_meters <= 0.0) {
    options_.cell_size_meters = 3000.0;
  }
  if (options_.temporal_slack_seconds < 0) options_.temporal_slack_seconds = 0;
  if (options_.time_bucket_seconds <= 0) options_.time_bucket_seconds = 3600;
  options_.neighborhood = std::clamp(options_.neighborhood, 0, 16);

  const size_t n = db.size();
  num_candidates_ = n;

  // Only what this mode's probe reads: guaranteed reads occupancy;
  // aggressive reads the exact spans when use_temporal is set, plus the
  // cell lists when the spatial filter is on, else the span lists.
  const bool aggressive = mode_ == BlockingMode::kAggressive;
  const bool build_occupancy = mode_ == BlockingMode::kGuaranteed;
  const bool build_cells = aggressive && options_.use_spatial &&
                           options_.min_shared_cells > 0;
  const bool build_spans = aggressive && options_.use_temporal;
  const bool build_span_lists = build_spans && !build_cells;

  // A mode builds at most one list. It is emitted in candidate order
  // into `rows`, then radix-sorted on its key and flattened. Occupancy
  // and cells emit at most one row per record and span one per covered
  // bucket, so the record count, or the exact spans taken first, size
  // `rows` and its `spare` once.
  const int64_t bucket = options_.time_bucket_seconds;
  auto span_width = [bucket](std::pair<int64_t, int64_t> span) {
    return static_cast<uint64_t>(FloorDiv(span.second, bucket)) -
           static_cast<uint64_t>(FloorDiv(span.first, bucket));
  };
  size_t span_rows = 0;
  if (build_spans) {
    spans_.assign(n, {1, 0});  // (1, 0): empty span, never overlaps
    for (size_t i = 0; i < n; ++i) {
      if (db[i].empty()) continue;
      spans_[i] = TimeSpan(db[i]);
      const uint64_t width = span_width(spans_[i]);
      if (width < kMaxSpanBuckets) span_rows += width + 1;
    }
  }
  size_t max_rows = 0;
  if (build_occupancy || build_cells) max_rows = db.TotalRecords();
  if (build_span_lists) max_rows = span_rows;
  PageVector<PostingRow> rows, spare;
  rows.reserve(max_rows);
  spare.reserve(max_rows);
  // Rows that repeat a (key, candidate) pair are adjacent after the
  // stable sort: runs of one candidate's bucket or cell that
  // out-of-order records or revisits split. They merge into one
  // posting, weights summed. A counting pass sizes every array once.
  auto flatten = [&rows, &spare](PostingLists* out, bool keep_weight) {
    SortByKey(&rows, &spare);
    size_t keys = 0, postings = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const bool new_key = i == 0 || rows[i].key != rows[i - 1].key;
      keys += new_key;
      postings += new_key || rows[i].cand != rows[i - 1].cand;
    }
    out->keys.reserve(keys);
    out->begin.reserve(keys + 1);
    out->entry.reserve(postings);
    if (keep_weight) out->weight.reserve(postings);
    for (const PostingRow& r : rows) {
      if (out->keys.empty() || out->keys.back() != r.key) {
        out->keys.push_back(r.key);
        out->begin.push_back(static_cast<uint32_t>(out->entry.size()));
      } else if (out->entry.back() == r.cand) {
        if (keep_weight) out->weight.back() += r.weight;
        continue;
      }
      out->entry.push_back(r.cand);
      if (keep_weight) out->weight.push_back(r.weight);
    }
    out->begin.push_back(static_cast<uint32_t>(out->entry.size()));
    rows.clear();
  };

  // Occupancy: one row per run of records in one bucket, so in-order
  // records need no per-candidate sort.
  if (build_occupancy) {
    for (size_t i = 0; i < n; ++i) {
      const auto& t = db[i];
      if (t.empty()) continue;
      const uint32_t cand = static_cast<uint32_t>(i);
      int64_t run_bucket = FloorDiv(t[0].t, bucket);
      uint32_t run = 0;
      for (size_t j = 0; j < t.size(); ++j) {
        const int64_t b = FloorDiv(t[j].t, bucket);
        if (b != run_bucket) {
          rows.push_back({run_bucket, cand, run});
          run_bucket = b;
          run = 0;
        }
        ++run;
      }
      rows.push_back({run_bucket, cand, run});
    }
    flatten(&occupancy_, /*keep_weight=*/true);
  }

  // Span coverage: every bucket in [bucket(lo), bucket(hi)], unless
  // the span is so long it would bloat the lists. The width is
  // unsigned: an int64 span can cover more than INT64_MAX buckets.
  if (build_span_lists) {
    for (size_t i = 0; i < n; ++i) {
      const auto [lo, hi] = spans_[i];
      if (lo > hi) continue;
      const uint32_t cand = static_cast<uint32_t>(i);
      const int64_t b0 = FloorDiv(lo, bucket);
      const uint64_t width = span_width(spans_[i]);
      if (width >= kMaxSpanBuckets) {
        span_overflow_.push_back(cand);
        continue;
      }
      for (uint64_t k = 0; k <= width; ++k) {
        rows.push_back({b0 + static_cast<int64_t>(k), cand, 1});
      }
    }
    flatten(&span_, /*keep_weight=*/false);
  }

  // Spatial cells: one row per run of records in one cell.
  if (build_cells) {
    const double cell = options_.cell_size_meters;
    for (size_t i = 0; i < n; ++i) {
      const auto& t = db[i];
      const uint32_t cand = static_cast<uint32_t>(i);
      for (size_t j = 0; j < t.size(); ++j) {
        const auto r = t[j];
        const int64_t c = CellKey(CellCoord(r.location.x, cell),
                                  CellCoord(r.location.y, cell));
        if (j == 0 || c != rows.back().key) rows.push_back({c, cand, 1});
      }
    }
    flatten(&cells_, /*keep_weight=*/false);
  }

  build_micros_ = static_cast<int64_t>(sw.ElapsedSeconds() * 1e6);
  Metrics().builds->Add(1);
  Metrics().build_us->Record(build_micros_);
}

void BlockingIndex::MarkSharedCells(const traj::FlatTrajectoryView& query,
                                    bool counts,
                                    BlockingScratch* scratch) const {
  // Base cells of the query, deduplicated.
  std::vector<int64_t>& keys = scratch->keys;
  keys.clear();
  const double cell = options_.cell_size_meters;
  for (size_t j = 0; j < query.size(); ++j) {
    const auto r = query[j];
    keys.push_back(CellKey(CellCoord(r.location.x, cell),
                           CellCoord(r.location.y, cell)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Neighborhood expansion (appended after the base portion, then
  // deduplicated; adjacent base cells share ring cells). A probe may
  // hit the same candidate cell via several query cells' expansions;
  // each candidate cell counts once per probe cell.
  const int nb = options_.neighborhood;
  size_t probe_lo = 0, probe_hi = keys.size();
  if (nb > 0) {
    probe_lo = keys.size();
    for (size_t j = 0; j < probe_lo; ++j) {
      int32_t cx = static_cast<int32_t>(keys[j] >> 32);
      int32_t cy = static_cast<int32_t>(static_cast<uint32_t>(keys[j]));
      for (int dx = -nb; dx <= nb; ++dx) {
        for (int dy = -nb; dy <= nb; ++dy) {
          keys.push_back(CellKey(cx + dx, cy + dy));
        }
      }
    }
    std::sort(keys.begin() + probe_lo, keys.end());
    keys.erase(std::unique(keys.begin() + probe_lo, keys.end()), keys.end());
    probe_hi = keys.size();
  }

  for (size_t j = probe_lo; j < probe_hi; ++j) {
    auto it = std::lower_bound(cells_.keys.begin(), cells_.keys.end(),
                               keys[j]);
    if (it == cells_.keys.end() || *it != keys[j]) continue;
    size_t row = static_cast<size_t>(it - cells_.keys.begin());
    for (uint32_t e = cells_.begin[row]; e < cells_.begin[row + 1]; ++e) {
      Hit(scratch, cells_.entry[e], 1, counts);
    }
  }
}

void BlockingIndex::Candidates(const traj::FlatTrajectoryView& query,
                               BlockingScratch* scratch,
                               std::vector<size_t>* out) const {
  out->clear();
  const bool built = mode_ == BlockingMode::kAggressive;
  if (built && query.empty()) {
    RecordQuery(/*guaranteed=*/false, 0, num_candidates_);
    return;
  }
  const bool spatial = options_.use_spatial && options_.min_shared_cells > 0;
  const bool temporal = options_.use_temporal;
  if (!built || (!spatial && !temporal)) {
    // Not built for this probe, or no blockers: identity.
    out->resize(num_candidates_);
    std::iota(out->begin(), out->end(), size_t{0});
    RecordQuery(false, out->size(), num_candidates_);
    return;
  }

  auto [q_min, q_max] = TimeSpan(query);
  const int64_t q_lo = SatSub(q_min, options_.temporal_slack_seconds);
  const int64_t q_hi = SatAdd(q_max, options_.temporal_slack_seconds);

  if (spatial) {
    // Spatial survivors, refined by the exact span predicate — the
    // temporal index is only needed when no spatial list narrows the
    // candidate set first. Shared cells are counted only when more
    // than one is required.
    const bool counts = options_.min_shared_cells > 1;
    Prepare(scratch, num_candidates_, counts);
    MarkSharedCells(query, counts, scratch);
    Collect(scratch, num_candidates_, out, [&](size_t cand) {
      if (counts && std::exchange(scratch->count[cand], 0u) <
                        options_.min_shared_cells) {
        return false;
      }
      return !temporal || SpanOverlaps(static_cast<uint32_t>(cand), q_lo, q_hi);
    });
  } else {
    // Temporal only: probe the span lists for every bucket in the
    // query window (an interval of the sorted occupied-bucket keys, so
    // degenerate windows cost nothing), add the long-span overflow
    // list, then refine probe hits with the exact span predicate —
    // bucket rounding alone would admit near misses.
    Prepare(scratch, num_candidates_, /*counts=*/false);
    const int64_t bucket = options_.time_bucket_seconds;
    const int64_t b_lo = FloorDiv(q_lo, bucket);
    const int64_t b_hi = FloorDiv(q_hi, bucket);
    auto it = std::lower_bound(span_.keys.begin(), span_.keys.end(), b_lo);
    for (; it != span_.keys.end() && *it <= b_hi; ++it) {
      size_t row = static_cast<size_t>(it - span_.keys.begin());
      for (uint32_t e = span_.begin[row]; e < span_.begin[row + 1]; ++e) {
        Hit(scratch, span_.entry[e], 1, /*counts=*/false);
      }
    }
    for (uint32_t cand : span_overflow_) {
      Hit(scratch, cand, 1, /*counts=*/false);
    }
    Collect(scratch, num_candidates_, out, [&](size_t cand) {
      return SpanOverlaps(static_cast<uint32_t>(cand), q_lo, q_hi);
    });
  }
  RecordQuery(false, out->size(), num_candidates_);
}

void BlockingIndex::GuaranteedCandidates(
    const traj::FlatTrajectoryView& query, const BlockingGuarantee& guarantee,
    BlockingScratch* scratch, std::vector<size_t>* out) const {
  out->clear();
  if (mode_ != BlockingMode::kGuaranteed || guarantee.min_segments == 0) {
    // Not built for this probe, or the accept criterion needs no
    // evidence: nothing can be pruned.
    out->resize(num_candidates_);
    std::iota(out->begin(), out->end(), size_t{0});
    RecordQuery(/*guaranteed=*/true, out->size(), num_candidates_);
    return;
  }
  if (query.empty()) {
    // No records → no mutual segments → nothing acceptable.
    RecordQuery(true, 0, num_candidates_);
    return;
  }

  // Distinct query buckets (already ascending for a time-sorted query),
  // expanded ±r buckets and merged into disjoint intervals so every
  // candidate record lands in at most one probed interval (m̂ must
  // count each record once).
  const int64_t bucket = options_.time_bucket_seconds;
  const int64_t horizon = std::max<int64_t>(guarantee.horizon_seconds, 0);
  const int64_t r = (horizon + bucket - 1) / bucket;
  std::vector<int64_t>& keys = scratch->keys;
  keys.clear();
  for (size_t j = 0; j < query.size(); ++j) {
    const int64_t b = FloorDiv(query[j].t, bucket);
    if (keys.empty() || keys.back() != b) keys.push_back(b);
  }
  if (!std::is_sorted(keys.begin(), keys.end())) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  // Every candidate with a record in a probed bucket has m̂ >= 1, so
  // 2·m̂ >= min_segments holds for min_segments <= 2 without counting:
  // a touched candidate survives. Larger bounds count records.
  const bool counts = guarantee.min_segments > 2;
  Prepare(scratch, num_candidates_, counts);
  size_t j = 0;
  while (j < keys.size()) {
    int64_t lo = SatSub(keys[j], r), hi = SatAdd(keys[j], r);
    ++j;
    while (j < keys.size() && SatSub(keys[j], r) <= SatAdd(hi, 1)) {
      hi = SatAdd(keys[j], r);
      ++j;
    }
    auto it = std::lower_bound(occupancy_.keys.begin(),
                               occupancy_.keys.end(), lo);
    for (; it != occupancy_.keys.end() && *it <= hi; ++it) {
      size_t row = static_cast<size_t>(it - occupancy_.keys.begin());
      for (uint32_t e = occupancy_.begin[row]; e < occupancy_.begin[row + 1];
           ++e) {
        Hit(scratch, occupancy_.entry[e], occupancy_.weight[e], counts);
      }
    }
  }

  // Keep iff the segment-count upper bound 2·m̂ reaches min_segments.
  Collect(scratch, num_candidates_, out, [&](size_t cand) {
    return !counts || 2 * static_cast<uint64_t>(std::exchange(
                              scratch->count[cand], 0u)) >=
                          guarantee.min_segments;
  });
  RecordQuery(true, out->size(), num_candidates_);
}

}  // namespace ftl::core
