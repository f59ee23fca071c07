#ifndef FTL_TRAJ_FLAT_DATABASE_H_
#define FTL_TRAJ_FLAT_DATABASE_H_

/// \file flat_database.h
/// Columnar (SoA) trajectory storage: the zero-copy counterpart of
/// TrajectoryDatabase.
///
/// A FlatDatabase holds every record of every trajectory in three
/// contiguous columns (timestamps, x, y) plus a per-trajectory offset
/// table, an interned label pool, and an owner column. The layout is
/// exactly the payload of an FTB file (see io/ftb.h), so a database
/// can be backed either by owned heap columns (converted from an
/// in-memory TrajectoryDatabase) or by an mmap of an FTB file with no
/// per-record work at load time.
///
/// FlatTrajectoryView is the per-trajectory window into the columns:
/// it satisfies the trajectory-like concept of traj/alignment.h
/// (`size()`, `operator[]`, `front()`, `back()`, `empty()`, `label()`),
/// so VisitSegments and the engine's scoring hot path stream segments
/// straight out of the columns.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "traj/database.h"
#include "traj/trajectory.h"

namespace ftl::traj {

/// A non-owning SoA view of one trajectory: three column pointers plus
/// the record count. Copying is cheap (it copies pointers only); the
/// backing FlatDatabase must outlive every view taken from it.
class FlatTrajectoryView {
 public:
  FlatTrajectoryView() = default;
  FlatTrajectoryView(const int64_t* ts, const double* xs, const double* ys,
                     size_t n, std::string_view label, OwnerId owner)
      : ts_(ts), xs_(xs), ys_(ys), n_(n), label_(label), owner_(owner) {}

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Raw column access (records are in non-decreasing timestamp order,
  /// the same invariant as Trajectory).
  const int64_t* ts() const { return ts_; }
  const double* xs() const { return xs_; }
  const double* ys() const { return ys_; }

  /// Record access, 0-based. Returns by value: a Record is gathered
  /// from the three columns (24 bytes; the columns themselves are
  /// never rewritten into AoS form).
  Record operator[](size_t i) const {
    return Record{{xs_[i], ys_[i]}, ts_[i]};
  }
  Record front() const { return (*this)[0]; }
  Record back() const { return (*this)[n_ - 1]; }

  /// Source-local label (a view into the database's label pool).
  std::string_view label() const { return label_; }

  /// Ground-truth owner identity; kUnknownOwner when anonymous.
  OwnerId owner() const { return owner_; }

  /// AoS copy for call sites that need a Trajectory (training,
  /// diagnostics); not for hot paths.
  Trajectory Materialize() const;

 private:
  const int64_t* ts_ = nullptr;
  const double* xs_ = nullptr;
  const double* ys_ = nullptr;
  size_t n_ = 0;
  std::string_view label_;
  OwnerId owner_ = kUnknownOwner;
};

/// An immutable columnar trajectory database.
///
/// Construction is one of:
///  * FromDatabase — one-shot conversion of an in-memory
///    TrajectoryDatabase into owned columns;
///  * FromColumns — adoption of externally owned columns (the FTB
///    reader passes pointers into an mmap or heap buffer, with a
///    keep-alive handle).
///
/// The object is cheap to move and copy (copies share the backing
/// storage). Views and label string_views remain valid as long as any
/// copy of the database is alive.
class FlatDatabase {
 public:
  /// The raw column layout. `record_offsets` and `label_offsets` have
  /// num_trajectories + 1 entries (prefix sums; first entry 0, last
  /// entry num_records / label_pool_size respectively).
  struct Columns {
    const uint64_t* record_offsets = nullptr;
    const uint64_t* owners = nullptr;
    const uint64_t* label_offsets = nullptr;
    const char* label_pool = nullptr;
    const int64_t* ts = nullptr;
    const double* xs = nullptr;
    const double* ys = nullptr;
    size_t num_trajectories = 0;
    size_t num_records = 0;
    size_t label_pool_size = 0;
  };

  FlatDatabase() = default;

  /// Converts an AoS database into owned columns. Record order within
  /// each trajectory and trajectory order are preserved exactly.
  static FlatDatabase FromDatabase(const TrajectoryDatabase& db);

  /// Adopts externally owned columns; `storage` keeps the backing
  /// memory alive for the lifetime of the database (and of all copies).
  static FlatDatabase FromColumns(const Columns& cols,
                                  std::shared_ptr<const void> storage,
                                  std::string name);

  /// AoS copy (per-trajectory record vectors); the inverse of
  /// FromDatabase. Used by CLI paths that feed FTB inputs into
  /// AoS-only consumers.
  TrajectoryDatabase ToDatabase() const;

  /// Database display name.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return cols_.num_trajectories; }
  bool empty() const { return cols_.num_trajectories == 0; }

  /// Total records across all trajectories.
  size_t TotalRecords() const { return cols_.num_records; }

  /// View of trajectory `i`.
  FlatTrajectoryView operator[](size_t i) const {
    uint64_t b = cols_.record_offsets[i];
    uint64_t e = cols_.record_offsets[i + 1];
    return FlatTrajectoryView(cols_.ts + b, cols_.xs + b, cols_.ys + b,
                              static_cast<size_t>(e - b), label(i),
                              static_cast<OwnerId>(cols_.owners[i]));
  }

  /// Label of trajectory `i` (view into the interned pool).
  std::string_view label(size_t i) const {
    uint64_t b = cols_.label_offsets[i];
    uint64_t e = cols_.label_offsets[i + 1];
    return std::string_view(cols_.label_pool + b,
                            static_cast<size_t>(e - b));
  }

  /// Index of the trajectory with `label`, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t Find(std::string_view label) const;

  /// True when every trajectory label is distinct (the
  /// TrajectoryDatabase invariant; FTB readers validate this).
  bool HasUniqueLabels() const { return by_label_.size() == size(); }

  /// The raw columns (FTB writer, benches).
  const Columns& columns() const { return cols_; }

 private:
  void BuildLabelIndex();

  Columns cols_;
  std::shared_ptr<const void> storage_;  // keep-alive: heap or mmap
  std::string name_;
  // Views point into the label pool, which outlives the map via
  // storage_; safe across moves/copies because the pool is heap/mmap
  // memory, never inline in this object.
  std::unordered_map<std::string_view, size_t> by_label_;
};

}  // namespace ftl::traj

#endif  // FTL_TRAJ_FLAT_DATABASE_H_
