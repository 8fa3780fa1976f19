#ifndef DSPS_INTEREST_MATCH_TABLE_H_
#define DSPS_INTEREST_MATCH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "interest/index_stats.h"
#include "interest/interval.h"

namespace dsps::interest {

/// Immutable point-stabbing table: every per-tuple "which owners' boxes
/// contain this point" test runs on one of these — a dissemination node
/// routing to its children, an entity's local-interest test, and a stream
/// delegate routing to its local queries.
///
/// Owners are numbered 0, 1, ... in build order and their non-empty boxes
/// are stored contiguously in that order, flat: with k = i * dims + d,
/// box i's dimension d is [bounds[2k], bounds[2k + 1]]. A table of at
/// least kGridMinBoxes boxes adds a CSR grid over the leading dimension,
/// so a probe tests one cell's boxes instead of all of them. Either way a
/// probe emits each owner once, at its first containing box, in owner
/// order — the order a BoxContains scan over the owners' box lists gives.
class MatchTable {
 public:
  /// Tables with fewer boxes than this are scanned linearly; larger ones
  /// get the leading-dimension grid.
  static constexpr size_t kGridMinBoxes = 32;

  /// An empty table: matches nothing.
  MatchTable() = default;

  /// Compiles owners 0 .. owners - 1; `boxes_of(o)` returns owner o's
  /// boxes (a const std::vector<Box>&), whose empty boxes are skipped.
  /// Every non-empty box must have the first one's dimensionality.
  template <typename BoxesOf>
  static MatchTable Build(size_t owners, BoxesOf&& boxes_of) {
    MatchTable table;
    size_t boxes = 0;
    for (size_t o = 0; o < owners; ++o) boxes += boxes_of(o).size();
    table.owner_.reserve(boxes);
    for (size_t o = 0; o < owners; ++o) {
      for (const Box& box : boxes_of(o)) {
        table.Append(static_cast<uint32_t>(o), box);
      }
    }
    table.BuildGrid();
    return table;
  }

  /// Calls emit(owner) for each owner with a box containing `point`, once,
  /// at its first containing box, in owner order. `point` must have at
  /// least as many coordinates as the boxes have dimensions; NaN
  /// coordinates match nothing.
  template <typename Emit>
  void ForEachMatch(const double* point, Emit&& emit) const {
    // Each owner's boxes are contiguous and a cell lists its boxes
    // ascending: the first hit of each owner emits it, and its later
    // boxes are skipped untested.
    uint32_t last = kNoOwner;
    auto test = [&](uint32_t i) {
      const uint32_t owner = owner_[i];
      if (owner == last || !Contains(i, point)) return;
      emit(owner);
      last = owner;
    };
    if (gridded()) {
      const uint32_t c = CellOf(point[0]);
      for (uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
        test(cell_boxes_[k]);
      }
    } else {
      for (uint32_t i = 0; i < count_; ++i) test(i);
    }
  }

  /// Appends ForEachMatch's owners to `out`.
  void Match(const double* point, std::vector<uint32_t>* out) const {
    ForEachMatch(point, [out](uint32_t owner) { out->push_back(owner); });
  }

  /// True if any box contains `point`.
  bool AnyContains(const double* point) const;

  /// Stored (non-empty) boxes.
  size_t size() const { return count_; }
  bool gridded() const { return !cell_start_.empty(); }

  /// Adds this table to `stats` as one index (a grid index when gridded)
  /// with its boxes and the bytes of its flat arrays — element counts,
  /// not capacities, so bench baselines can pin them exactly. Lookups are
  /// the caller's to count.
  void AddStatsTo(IndexStats* stats) const;

 private:
  static constexpr uint32_t kNoOwner = ~uint32_t{0};

  /// Appends `box` for `owner` unless it is empty.
  void Append(uint32_t owner, const Box& box);
  /// Adds the leading-dimension grid once the boxes are in.
  void BuildGrid();
  /// BoxContains(box i, point), on the flat layout.
  bool Contains(uint32_t i, const double* point) const {
    // The same comparisons as Interval::Contains, so NaN never matches.
    const double* b = bounds_.data() + 2 * static_cast<size_t>(i) * dims_;
    for (uint32_t d = 0; d < dims_; ++d) {
      if (!(point[d] >= b[2 * d] && point[d] <= b[2 * d + 1])) return false;
    }
    return true;
  }
  uint32_t cells() const {
    return static_cast<uint32_t>(cell_start_.size()) - 1;
  }
  /// The grid cell of leading coordinate `v`. Clamps in double before
  /// converting, so far-out bounds (Interval::All(), 1e300), infinities
  /// and NaN land on an edge cell; monotone in `v`.
  uint32_t CellOf(double v) const {
    const double f = (v - grid_lo_) * cells_per_unit_;
    if (!(f > 0)) return 0;  // below the grid, or NaN
    const uint32_t last = cells() - 1;
    return f >= static_cast<double>(last) ? last : static_cast<uint32_t>(f);
  }

  uint32_t dims_ = 0;
  uint32_t count_ = 0;
  std::vector<double> bounds_;
  /// Owner of each box, non-decreasing.
  std::vector<uint32_t> owner_;
  /// Leading-dimension grid, present when count_ >= kGridMinBoxes (CSR
  /// layout: cell c holds the box ids cell_boxes_[cell_start_[c] ..
  /// cell_start_[c + 1]), ascending). A box registers with every cell its
  /// leading interval overlaps, so a point's cell holds every box that
  /// can contain it.
  std::vector<uint32_t> cell_start_;
  std::vector<uint32_t> cell_boxes_;
  double grid_lo_ = 0.0;
  double cells_per_unit_ = 0.0;
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_MATCH_TABLE_H_
