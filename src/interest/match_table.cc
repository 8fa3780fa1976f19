#include "interest/match_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dsps::interest {

void MatchTable::Append(uint32_t owner, const Box& box) {
  if (BoxEmpty(box)) return;
  if (count_ == 0) {
    dims_ = static_cast<uint32_t>(box.size());
    bounds_.reserve(2 * static_cast<size_t>(dims_) * owner_.capacity());
  }
  DSPS_CHECK_MSG(box.size() == dims_, "box has %zu dims, expected %u",
                 box.size(), dims_);
  for (const Interval& iv : box) {
    bounds_.push_back(iv.lo);
    bounds_.push_back(iv.hi);
  }
  owner_.push_back(owner);
  ++count_;
}

bool MatchTable::AnyContains(const double* point) const {
  bool found = false;
  ForEachMatch(point, [&found](uint32_t) { found = true; });
  return found;
}

void MatchTable::BuildGrid() {
  const uint32_t n = count_;
  if (n < kGridMinBoxes || dims_ == 0) return;
  // Interest unions tend to span the full range of non-leading
  // dimensions; gridding those would only multiply registrations. Grid
  // the leading dimension alone, over the extent of its bounded values:
  // NaN bounds and bounds at or beyond Interval::All()'s are left out and
  // clamp to the edge cells.
  const size_t stride = 2 * static_cast<size_t>(dims_);
  const double unbounded = Interval::All().hi;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (uint32_t i = 0; i < n; ++i) {
    for (double v : {bounds_[i * stride], bounds_[i * stride + 1]}) {
      if (!(std::abs(v) < unbounded)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  // Cell count from the box count: about two boxes per cell, halved while
  // wide boxes would register more than kMaxRegistrationsPerBox times
  // each on average (never below kMinCells).
  constexpr uint32_t kMinCells = 16;
  constexpr uint32_t kMaxRegistrationsPerBox = 8;
  const double span = hi - lo;
  uint32_t cells = span > 0 ? std::max(kMinCells, std::bit_ceil(n / 2)) : 1;
  grid_lo_ = lo;
  // A box's cells; empty (first > last) for a NaN upper bound.
  auto cell_range = [&](uint32_t i) {
    return std::pair{CellOf(bounds_[i * stride]),
                     CellOf(bounds_[i * stride + 1])};
  };
  for (;;) {
    cell_start_.assign(cells + 1, 0);
    cells_per_unit_ = cells > 1 ? cells / span : 0.0;
    size_t registrations = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const auto [first, last] = cell_range(i);
      if (last >= first) registrations += last - first + 1;
    }
    if (cells <= kMinCells ||
        registrations <= static_cast<size_t>(kMaxRegistrationsPerBox) * n) {
      break;
    }
    cells /= 2;
  }
  // Counting sort into CSR: count per cell, prefix-sum, then place box
  // ids in ascending order so each cell lists its boxes in owner order.
  for (uint32_t i = 0; i < n; ++i) {
    const auto [first, last] = cell_range(i);
    for (uint32_t c = first; c <= last; ++c) ++cell_start_[c + 1];
  }
  for (uint32_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_boxes_.resize(cell_start_[cells]);
  std::vector<uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (uint32_t i = 0; i < n; ++i) {
    const auto [first, last] = cell_range(i);
    for (uint32_t c = first; c <= last; ++c) cell_boxes_[fill[c]++] = i;
  }
}

void MatchTable::AddStatsTo(IndexStats* stats) const {
  ++stats->indexes;
  if (gridded()) ++stats->grid_indexes;
  stats->boxes += count_;
  stats->mem_bytes += static_cast<int64_t>(
      bounds_.size() * sizeof(double) + owner_.size() * sizeof(uint32_t) +
      (cell_start_.size() + cell_boxes_.size()) * sizeof(uint32_t));
}

}  // namespace dsps::interest
