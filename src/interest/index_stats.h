#ifndef DSPS_INTEREST_INDEX_STATS_H_
#define DSPS_INTEREST_INDEX_STATS_H_

#include <algorithm>
#include <cstdint>

namespace dsps::interest {

/// Aggregated health/size statistics across one or more box indexes or
/// match tables; exported to bench JSON and surfaced by dsps_doctor.
struct IndexStats {
  int64_t indexes = 0;
  int64_t grid_indexes = 0;
  int64_t spline_indexes = 0;
  int64_t boxes = 0;
  int64_t mem_bytes = 0;
  /// Match/MatchOverlap calls across all strategies.
  int64_t lookups = 0;
  /// Spline-path bucket locations and how many escaped the bounded
  /// correction window into a full binary search.
  int64_t spline_lookups = 0;
  int64_t spline_fallbacks = 0;
  int64_t spline_rebuilds = 0;
  int64_t spline_knots = 0;
  int64_t spline_buckets = 0;
  /// Max over member indexes.
  int64_t spline_max_error = 0;
  double declared_fallback_bound = 0.0;
  /// Total spline (re)build time.
  double build_us = 0.0;

  void MergeFrom(const IndexStats& other) {
    indexes += other.indexes;
    grid_indexes += other.grid_indexes;
    spline_indexes += other.spline_indexes;
    boxes += other.boxes;
    mem_bytes += other.mem_bytes;
    lookups += other.lookups;
    spline_lookups += other.spline_lookups;
    spline_fallbacks += other.spline_fallbacks;
    spline_rebuilds += other.spline_rebuilds;
    spline_knots += other.spline_knots;
    spline_buckets += other.spline_buckets;
    spline_max_error = std::max(spline_max_error, other.spline_max_error);
    declared_fallback_bound =
        std::max(declared_fallback_bound, other.declared_fallback_bound);
    build_us += other.build_us;
  }
  double FallbackRate() const {
    return spline_lookups > 0
               ? static_cast<double>(spline_fallbacks) /
                     static_cast<double>(spline_lookups)
               : 0.0;
  }
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_INDEX_STATS_H_
