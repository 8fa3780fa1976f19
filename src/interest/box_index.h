#ifndef DSPS_INTEREST_BOX_INDEX_H_
#define DSPS_INTEREST_BOX_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interest/index_stats.h"
#include "interest/interval.h"
#include "interest/spline_index.h"

namespace dsps::interest {

/// Which matching structure a BoxIndex uses.
///
/// - kGrid: uniform grid over the first one or two dimensions.
/// - kSpline: learned-spline equal-depth buckets over the leading
///   dimension (SplineIndex), with a plain linear scan below a build
///   threshold and pending/tombstone overlays for churn.
/// - kAuto: start on the grid and switch to the spline once the box count
///   crosses `Config::spline_min_boxes` — small indexes (per-stream
///   graph indexes of a few queries) keep the cheap grid, while
///   million-box structures get the learned index. The `DSPS_INDEX`
///   environment variable (`grid` | `spline`) pins auto indexes to one
///   strategy process-wide; explicit configs always win over the
///   environment.
enum class IndexStrategy { kAuto, kGrid, kSpline };

/// Mutable box index over subscriber boxes: Match returns every
/// subscriber with a box containing a point, MatchOverlap every
/// subscriber with a box overlapping a query box.
///
/// Its user is the query graph (partition::QueryGraph::Build and
/// partition::QueryGraphIndex, Section 3.2.2), which inserts and removes
/// queries as they come and go and asks which installed queries' interest
/// overlaps a new one's. Per-tuple matching (dissemination routing,
/// local delivery, stream delegates) runs on the immutable MatchTable
/// instead. Two interchangeable strategies back the same exact interface
/// (identical output, order included):
///
/// - The grid overlays a uniform grid on the first one or two dimensions
///   of the stream's domain; each box registers with every cell it
///   overlaps, and a lookup tests only the boxes in the point's cell.
///   Boxes outside the domain clamp to edge cells.
/// - The spline (see SplineIndex) buckets boxes by the empirical CDF of
///   their leading-dimension endpoints and learns the bucket-locator
///   function — at large box counts its adaptive buckets are orders of
///   magnitude finer than the fixed grid. Inserts land in a pending
///   overlay and removals in a tombstone set; the immutable spline is
///   rebuilt lazily when either overlay grows past a quarter of the
///   built size. Below kSplineBuildMin boxes no spline is built at all
///   and lookups fall back to a linear scan.
class BoxIndex {
 public:
  struct Config {
    /// Grid resolution per indexed dimension (the grid indexes the first
    /// two dimensions, or the only one).
    int cells_per_dim = 16;
    /// Strategy selection; see IndexStrategy.
    IndexStrategy strategy = IndexStrategy::kAuto;
    /// Auto mode switches grid -> spline at this box count.
    int spline_min_boxes = 256;
    SplineIndex::Config spline;
  };

  /// Spline-mode indexes smaller than this use a plain linear scan.
  static constexpr size_t kSplineBuildMin = 32;

  /// `domain` bounds the grid (the stream's full value box).
  explicit BoxIndex(const Box& domain);
  BoxIndex(const Box& domain, const Config& config);

  /// Registers one box for `subscriber` (a subscriber may hold several).
  void Insert(int64_t subscriber, const Box& box);

  /// Unregisters all of `subscriber`'s boxes. Walks only the grid cells
  /// the subscriber's own boxes registered in (or, on the spline path,
  /// tombstones the subscriber), never the whole structure.
  void Remove(int64_t subscriber);

  /// Appends (deduplicated, ascending) every subscriber with a box
  /// containing `point`. `point` must have at least as many coordinates
  /// as the domain has dimensions.
  void Match(const double* point, std::vector<int64_t>* out) const;

  /// Appends (deduplicated, ascending) every subscriber with a box
  /// overlapping `query` in every dimension. `query` must have the
  /// domain's dimensionality. Used for box-to-box pruning (e.g. finding
  /// the queries whose interest genuinely overlaps a new query's) rather
  /// than per-tuple point stabbing.
  void MatchOverlap(const Box& query, std::vector<int64_t>* out) const;

  /// Registered (subscriber, box) pairs.
  size_t size() const { return total_boxes_; }
  size_t subscriber_count() const { return boxes_of_.size(); }

  /// Current strategy: "grid", or "spline" (which includes the linear
  /// fallback below the build threshold).
  const char* strategy_name() const { return spline_mode_ ? "spline" : "grid"; }

  /// Accumulates this index's statistics into `stats`.
  void AddStatsTo(IndexStats* stats) const;

 private:
  struct Entry {
    int64_t subscriber;
    Box box;
  };

  int CellOf(int dim, double v) const;
  int FlatIndex(const double* point) const;
  void InsertGrid(int64_t subscriber, const Box& box);
  void SwitchToSpline();
  /// Lazily (re)builds the spline at lookup time; const because lookups
  /// are, with the overlay state mutable (same pattern as the lazy route
  /// tables in dissemination/tree.h).
  void MaybeRebuildSpline() const;
  void RebuildSpline() const;

  Box domain_;
  Config config_;
  int dims_indexed_;
  /// Strategy after applying the DSPS_INDEX override; kAuto means
  /// "currently grid, switch at spline_min_boxes".
  IndexStrategy resolved_;
  bool spline_mode_ = false;
  /// Ground truth for rebuilds, linear fallback, and Remove.
  std::unordered_map<int64_t, std::vector<Box>> boxes_of_;
  size_t total_boxes_ = 0;
  /// Grid state (empty in spline mode).
  std::vector<std::vector<Entry>> cells_;
  /// Spline state: the immutable built index plus churn overlays.
  /// pending_ holds boxes inserted since the last build; erased_
  /// tombstones subscribers removed since (filtering built candidates
  /// only — re-inserted subscribers live in pending_ and bypass it).
  mutable std::unique_ptr<SplineIndex> spline_;
  mutable std::vector<SplineIndex::Entry> pending_;
  mutable std::unordered_set<int64_t> erased_;
  mutable std::vector<int64_t> spline_scratch_;
  mutable int64_t rebuilds_ = 0;
  mutable double build_us_ = 0.0;
  mutable int64_t lookups_ = 0;
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_BOX_INDEX_H_
