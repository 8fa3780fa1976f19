#ifndef DSPS_DISSEMINATION_TREE_H_
#define DSPS_DISSEMINATION_TREE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "interest/box_index.h"
#include "interest/interest.h"
#include "sim/network.h"

namespace dsps::dissemination {

/// How entities attach to a stream's dissemination tree.
enum class TreePolicy {
  /// Every entity is a direct child of the source (the paper's
  /// non-cooperative baseline: "rely solely on the sources").
  kSourceDirect,
  /// Random parent with spare fanout (structure-insensitive baseline).
  kRandom,
  /// Closest existing node with spare fanout (locality-aware default).
  kClosestParent,
};

/// The hierarchical dissemination tree of ONE stream (Section 3.1): the
/// source is the root, entities are the other nodes, and every parent
/// forwards upstream data to its children. Each entity registers its local
/// data interest; subtree aggregates propagate toward the root so parents
/// can *early-filter*: a tuple is forwarded to a child only if some query
/// below that child wants it.
class DisseminationTree {
 public:
  struct Config {
    TreePolicy policy = TreePolicy::kClosestParent;
    /// Max children per node (the "limited number of entities" each node
    /// serves). The source honors it too, except under kSourceDirect.
    int max_fanout = 4;
    /// If positive, each node's subtree-interest summary is coarsened to
    /// at most this many boxes before propagating upstream (Section 3.1's
    /// aggregation-efficiency issue). Coarsening only over-approximates,
    /// so early filtering never loses tuples; it may forward extras.
    int interest_budget = 0;
    uint64_t seed = 1;
  };

  DisseminationTree(common::StreamId stream, const sim::Point& source_position,
                    const Config& config);

  common::StreamId stream() const { return stream_; }

  /// Attaches an entity per the policy.
  common::Status AddEntity(common::EntityId id, const sim::Point& position);

  /// Detaches an entity; its children re-attach to its parent (fanout may
  /// transiently exceed the bound, as in a real repair).
  common::Status RemoveEntity(common::EntityId id);

  /// Replaces the entity's own interest in this stream (the union of its
  /// local queries' boxes) and re-propagates subtree aggregates to the
  /// root. Returns the number of ancestors whose aggregate changed (the
  /// interest-update messages sent upstream).
  ///
  /// A *monotone* change — every dropped box is covered by a box of the
  /// new list, as after an install's interest merge — travels up as a
  /// delta: each ancestor tests the added boxes against its aggregate and
  /// its aggregate against the added boxes (O(n·|delta|), not the O(n^2)
  /// re-simplification) and edits the aggregate in place. The result is
  /// bit-identical to the from-scratch aggregate, box order included.
  /// Anything else (a shrink, any interest_budget) recomputes.
  int SetLocalInterest(common::EntityId id, std::vector<interest::Box> boxes);

  /// Parent entity; kInvalidEntity when the parent is the source.
  common::Result<common::EntityId> Parent(common::EntityId id) const;

  /// Children of `parent` (kInvalidEntity = the source).
  std::vector<common::EntityId> Children(common::EntityId parent) const;

  /// Hops from the source (children of the source are at depth 1).
  common::Result<int> Depth(common::EntityId id) const;

  int MaxDepth() const;
  size_t size() const { return size_; }
  bool Contains(common::EntityId id) const { return Find(id) != nullptr; }
  int source_fanout() const {
    return static_cast<int>(source_children_.size());
  }

  /// Number of children of `parent` (kInvalidEntity = the source); 0 for
  /// unknown entities. Cheap — no copy, unlike Children().
  int ChildCount(common::EntityId parent) const;

  /// The aggregated interest boxes of `id`'s subtree.
  const std::vector<interest::Box>& SubtreeInterest(common::EntityId id) const;

  /// The entity's own registered boxes.
  const std::vector<interest::Box>& LocalInterest(common::EntityId id) const;

  /// Children of `from` (kInvalidEntity = source) that should receive a
  /// tuple with numeric values `point`. With early_filter, a child is
  /// included only if its subtree aggregate matches; otherwise all
  /// children are included (forward-everything baseline). Matching runs
  /// against `from`'s route table: its children's non-empty subtree boxes
  /// compiled into one contiguous array, rebuilt lazily after joins,
  /// leaves, reattaches and aggregate changes. Tables of at least
  /// kRouteIndexMinBoxes boxes add a grid over the leading dimension, so a
  /// probe tests one cell's boxes instead of all of them. Either way the
  /// result is in child-list order, bit-identical to a BoxContains scan of
  /// each child's SubtreeInterest.
  void ForwardTargets(common::EntityId from, const double* point,
                      bool early_filter,
                      std::vector<common::EntityId>* out) const;

  /// True if the entity's own interest matches the point (local delivery):
  /// a scan of its non-empty local boxes, kept in the same flat layout as
  /// the route tables. Same answer as BoxContains over LocalInterest.
  bool LocalMatch(common::EntityId id, const double* point) const;

  /// The entity's registered position.
  const sim::Point& position(common::EntityId id) const;
  const sim::Point& source_position() const { return source_position_; }

  /// True if `descendant` lies in `ancestor`'s subtree (an entity is not
  /// its own descendant).
  bool IsDescendant(common::EntityId ancestor,
                    common::EntityId descendant) const;

  /// Moves `id` (with its whole subtree) under `new_parent`
  /// (kInvalidEntity = the source). Fails if either is unknown, if the
  /// move would create a cycle, or if the new parent's fanout is full.
  /// Subtree aggregates are re-propagated on both paths.
  common::Status Reattach(common::EntityId id, common::EntityId new_parent);

  int max_fanout() const { return config_.max_fanout; }

  /// Audit sweep: re-derives ground truth and compares it to the live
  /// structures. Verifies (1) parent/child symmetry — every node appears
  /// exactly once as a child of its recorded parent; (2) acyclicity —
  /// every parent chain reaches the source within size() hops; (3) each
  /// node's cached subtree aggregate equals a fresh recomputation from
  /// local + children (interval-exact, including coarsening); (4) the
  /// route tables' early-filter routing equals a BoxContains scan over
  /// the children's subtree Box vectors at probe points. Internal error
  /// naming the first violation; read-only apart from deterministically
  /// pre-building route tables.
  common::Status CheckInvariants() const;

  /// Accumulates the statistics of every built, gridded route table
  /// (per-node and source) into `stats`: each counts as one grid index,
  /// with its boxes, its probes since it was built, and the bytes of its
  /// flat arrays. Tables below the grid threshold are plain scans and are
  /// not counted.
  void CollectIndexStats(interest::IndexStats* stats) const;

  /// Route tables with fewer boxes than this are scanned linearly; larger
  /// ones get the leading-dimension grid.
  static constexpr size_t kRouteIndexMinBoxes = 32;

  /// From-scratch aggregate recomputations so far (RecomputeSubtree
  /// calls): zero while every update has taken the delta path.
  int64_t full_recomputes() const { return full_recomputes_; }

 private:
  /// Boxes of one dimensionality in one contiguous array: with
  /// k = i * dims + d, box i's dimension d is [bounds[2k], bounds[2k + 1]].
  struct FlatBoxes {
    uint32_t dims = 0;
    uint32_t count = 0;
    std::vector<double> bounds;

    /// Appends `box`; all boxes share the first one's dimensionality.
    void Append(const interest::Box& box);
    void Clear();
    /// BoxContains(box i, point), on the flat layout.
    bool Contains(uint32_t i, const double* point) const;
    bool AnyContains(const double* point) const;
  };

  /// One node's compiled routing (or the source's): its children's
  /// non-empty subtree boxes in child-list order, each tagged with the
  /// child owning it. Immutable once built; invalidated by the same events
  /// that change the child list or a child's aggregate.
  struct RouteTable {
    bool valid = false;
    FlatBoxes boxes;
    std::vector<common::EntityId> owner;
    /// Leading-dimension grid, present when boxes.count >=
    /// kRouteIndexMinBoxes (CSR layout: cell c holds the box ids
    /// cell_boxes[cell_start[c] .. cell_start[c + 1]), ascending). A box
    /// registers with every cell its leading interval overlaps, so a
    /// point's cell holds every box that can contain it.
    std::vector<uint32_t> cell_start;
    std::vector<uint32_t> cell_boxes;
    double grid_lo = 0.0;
    double cells_per_unit = 0.0;
    /// Gridded probes since the table was built.
    int64_t lookups = 0;

    bool gridded() const { return !cell_start.empty(); }
    uint32_t cells() const {
      return static_cast<uint32_t>(cell_start.size()) - 1;
    }
    /// The grid cell of leading coordinate `v`. Clamps in double before
    /// converting, so far-out bounds (Interval::All(), 1e300), infinities
    /// and NaN land on an edge cell; monotone in `v`.
    uint32_t CellOf(double v) const;
  };

  struct Node {
    common::EntityId parent = common::kInvalidEntity;  // invalid = source
    std::vector<common::EntityId> children;
    sim::Point position;
    std::vector<interest::Box> local;
    /// `local`'s non-empty boxes, flat, for LocalMatch.
    FlatBoxes local_flat;
    /// The aggregate: local boxes, then each child's subtree aggregate in
    /// child-list order, with every box covered by another dropped (of
    /// identical copies the first is kept).
    std::vector<interest::Box> subtree;
    /// Segment starts in `subtree`: [seg[0], seg[1]) holds the surviving
    /// local boxes, [seg[i + 1], seg[i + 2]) those of children[i], and
    /// seg.back() == subtree.size() (children.size() + 2 entries). Under
    /// an interest_budget it describes the layout before coarsening.
    std::vector<uint32_t> seg{0, 0};
    /// Routing over the children, rebuilt lazily on the next
    /// early-filtered ForwardTargets through this node.
    mutable RouteTable route;
  };

  /// The node of `id`, or null if it is not in the tree.
  const Node* Find(common::EntityId id) const {
    return id >= 0 && static_cast<size_t>(id) < nodes_.size()
               ? nodes_[static_cast<size_t>(id)].get()
               : nullptr;
  }
  Node* Find(common::EntityId id) {
    return const_cast<Node*>(std::as_const(*this).Find(id));
  }
  /// The node of `id`, which must be in the tree.
  Node& At(common::EntityId id);
  const Node& At(common::EntityId id) const;
  /// Calls fn(id, node) for every node in ascending id order.
  template <typename Fn>
  void ForEachNode(Fn fn) const;

  /// The fallback path: recomputes `id`'s subtree aggregate from local +
  /// children from scratch (FreshAggregate); returns true if it changed
  /// (propagation continues upward). Runs after non-monotone local
  /// changes, RemoveEntity / Reattach, under an interest_budget, and when
  /// a delta's order check fails.
  bool RecomputeSubtree(common::EntityId id);
  /// `node`'s aggregate computed from scratch, its segment starts in
  /// `seg`. Shared by the fallback path and the auditor, which uses it as
  /// an independent oracle for the delta path.
  std::vector<interest::Box> FreshAggregate(const Node& node,
                                            std::vector<uint32_t>* seg) const;
  void PropagateUp(common::EntityId id, int* updates);
  int FanoutOf(common::EntityId id) const;
  /// Drops `parent`'s route table (kInvalidEntity = the source's). Must
  /// be called whenever `parent`'s child list or any child's subtree
  /// aggregate changes.
  void InvalidateRouteTable(common::EntityId parent);
  /// Compiles `children`'s subtree aggregates into `table`.
  void BuildRouteTable(const std::vector<common::EntityId>& children,
                       RouteTable* table) const;

  common::StreamId stream_;
  sim::Point source_position_;
  Config config_;
  common::Rng rng_;
  /// Indexed by entity id; null where no entity is attached.
  std::vector<std::unique_ptr<Node>> nodes_;
  size_t size_ = 0;
  std::vector<common::EntityId> source_children_;
  /// Route table for the source's children (see Node::route).
  mutable RouteTable source_route_;
  std::vector<interest::Box> empty_;
  int64_t full_recomputes_ = 0;
};

}  // namespace dsps::dissemination

#endif  // DSPS_DISSEMINATION_TREE_H_
