#include "dissemination/tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "interest/summarize.h"

namespace dsps::dissemination {

using interest::Box;
using sim::Distance;
using sim::Point;

DisseminationTree::DisseminationTree(common::StreamId stream,
                                     const Point& source_position,
                                     const Config& config)
    : stream_(stream),
      source_position_(source_position),
      config_(config),
      rng_(config.seed) {
  DSPS_CHECK(config.max_fanout >= 1);
}

const DisseminationTree::Node& DisseminationTree::At(
    common::EntityId id) const {
  const Node* node = Find(id);
  DSPS_CHECK_MSG(node != nullptr, "unknown entity %d", id);
  return *node;
}

DisseminationTree::Node& DisseminationTree::At(common::EntityId id) {
  return const_cast<Node&>(std::as_const(*this).At(id));
}

template <typename Fn>
void DisseminationTree::ForEachNode(Fn fn) const {
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id] != nullptr) {
      fn(static_cast<common::EntityId>(id), *nodes_[id]);
    }
  }
}

int DisseminationTree::FanoutOf(common::EntityId id) const {
  if (id == common::kInvalidEntity) {
    return static_cast<int>(source_children_.size());
  }
  return static_cast<int>(At(id).children.size());
}

common::Status DisseminationTree::AddEntity(common::EntityId id,
                                            const Point& position) {
  if (id < 0) return common::Status::InvalidArgument("negative entity id");
  if (Contains(id)) {
    return common::Status::AlreadyExists("entity already in tree");
  }
  common::EntityId parent = common::kInvalidEntity;
  switch (config_.policy) {
    case TreePolicy::kSourceDirect:
      parent = common::kInvalidEntity;
      break;
    case TreePolicy::kRandom: {
      // Source + every entity with spare fanout.
      std::vector<common::EntityId> candidates;
      if (FanoutOf(common::kInvalidEntity) < config_.max_fanout) {
        candidates.push_back(common::kInvalidEntity);
      }
      ForEachNode([&](common::EntityId eid, const Node& node) {
        if (static_cast<int>(node.children.size()) < config_.max_fanout) {
          candidates.push_back(eid);
        }
      });
      if (candidates.empty()) {
        // Everyone full: attach to the source anyway (repair semantics).
        parent = common::kInvalidEntity;
      } else {
        parent = candidates[rng_.NextUint64(candidates.size())];
      }
      break;
    }
    case TreePolicy::kClosestParent: {
      double best_d = std::numeric_limits<double>::max();
      bool found = false;
      if (FanoutOf(common::kInvalidEntity) < config_.max_fanout) {
        best_d = Distance(source_position_, position);
        parent = common::kInvalidEntity;
        found = true;
      }
      ForEachNode([&](common::EntityId eid, const Node& node) {
        if (static_cast<int>(node.children.size()) >= config_.max_fanout) {
          return;
        }
        double d = Distance(node.position, position);
        if (d < best_d) {
          best_d = d;
          parent = eid;
          found = true;
        }
      });
      if (!found) parent = common::kInvalidEntity;
      break;
    }
  }
  if (static_cast<size_t>(id) >= nodes_.size()) {
    nodes_.resize(static_cast<size_t>(id) + 1);
  }
  nodes_[static_cast<size_t>(id)] = std::make_unique<Node>();
  ++size_;
  Node& node = *nodes_[static_cast<size_t>(id)];
  node.parent = parent;
  node.position = position;
  if (parent == common::kInvalidEntity) {
    source_children_.push_back(id);
  } else {
    // The new child's empty aggregate adds an empty segment.
    Node& p = At(parent);
    p.children.push_back(id);
    p.seg.push_back(p.seg.back());
  }
  InvalidateRouteTable(parent);
  return common::Status::OK();
}

common::Status DisseminationTree::RemoveEntity(common::EntityId id) {
  if (!Contains(id)) return common::Status::NotFound("entity not in tree");
  std::unique_ptr<Node> gone = std::move(nodes_[static_cast<size_t>(id)]);
  --size_;
  const Node& node = *gone;
  auto detach = [&](std::vector<common::EntityId>* siblings) {
    siblings->erase(std::remove(siblings->begin(), siblings->end(), id),
                    siblings->end());
  };
  if (node.parent == common::kInvalidEntity) {
    detach(&source_children_);
  } else {
    detach(&At(node.parent).children);
  }
  // Children re-attach to the grandparent.
  for (common::EntityId child : node.children) {
    At(child).parent = node.parent;
    if (node.parent == common::kInvalidEntity) {
      source_children_.push_back(child);
    } else {
      At(node.parent).children.push_back(child);
    }
  }
  // The parent's child list changed even if its aggregate did not.
  InvalidateRouteTable(node.parent);
  // Aggregates above the removal point change.
  int updates = 0;
  if (node.parent != common::kInvalidEntity) {
    PropagateUp(node.parent, &updates);
  }
  return common::Status::OK();
}

std::vector<Box> DisseminationTree::FreshAggregate(
    const Node& node, std::vector<uint32_t>* seg) const {
  std::vector<Box> boxes;
  for (const Box& b : node.local) {
    if (!interest::BoxEmpty(b)) boxes.push_back(b);
  }
  seg->assign({0, static_cast<uint32_t>(boxes.size())});
  for (common::EntityId child : node.children) {
    const std::vector<Box>& sub = At(child).subtree;
    boxes.insert(boxes.end(), sub.begin(), sub.end());
    seg->push_back(static_cast<uint32_t>(boxes.size()));
  }
  interest::SimplifyBoxes(&boxes, seg);
  if (config_.interest_budget > 0 &&
      static_cast<int>(boxes.size()) > config_.interest_budget) {
    boxes = interest::CoarsenBoxes(std::move(boxes), config_.interest_budget);
  }
  return boxes;
}

bool DisseminationTree::RecomputeSubtree(common::EntityId id) {
  ++full_recomputes_;
  Node& node = At(id);
  std::vector<Box> next = FreshAggregate(node, &node.seg);
  bool changed = next != node.subtree;
  node.subtree = std::move(next);
  return changed;
}

void DisseminationTree::PropagateUp(common::EntityId id, int* updates) {
  common::EntityId cur = id;
  while (cur != common::kInvalidEntity) {
    bool changed = RecomputeSubtree(cur);
    if (!changed) break;
    ++*updates;
    cur = At(cur).parent;
    // `cur`'s route table holds the changed child aggregate.
    InvalidateRouteTable(cur);
  }
}

namespace {

/// A change to one source of a node's aggregate (its local list or one
/// child's aggregate): `removed` holds the boxes that left the source
/// list, and [begin, end) of the new source list is the contiguous block
/// of added boxes. Every other box of the new list was already in the old
/// one, in the same order.
struct Delta {
  std::vector<Box> removed;
  size_t begin = 0;
  size_t end = 0;
};

enum class DeltaResult { kUnchanged, kChanged, kRecompute };

/// Splits the move from `old_local` to `next_local` into a Delta
/// (consuming `old_local`'s removed boxes). Always succeeds; whether the
/// change is monotone is checked by ApplyDelta.
Delta DiffLocal(std::vector<Box> old_local,
                const std::vector<Box>& next_local) {
  // Greedy in-order alignment of the non-empty boxes: each next box
  // matches the first equal old box still ahead, the old boxes skipped on
  // the way are removed, and the rest of next_local is the added block.
  Delta delta;
  size_t i = 0;
  size_t j = 0;
  for (; j < next_local.size(); ++j) {
    if (interest::BoxEmpty(next_local[j])) continue;
    while (i < old_local.size() && old_local[i] != next_local[j]) {
      if (!interest::BoxEmpty(old_local[i])) {
        delta.removed.push_back(std::move(old_local[i]));
      }
      ++i;
    }
    if (i == old_local.size()) break;
    ++i;
  }
  for (; i < old_local.size(); ++i) {
    if (!interest::BoxEmpty(old_local[i])) {
      delta.removed.push_back(std::move(old_local[i]));
    }
  }
  delta.begin = j;
  delta.end = next_local.size();
  return delta;
}

/// Applies `delta` to segment `s` (0 = local, i + 1 = children[i]) of a
/// node's `aggregate` with its `segments` starts, whose new source list
/// is `src`: edits both in place and rewrites `delta` into the node's own
/// delta for its parent. kRecompute (nothing edited) when the delta cannot
/// be applied exactly: a non-monotone local change or a failed order check.
DeltaResult ApplyDelta(std::vector<Box>* aggregate,
                       std::vector<uint32_t>* segments, size_t s,
                       const std::vector<Box>& src, Delta* delta) {
  // The same boxes republished (e.g. an entity refreshing every stream).
  if (delta->removed.empty() && delta->begin == delta->end) {
    return DeltaResult::kUnchanged;
  }
  std::vector<Box>& agg = *aggregate;
  std::vector<uint32_t>& seg = *segments;
  const size_t n = agg.size();
  enum : uint8_t { kStays, kLeft, kKilled };
  std::vector<uint8_t> state(n, kStays);
  // Order check: every box of segment s either left the source list or
  // appears, in order, in src outside the added block. q counts the
  // survivors ahead of the block.
  size_t q = 0;
  size_t j = 0;
  for (size_t i = seg[s]; i < seg[s + 1]; ++i) {
    if (std::find(delta->removed.begin(), delta->removed.end(), agg[i]) !=
        delta->removed.end()) {
      state[i] = kLeft;
      continue;
    }
    for (;; ++j) {
      if (j == delta->begin) j = delta->end;
      if (j >= src.size() || src[j] == agg[i]) break;
    }
    if (j >= src.size()) return DeltaResult::kRecompute;
    if (j++ < delta->begin) ++q;
  }
  // Monotonicity of a local change: a removed box that was in the
  // aggregate must be covered by a box of the new list, or boxes it hid
  // would reappear; and no identical copy may remain among the kept old
  // boxes, which would come back in that copy's place. A child's
  // aggregate is already simplified and inherits both properties from
  // the level below (see DESIGN.md), so only the local segment checks.
  for (size_t i = seg[0]; s == 0 && i < seg[1]; ++i) {
    if (state[i] != kLeft) continue;
    bool covered = false;
    for (size_t x = 0; x < src.size(); ++x) {
      if (!interest::BoxCovers(src[x], agg[i])) continue;
      if (x < delta->begin && interest::BoxCovers(agg[i], src[x])) {
        return DeltaResult::kRecompute;
      }
      covered = true;
    }
    if (!covered) return DeltaResult::kRecompute;
  }
  // Cover tests between the added boxes and the aggregate, in new-list
  // order: a box "before" the block wins ties between identical copies.
  std::vector<size_t> added;
  for (size_t x = delta->begin; x < delta->end; ++x) {
    if (!interest::BoxEmpty(src[x])) added.push_back(x);
  }
  // `at` counts the boxes that stay ahead of the block: the added boxes
  // land there.
  std::vector<char> dead(added.size(), 0);
  size_t at = 0;
  for (size_t i = 0, t = 0, in_s = 0; i < n; ++i) {
    while (i >= seg[t + 1]) ++t;
    if (state[i] == kLeft) continue;
    const bool before = t == s ? in_s++ < q : t < s;
    for (size_t a = 0; a < added.size(); ++a) {
      const Box& d = src[added[a]];
      const bool box_covers = interest::BoxCovers(agg[i], d);
      const bool added_covers = interest::BoxCovers(d, agg[i]);
      if (box_covers && (!added_covers || before)) dead[a] = 1;
      if (added_covers && (!box_covers || !before)) state[i] = kKilled;
    }
    if (before && state[i] == kStays) ++at;
  }
  for (size_t a = 0; a < added.size(); ++a) {
    for (size_t b = a + 1; b < added.size(); ++b) {
      if (interest::BoxCovers(src[added[a]], src[added[b]])) {
        dead[b] = 1;
      } else if (interest::BoxCovers(src[added[b]], src[added[a]])) {
        dead[a] = 1;
      }
    }
  }
  std::vector<Box> add;
  for (size_t a = 0; a < added.size(); ++a) {
    if (!dead[a]) add.push_back(src[added[a]]);
  }
  const size_t gone = n - static_cast<size_t>(
                              std::count(state.begin(), state.end(), kStays));
  if (add.empty() && gone == 0) return DeltaResult::kUnchanged;
  // Equal counts may still rebuild the same list (an added box identical
  // to the one it displaces), which is no change to report upstream.
  bool changed = add.size() != gone;
  for (size_t p = 0, k = 0; !changed && p < n; ++p) {
    if (p >= at && p < at + add.size()) {
      changed = add[p - at] != agg[p];
      continue;
    }
    while (state[k] != kStays) ++k;
    changed = agg[k++] != agg[p];
  }
  // Edit in place: compact the survivors, remap the segment starts, and
  // insert the block; the boxes that went become the parent's delta.
  delta->removed.clear();
  size_t w = 0;
  size_t b = 0;
  auto remap = [&](size_t upto) {
    for (; b < seg.size() && seg[b] <= upto; ++b) {
      seg[b] = static_cast<uint32_t>(w + (b > s ? add.size() : 0));
    }
  };
  for (size_t i = 0; i < n; ++i) {
    remap(i);
    if (state[i] != kStays) {
      delta->removed.push_back(std::move(agg[i]));
    } else {
      if (w != i) agg[w] = std::move(agg[i]);
      ++w;
    }
  }
  remap(n);
  agg.resize(w);
  agg.insert(agg.begin() + static_cast<std::ptrdiff_t>(at),
             std::make_move_iterator(add.begin()),
             std::make_move_iterator(add.end()));
  delta->begin = at;
  delta->end = at + add.size();
  return changed ? DeltaResult::kChanged : DeltaResult::kUnchanged;
}

}  // namespace

int DisseminationTree::SetLocalInterest(common::EntityId id,
                                        std::vector<Box> boxes) {
  DSPS_CHECK_MSG(Contains(id), "unknown entity %d", id);
  Node* node = &At(id);
  Delta delta = DiffLocal(std::move(node->local), boxes);
  node->local = std::move(boxes);
  node->local_flat.Clear();
  for (const Box& b : node->local) {
    if (!interest::BoxEmpty(b)) node->local_flat.Append(b);
  }
  int updates = 0;
  common::EntityId cur = id;
  size_t s = 0;
  const std::vector<Box>* src = &node->local;
  // Coarsening is not monotone: under a budget every update recomputes.
  while (config_.interest_budget <= 0) {
    DeltaResult result =
        ApplyDelta(&node->subtree, &node->seg, s, *src, &delta);
    if (result == DeltaResult::kRecompute) break;
    if (result == DeltaResult::kUnchanged) return updates;
    ++updates;
    common::EntityId parent = node->parent;
    // `parent`'s route table holds the changed child aggregate.
    InvalidateRouteTable(parent);
    if (parent == common::kInvalidEntity) return updates;
    Node* up = &At(parent);
    s = 1 + static_cast<size_t>(
                std::find(up->children.begin(), up->children.end(), cur) -
                up->children.begin());
    src = &node->subtree;
    node = up;
    cur = parent;
  }
  PropagateUp(cur, &updates);
  return updates;
}

common::Result<common::EntityId> DisseminationTree::Parent(
    common::EntityId id) const {
  const Node* node = Find(id);
  if (node == nullptr) return common::Status::NotFound("entity not in tree");
  return node->parent;
}

int DisseminationTree::ChildCount(common::EntityId parent) const {
  if (parent == common::kInvalidEntity) {
    return static_cast<int>(source_children_.size());
  }
  const Node* node = Find(parent);
  return node == nullptr ? 0 : static_cast<int>(node->children.size());
}

std::vector<common::EntityId> DisseminationTree::Children(
    common::EntityId parent) const {
  if (parent == common::kInvalidEntity) return source_children_;
  const Node* node = Find(parent);
  if (node == nullptr) return {};
  return node->children;
}

common::Result<int> DisseminationTree::Depth(common::EntityId id) const {
  const Node* node = Find(id);
  if (node == nullptr) return common::Status::NotFound("entity not in tree");
  int depth = 1;
  common::EntityId cur = node->parent;
  while (cur != common::kInvalidEntity) {
    cur = At(cur).parent;
    ++depth;
  }
  return depth;
}

int DisseminationTree::MaxDepth() const {
  int max_depth = 0;
  ForEachNode([&](common::EntityId id, const Node&) {
    auto d = Depth(id);
    if (d.ok()) max_depth = std::max(max_depth, d.value());
  });
  return max_depth;
}

const std::vector<Box>& DisseminationTree::SubtreeInterest(
    common::EntityId id) const {
  const Node* node = Find(id);
  return node == nullptr ? empty_ : node->subtree;
}

const std::vector<Box>& DisseminationTree::LocalInterest(
    common::EntityId id) const {
  const Node* node = Find(id);
  return node == nullptr ? empty_ : node->local;
}

void DisseminationTree::FlatBoxes::Append(const Box& box) {
  if (count == 0) dims = static_cast<uint32_t>(box.size());
  DSPS_CHECK_MSG(box.size() == dims, "box has %zu dims, expected %u",
                 box.size(), dims);
  for (const interest::Interval& iv : box) {
    bounds.push_back(iv.lo);
    bounds.push_back(iv.hi);
  }
  ++count;
}

void DisseminationTree::FlatBoxes::Clear() {
  dims = 0;
  count = 0;
  bounds.clear();
}

bool DisseminationTree::FlatBoxes::Contains(uint32_t i,
                                            const double* point) const {
  // The same comparisons as Interval::Contains, so NaN never matches.
  const double* b = bounds.data() + 2 * static_cast<size_t>(i) * dims;
  for (uint32_t d = 0; d < dims; ++d) {
    if (!(point[d] >= b[2 * d] && point[d] <= b[2 * d + 1])) return false;
  }
  return true;
}

bool DisseminationTree::FlatBoxes::AnyContains(const double* point) const {
  for (uint32_t i = 0; i < count; ++i) {
    if (Contains(i, point)) return true;
  }
  return false;
}

uint32_t DisseminationTree::RouteTable::CellOf(double v) const {
  const double f = (v - grid_lo) * cells_per_unit;
  if (!(f > 0)) return 0;  // below the grid, or NaN
  const uint32_t last = cells() - 1;
  return f >= static_cast<double>(last) ? last : static_cast<uint32_t>(f);
}

void DisseminationTree::InvalidateRouteTable(common::EntityId parent) {
  if (parent == common::kInvalidEntity) {
    source_route_.valid = false;
    return;
  }
  if (Node* node = Find(parent)) node->route.valid = false;
}

void DisseminationTree::BuildRouteTable(
    const std::vector<common::EntityId>& children, RouteTable* table) const {
  table->valid = true;
  table->boxes.Clear();
  table->owner.clear();
  table->cell_start.clear();
  table->cell_boxes.clear();
  table->lookups = 0;
  for (common::EntityId child : children) {
    for (const Box& b : At(child).subtree) {
      if (interest::BoxEmpty(b)) continue;
      table->boxes.Append(b);
      table->owner.push_back(child);
    }
  }
  const FlatBoxes& boxes = table->boxes;
  const uint32_t n = boxes.count;
  if (n < kRouteIndexMinBoxes || boxes.dims == 0) return;
  // Subtree aggregates are unions of many query boxes, so they tend to
  // span the full range of non-leading dimensions; gridding those would
  // only multiply registrations. Grid the leading dimension alone, over
  // the extent of its bounded values: NaN bounds and bounds at or beyond
  // Interval::All()'s are left out and clamp to the edge cells.
  const size_t stride = 2 * static_cast<size_t>(boxes.dims);
  const double unbounded = interest::Interval::All().hi;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (uint32_t i = 0; i < n; ++i) {
    for (double v : {boxes.bounds[i * stride], boxes.bounds[i * stride + 1]}) {
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
  table->grid_lo = lo;
  // A box's cells; empty (first > last) for a NaN upper bound.
  auto cell_range = [&](uint32_t i) {
    return std::pair{table->CellOf(boxes.bounds[i * stride]),
                     table->CellOf(boxes.bounds[i * stride + 1])};
  };
  for (;;) {
    table->cell_start.assign(cells + 1, 0);
    table->cells_per_unit = cells > 1 ? cells / span : 0.0;
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
  // ids in ascending order so each cell lists its boxes in child order.
  for (uint32_t i = 0; i < n; ++i) {
    const auto [first, last] = cell_range(i);
    for (uint32_t c = first; c <= last; ++c) ++table->cell_start[c + 1];
  }
  for (uint32_t c = 0; c < cells; ++c) {
    table->cell_start[c + 1] += table->cell_start[c];
  }
  table->cell_boxes.resize(table->cell_start[cells]);
  std::vector<uint32_t> fill(table->cell_start.begin(),
                             table->cell_start.end() - 1);
  for (uint32_t i = 0; i < n; ++i) {
    const auto [first, last] = cell_range(i);
    for (uint32_t c = first; c <= last; ++c) table->cell_boxes[fill[c]++] = i;
  }
}

void DisseminationTree::ForwardTargets(common::EntityId from,
                                       const double* point, bool early_filter,
                                       std::vector<common::EntityId>* out) const {
  out->clear();
  const std::vector<common::EntityId>* children = &source_children_;
  RouteTable* table = &source_route_;
  if (from != common::kInvalidEntity) {
    const Node* node = Find(from);
    DSPS_DCHECK(node != nullptr);
    if (node == nullptr) return;
    children = &node->children;
    table = &node->route;
  }
  if (!early_filter) {
    *out = *children;
    return;
  }
  if (children->empty()) return;
  if (!table->valid) BuildRouteTable(*children, table);
  // Boxes are in child-list order, each child's contiguous, and a cell
  // lists its boxes ascending: the first hit of each owner emits it, and
  // its later boxes are skipped untested.
  common::EntityId last = common::kInvalidEntity;
  auto test = [&](uint32_t i) {
    const common::EntityId owner = table->owner[i];
    if (owner == last || !table->boxes.Contains(i, point)) return;
    out->push_back(owner);
    last = owner;
  };
  if (table->gridded()) {
    ++table->lookups;
    const uint32_t c = table->CellOf(point[0]);
    for (uint32_t k = table->cell_start[c]; k < table->cell_start[c + 1];
         ++k) {
      test(table->cell_boxes[k]);
    }
  } else {
    for (uint32_t i = 0; i < table->boxes.count; ++i) test(i);
  }
}

void DisseminationTree::CollectIndexStats(interest::IndexStats* stats) const {
  auto add = [stats](const RouteTable& table) {
    if (!table.valid || !table.gridded()) return;
    ++stats->indexes;
    ++stats->grid_indexes;
    stats->boxes += table.boxes.count;
    stats->lookups += table.lookups;
    // Element counts, not capacities: deterministic, so bench baselines
    // can pin it exactly.
    stats->mem_bytes += static_cast<int64_t>(
        table.boxes.bounds.size() * sizeof(double) +
        table.owner.size() * sizeof(common::EntityId) +
        (table.cell_start.size() + table.cell_boxes.size()) *
            sizeof(uint32_t));
  };
  add(source_route_);
  ForEachNode([&](common::EntityId, const Node& node) { add(node.route); });
}

const sim::Point& DisseminationTree::position(common::EntityId id) const {
  const Node* node = Find(id);
  DSPS_CHECK_MSG(node != nullptr, "unknown entity %d", id);
  return node->position;
}

bool DisseminationTree::IsDescendant(common::EntityId ancestor,
                                     common::EntityId descendant) const {
  const Node* node = Find(descendant);
  if (node == nullptr) return false;
  common::EntityId cur = node->parent;
  while (cur != common::kInvalidEntity) {
    if (cur == ancestor) return true;
    cur = At(cur).parent;
  }
  return false;
}

common::Status DisseminationTree::Reattach(common::EntityId id,
                                           common::EntityId new_parent) {
  Node* node = Find(id);
  if (node == nullptr) return common::Status::NotFound("entity not in tree");
  if (new_parent == id || IsDescendant(id, new_parent)) {
    return common::Status::InvalidArgument("reattach would create a cycle");
  }
  if (new_parent != common::kInvalidEntity && !Contains(new_parent)) {
    return common::Status::NotFound("new parent not in tree");
  }
  common::EntityId old_parent = node->parent;
  if (old_parent == new_parent) return common::Status::OK();
  if (FanoutOf(new_parent) >= config_.max_fanout) {
    return common::Status::ResourceExhausted("new parent fanout full");
  }
  auto detach = [&](std::vector<common::EntityId>* siblings) {
    siblings->erase(std::remove(siblings->begin(), siblings->end(), id),
                    siblings->end());
  };
  if (old_parent == common::kInvalidEntity) {
    detach(&source_children_);
  } else {
    detach(&At(old_parent).children);
  }
  node->parent = new_parent;
  if (new_parent == common::kInvalidEntity) {
    source_children_.push_back(id);
  } else {
    At(new_parent).children.push_back(id);
  }
  // Both parents' child lists changed even if no aggregate does.
  InvalidateRouteTable(old_parent);
  InvalidateRouteTable(new_parent);
  int updates = 0;
  if (old_parent != common::kInvalidEntity) PropagateUp(old_parent, &updates);
  if (new_parent != common::kInvalidEntity) PropagateUp(new_parent, &updates);
  return common::Status::OK();
}

common::Status DisseminationTree::CheckInvariants() const {
  auto violation = [](const std::string& what) {
    return common::Status::Internal("dissemination tree: " + what);
  };
  std::vector<common::EntityId> ids;
  ForEachNode([&](common::EntityId id, const Node&) { ids.push_back(id); });
  // (1) Parent/child symmetry and total membership: every node is a child
  // of its recorded parent exactly once, every listed child points back,
  // and no node appears in two child lists.
  size_t listed_children = source_children_.size();
  for (common::EntityId child : source_children_) {
    const Node* node = Find(child);
    if (node == nullptr) return violation("source child not in tree");
    if (node->parent != common::kInvalidEntity) {
      return violation("source child has a non-source parent");
    }
  }
  for (common::EntityId id : ids) {
    const Node& node = At(id);
    listed_children += node.children.size();
    for (common::EntityId child : node.children) {
      const Node* c = Find(child);
      if (c == nullptr) return violation("child not in tree");
      if (c->parent != id) {
        return violation("child's parent link disagrees with child list");
      }
    }
    const std::vector<common::EntityId>& siblings =
        node.parent == common::kInvalidEntity ? source_children_
                                              : At(node.parent).children;
    if (std::count(siblings.begin(), siblings.end(), id) != 1) {
      return violation("node not exactly once in its parent's child list");
    }
  }
  if (listed_children != size_) {
    return violation("child-list total != node count");
  }
  // (2) Acyclicity: every parent chain must reach the source in at most
  // size() hops (symmetry above already rules out forests).
  for (common::EntityId id : ids) {
    common::EntityId cur = At(id).parent;
    size_t hops = 0;
    while (cur != common::kInvalidEntity) {
      if (++hops > size_) return violation("parent chain has a cycle");
      cur = At(cur).parent;
    }
  }
  // (3) Cached subtree aggregates and their segment starts: each must
  // equal a from-scratch recomputation from local + children, interval-
  // and order-exact (including coarsening).
  for (common::EntityId id : ids) {
    const Node& node = At(id);
    std::vector<uint32_t> seg;
    if (FreshAggregate(node, &seg) != node.subtree) {
      return violation("stale subtree aggregate");
    }
    if (seg != node.seg) return violation("stale aggregate segment starts");
  }
  // (4) Route tables vs a linear BoxContains scan of the children's Box
  // vectors, probed at child subtree box centers (where mismatches from a
  // stale table are most likely to show). The ForwardTargets call may
  // lazily build a table — a deterministic, output-invariant side effect
  // the hot path would perform anyway.
  std::vector<common::EntityId> parents(1, common::kInvalidEntity);
  parents.insert(parents.end(), ids.begin(), ids.end());
  std::vector<common::EntityId> cached;
  constexpr size_t kMaxProbesPerParent = 16;
  for (common::EntityId parent : parents) {
    const std::vector<common::EntityId>& children =
        parent == common::kInvalidEntity ? source_children_
                                         : At(parent).children;
    std::vector<std::vector<double>> probes;
    for (common::EntityId child : children) {
      for (const Box& b : At(child).subtree) {
        if (interest::BoxEmpty(b) || probes.size() >= kMaxProbesPerParent) {
          continue;
        }
        std::vector<double> center(b.size());
        for (size_t d = 0; d < b.size(); ++d) {
          center[d] = 0.5 * (b[d].lo + b[d].hi);
        }
        probes.push_back(std::move(center));
      }
    }
    for (const std::vector<double>& point : probes) {
      ForwardTargets(parent, point.data(), /*early_filter=*/true, &cached);
      std::vector<common::EntityId> scanned;
      for (common::EntityId child : children) {
        for (const Box& b : At(child).subtree) {
          if (interest::BoxContains(b, point.data())) {
            scanned.push_back(child);
            break;
          }
        }
      }
      if (cached != scanned) {
        return violation("route table disagrees with linear scan");
      }
    }
  }
  return common::Status::OK();
}

bool DisseminationTree::LocalMatch(common::EntityId id,
                                   const double* point) const {
  const Node* node = Find(id);
  return node != nullptr && node->local_flat.AnyContains(point);
}

}  // namespace dsps::dissemination
