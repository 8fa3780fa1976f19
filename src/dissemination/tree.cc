#include "dissemination/tree.h"

#include <algorithm>
#include <limits>

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

int DisseminationTree::FanoutOf(common::EntityId id) const {
  if (id == common::kInvalidEntity) {
    return static_cast<int>(source_children_.size());
  }
  return static_cast<int>(nodes_.at(id).children.size());
}

common::Status DisseminationTree::AddEntity(common::EntityId id,
                                            const Point& position) {
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
      for (const auto& [eid, node] : nodes_) {
        if (static_cast<int>(node.children.size()) < config_.max_fanout) {
          candidates.push_back(eid);
        }
      }
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
      for (const auto& [eid, node] : nodes_) {
        if (static_cast<int>(node.children.size()) >= config_.max_fanout) {
          continue;
        }
        double d = Distance(node.position, position);
        if (d < best_d) {
          best_d = d;
          parent = eid;
          found = true;
        }
      }
      if (!found) parent = common::kInvalidEntity;
      break;
    }
  }
  Node& node = nodes_[id];
  node.parent = parent;
  node.position = position;
  if (parent == common::kInvalidEntity) {
    source_children_.push_back(id);
  } else {
    // The new child's empty aggregate adds an empty segment.
    Node& p = nodes_[parent];
    p.children.push_back(id);
    p.seg.push_back(p.seg.back());
  }
  InvalidateRouteCache(parent);
  return common::Status::OK();
}

common::Status DisseminationTree::RemoveEntity(common::EntityId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return common::Status::NotFound("entity not in tree");
  Node node = std::move(it->second);
  nodes_.erase(it);
  auto detach = [&](std::vector<common::EntityId>* siblings) {
    siblings->erase(std::remove(siblings->begin(), siblings->end(), id),
                    siblings->end());
  };
  if (node.parent == common::kInvalidEntity) {
    detach(&source_children_);
  } else {
    detach(&nodes_.at(node.parent).children);
  }
  // Children re-attach to the grandparent.
  for (common::EntityId child : node.children) {
    nodes_.at(child).parent = node.parent;
    if (node.parent == common::kInvalidEntity) {
      source_children_.push_back(child);
    } else {
      nodes_.at(node.parent).children.push_back(child);
    }
  }
  // The parent's child list changed even if its aggregate did not.
  InvalidateRouteCache(node.parent);
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
    const std::vector<Box>& sub = nodes_.at(child).subtree;
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
  Node& node = nodes_.at(id);
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
    cur = nodes_.at(cur).parent;
    // `cur`'s routing cache indexes the changed child aggregate.
    InvalidateRouteCache(cur);
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
  Node* node = &nodes_.at(id);
  Delta delta = DiffLocal(std::move(node->local), boxes);
  node->local = std::move(boxes);
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
    // `parent`'s routing cache indexes the changed child aggregate.
    InvalidateRouteCache(parent);
    if (parent == common::kInvalidEntity) return updates;
    Node* up = &nodes_.at(parent);
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
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return common::Status::NotFound("entity not in tree");
  return it->second.parent;
}

int DisseminationTree::ChildCount(common::EntityId parent) const {
  if (parent == common::kInvalidEntity) {
    return static_cast<int>(source_children_.size());
  }
  auto it = nodes_.find(parent);
  return it == nodes_.end() ? 0
                            : static_cast<int>(it->second.children.size());
}

std::vector<common::EntityId> DisseminationTree::Children(
    common::EntityId parent) const {
  if (parent == common::kInvalidEntity) return source_children_;
  auto it = nodes_.find(parent);
  if (it == nodes_.end()) return {};
  return it->second.children;
}

common::Result<int> DisseminationTree::Depth(common::EntityId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return common::Status::NotFound("entity not in tree");
  int depth = 1;
  common::EntityId cur = it->second.parent;
  while (cur != common::kInvalidEntity) {
    cur = nodes_.at(cur).parent;
    ++depth;
  }
  return depth;
}

int DisseminationTree::MaxDepth() const {
  int max_depth = 0;
  for (const auto& [id, node] : nodes_) {
    auto d = Depth(id);
    if (d.ok()) max_depth = std::max(max_depth, d.value());
  }
  return max_depth;
}

const std::vector<Box>& DisseminationTree::SubtreeInterest(
    common::EntityId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return empty_;
  return it->second.subtree;
}

const std::vector<Box>& DisseminationTree::LocalInterest(
    common::EntityId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return empty_;
  return it->second.local;
}

namespace {
/// Below this many child subtree boxes the per-tuple linear scan is
/// already cheaper than building and probing a grid, so no index is kept.
constexpr size_t kRouteIndexMinBoxes = 32;
}  // namespace

void DisseminationTree::InvalidateRouteCache(common::EntityId parent) {
  if (parent == common::kInvalidEntity) {
    source_route_index_.reset();
    source_route_cache_valid_ = false;
    return;
  }
  auto it = nodes_.find(parent);
  if (it != nodes_.end()) {
    it->second.route_index.reset();
    it->second.route_cache_valid = false;
  }
}

std::unique_ptr<interest::BoxIndex> DisseminationTree::BuildRouteIndex(
    const std::vector<common::EntityId>& children) const {
  // Domain: bounding box of every child's non-empty subtree box. All
  // boxes of one stream share dimensionality (see interest/interval.h),
  // so the bounding box is well-formed.
  Box domain;
  size_t total_boxes = 0;
  for (common::EntityId child : children) {
    for (const Box& b : nodes_.at(child).subtree) {
      if (interest::BoxEmpty(b)) continue;
      ++total_boxes;
      if (domain.empty()) {
        domain = b;
        continue;
      }
      for (size_t d = 0; d < domain.size(); ++d) {
        domain[d].lo = std::min(domain[d].lo, b[d].lo);
        domain[d].hi = std::max(domain[d].hi, b[d].hi);
      }
    }
  }
  if (total_boxes < kRouteIndexMinBoxes) return nullptr;
  // Subtree aggregates are unions of many query boxes, so they tend to
  // span the full range of non-leading dimensions; indexing those only
  // multiplies cell registrations without adding selectivity. Grid the
  // leading dimension alone.
  interest::BoxIndex::Config cfg;
  cfg.index_dims = 1;
  auto index = std::make_unique<interest::BoxIndex>(domain, cfg);
  for (common::EntityId child : children) {
    for (const Box& b : nodes_.at(child).subtree) {
      if (interest::BoxEmpty(b)) continue;
      index->Insert(child, b);
    }
  }
  return index;
}

void DisseminationTree::ForwardTargets(common::EntityId from,
                                       const double* point, bool early_filter,
                                       std::vector<common::EntityId>* out) const {
  out->clear();
  const std::vector<common::EntityId>* children = nullptr;
  std::unique_ptr<interest::BoxIndex>* cache = nullptr;
  bool* valid = nullptr;
  if (from == common::kInvalidEntity) {
    children = &source_children_;
    cache = &source_route_index_;
    valid = &source_route_cache_valid_;
  } else {
    auto it = nodes_.find(from);
    DSPS_DCHECK(it != nodes_.end());
    if (it == nodes_.end()) return;
    children = &it->second.children;
    cache = &it->second.route_index;
    valid = &it->second.route_cache_valid;
  }
  if (!early_filter) {
    *out = *children;
    return;
  }
  if (children->empty()) return;
  if (!*valid) {
    *cache = BuildRouteIndex(*children);
    *valid = true;
  }
  if (*cache == nullptr) {
    // Too few subtree boxes to be worth indexing: scan them directly.
    for (common::EntityId child : *children) {
      for (const Box& b : nodes_.at(child).subtree) {
        if (interest::BoxContains(b, point)) {
          out->push_back(child);
          break;
        }
      }
    }
    return;
  }
  match_scratch_.clear();
  (*cache)->Match(point, &match_scratch_);
  // Match yields ascending entity ids; re-emit in child-list order so the
  // output is bit-identical to the old per-child linear scan.
  for (common::EntityId child : *children) {
    if (std::binary_search(match_scratch_.begin(), match_scratch_.end(),
                           static_cast<int64_t>(child))) {
      out->push_back(child);
    }
  }
}

void DisseminationTree::CollectIndexStats(interest::IndexStats* stats) const {
  if (source_route_index_ != nullptr) {
    source_route_index_->AddStatsTo(stats);
  }
  for (const auto& [id, node] : nodes_) {
    if (node.route_index != nullptr) node.route_index->AddStatsTo(stats);
  }
}

const sim::Point& DisseminationTree::position(common::EntityId id) const {
  auto it = nodes_.find(id);
  DSPS_CHECK_MSG(it != nodes_.end(), "unknown entity %d", id);
  return it->second.position;
}

bool DisseminationTree::IsDescendant(common::EntityId ancestor,
                                     common::EntityId descendant) const {
  auto it = nodes_.find(descendant);
  if (it == nodes_.end()) return false;
  common::EntityId cur = it->second.parent;
  while (cur != common::kInvalidEntity) {
    if (cur == ancestor) return true;
    cur = nodes_.at(cur).parent;
  }
  return false;
}

common::Status DisseminationTree::Reattach(common::EntityId id,
                                           common::EntityId new_parent) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return common::Status::NotFound("entity not in tree");
  if (new_parent == id || IsDescendant(id, new_parent)) {
    return common::Status::InvalidArgument("reattach would create a cycle");
  }
  if (new_parent != common::kInvalidEntity && !Contains(new_parent)) {
    return common::Status::NotFound("new parent not in tree");
  }
  common::EntityId old_parent = it->second.parent;
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
    detach(&nodes_.at(old_parent).children);
  }
  it->second.parent = new_parent;
  if (new_parent == common::kInvalidEntity) {
    source_children_.push_back(id);
  } else {
    nodes_.at(new_parent).children.push_back(id);
  }
  // Both parents' child lists changed even if no aggregate does.
  InvalidateRouteCache(old_parent);
  InvalidateRouteCache(new_parent);
  int updates = 0;
  if (old_parent != common::kInvalidEntity) PropagateUp(old_parent, &updates);
  if (new_parent != common::kInvalidEntity) PropagateUp(new_parent, &updates);
  return common::Status::OK();
}

common::Status DisseminationTree::CheckInvariants() const {
  auto violation = [](const std::string& what) {
    return common::Status::Internal("dissemination tree: " + what);
  };
  // (1) Parent/child symmetry and total membership: every node is a child
  // of its recorded parent exactly once, every listed child points back,
  // and no node appears in two child lists.
  size_t listed_children = source_children_.size();
  for (common::EntityId child : source_children_) {
    auto it = nodes_.find(child);
    if (it == nodes_.end()) return violation("source child not in tree");
    if (it->second.parent != common::kInvalidEntity) {
      return violation("source child has a non-source parent");
    }
  }
  for (const auto& [id, node] : nodes_) {
    listed_children += node.children.size();
    for (common::EntityId child : node.children) {
      auto it = nodes_.find(child);
      if (it == nodes_.end()) return violation("child not in tree");
      if (it->second.parent != id) {
        return violation("child's parent link disagrees with child list");
      }
    }
    const std::vector<common::EntityId>& siblings =
        node.parent == common::kInvalidEntity
            ? source_children_
            : nodes_.at(node.parent).children;
    if (std::count(siblings.begin(), siblings.end(), id) != 1) {
      return violation("node not exactly once in its parent's child list");
    }
  }
  if (listed_children != nodes_.size()) {
    return violation("child-list total != node count");
  }
  // (2) Acyclicity: every parent chain must reach the source in at most
  // size() hops (symmetry above already rules out forests).
  for (const auto& [id, node] : nodes_) {
    common::EntityId cur = node.parent;
    size_t hops = 0;
    while (cur != common::kInvalidEntity) {
      if (++hops > nodes_.size()) return violation("parent chain has a cycle");
      cur = nodes_.at(cur).parent;
    }
  }
  // (3) Cached subtree aggregates and their segment starts: each must
  // equal a from-scratch recomputation from local + children, interval-
  // and order-exact (including coarsening).
  for (const auto& [id, node] : nodes_) {
    std::vector<uint32_t> seg;
    if (FreshAggregate(node, &seg) != node.subtree) {
      return violation("stale subtree aggregate");
    }
    if (seg != node.seg) return violation("stale aggregate segment starts");
  }
  // (4) Routing cache vs linear scan, probed at child subtree box centers
  // (where mismatches from a stale index are most likely to show). The
  // ForwardTargets call may lazily build a cache — a deterministic,
  // output-invariant side effect the hot path would perform anyway.
  std::vector<common::EntityId> parents(1, common::kInvalidEntity);
  for (const auto& [id, node] : nodes_) parents.push_back(id);
  std::vector<common::EntityId> cached;
  constexpr size_t kMaxProbesPerParent = 16;
  for (common::EntityId parent : parents) {
    const std::vector<common::EntityId>& children =
        parent == common::kInvalidEntity ? source_children_
                                         : nodes_.at(parent).children;
    std::vector<std::vector<double>> probes;
    for (common::EntityId child : children) {
      for (const Box& b : nodes_.at(child).subtree) {
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
        for (const Box& b : nodes_.at(child).subtree) {
          if (interest::BoxContains(b, point.data())) {
            scanned.push_back(child);
            break;
          }
        }
      }
      if (cached != scanned) {
        return violation("routing cache disagrees with linear scan");
      }
    }
  }
  return common::Status::OK();
}

bool DisseminationTree::LocalMatch(common::EntityId id,
                                   const double* point) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  for (const Box& b : it->second.local) {
    if (interest::BoxContains(b, point)) return true;
  }
  return false;
}

}  // namespace dsps::dissemination
