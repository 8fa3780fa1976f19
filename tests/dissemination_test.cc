#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "dissemination/disseminator.h"
#include "dissemination/tree.h"
#include "interest/summarize.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dsps::dissemination {
namespace {

using interest::Box;
using interest::Interval;
using sim::Point;

DisseminationTree::Config TreeConfig(TreePolicy policy, int fanout = 3) {
  DisseminationTree::Config cfg;
  cfg.policy = policy;
  cfg.max_fanout = fanout;
  return cfg;
}

TEST(DisseminationTreeTest, SourceDirectIsAStar) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  for (int e = 0; e < 10; ++e) {
    ASSERT_TRUE(tree.AddEntity(e, {static_cast<double>(e), 0}).ok());
  }
  EXPECT_EQ(tree.source_fanout(), 10);
  EXPECT_EQ(tree.MaxDepth(), 1);
  for (int e = 0; e < 10; ++e) {
    EXPECT_EQ(tree.Parent(e).value(), common::kInvalidEntity);
  }
}

TEST(DisseminationTreeTest, ClosestParentBoundsFanout) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 3));
  common::Rng rng(1);
  for (int e = 0; e < 40; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  EXPECT_LE(tree.source_fanout(), 3);
  for (int e = 0; e < 40; ++e) {
    EXPECT_LE(tree.Children(e).size(), 3u);
  }
  EXPECT_GT(tree.MaxDepth(), 1);
  EXPECT_EQ(tree.size(), 40u);
}

TEST(DisseminationTreeTest, DuplicateAndMissingEntities) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent));
  ASSERT_TRUE(tree.AddEntity(1, {1, 1}).ok());
  EXPECT_FALSE(tree.AddEntity(1, {2, 2}).ok());
  EXPECT_FALSE(tree.RemoveEntity(99).ok());
  EXPECT_FALSE(tree.Parent(99).ok());
  EXPECT_FALSE(tree.Depth(99).ok());
}

TEST(DisseminationTreeTest, RemoveReattachesChildren) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  // Chain: source -> 0 -> 1 -> 2 (positions force this shape).
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {1.1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(2, {1.2, 0}).ok());
  int depth2_before = tree.Depth(2).value();
  ASSERT_TRUE(tree.RemoveEntity(1).ok());
  EXPECT_EQ(tree.size(), 2u);
  // Entity 2 re-attached to 1's parent.
  EXPECT_LE(tree.Depth(2).value(), depth2_before);
  EXPECT_TRUE(tree.Contains(2));
}

TEST(DisseminationTreeTest, SubtreeInterestAggregates) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {1.1, 0}).ok());  // child of 0
  ASSERT_EQ(tree.Parent(1).value(), 0);
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  int updates = tree.SetLocalInterest(1, {Box{Interval{20, 30}}});
  EXPECT_GE(updates, 1);  // 1's aggregate changed, then 0's
  // 0's subtree covers both ranges.
  double p5 = 5, p25 = 25, p50 = 50;
  auto matches = [&](common::EntityId id, double* p) {
    for (const Box& b : tree.SubtreeInterest(id)) {
      if (interest::BoxContains(b, p)) return true;
    }
    return false;
  };
  EXPECT_TRUE(matches(0, &p5));
  EXPECT_TRUE(matches(0, &p25));
  EXPECT_FALSE(matches(0, &p50));
  // 1's subtree only has its own.
  EXPECT_FALSE(matches(1, &p5));
  EXPECT_TRUE(matches(1, &p25));
}

TEST(DisseminationTreeTest, ForwardTargetsEarlyFiltering) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {2, 0}).ok());
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  tree.SetLocalInterest(1, {Box{Interval{5, 20}}});
  double p7 = 7, p15 = 15, p99 = 99;
  std::vector<common::EntityId> targets;
  tree.ForwardTargets(common::kInvalidEntity, &p7, true, &targets);
  EXPECT_EQ(targets.size(), 2u);
  tree.ForwardTargets(common::kInvalidEntity, &p15, true, &targets);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 1);
  tree.ForwardTargets(common::kInvalidEntity, &p99, true, &targets);
  EXPECT_TRUE(targets.empty());
  // Without early filtering everything goes everywhere.
  tree.ForwardTargets(common::kInvalidEntity, &p99, false, &targets);
  EXPECT_EQ(targets.size(), 2u);
}

TEST(DisseminationTreeTest, InterestUpdateCostBounded) {
  // Updating a leaf's interest sends at most depth updates upstream.
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 2));
  common::Rng rng(3);
  for (int e = 0; e < 20; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 10), rng.Uniform(0, 10)}).ok());
  }
  for (int e = 0; e < 20; ++e) {
    double lo = rng.Uniform(0, 90);
    int updates = tree.SetLocalInterest(e, {Box{Interval{lo, lo + 10}}});
    EXPECT_LE(updates, tree.Depth(e).value());
  }
}

/// Reference routing: the pre-cache linear scan of every child's subtree
/// box list. The cached ForwardTargets must match it exactly after any
/// mix of joins, leaves, reattaches, and interest updates.
std::vector<common::EntityId> LinearForwardTargets(
    const DisseminationTree& tree, common::EntityId from, const double* point,
    bool early_filter) {
  std::vector<common::EntityId> out;
  for (common::EntityId child : tree.Children(from)) {
    if (!early_filter) {
      out.push_back(child);
      continue;
    }
    for (const Box& b : tree.SubtreeInterest(child)) {
      if (interest::BoxContains(b, point)) {
        out.push_back(child);
        break;
      }
    }
  }
  return out;
}

TEST(DisseminationTreeTest, RouteCacheMatchesLinearScanUnderChurn) {
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kClosestParent, 3));
  common::Rng rng(11);
  auto check_all = [&](const char* when) {
    std::vector<common::EntityId> parents{common::kInvalidEntity};
    for (common::EntityId e = 0; e < 40; ++e) {
      if (tree.Contains(e)) parents.push_back(e);
    }
    for (int probe = 0; probe < 20; ++probe) {
      double p = rng.Uniform(-10, 110);
      for (common::EntityId parent : parents) {
        std::vector<common::EntityId> cached;
        tree.ForwardTargets(parent, &p, true, &cached);
        EXPECT_EQ(cached, LinearForwardTargets(tree, parent, &p, true))
            << when << " parent " << parent << " point " << p;
        tree.ForwardTargets(parent, &p, false, &cached);
        EXPECT_EQ(cached, LinearForwardTargets(tree, parent, &p, false))
            << when << " parent " << parent;
      }
    }
  };
  // Joins + interest.
  for (common::EntityId e = 0; e < 24; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
    double lo = rng.Uniform(0, 90);
    tree.SetLocalInterest(e, {Box{Interval{lo, lo + 10}}});
  }
  check_all("after joins");
  // Interest updates invalidate ancestors' caches.
  for (common::EntityId e = 0; e < 24; e += 3) {
    double lo = rng.Uniform(0, 90);
    tree.SetLocalInterest(e, {Box{Interval{lo, lo + 5}}});
  }
  check_all("after interest updates");
  // Leaves (children re-attach to the grandparent).
  for (common::EntityId e = 1; e < 24; e += 5) {
    ASSERT_TRUE(tree.RemoveEntity(e).ok());
  }
  check_all("after leaves");
  // Reorganization moves (both old and new parents' caches drop).
  for (common::EntityId e = 0; e < 24; ++e) {
    if (!tree.Contains(e)) continue;
    for (common::EntityId np = 0; np < 24; ++np) {
      if (np != e && tree.Contains(np) && tree.Reattach(e, np).ok()) break;
    }
  }
  check_all("after reattaches");
}

/// A 3-D box for the route-table property test: integer bounds in
/// [0, 120] (so probes land exactly on closed-interval edges), sometimes
/// with a far-out (+-1e300) bound, an empty dimension, or a NaN bound.
Box RouteBox(common::Rng& rng) {
  Box box;
  for (int d = 0; d < 3; ++d) {
    const double lo = static_cast<double>(rng.NextUint64(100));
    box.push_back(
        Interval{lo, lo + static_cast<double>(rng.NextUint64(21))});
  }
  Interval& dim = box[rng.NextUint64(3)];
  switch (rng.NextUint64(16)) {
    case 0:
      dim.hi = 1e300;
      break;
    case 1:
      dim.lo = -1e300;
      break;
    case 2:
      dim = Interval::All();
      break;
    case 3:
      dim = Interval{5, 4};  // empty
      break;
    case 4:
      dim.hi = std::nan("");
      break;
    default:
      break;
  }
  return box;
}

/// Probe points for `parent`'s route table: exact corners of its
/// children's boxes, random points inside and outside the domain, and
/// far-out, infinite and NaN coordinates.
std::vector<std::vector<double>> RouteProbes(const DisseminationTree& tree,
                                             common::EntityId parent,
                                             common::Rng& rng) {
  std::vector<std::vector<double>> probes;
  for (common::EntityId child : tree.Children(parent)) {
    const std::vector<Box>& boxes = tree.SubtreeInterest(child);
    for (int k = 0; k < 3 && !boxes.empty(); ++k) {
      const Box& b = boxes[rng.NextUint64(boxes.size())];
      std::vector<double> corner;
      for (const Interval& iv : b) {
        corner.push_back(rng.Bernoulli(0.5) ? iv.lo : iv.hi);
      }
      probes.push_back(std::move(corner));
    }
  }
  for (int k = 0; k < 6; ++k) {
    probes.push_back({rng.Uniform(-20, 140), rng.Uniform(-20, 140),
                      rng.Uniform(-20, 140)});
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (double far : {1e300, -1e300, 2e300, -2e300, inf, -inf}) {
    probes.push_back({far, 50, 50});
    probes.push_back({50, far, 50});
  }
  probes.push_back({std::nan(""), 50, 50});
  probes.push_back({50, 50, std::nan("")});
  return probes;
}

TEST(DisseminationTreeTest, RouteTablesMatchBoxScanUnder3DChurn) {
  DisseminationTree::Config cfg;
  cfg.policy = TreePolicy::kRandom;
  cfg.max_fanout = 4;
  cfg.seed = 5;
  DisseminationTree tree(0, {0, 0}, cfg);
  common::Rng rng(29);
  std::set<common::EntityId> members;
  common::EntityId next_id = 0;
  auto random_local = [&rng](int max_boxes) {
    std::vector<Box> local;
    for (int k = 1 + static_cast<int>(rng.NextUint64(max_boxes)); k > 0;
         --k) {
      local.push_back(RouteBox(rng));
    }
    return local;
  };
  auto join = [&]() {
    const common::EntityId id = next_id++;
    ASSERT_TRUE(tree.AddEntity(id, {rng.Uniform(0, 100), 0}).ok());
    members.insert(id);
    tree.SetLocalInterest(id, random_local(10));
  };
  auto pick = [&]() {
    auto it = members.begin();
    std::advance(it, static_cast<long>(rng.NextUint64(members.size())));
    return *it;
  };
  int gridded_tables = 0;  // Parents seen on each side of the threshold.
  int linear_tables = 0;
  auto check = [&](const std::string& when) {
    std::vector<common::EntityId> parents{common::kInvalidEntity};
    parents.insert(parents.end(), members.begin(), members.end());
    int64_t expect_indexes = 0;
    int64_t expect_boxes = 0;
    int64_t probes_per_table = std::numeric_limits<int64_t>::max();
    for (common::EntityId parent : parents) {
      int64_t boxes = 0;
      for (common::EntityId child : tree.Children(parent)) {
        for (const Box& b : tree.SubtreeInterest(child)) {
          if (!interest::BoxEmpty(b)) ++boxes;
        }
      }
      const bool gridded =
          boxes >= static_cast<int64_t>(DisseminationTree::kRouteIndexMinBoxes);
      if (gridded) {
        ++expect_indexes;
        expect_boxes += boxes;
        ++gridded_tables;
      } else if (boxes > 0) {
        ++linear_tables;
      }
      const auto probes = RouteProbes(tree, parent, rng);
      if (gridded) {
        probes_per_table =
            std::min(probes_per_table, static_cast<int64_t>(probes.size()));
      }
      std::vector<common::EntityId> routed;
      for (const std::vector<double>& p : probes) {
        tree.ForwardTargets(parent, p.data(), true, &routed);
        ASSERT_EQ(routed, LinearForwardTargets(tree, parent, p.data(), true))
            << when << " parent " << parent << " point " << p[0] << ","
            << p[1] << "," << p[2];
        tree.ForwardTargets(parent, p.data(), false, &routed);
        ASSERT_EQ(routed, tree.Children(parent)) << when;
        if (parent == common::kInvalidEntity) continue;
        bool local = false;
        for (const Box& b : tree.LocalInterest(parent)) {
          local = local || interest::BoxContains(b, p.data());
        }
        ASSERT_EQ(tree.LocalMatch(parent, p.data()), local)
            << when << " entity " << parent;
      }
    }
    // Only gridded tables count, each probed at least once per check.
    interest::IndexStats stats;
    tree.CollectIndexStats(&stats);
    EXPECT_EQ(stats.indexes, expect_indexes) << when;
    EXPECT_EQ(stats.grid_indexes, expect_indexes) << when;
    EXPECT_EQ(stats.spline_indexes, 0) << when;
    EXPECT_EQ(stats.boxes, expect_boxes) << when;
    if (expect_indexes > 0) {
      EXPECT_GE(stats.lookups, expect_indexes * probes_per_table) << when;
      EXPECT_GT(stats.mem_bytes, 0) << when;
    } else {
      EXPECT_EQ(stats.lookups, 0) << when;
      EXPECT_EQ(stats.mem_bytes, 0) << when;
    }
  };
  for (int i = 0; i < 40; ++i) join();
  check("after joins");
  for (int step = 0; step < 150 && !HasFatalFailure(); ++step) {
    const std::string when = "step " + std::to_string(step);
    const uint64_t kind = rng.NextUint64(6);
    if (kind == 0 || members.size() < 20) {
      join();
    } else if (kind == 1) {
      const common::EntityId id = pick();
      ASSERT_TRUE(tree.RemoveEntity(id).ok());
      members.erase(id);
    } else if (kind == 2) {
      const common::EntityId to =
          rng.Bernoulli(0.2) ? common::kInvalidEntity : pick();
      (void)tree.Reattach(pick(), to);  // Cycles / full fanout refuse.
    } else if (kind == 3) {  // Grow: append boxes, sometimes simplified.
      const common::EntityId id = pick();
      std::vector<Box> local = tree.LocalInterest(id);
      for (Box& b : random_local(6)) local.push_back(std::move(b));
      if (rng.Bernoulli(0.5)) interest::SimplifyBoxes(&local);
      tree.SetLocalInterest(id, std::move(local));
    } else if (kind == 4) {  // Shrink: drop boxes, maybe all of them.
      const common::EntityId id = pick();
      std::vector<Box> local = tree.LocalInterest(id);
      for (int k = 1 + static_cast<int>(rng.NextUint64(4));
           k > 0 && !local.empty(); --k) {
        local.erase(local.begin() +
                    static_cast<long>(rng.NextUint64(local.size())));
      }
      tree.SetLocalInterest(id, std::move(local));
    } else {  // Replace outright.
      tree.SetLocalInterest(pick(), random_local(10));
    }
    check(when);
  }
  // Both sides of the grid threshold were exercised.
  EXPECT_GT(gridded_tables, 100);
  EXPECT_GT(linear_tables, 100);
}

TEST(DisseminationTreeTest, RouteCacheSeesInterestShrink) {
  // A child whose interest STOPS matching must disappear from the cached
  // targets (stale-cache regression test).
  DisseminationTree tree(0, {0, 0}, TreeConfig(TreePolicy::kSourceDirect));
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  tree.SetLocalInterest(0, {Box{Interval{0, 10}}});
  double p = 5;
  std::vector<common::EntityId> targets;
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  ASSERT_EQ(targets.size(), 1u);
  tree.SetLocalInterest(0, {Box{Interval{50, 60}}});
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  EXPECT_TRUE(targets.empty());
  tree.SetLocalInterest(0, {});
  tree.ForwardTargets(common::kInvalidEntity, &p, true, &targets);
  EXPECT_TRUE(targets.empty());
}

// ------------------------------------------------- Delta-path property test

/// Reference aggregation, written independently of the tree: non-empty
/// local boxes, then each child's reference aggregate in child-list order,
/// with every box covered by another dropped (of identical copies the
/// first stays), coarsened to the budget if one is set.
std::vector<Box> ReferenceSimplify(const std::vector<Box>& in) {
  std::vector<Box> out;
  for (size_t i = 0; i < in.size(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < in.size() && !covered; ++j) {
      covered = j != i && interest::BoxCovers(in[j], in[i]) &&
                (j < i || !interest::BoxCovers(in[i], in[j]));
    }
    if (!covered) out.push_back(in[i]);
  }
  return out;
}

std::map<common::EntityId, std::vector<Box>> ReferenceAggregates(
    const DisseminationTree& tree, int budget) {
  std::map<common::EntityId, std::vector<Box>> agg;
  std::function<void(common::EntityId)> visit = [&](common::EntityId id) {
    std::vector<Box> in;
    for (const Box& b : tree.LocalInterest(id)) {
      if (!interest::BoxEmpty(b)) in.push_back(b);
    }
    for (common::EntityId child : tree.Children(id)) {
      visit(child);
      in.insert(in.end(), agg[child].begin(), agg[child].end());
    }
    std::vector<Box> out = ReferenceSimplify(in);
    if (budget > 0 && static_cast<int>(out.size()) > budget) {
      out = interest::CoarsenBoxes(std::move(out), budget);
    }
    agg[id] = std::move(out);
  };
  for (common::EntityId root : tree.Children(common::kInvalidEntity)) {
    visit(root);
  }
  return agg;
}

/// Updates the reference would send for `id`'s change: ancestors (from
/// `id` up) whose aggregate changed, up to the first unchanged one.
int ReferenceUpdates(const DisseminationTree& tree, common::EntityId id,
                     std::map<common::EntityId, std::vector<Box>>& before,
                     std::map<common::EntityId, std::vector<Box>>& after) {
  int updates = 0;
  for (common::EntityId cur = id;
       cur != common::kInvalidEntity && before[cur] != after[cur];
       cur = tree.Parent(cur).value()) {
    ++updates;
  }
  return updates;
}

/// Small integer-grid boxes, so covering, identical, and overlapping boxes
/// are all common.
Box GridBox(common::Rng& rng) {
  Box box;
  for (int d = 0; d < 2; ++d) {
    double lo = static_cast<double>(rng.NextUint64(8));
    box.push_back(Interval{lo, lo + static_cast<double>(rng.NextUint64(4))});
  }
  return box;
}

class DeltaPathTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaPathTest, MatchesFromScratchReference) {
  const int budget = GetParam();
  constexpr int kNodes = 30;
  int delta_updates = 0;  // Local updates that never recomputed.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    common::Rng rng(seed * 7919 + static_cast<uint64_t>(budget));
    DisseminationTree::Config cfg;
    cfg.policy = TreePolicy::kRandom;
    cfg.max_fanout = 2 + static_cast<int>(rng.NextUint64(3));
    cfg.interest_budget = budget;
    cfg.seed = seed;
    DisseminationTree tree(0, {0, 0}, cfg);
    std::set<common::EntityId> members;
    for (common::EntityId e = 0; e < kNodes; ++e) {
      ASSERT_TRUE(tree.AddEntity(e, {rng.Uniform(0, 100), 0}).ok());
      members.insert(e);
    }
    auto pick = [&]() {
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.NextUint64(members.size())));
      return *it;
    };
    auto reference = ReferenceAggregates(tree, budget);
    for (int op = 0; op < 300; ++op) {
      const int kind = static_cast<int>(rng.NextUint64(10));
      std::string what = "seed " + std::to_string(seed) + " op " +
                         std::to_string(op) + " kind " + std::to_string(kind);
      if (kind <= 6) {
        common::EntityId id = pick();
        std::vector<Box> local = tree.LocalInterest(id);
        switch (kind) {
          case 0:
          case 1:
          case 2: {  // Install-style merge: append, then simplify.
            for (int k = 1 + static_cast<int>(rng.NextUint64(2)); k > 0; --k) {
              local.push_back(GridBox(rng));
            }
            local = ReferenceSimplify(local);
            break;
          }
          case 3:  // Shrink.
            if (!local.empty()) {
              local.erase(local.begin() + static_cast<long>(
                                              rng.NextUint64(local.size())));
            }
            break;
          case 4:  // Reorder.
            for (size_t i = local.size(); i > 1; --i) {
              std::swap(local[i - 1], local[rng.NextUint64(i)]);
            }
            break;
          case 5: {  // Duplicates and empty boxes, anywhere.
            Box extra = local.empty() || rng.Bernoulli(0.3)
                            ? Box{Interval{1, 0}, Interval{0, 1}}
                            : local[rng.NextUint64(local.size())];
            local.insert(local.begin() + static_cast<long>(rng.NextUint64(
                                             local.size() + 1)),
                         extra);
            break;
          }
          default:  // A raw, non-antichain list appended unsimplified.
            local.push_back(GridBox(rng));
            if (rng.Bernoulli(0.5)) local.push_back(local.front());
            break;
        }
        const int64_t recomputes = tree.full_recomputes();
        int updates = tree.SetLocalInterest(id, local);
        if (tree.full_recomputes() == recomputes) ++delta_updates;
        auto next = ReferenceAggregates(tree, budget);
        EXPECT_EQ(updates, ReferenceUpdates(tree, id, reference, next))
            << what;
        reference = std::move(next);
      } else if (kind == 7) {
        common::EntityId id = pick();
        ASSERT_TRUE(tree.RemoveEntity(id).ok());
        members.erase(id);
        reference = ReferenceAggregates(tree, budget);
        if (members.size() < kNodes / 2) {
          // Rejoin under a fresh id so the tree never runs dry.
          common::EntityId fresh = kNodes + op;
          ASSERT_TRUE(tree.AddEntity(fresh, {rng.Uniform(0, 100), 0}).ok());
          members.insert(fresh);
          reference = ReferenceAggregates(tree, budget);
        }
      } else if (kind == 8) {
        common::EntityId fresh = kNodes + op;
        ASSERT_TRUE(tree.AddEntity(fresh, {rng.Uniform(0, 100), 0}).ok());
        members.insert(fresh);
        reference = ReferenceAggregates(tree, budget);
      } else {
        common::EntityId id = pick();
        common::EntityId to = rng.Bernoulli(0.2) ? common::kInvalidEntity
                                                 : pick();
        (void)tree.Reattach(id, to);  // Cycles / full fanout refuse.
        reference = ReferenceAggregates(tree, budget);
      }
      for (common::EntityId id : members) {
        ASSERT_EQ(tree.SubtreeInterest(id), reference[id])
            << what << " entity " << id;
      }
      ASSERT_TRUE(tree.CheckInvariants().ok()) << what;
    }
  }
  // Both paths are exercised: without a budget most local updates take
  // the delta path; a budget forces every one to recompute.
  if (budget == 0) {
    EXPECT_GT(delta_updates, 400);
  } else {
    EXPECT_EQ(delta_updates, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, DeltaPathTest, ::testing::Values(0, 2));

TEST(DisseminationTreeTest, InstallOnlySequenceNeverRecomputes) {
  // Joins and install-style merges (append new boxes, simplify) are all
  // monotone: every update takes the delta path.
  DisseminationTree::Config cfg;
  cfg.policy = TreePolicy::kRandom;
  cfg.max_fanout = 3;
  DisseminationTree tree(0, {0, 0}, cfg);
  common::Rng rng(17);
  common::EntityId joined = 0;
  for (int op = 0; op < 400; ++op) {
    if (joined < 30 && (joined < 2 || rng.Bernoulli(0.1))) {
      ASSERT_TRUE(tree.AddEntity(joined++, {rng.Uniform(0, 100), 0}).ok());
      continue;
    }
    common::EntityId id =
        static_cast<common::EntityId>(rng.NextUint64(joined));
    std::vector<Box> local = tree.LocalInterest(id);
    local.push_back(GridBox(rng));
    tree.SetLocalInterest(id, ReferenceSimplify(local));
  }
  auto reference = ReferenceAggregates(tree, 0);
  for (common::EntityId id = 0; id < joined; ++id) {
    EXPECT_EQ(tree.SubtreeInterest(id), reference[id]) << "entity " << id;
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.full_recomputes(), 0);
  // A shrink is not monotone and takes the fallback.
  tree.SetLocalInterest(0, {});
  EXPECT_GT(tree.full_recomputes(), 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// --------------------------------------------------------------- End-to-end

class DisseminatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::Network>(&sim_);
    source_node_ = network_->AddNode({0, 0});
    for (int e = 0; e < 4; ++e) {
      gateways_.push_back(
          network_->AddNode({100.0 * (e + 1), 50.0 * (e % 2)}));
    }
  }

  engine::Tuple MakeTuple(double value) {
    engine::Tuple t;
    t.stream = 0;
    t.timestamp = sim_.now();
    t.values = {engine::Value{value}};
    return t;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  common::SimNodeId source_node_;
  std::vector<common::SimNodeId> gateways_;
};

TEST_F(DisseminatorTest, DeliversExactlyMatchingTuples) {
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 2;
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
  }
  // Entity e wants [10e, 10e+10).
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem
                    .SetEntityInterest(
                        e, 0, {Box{Interval{10.0 * e, 10.0 * e + 9.99}}})
                    .ok());
  }
  std::map<common::EntityId, std::vector<double>> got;
  dissem.SetDeliveryHandler(
      [&](common::EntityId e, const std::shared_ptr<const engine::Tuple>& t) {
        got[e].push_back(engine::AsDouble(t->values[0]));
      });
  // Publish values 0..39; value v should reach exactly entity v/10.
  for (int v = 0; v < 40; ++v) {
    ASSERT_TRUE(dissem.Publish(MakeTuple(static_cast<double>(v))).ok());
  }
  sim_.Run();
  int64_t total = 0;
  for (int e = 0; e < 4; ++e) {
    for (double v : got[e]) {
      EXPECT_EQ(static_cast<int>(v) / 10, e);
    }
    total += static_cast<int64_t>(got[e].size());
    EXPECT_EQ(got[e].size(), 10u) << "entity " << e;
  }
  EXPECT_EQ(dissem.delivered_count(), total);
}

TEST_F(DisseminatorTest, EarlyFilterReducesTraffic) {
  auto run = [&](bool early) {
    sim::Simulator sim;
    sim::Network net(&sim);
    auto src = net.AddNode({0, 0});
    std::vector<common::SimNodeId> gws;
    for (int e = 0; e < 8; ++e) {
      gws.push_back(net.AddNode({10.0 + e, 0}));
    }
    Disseminator::Config cfg;
    cfg.tree.policy = TreePolicy::kClosestParent;
    cfg.tree.max_fanout = 2;
    cfg.early_filter = early;
    Disseminator dissem(&net, cfg);
    EXPECT_TRUE(dissem.AddSource(0, src).ok());
    for (int e = 0; e < 8; ++e) {
      EXPECT_TRUE(dissem.AddEntity(e, gws[e]).ok());
      // Narrow interest: only [0, 5).
      EXPECT_TRUE(dissem.SetEntityInterest(e, 0, {Box{Interval{0, 5}}}).ok());
    }
    common::Rng rng(7);
    for (int i = 0; i < 100; ++i) {
      engine::Tuple t;
      t.stream = 0;
      t.timestamp = sim.now();
      t.values = {engine::Value{rng.Uniform(0, 100)}};
      EXPECT_TRUE(dissem.Publish(t).ok());
    }
    sim.Run();
    return net.total_bytes();
  };
  int64_t filtered = run(true);
  int64_t unfiltered = run(false);
  EXPECT_LT(filtered, unfiltered / 2);
}

TEST_F(DisseminatorTest, TreeCutsSourceFanout) {
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 2;
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
  }
  EXPECT_LE(dissem.tree(0)->source_fanout(), 2);
}

TEST_F(DisseminatorTest, RemoveEntityStopsDeliveryAndRepairsTree) {
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 1;  // force a chain so removal has children
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
    ASSERT_TRUE(
        dissem.SetEntityInterest(e, 0, {Box{Interval{0, 100}}}).ok());
  }
  std::map<common::EntityId, int> got;
  dissem.SetDeliveryHandler(
      [&](common::EntityId e, const std::shared_ptr<const engine::Tuple>&) {
        got[e] += 1;
      });
  ASSERT_TRUE(dissem.Publish(MakeTuple(5)).ok());
  sim_.Run();
  EXPECT_EQ(got.size(), 4u);
  // Remove a mid-chain entity: descendants must keep receiving.
  ASSERT_TRUE(dissem.RemoveEntity(1).ok());
  EXPECT_FALSE(dissem.RemoveEntity(1).ok());
  got.clear();
  ASSERT_TRUE(dissem.Publish(MakeTuple(5)).ok());
  sim_.Run();
  EXPECT_EQ(got.count(1), 0u);
  EXPECT_EQ(got.size(), 3u);
  for (auto [e, n] : got) EXPECT_EQ(n, 1) << e;
}

TEST_F(DisseminatorTest, RemoveEntityCancelsItsOwnPendingRetries) {
  // A removed entity's process is gone: reliable sends *from* its gateway
  // must be cancelled at removal, not retried to max_retries against a
  // peer that will never hear from it.
  sim::FaultInjector faults(sim::FaultInjector::Config{});
  network_->SetFaultInjector(&faults);
  Disseminator::Config cfg;
  cfg.tree.policy = TreePolicy::kClosestParent;
  cfg.tree.max_fanout = 1;  // chain: source -> e0 -> e1 -> ...
  cfg.reliable = true;
  cfg.retry_timeout_s = 0.05;
  Disseminator dissem(network_.get(), cfg);
  ASSERT_TRUE(dissem.AddSource(0, source_node_).ok());
  for (int e = 0; e < 4; ++e) {
    ASSERT_TRUE(dissem.AddEntity(e, gateways_[e]).ok());
    ASSERT_TRUE(
        dissem.SetEntityInterest(e, 0, {Box{Interval{0.0, 100.0}}}).ok());
  }
  // Sever the e0 -> e1 hop only: e0's forwards to e1 stay unacked and
  // keep retrying while everything upstream of e0 is acked normally.
  faults.Partition(gateways_[0], gateways_[1]);
  for (int v = 0; v < 5; ++v) {
    ASSERT_TRUE(dissem.Publish(MakeTuple(static_cast<double>(v))).ok());
  }
  sim_.RunUntil(0.2);  // a few retry rounds, well short of max_retries
  EXPECT_GT(dissem.retries_count(), 0);
  EXPECT_GT(dissem.pending_reliable_count(), 0u);
  EXPECT_EQ(dissem.retries_cancelled_count(), 0);

  ASSERT_TRUE(dissem.RemoveEntity(0).ok());
  EXPECT_GT(dissem.retries_cancelled_count(), 0);
  int64_t retries_at_removal = dissem.retries_count();
  int64_t failures_at_removal = dissem.delivery_failures_count();
  sim_.Run();
  // The cancelled sends are gone for good: no further retransmissions and
  // no late delivery-failure verdicts from their orphaned timers.
  EXPECT_EQ(dissem.retries_count(), retries_at_removal);
  EXPECT_EQ(dissem.delivery_failures_count(), failures_at_removal);
  EXPECT_EQ(dissem.pending_reliable_count(), 0u);
}

TEST_F(DisseminatorTest, UnknownStreamRejected) {
  Disseminator dissem(network_.get(), Disseminator::Config{});
  engine::Tuple t;
  t.stream = 5;
  EXPECT_FALSE(dissem.Publish(t).ok());
  EXPECT_FALSE(dissem.SetEntityInterest(0, 5, {}).ok());
}

}  // namespace
}  // namespace dsps::dissemination
