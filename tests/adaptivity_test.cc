// Tests for the adaptive/extension machinery: interest summarization,
// dissemination-tree reorganization, failure detection, dynamic fragment
// re-placement with live state migration, and the DES-integrated
// distributed ordering chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

#include "common/rng.h"
#include "coordinator/heartbeat_monitor.h"
#include "dissemination/reorganizer.h"
#include "dissemination/tree.h"
#include "engine/operators.h"
#include "entity/entity.h"
#include "interest/summarize.h"
#include "ordering/distributed_chain.h"
#include "placement/rebalancer.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dsps {
namespace {

using interest::Box;
using interest::Interval;

// ---------------------------------------------------- Interest summarization

/// Reference implementation of greedy pairwise coarsening: the original
/// rescan-every-pair O(n^3) loop. The shipped heap-based CoarsenBoxes must
/// reproduce its output box-for-box (bit-identical), so summary quality is
/// provably no worse.
std::vector<Box> ReferenceCoarsen(std::vector<Box> boxes, int budget) {
  auto bounding = [](const Box& a, const Box& b) {
    Box out(a.size());
    for (size_t d = 0; d < a.size(); ++d) {
      out[d] =
          Interval{std::min(a[d].lo, b[d].lo), std::max(a[d].hi, b[d].hi)};
    }
    return out;
  };
  auto cost = [&](const Box& a, const Box& b) {
    return interest::BoxVolume(bounding(a, b)) - interest::BoxVolume(a) -
           interest::BoxVolume(b) +
           interest::BoxVolume(interest::BoxIntersect(a, b));
  };
  std::vector<Box> live;
  for (Box& b : boxes) {
    if (!interest::BoxEmpty(b)) live.push_back(std::move(b));
  }
  while (static_cast<int>(live.size()) > budget) {
    size_t bi = 0, bj = 1;
    double best = std::numeric_limits<double>::max();
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        double c = cost(live[i], live[j]);
        if (c < best) {
          best = c;
          bi = i;
          bj = j;
        }
      }
    }
    live[bi] = bounding(live[bi], live[bj]);
    live.erase(live.begin() + static_cast<long>(bj));
    for (size_t i = 0; i < live.size();) {
      if (i != bi && interest::BoxCovers(live[bi], live[i])) {
        if (i < bi) --bi;
        live.erase(live.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }
  return live;
}

TEST(SummarizeTest, HeapCoarsenMatchesReferenceExactly) {
  common::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Box> fine;
    int n = 3 + static_cast<int>(rng.NextUint64(30));
    for (int i = 0; i < n; ++i) {
      double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
      fine.push_back(Box{{x, x + rng.Uniform(0.5, 15)},
                         {y, y + rng.Uniform(0.5, 15)}});
    }
    // Occasionally inject duplicates and contained boxes (tie-break and
    // covered-removal paths).
    if (trial % 3 == 0 && n > 2) {
      fine.push_back(fine[0]);
      fine.push_back(Box{{fine[1][0].lo, fine[1][0].lo},
                         {fine[1][1].lo, fine[1][1].lo}});
    }
    for (int budget : {1, 2, 5, 12}) {
      std::vector<Box> expected = ReferenceCoarsen(fine, budget);
      std::vector<Box> got = interest::CoarsenBoxes(fine, budget);
      ASSERT_EQ(got.size(), expected.size())
          << "trial " << trial << " budget " << budget;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), expected[i].size());
        for (size_t d = 0; d < got[i].size(); ++d) {
          EXPECT_EQ(got[i][d].lo, expected[i][d].lo)
              << "trial " << trial << " budget " << budget << " box " << i;
          EXPECT_EQ(got[i][d].hi, expected[i][d].hi)
              << "trial " << trial << " budget " << budget << " box " << i;
        }
      }
      // Quality is therefore no worse; assert it directly too.
      EXPECT_LE(interest::CoarseningOvershoot(fine, got),
                interest::CoarseningOvershoot(fine, expected) + 1e-9);
    }
  }
}

TEST(SummarizeTest, BudgetRespectedAndCovers) {
  common::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Box> fine;
    for (int i = 0; i < 12; ++i) {
      double x = rng.Uniform(0, 90), y = rng.Uniform(0, 90);
      fine.push_back(Box{{x, x + rng.Uniform(1, 10)},
                         {y, y + rng.Uniform(1, 10)}});
    }
    for (int budget : {1, 3, 6}) {
      std::vector<Box> coarse = interest::CoarsenBoxes(fine, budget);
      EXPECT_LE(static_cast<int>(coarse.size()), budget);
      // Coverage: every fine point remains covered (probe corners+centers).
      for (const Box& f : fine) {
        double probes[3][2] = {{f[0].lo, f[1].lo},
                               {f[0].hi, f[1].hi},
                               {(f[0].lo + f[0].hi) / 2,
                                (f[1].lo + f[1].hi) / 2}};
        for (auto& p : probes) {
          bool covered = false;
          for (const Box& c : coarse) {
            if (interest::BoxContains(c, p)) covered = true;
          }
          EXPECT_TRUE(covered) << "budget " << budget;
        }
      }
      EXPECT_GE(interest::CoarseningOvershoot(fine, coarse), -1e-9);
    }
  }
}

TEST(SummarizeTest, NoCoarseningWhenUnderBudget) {
  std::vector<Box> fine{Box{{0, 1}}, Box{{5, 6}}};
  std::vector<Box> coarse = interest::CoarsenBoxes(fine, 4);
  EXPECT_EQ(coarse.size(), 2u);
  EXPECT_NEAR(interest::CoarseningOvershoot(fine, coarse), 0.0, 1e-12);
}

TEST(SummarizeTest, TighterBudgetMoreOvershoot) {
  common::Rng rng(2);
  std::vector<Box> fine;
  for (int i = 0; i < 10; ++i) {
    double x = rng.Uniform(0, 90);
    fine.push_back(Box{{x, x + 2}});
  }
  double over3 = interest::CoarseningOvershoot(
      fine, interest::CoarsenBoxes(fine, 3));
  double over1 = interest::CoarseningOvershoot(
      fine, interest::CoarsenBoxes(fine, 1));
  EXPECT_GE(over1, over3);
}

TEST(SummarizeTest, CoarsenInterestSet) {
  interest::InterestSet set;
  for (int i = 0; i < 8; ++i) {
    set.Add(0, Box{{i * 10.0, i * 10.0 + 1}});
    set.Add(1, Box{{i * 5.0, i * 5.0 + 1}});
  }
  interest::CoarsenInterest(&set, 2);
  EXPECT_LE(set.boxes_for(0)->size(), 2u);
  EXPECT_LE(set.boxes_for(1)->size(), 2u);
}

TEST(SummarizeTest, TreeBudgetKeepsDeliveryComplete) {
  // With a tight interest budget, subtree summaries over-approximate but
  // never lose tuples.
  dissemination::DisseminationTree::Config cfg;
  cfg.policy = dissemination::TreePolicy::kClosestParent;
  cfg.max_fanout = 2;
  cfg.interest_budget = 1;
  dissemination::DisseminationTree tree(0, {0, 0}, cfg);
  common::Rng rng(5);
  for (int e = 0; e < 12; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 10), rng.Uniform(0, 10)}).ok());
    double lo = e * 8.0;
    tree.SetLocalInterest(e, {Box{{lo, lo + 4}}});
  }
  // Every entity's own interest must be matched by every ancestor's
  // subtree summary (no false negatives on the forwarding path).
  for (int e = 0; e < 12; ++e) {
    double probe = e * 8.0 + 2.0;
    common::EntityId cur = e;
    while (cur != common::kInvalidEntity) {
      bool matched = false;
      for (const Box& b : tree.SubtreeInterest(cur)) {
        if (interest::BoxContains(b, &probe)) matched = true;
      }
      EXPECT_TRUE(matched) << "entity " << e << " ancestor " << cur;
      cur = tree.Parent(cur).value();
    }
  }
}

// --------------------------------------------------------- Tree reorganizer

TEST(ReorganizerTest, ReducesTreeCost) {
  dissemination::DisseminationTree::Config cfg;
  cfg.policy = dissemination::TreePolicy::kRandom;  // deliberately bad tree
  cfg.max_fanout = 3;
  cfg.seed = 3;
  dissemination::DisseminationTree tree(0, {500, 500}, cfg);
  common::Rng rng(7);
  for (int e = 0; e < 30; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}).ok());
  }
  dissemination::TreeReorganizer reorg;
  double before = dissemination::TreeReorganizer::TreeCost(tree);
  int total_moves = 0;
  for (int round = 0; round < 10; ++round) {
    auto stats = reorg.Round(&tree);
    EXPECT_LE(stats.cost_after, stats.cost_before + 1e-9);
    total_moves += stats.moves;
    if (stats.moves == 0) break;
  }
  double after = dissemination::TreeReorganizer::TreeCost(tree);
  EXPECT_LT(after, 0.8 * before);
  EXPECT_GT(total_moves, 0);
  // Structure still sane: all entities present, fanout bound holds.
  EXPECT_EQ(tree.size(), 30u);
  for (int e = 0; e < 30; ++e) {
    EXPECT_LE(tree.Children(e).size(), 3u);
    EXPECT_TRUE(tree.Depth(e).ok());  // connected, acyclic
  }
}

TEST(ReorganizerTest, ConvergesAndStops) {
  dissemination::DisseminationTree::Config cfg;
  cfg.policy = dissemination::TreePolicy::kClosestParent;
  cfg.max_fanout = 3;
  dissemination::DisseminationTree tree(0, {0, 0}, cfg);
  common::Rng rng(9);
  for (int e = 0; e < 15; ++e) {
    ASSERT_TRUE(
        tree.AddEntity(e, {rng.Uniform(0, 100), rng.Uniform(0, 100)}).ok());
  }
  dissemination::TreeReorganizer reorg;
  // Run to convergence, then one more round must make zero moves.
  for (int i = 0; i < 20; ++i) {
    if (reorg.Round(&tree).moves == 0) break;
  }
  EXPECT_EQ(reorg.Round(&tree).moves, 0);
}

TEST(ReattachTest, Validations) {
  dissemination::DisseminationTree::Config cfg;
  cfg.max_fanout = 1;
  dissemination::DisseminationTree tree(0, {0, 0}, cfg);
  ASSERT_TRUE(tree.AddEntity(0, {1, 0}).ok());
  ASSERT_TRUE(tree.AddEntity(1, {2, 0}).ok());  // child of 0 (fanout 1)
  ASSERT_EQ(tree.Parent(1).value(), 0);
  EXPECT_FALSE(tree.Reattach(0, 1).ok());   // cycle
  EXPECT_FALSE(tree.Reattach(0, 0).ok());   // self
  EXPECT_FALSE(tree.Reattach(99, 0).ok());  // unknown
  EXPECT_FALSE(tree.Reattach(1, 99).ok());  // unknown parent
  // Source fanout is full (entity 0), so moving 1 to the source fails.
  EXPECT_FALSE(tree.Reattach(1, common::kInvalidEntity).ok());
}

// --------------------------------------------------------- Failure detector

TEST(HeartbeatMonitorTest, DetectsSilence) {
  coordinator::HeartbeatMonitor::Config cfg;
  cfg.timeout_s = 2.0;
  coordinator::HeartbeatMonitor mon(cfg);
  mon.Register(1, 0.0);
  mon.Register(2, 0.0);
  mon.Heartbeat(1, 1.5);
  auto suspects = mon.Sweep(3.0);  // 2 silent since 0.0
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 2);
  EXPECT_TRUE(mon.IsTracked(1));
  EXPECT_FALSE(mon.IsTracked(2));
}

TEST(HeartbeatMonitorTest, HeartbeatAfterSweepReRegisters) {
  // False-positive recovery: an entity evicted by Sweep (say its
  // heartbeats were partitioned away) is tracked again as soon as one of
  // its heartbeats gets through — it must not stay invisible forever.
  coordinator::HeartbeatMonitor::Config cfg;
  cfg.timeout_s = 2.0;
  coordinator::HeartbeatMonitor mon(cfg);
  mon.Register(2, 0.0);
  auto suspects = mon.Sweep(3.0);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_FALSE(mon.IsTracked(2));
  mon.Heartbeat(2, 3.1);
  EXPECT_TRUE(mon.IsTracked(2));
  // Re-registered means re-sweepable: silence suspects it again.
  EXPECT_TRUE(mon.Sweep(4.0).empty());
  auto again = mon.Sweep(6.0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], 2);
}

TEST(HeartbeatMonitorTest, UnregisterAndReRegister) {
  coordinator::HeartbeatMonitor mon;
  mon.Register(1, 0.0);
  mon.Unregister(1);
  EXPECT_TRUE(mon.Sweep(100.0).empty());
  mon.Register(1, 100.0);
  EXPECT_TRUE(mon.Sweep(100.5).empty());
  EXPECT_EQ(mon.size(), 1u);
}

// ------------------------------------------------------------- Rebalancer

TEST(RebalancerTest, RestoresBalanceWithinLimit) {
  placement::PlacementInput input;
  for (int p = 0; p < 4; ++p) {
    input.processors.push_back(placement::ProcessorSpec{p, 1.0, 0.0});
  }
  input.distribution_limit = 2;
  placement::Placement current;
  // 8 queries x 2 fragments, all piled on processor 0.
  common::FragmentId fid = 1;
  for (int q = 0; q < 8; ++q) {
    for (int f = 0; f < 2; ++f) {
      placement::FragmentSpec spec;
      spec.id = fid;
      spec.query = q;
      spec.cpu_load = 0.1;
      input.fragments.push_back(spec);
      current[fid] = 0;
      ++fid;
    }
  }
  placement::Rebalancer::Config cfg;
  cfg.max_moves = 16;
  placement::Rebalancer rb(cfg);
  auto moves = rb.Plan(input, current);
  EXPECT_GT(moves.size(), 0u);
  // Apply and verify balance + limit.
  for (const auto& m : moves) current[m.fragment] = m.to;
  std::vector<double> load(4, 0.0);
  std::map<common::QueryId, std::set<common::ProcessorId>> used;
  for (const auto& frag : input.fragments) {
    load[current[frag.id]] += frag.cpu_load;
    used[frag.query].insert(current[frag.id]);
  }
  double max_load = *std::max_element(load.begin(), load.end());
  EXPECT_LT(max_load, 1.6 * (1.6 / 4.0) + 0.3);  // far from the 1.6 pile-up
  for (const auto& [q, procs] : used) {
    EXPECT_LE(procs.size(), 2u);
  }
}

TEST(RebalancerTest, NoMovesWhenBalanced) {
  placement::PlacementInput input;
  for (int p = 0; p < 2; ++p) {
    input.processors.push_back(placement::ProcessorSpec{p, 1.0, 0.0});
  }
  input.distribution_limit = 2;
  placement::Placement current;
  for (int f = 0; f < 4; ++f) {
    placement::FragmentSpec spec;
    spec.id = f + 1;
    spec.query = f;
    spec.cpu_load = 0.1;
    input.fragments.push_back(spec);
    current[f + 1] = f % 2;
  }
  placement::Rebalancer rb;
  EXPECT_TRUE(rb.Plan(input, current).empty());
}

// -------------------------------------------------- Live fragment migration

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::Network>(&sim_);
    for (int i = 0; i < 3; ++i) {
      nodes_.push_back(network_->AddNode({0.1 * i, 0}));
    }
    policy_ = std::make_unique<placement::PrAwarePlacement>();
    entity::Entity::Config cfg;
    cfg.distribution_limit = 2;
    ent_ = std::make_unique<entity::Entity>(
        0, network_.get(), nodes_,
        [] {
          return std::unique_ptr<engine::ExecutionEngine>(
              new engine::BasicEngine());
        },
        policy_.get(), cfg);
    ent_->InstallHandlers();
  }

  engine::Query JoinQuery() {
    engine::Query q;
    q.id = 1;
    auto plan = std::make_shared<engine::QueryPlan>();
    auto j = plan->AddOperator(std::make_unique<engine::WindowJoinOp>(
        1000.0, 0, 0));
    EXPECT_TRUE(plan->BindStream(0, j, 0).ok());
    EXPECT_TRUE(plan->BindStream(1, j, 1).ok());
    q.plan = plan;
    q.interest.Add(0, Box{{-1e9, 1e9}, {-1e9, 1e9}});
    q.interest.Add(1, Box{{-1e9, 1e9}, {-1e9, 1e9}});
    return q;
  }

  std::shared_ptr<const engine::Tuple> KeyTuple(common::StreamId s, double ts,
                                                int64_t key) {
    engine::Tuple t;
    t.stream = s;
    t.timestamp = ts;
    t.values = {engine::Value{key}, engine::Value{1.0}};
    return std::make_shared<const engine::Tuple>(std::move(t));
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  std::vector<common::SimNodeId> nodes_;
  std::unique_ptr<placement::PrAwarePlacement> policy_;
  std::unique_ptr<entity::Entity> ent_;
};

TEST_F(MigrationTest, WindowStateSurvivesMigration) {
  ASSERT_TRUE(ent_->InstallQuery(JoinQuery(), 10.0).ok());
  int results = 0;
  ent_->SetResultHandler(
      [&](const entity::Entity::ResultRecord&, const engine::Tuple&) {
        ++results;
      });
  // Left-side tuple enters the join's window state.
  ent_->OnStreamTuple(KeyTuple(0, 0.0, 42));
  sim_.Run();
  EXPECT_EQ(results, 0);
  // Migrate the (single) fragment to a different processor.
  auto loc = ent_->FragmentLocation(1);
  ASSERT_TRUE(loc.ok());
  common::ProcessorId target = (loc.value() + 1) % 3;
  int64_t bytes_before = network_->total_bytes();
  ASSERT_TRUE(ent_->MoveFragment(1, target).ok());
  EXPECT_EQ(ent_->FragmentLocation(1).value(), target);
  EXPECT_GT(network_->total_bytes(), bytes_before);  // state was shipped
  // The matching right-side tuple still joins: state moved with it.
  ent_->OnStreamTuple(KeyTuple(1, 1.0, 42));
  sim_.Run();
  EXPECT_EQ(results, 1);
}

TEST_F(MigrationTest, MoveValidations) {
  ASSERT_TRUE(ent_->InstallQuery(JoinQuery(), 10.0).ok());
  EXPECT_FALSE(ent_->MoveFragment(99, 1).ok());   // unknown fragment
  EXPECT_FALSE(ent_->MoveFragment(1, 99).ok());   // unknown processor
  auto loc = ent_->FragmentLocation(1);
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE(ent_->MoveFragment(1, loc.value()).ok());  // no-op move
}

TEST_F(MigrationTest, RebalanceMovesLoadOffHotProcessor) {
  // Install several single-fragment queries; they all anchor at the
  // delegate of stream 0 within the balance slack, then rebalance spreads
  // them.
  for (int i = 1; i <= 6; ++i) {
    engine::Query q;
    q.id = i;
    auto plan = std::make_shared<engine::QueryPlan>();
    auto f = plan->AddOperator(std::make_unique<engine::FilterOp>(
        std::vector<int>{0}, Box{{-1e9, 1e9}}));
    plan->mutable_op(f)->set_cost_per_tuple(1e-3);
    EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
    q.plan = plan;
    q.interest.Add(0, Box{{-1e9, 1e9}});
    ASSERT_TRUE(ent_->InstallQuery(q, 100.0).ok());
  }
  double max_before = 0.0;
  for (int p = 0; p < 3; ++p) {
    max_before = std::max(max_before, ent_->processor(p)->committed_load());
  }
  placement::Rebalancer::Config cfg;
  cfg.slack = 0.02;
  cfg.max_moves = 8;
  int moved = ent_->Rebalance(placement::Rebalancer(cfg));
  double max_after = 0.0;
  for (int p = 0; p < 3; ++p) {
    max_after = std::max(max_after, ent_->processor(p)->committed_load());
  }
  if (moved > 0) {
    EXPECT_LT(max_after, max_before);
  }
  // Results still flow after rebalancing.
  int results = 0;
  ent_->SetResultHandler(
      [&](const entity::Entity::ResultRecord&, const engine::Tuple&) {
        ++results;
      });
  ent_->OnStreamTuple(KeyTuple(0, 1.0, 1));
  sim_.Run();
  EXPECT_EQ(results, 6);
}

// ------------------------------------------------------- Distributed chain

ordering::DistributedChain::FilterSite MakeSite(
    common::OperatorId op, common::ProcessorId proc, common::SimNodeId node,
    double pass_below) {
  ordering::DistributedChain::FilterSite site;
  site.op = op;
  site.proc = proc;
  site.node = node;
  site.cost = 1e-5;
  site.predicate = [pass_below](const engine::Tuple& t) {
    return engine::AsDouble(t.values[0]) < pass_below;
  };
  return site;
}

TEST(DistributedChainTest, SurvivorsAreConjunction) {
  sim::Simulator sim;
  sim::Network net(&sim);
  std::vector<common::SimNodeId> nodes{net.AddNode({0, 0}),
                                       net.AddNode({0.1, 0})};
  ordering::DistributedChain::Config cfg;
  cfg.adaptive = true;
  ordering::DistributedChain chain(
      &net, 1,
      {MakeSite(0, 0, nodes[0], 50.0), MakeSite(1, 1, nodes[1], 30.0)}, cfg);
  chain.InstallHandlers();
  std::vector<double> survived;
  chain.SetSurvivorHandler(
      [&](const engine::Tuple& t, double latency) {
        EXPECT_GT(latency, 0.0);
        survived.push_back(engine::AsDouble(t.values[0]));
      });
  for (int v = 0; v < 100; v += 10) {
    engine::Tuple t;
    t.stream = 0;
    t.timestamp = sim.now();
    t.values = {engine::Value{static_cast<double>(v)}};
    ASSERT_TRUE(chain.Submit(t).ok());
    sim.Run();
  }
  // Survivors: v < 30 → 0, 10, 20.
  ASSERT_EQ(survived.size(), 3u);
  EXPECT_EQ(chain.survivors(), 3);
  EXPECT_GT(chain.evaluations(), 0);
}

TEST(DistributedChainTest, AdaptiveBeatsStaticUnderDrift) {
  auto run = [&](bool adaptive) {
    sim::Simulator sim;
    sim::Network net(&sim);
    std::vector<common::SimNodeId> nodes{net.AddNode({0, 0}),
                                         net.AddNode({0.1, 0}),
                                         net.AddNode({0.2, 0})};
    // Selectivities flip halfway: op0 passes almost everything early and
    // little late; op1 the opposite.
    int64_t seq = 0;
    auto drift_pred = [&seq](double early, double late, int64_t* counter) {
      return [early, late, counter](const engine::Tuple& t) {
        double frac = engine::AsDouble(t.values[0]);  // in [0,1)
        double threshold =
            *counter < 3000 ? early : late;
        return frac < threshold;
      };
    };
    (void)seq;
    static int64_t counter = 0;
    counter = 0;
    ordering::DistributedChain::FilterSite s0;
    s0.op = 0;
    s0.proc = 0;
    s0.node = nodes[0];
    s0.cost = 1e-5;
    s0.predicate = drift_pred(0.95, 0.05, &counter);
    ordering::DistributedChain::FilterSite s1;
    s1.op = 1;
    s1.proc = 1;
    s1.node = nodes[1];
    s1.cost = 1e-5;
    s1.predicate = drift_pred(0.05, 0.95, &counter);
    ordering::DistributedChain::Config cfg;
    cfg.adaptive = adaptive;
    ordering::DistributedChain chain(&net, 1, {s0, s1}, cfg);
    chain.InstallHandlers();
    common::Rng rng(11);
    for (int i = 0; i < 6000; ++i) {
      ++counter;
      engine::Tuple t;
      t.stream = 0;
      t.timestamp = sim.now();
      t.values.emplace_back(rng.NextDouble());
      EXPECT_TRUE(chain.Submit(t).ok());
      sim.RunUntil(sim.now() + 1e-3);
    }
    sim.Run();
    return chain.evaluations();
  };
  int64_t adaptive_evals = run(true);
  int64_t static_evals = run(false);
  EXPECT_LT(adaptive_evals, static_evals);
}

}  // namespace
}  // namespace dsps
