#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "engine/operators.h"
#include "entity/entity.h"
#include "placement/placement.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dsps::entity {
namespace {

using engine::FilterOp;
using engine::MapOp;
using engine::Query;
using engine::QueryPlan;
using engine::WindowJoinOp;

std::unique_ptr<engine::ExecutionEngine> MakeBasic() {
  return std::make_unique<engine::BasicEngine>();
}

Query FilterQuery(common::QueryId id, double lo, double hi,
                  common::StreamId stream = 0) {
  Query q;
  q.id = id;
  auto plan = std::make_shared<QueryPlan>();
  auto f = plan->AddOperator(
      std::make_unique<FilterOp>(std::vector<int>{0}, interest::Box{{lo, hi}}));
  EXPECT_TRUE(plan->BindStream(stream, f, 0).ok());
  q.plan = plan;
  q.interest.Add(stream, interest::Box{{lo, hi}});
  q.load = 1.0;
  return q;
}

Query PipelineQuery(common::QueryId id, int n_maps) {
  Query q;
  q.id = id;
  auto plan = std::make_shared<QueryPlan>();
  common::OperatorId prev = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  EXPECT_TRUE(plan->BindStream(0, prev, 0).ok());
  for (int i = 0; i < n_maps; ++i) {
    auto id2 = plan->AddOperator(std::make_unique<MapOp>(std::vector<int>{0, 1}));
    EXPECT_TRUE(plan->Connect(prev, id2, 0).ok());
    prev = id2;
  }
  q.plan = plan;
  q.interest.Add(0, interest::Box{{0, 100}});
  return q;
}

std::shared_ptr<const engine::Tuple> MakeTuple(double v, double ts,
                                               common::StreamId stream = 0) {
  engine::Tuple t;
  t.stream = stream;
  t.timestamp = ts;
  t.values = {engine::Value{v}, engine::Value{1.0}};
  return std::make_shared<const engine::Tuple>(std::move(t));
}

class EntityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::Network>(&sim_);
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(network_->AddNode({0.1 * i, 0}));
    }
    policy_ = std::make_unique<placement::PrAwarePlacement>();
  }

  std::unique_ptr<Entity> MakeEntity(int procs = 4, int limit = 2) {
    Entity::Config cfg;
    cfg.distribution_limit = limit;
    std::vector<common::SimNodeId> nodes(nodes_.begin(),
                                         nodes_.begin() + procs);
    auto ent = std::make_unique<Entity>(0, network_.get(), nodes, MakeBasic,
                                        policy_.get(), cfg);
    ent->InstallHandlers();
    return ent;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  std::vector<common::SimNodeId> nodes_;
  std::unique_ptr<placement::PrAwarePlacement> policy_;
};

TEST_F(EntityTest, FilterQueryProducesResults) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  EXPECT_EQ(ent.query_count(), 1u);
  int results = 0;
  ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                           const engine::Tuple& t) {
    ++results;
    EXPECT_EQ(rec.query, 1);
    EXPECT_GT(rec.latency, 0.0);
    EXPECT_GT(rec.pr, 0.0);
    EXPECT_LE(engine::AsDouble(t.values[0]), 50.0);
  });
  for (int i = 0; i < 20; ++i) {
    ent.OnStreamTuple(MakeTuple(i * 5.0, sim_.now()));
    sim_.Run();
  }
  EXPECT_EQ(results, 11);  // values 0,5,...,50
  EXPECT_EQ(ent.results_count(), 11);
  EXPECT_EQ(ent.pr_sketch().count(), 11);
}

TEST_F(EntityTest, DuplicateQueryRejected) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  EXPECT_FALSE(ent.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
}

TEST_F(EntityTest, RemoveQueryStopsResults) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  ASSERT_TRUE(ent.InstallQuery(FilterQuery(1, 0, 100), 100.0).ok());
  ASSERT_TRUE(ent.RemoveQuery(1).ok());
  EXPECT_EQ(ent.query_count(), 0u);
  EXPECT_FALSE(ent.RemoveQuery(1).ok());
  ent.OnStreamTuple(MakeTuple(5, 0));
  sim_.Run();
  EXPECT_EQ(ent.results_count(), 0);
  EXPECT_NEAR(ent.TotalCommittedLoad(), 0.0, 1e-12);
}

TEST_F(EntityTest, MultiFragmentPipelineWorksAcrossProcessors) {
  auto ent_ptr = MakeEntity(4, 3);
  Entity& ent = *ent_ptr;
  Query q = PipelineQuery(1, 5);
  ASSERT_TRUE(ent.InstallQuery(q, 1000.0).ok());
  int results = 0;
  ent.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) { ++results; });
  for (int i = 0; i < 10; ++i) {
    ent.OnStreamTuple(MakeTuple(50, sim_.now()));
    sim_.Run();
  }
  EXPECT_EQ(results, 10);
}

TEST_F(EntityTest, DistributionLimitRespectedInPlacement) {
  auto ent_ptr = MakeEntity(4, 2);
  Entity& ent = *ent_ptr;
  Query q = PipelineQuery(1, 7);
  ASSERT_TRUE(ent.InstallQuery(q, 1000.0).ok());
  // Count distinct processors across the query's fragments.
  std::set<common::ProcessorId> procs;
  for (common::FragmentId f = 1; f <= 8; ++f) {
    auto loc = ent.FragmentLocation(f);
    if (loc.ok()) procs.insert(loc.value());
  }
  EXPECT_LE(procs.size(), 2u);
  EXPECT_GE(procs.size(), 1u);
}

TEST_F(EntityTest, JoinQueryAcrossTwoStreams) {
  auto ent_ptr = MakeEntity();
  Entity& ent = *ent_ptr;
  Query q;
  q.id = 5;
  auto plan = std::make_shared<QueryPlan>();
  auto f1 = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  auto f2 = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0}, interest::Box{{0, 100}}));
  auto j = plan->AddOperator(std::make_unique<WindowJoinOp>(100.0, 0, 0));
  ASSERT_TRUE(plan->Connect(f1, j, 0).ok());
  ASSERT_TRUE(plan->Connect(f2, j, 1).ok());
  ASSERT_TRUE(plan->BindStream(0, f1, 0).ok());
  ASSERT_TRUE(plan->BindStream(1, f2, 0).ok());
  q.plan = plan;
  q.interest.Add(0, interest::Box{{0, 100}});
  q.interest.Add(1, interest::Box{{0, 100}});
  ASSERT_TRUE(ent.InstallQuery(q, 10.0).ok());
  int results = 0;
  ent.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) { ++results; });
  // Same key 7 on both streams -> one join result.
  ent.OnStreamTuple(MakeTuple(7, 0.0, 0));
  sim_.Run();
  ent.OnStreamTuple(MakeTuple(7, 0.001, 1));
  sim_.Run();
  EXPECT_EQ(results, 1);
}

TEST_F(EntityTest, DelegationAssignsDistinctProcessorsRoundRobin) {
  auto ent_ptr = MakeEntity(4);
  Entity& ent = *ent_ptr;
  std::set<common::ProcessorId> delegates;
  for (common::StreamId s = 0; s < 4; ++s) {
    delegates.insert(ent.DelegateFor(s));
  }
  EXPECT_EQ(delegates.size(), 4u);
  // Stable on re-query.
  EXPECT_EQ(ent.DelegateFor(0), ent.DelegateFor(0));
}

TEST_F(EntityTest, QueueingDelayGrowsWithLoad) {
  // One processor, heavy per-tuple cost: back-to-back tuples must queue.
  Entity::Config cfg;
  cfg.distribution_limit = 1;
  Entity ent(0, network_.get(), {nodes_[0]}, MakeBasic, policy_.get(), cfg);
  ent.InstallHandlers();
  Query q = FilterQuery(1, 0, 100);
  // Make the filter expensive (10 ms per tuple).
  auto plan = q.plan->Clone();
  plan->mutable_op(0)->set_cost_per_tuple(0.01);
  q.plan = std::shared_ptr<QueryPlan>(std::move(plan));
  ASSERT_TRUE(ent.InstallQuery(q, 100.0).ok());
  std::vector<double> latencies;
  ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                           const engine::Tuple&) {
    latencies.push_back(rec.latency);
  });
  // Burst of 10 tuples at the same instant.
  for (int i = 0; i < 10; ++i) {
    ent.OnStreamTuple(MakeTuple(5, 0.0));
  }
  sim_.Run();
  ASSERT_EQ(latencies.size(), 10u);
  // Later tuples waited behind earlier ones.
  EXPECT_GT(latencies.back(), latencies.front() + 0.05);
  EXPECT_GT(ent.MaxUtilization(), 0.0);
}

TEST_F(EntityTest, IndexedDelegationMatchesNaive) {
  // With the delegate-side interest index on, results must be identical
  // to the naive fan-out (the index may only skip queries whose filter
  // would drop the tuple anyway).
  interest::StreamCatalog catalog;
  interest::StreamStats stats;
  stats.domain = interest::Box{{0, 100}, {0, 100}};
  catalog.Register(0, stats);
  auto run = [&](bool indexed) {
    sim::Simulator sim;
    sim::Network net(&sim);
    std::vector<common::SimNodeId> nodes{net.AddNode({0, 0}),
                                         net.AddNode({0.1, 0})};
    Entity::Config cfg;
    cfg.distribution_limit = 2;
    cfg.catalog = indexed ? &catalog : nullptr;
    Entity ent(0, &net, nodes, MakeBasic, policy_.get(), cfg);
    ent.InstallHandlers();
    std::map<common::QueryId, int> results;
    ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                             const engine::Tuple&) { results[rec.query] += 1; });
    // Queries watching staggered bands.
    for (int i = 1; i <= 6; ++i) {
      Entity::Config dummy;
      (void)dummy;
      Query q;
      q.id = i;
      interest::Box box{{(i - 1) * 15.0, (i - 1) * 15.0 + 25.0}, {0, 100}};
      auto plan = std::make_shared<QueryPlan>();
      auto f = plan->AddOperator(
          std::make_unique<FilterOp>(std::vector<int>{0, 1}, box));
      EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
      q.plan = plan;
      q.interest.Add(0, box);
      EXPECT_TRUE(ent.InstallQuery(q, 100.0).ok());
    }
    common::Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      engine::Tuple t;
      t.stream = 0;
      t.timestamp = sim.now();
      t.values = {engine::Value{rng.Uniform(0, 100)},
                  engine::Value{rng.Uniform(0, 100)}};
      ent.OnStreamTuple(std::make_shared<const engine::Tuple>(std::move(t)));
      sim.Run();
    }
    return results;
  };
  auto naive = run(false);
  auto indexed = run(true);
  EXPECT_EQ(naive, indexed);
  EXPECT_GT(naive.size(), 0u);
}

TEST_F(EntityTest, BatchEngineEntityProducesSameResults) {
  Entity::Config cfg;
  cfg.distribution_limit = 2;
  Entity basic(0, network_.get(), {nodes_[0], nodes_[1]}, MakeBasic,
               policy_.get(), cfg);
  basic.InstallHandlers();
  int basic_results = 0;
  basic.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) {
        ++basic_results;
      });
  ASSERT_TRUE(basic.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  for (int i = 0; i < 32; ++i) {
    basic.OnStreamTuple(MakeTuple(i * 3.0, sim_.now()));
  }
  sim_.Run();

  sim::Simulator sim2;
  sim::Network net2(&sim2);
  std::vector<common::SimNodeId> nodes2{net2.AddNode({0, 0}),
                                        net2.AddNode({0.1, 0})};
  Entity batch(0, &net2, nodes2,
               [] {
                 return std::unique_ptr<engine::ExecutionEngine>(
                     new engine::BatchEngine(4));
               },
               policy_.get(), cfg);
  batch.InstallHandlers();
  int batch_results = 0;
  batch.SetResultHandler(
      [&](const Entity::ResultRecord&, const engine::Tuple&) {
        ++batch_results;
      });
  ASSERT_TRUE(batch.InstallQuery(FilterQuery(1, 0, 50), 100.0).ok());
  for (int i = 0; i < 32; ++i) {
    batch.OnStreamTuple(MakeTuple(i * 3.0, sim2.now()));
  }
  sim2.Run();
  EXPECT_EQ(basic_results, batch_results);
}

}  // namespace
}  // namespace dsps::entity
