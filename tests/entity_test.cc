#include <gtest/gtest.h>

#include <limits>
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
  // Seeded property test: with the delegate tables on, every query's
  // result sequence must equal the naive fan-out's (a table may only skip
  // queries whose filter would drop the tuple anyway), under interleaved
  // installs, removals and tuples. Enough multi-box queries share stream
  // 0 that its table crosses the grid threshold; boxes include empty and
  // unbounded ones, and tuples NaN and infinite coordinates.
  interest::StreamCatalog catalog;
  interest::StreamStats stats;
  stats.domain = interest::Box{{0, 100}, {0, 100}};
  catalog.Register(0, stats);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto random_box = [](common::Rng* rng) {
    const double r = rng->Uniform(0, 1);
    if (r < 0.05) return interest::Box{{60, 40}, {0, 100}};  // empty
    if (r < 0.10) return interest::Box{interest::Interval::All(), {0, 100}};
    const double x = rng->Uniform(0, 100);
    interest::Interval lead{x, x + rng->Uniform(0, 25)};
    if (r < 0.15) lead.lo = -1e300;
    if (r >= 0.15 && r < 0.20) lead.hi = 1e300;
    const double y = rng->Uniform(0, 80);
    return interest::Box{lead, {y, y + rng->Uniform(5, 60)}};
  };
  auto random_value = [](common::Rng* rng, double lo, double hi) {
    const double r = rng->Uniform(0, 1);
    if (r < 0.03) return kNaN;
    if (r < 0.06) return kInf;
    if (r < 0.09) return -kInf;
    return rng->Uniform(lo, hi);
  };
  using Sequences = std::map<common::QueryId, std::vector<double>>;
  auto run = [&](uint64_t seed, bool indexed) {
    sim::Simulator sim;
    sim::Network net(&sim);
    std::vector<common::SimNodeId> nodes{net.AddNode({0, 0}),
                                         net.AddNode({0.1, 0})};
    Entity::Config cfg;
    cfg.distribution_limit = 2;
    cfg.catalog = indexed ? &catalog : nullptr;
    Entity ent(0, &net, nodes, MakeBasic, policy_.get(), cfg);
    ent.InstallHandlers();
    Sequences results;
    ent.SetResultHandler([&](const Entity::ResultRecord& rec,
                             const engine::Tuple& t) {
      results[rec.query].push_back(engine::AsDouble(t.values[0]));
    });
    common::Rng rng(seed);
    std::vector<common::QueryId> installed;
    common::QueryId next_id = 1;
    bool saw_grid = false;
    // The filter tests the first interest box; the other boxes only widen
    // the interest, so they may route extra tuples, never lose one.
    auto install = [&] {
      Query q;
      q.id = next_id++;
      const size_t n_boxes = 1 + rng.NextUint64(3);
      std::vector<interest::Box> boxes;
      for (size_t i = 0; i < n_boxes; ++i) boxes.push_back(random_box(&rng));
      auto plan = std::make_shared<QueryPlan>();
      auto f = plan->AddOperator(
          std::make_unique<FilterOp>(std::vector<int>{0, 1}, boxes[0]));
      EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
      q.plan = plan;
      for (const interest::Box& b : boxes) q.interest.Add(0, b);
      ASSERT_TRUE(ent.InstallQuery(q, 100.0).ok());
      installed.push_back(q.id);
    };
    for (int i = 0; i < 30; ++i) install();
    for (int step = 0; step < 600; ++step) {
      const double r = rng.Uniform(0, 1);
      if (r < 0.2) {
        install();
      } else if (r < 0.35 && !installed.empty()) {
        const size_t k = rng.NextUint64(installed.size());
        EXPECT_TRUE(ent.RemoveQuery(installed[k]).ok());
        installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        engine::Tuple t;
        t.stream = 0;
        t.timestamp = sim.now();
        t.values.emplace_back(random_value(&rng, -10, 130));
        t.values.emplace_back(random_value(&rng, -10, 110));
        ent.OnStreamTuple(std::make_shared<const engine::Tuple>(std::move(t)));
        sim.Run();
      }
      if (indexed) {
        const common::Status audit = ent.CheckDelegateTables();
        EXPECT_TRUE(audit.ok()) << audit.ToString();
        interest::IndexStats index_stats;
        ent.CollectIndexStats(&index_stats);
        EXPECT_EQ(index_stats.indexes, 1);
        saw_grid = saw_grid || index_stats.grid_indexes > 0;
      }
    }
    EXPECT_EQ(saw_grid, indexed);
    return results;
  };
  for (uint64_t seed : {42u, 7u, 2024u}) {
    const Sequences naive = run(seed, false);
    const Sequences indexed = run(seed, true);
    EXPECT_EQ(naive, indexed) << "seed " << seed;
    EXPECT_GT(naive.size(), 10u) << "seed " << seed;
  }
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
