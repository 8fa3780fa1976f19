#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "engine/fragment.h"
#include "engine/operators.h"
#include "engine/plan_io.h"
#include "engine/query_builder.h"
#include "workload/stream_gen.h"

namespace dsps::engine {
namespace {

std::unique_ptr<QueryPlan> EveryOperatorPlan() {
  auto plan = std::make_unique<QueryPlan>();
  auto f = plan->AddOperator(std::make_unique<FilterOp>(
      std::vector<int>{0, 1}, interest::Box{{0, 10}, {5.5, 20.25}}));
  plan->mutable_op(f)->set_estimated_selectivity(0.125);
  auto m = plan->AddOperator(
      std::make_unique<MapOp>(std::vector<int>{1, 0}, 2.5));
  auto d = plan->AddOperator(std::make_unique<DistinctOp>(3.5, 0));
  auto a = plan->AddOperator(std::make_unique<WindowAggregateOp>(
      10.0, WindowAggregateOp::Func::kMax, 0, 1));
  auto s = plan->AddOperator(std::make_unique<SlidingWindowAggregateOp>(
      20.0, 5.0, WindowAggregateOp::Func::kSum, 0, 1));
  auto t = plan->AddOperator(std::make_unique<TopKOp>(30.0, 4, 0, 1));
  auto u = plan->AddOperator(std::make_unique<UnionOp>(1));
  EXPECT_TRUE(plan->Connect(f, m, 0).ok());
  EXPECT_TRUE(plan->Connect(m, d, 0).ok());
  EXPECT_TRUE(plan->Connect(d, a, 0).ok());
  EXPECT_TRUE(plan->Connect(a, s, 0).ok());
  EXPECT_TRUE(plan->Connect(s, t, 0).ok());
  EXPECT_TRUE(plan->Connect(t, u, 0).ok());
  EXPECT_TRUE(plan->BindStream(2, f, 0).ok());
  return plan;
}

TEST(PlanIoTest, RoundTripPreservesStructure) {
  auto plan = EveryOperatorPlan();
  auto text = SerializePlan(*plan);
  ASSERT_TRUE(text.ok());
  auto parsed = ParsePlan(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QueryPlan& p = *parsed.value();
  ASSERT_EQ(p.num_operators(), plan->num_operators());
  for (int i = 0; i < p.num_operators(); ++i) {
    EXPECT_STREQ(p.op(i).name(), plan->op(i).name()) << i;
    EXPECT_DOUBLE_EQ(p.op(i).cost_per_tuple(), plan->op(i).cost_per_tuple());
    EXPECT_DOUBLE_EQ(p.op(i).estimated_selectivity(),
                     plan->op(i).estimated_selectivity());
  }
  EXPECT_EQ(p.edges().size(), plan->edges().size());
  EXPECT_EQ(p.bindings().size(), plan->bindings().size());
  // Serialize again: stable fixed point.
  auto text2 = SerializePlan(p);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(text.value(), text2.value());
}

TEST(PlanIoTest, RoundTripPreservesSemantics) {
  // The parsed plan must produce the same outputs as the original.
  auto plan = EveryOperatorPlan();
  auto parsed = ParsePlan(SerializePlan(*plan).value());
  ASSERT_TRUE(parsed.ok());
  common::Rng rng(3);
  auto run = [&](const QueryPlan& p) {
    std::vector<common::OperatorId> all;
    for (int i = 0; i < p.num_operators(); ++i) all.push_back(i);
    auto frag = FragmentInstance::Create(p, 1, 1, all);
    EXPECT_TRUE(frag.ok());
    std::vector<std::vector<double>> results;
    common::Rng local(7);
    double ts = 0;
    for (int i = 0; i < 400; ++i) {
      ts += local.Exponential(20.0);
      Tuple t;
      t.stream = 2;
      t.timestamp = ts;
      t.values = {Value{local.Uniform(0, 12)}, Value{local.Uniform(0, 25)}};
      std::vector<FragmentInstance::Output> out;
      EXPECT_TRUE(frag.value()->Inject(0, 0, t, &out).ok());
      for (auto& o : out) {
        std::vector<double> vals;
        for (const Value& v : o.tuple.values) vals.push_back(AsDouble(v));
        results.push_back(std::move(vals));
      }
    }
    return results;
  };
  EXPECT_EQ(run(*plan), run(*parsed.value()));
}

TEST(PlanIoTest, PredicateFilterNotSerializable) {
  QueryPlan plan;
  auto p = plan.AddOperator(std::make_unique<PredicateFilterOp>(
      [](const Tuple&) { return true; }));
  ASSERT_TRUE(plan.BindStream(0, p, 0).ok());
  EXPECT_FALSE(SerializePlan(plan).ok());
}

TEST(PlanIoTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParsePlan("").ok());                       // no header
  EXPECT_FALSE(ParsePlan("PLAN v2\n").ok());              // bad version
  EXPECT_FALSE(ParsePlan("OP 0 Filter\n").ok());          // before header
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 1 Union inputs=1\n").ok());  // gap
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 Frobnicate x=1\n").ok());
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 Union inputs=1\nWHAT\n").ok());
  EXPECT_FALSE(
      ParsePlan("PLAN v1\nOP 0 Union inputs=1\nEDGE 0 7 0\n").ok());
  // Out-of-range operator parameters are errors, not constructor aborts.
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 Union inputs=0\n").ok());
  EXPECT_FALSE(
      ParsePlan("PLAN v1\nOP 0 TopK window=1 k=0 key=0 value=1\n").ok());
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 Distinct window=0 key=0\n").ok());
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 SlidingWindowAggregate window=1 "
                         "slide=0 func=sum key=0 value=1\n")
                   .ok());
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 Filter dims=0,1 box=0:1\n").ok());
  // Valid plan must still validate (unfed port -> error).
  EXPECT_FALSE(ParsePlan("PLAN v1\nOP 0 Union inputs=1\n").ok());
  EXPECT_TRUE(
      ParsePlan("PLAN v1\nOP 0 Union inputs=1\nBIND 0 0 0\n").ok());
}

TEST(PlanIoTest, CommentsAndWhitespaceTolerated) {
  auto parsed = ParsePlan(
      "# shipped by entity 3\n"
      "PLAN v1\n"
      "\n"
      "OP 0 Filter dims=0 box=1:2 cost=1e-06 sel=0.5  # the filter\n"
      "BIND 0 0 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()->num_operators(), 1);
}

TEST(PlanIoTest, QueryBuilderPlansShipCleanly) {
  interest::StreamCatalog catalog;
  common::Rng rng(1);
  workload::MakeTickerStreams(1, workload::StockTickerGen::Config{}, &catalog,
                              &rng);
  auto q = QueryBuilder(1)
               .From(0, catalog)
               .Where(1, 10, 60)
               .TopK(5.0, 3, 0, 1)
               .Build();
  ASSERT_TRUE(q.ok());
  auto text = SerializePlan(*q.value().plan);
  ASSERT_TRUE(text.ok());
  auto parsed = ParsePlan(text.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->num_operators(), 2);
}

}  // namespace
}  // namespace dsps::engine
