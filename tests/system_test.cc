#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "partition/partitioner.h"
#include "partition/query_graph.h"
#include "partition/repartitioner.h"
#include "system/auditor.h"
#include "system/system.h"
#include "telemetry/timeseries.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

System::Config SmallConfig(AllocationMode mode = AllocationMode::kRoundRobin) {
  System::Config cfg;
  cfg.topology.num_entities = 4;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.allocation = mode;
  cfg.seed = 7;
  return cfg;
}

std::vector<std::unique_ptr<workload::StreamGen>> SmallStreams(
    int n, double rate = 200.0) {
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = rate;
  interest::StreamCatalog scratch;
  common::Rng rng(3);
  return workload::MakeTickerStreams(n, tcfg, &scratch, &rng);
}

/// Accepts all symbols/prices/volumes by default (wide interest so
/// results flow).
engine::Query WideQuery(common::QueryId id, common::StreamId stream,
                        interest::Box box = {{-1, 1000}, {-1, 1000},
                                             {-1, 1e9}}) {
  engine::Query q;
  q.id = id;
  auto plan = std::make_shared<engine::QueryPlan>();
  auto f = plan->AddOperator(std::make_unique<engine::FilterOp>(
      std::vector<int>{0, 1, 2}, box));
  EXPECT_TRUE(plan->BindStream(stream, f, 0).ok());
  q.plan = plan;
  q.interest.Add(stream, box);
  q.load = 1.0;
  return q;
}

TEST(SystemTest, EndToEndResultsFlow) {
  System sys(SmallConfig());
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(2, 1)).ok());
  sys.GenerateTraffic(2.0);
  sys.RunUntil(3.0);
  SystemMetrics m = sys.Collect();
  EXPECT_GT(m.results, 100);
  EXPECT_GT(m.delivered_tuples, 100);
  EXPECT_GT(m.wan_bytes, 0);
  EXPECT_GT(m.latency.p50(), 0.0);
  EXPECT_GT(m.pr.p50(), 0.0);
}

TEST(SystemTest, UnboundedInterestGetsTheBoundedResults) {
  // A price bound of 1e300 or Interval::All() must deliver exactly what a
  // finite bound above every price delivers: the grid cell of such a
  // bound must clamp to the edge, or the query's box registers nowhere.
  auto results = [](interest::Interval price) {
    System sys(SmallConfig());
    sys.AddStreams(SmallStreams(2));
    EXPECT_TRUE(
        sys.SubmitQuery(WideQuery(1, 0, {{-1, 1000}, price, {-1, 1e9}})).ok());
    sys.GenerateTraffic(2.0);
    sys.RunUntil(3.0);
    return sys.Collect().results;
  };
  const int64_t bounded = results({-1, 1e9});
  EXPECT_GT(bounded, 0);
  EXPECT_EQ(results({-1, 1e300}), bounded);
  EXPECT_EQ(results(interest::Interval::All()), bounded);
}

TEST(SystemTest, QueriesLandOnEntities) {
  System sys(SmallConfig(AllocationMode::kCoordinatorTree));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
    EXPECT_NE(sys.EntityOf(i), common::kInvalidEntity);
  }
  EXPECT_EQ(sys.EntityOf(99), common::kInvalidEntity);
}

TEST(SystemTest, UnknownStreamSubmitLeavesNoTrace) {
  // Streams 0-1 exist; 7 does not. A query bound to stream 0 whose
  // interest also names stream 7, and one whose plan binds stream 7, are
  // refused before any entity installs them.
  System sys(SmallConfig());
  sys.AddStreams(SmallStreams(2));
  engine::Query by_interest = WideQuery(1, 0);
  by_interest.interest.Add(7, interest::Box{{0, 1}, {0, 1}, {0, 1}});
  engine::Query by_binding = WideQuery(2, 7);
  by_binding.interest = WideQuery(2, 0).interest;
  for (const engine::Query* q : {&by_interest, &by_binding}) {
    EXPECT_EQ(sys.SubmitQuery(*q).code(), common::StatusCode::kInvalidArgument);
    EXPECT_EQ(sys.EntityOf(q->id), common::kInvalidEntity);
  }
  // In a batch, only the offending query is refused.
  std::vector<engine::Query> batch;
  batch.push_back(WideQuery(3, 1));
  batch.push_back(WideQuery(4, 7));
  System::BatchSubmitResult r = sys.SubmitQueries(batch);
  EXPECT_EQ(r.admitted, 1);
  EXPECT_EQ(r.failed, 1);
  EXPECT_EQ(r.first_error.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(sys.EntityOf(3), common::kInvalidEntity);
  EXPECT_EQ(sys.EntityOf(4), common::kInvalidEntity);
  sys.GenerateTraffic(2.0);
  sys.RunUntil(2.0);
  Auditor::Config acfg;
  acfg.fatal = false;
  Auditor auditor(&sys, acfg);
  EXPECT_EQ(auditor.RunOnce(), 0);
  for (const Auditor::CheckStats& check : auditor.checks()) {
    if (check.name != "conservation") continue;
    EXPECT_EQ(check.runs, 1);
    EXPECT_EQ(check.violations, 0) << check.last_detail;
  }
}

TEST(SystemTest, GraphPartitionBatchAllocation) {
  // A gap in the alive ids: partition indices must map onto {0, 2, 3}.
  auto make = [] {
    auto sys = std::make_unique<System>(
        SmallConfig(AllocationMode::kGraphPartition));
    sys->AddStreams(SmallStreams(2));
    EXPECT_TRUE(sys->FailEntity(1).ok());
    return sys;
  };
  std::unique_ptr<System> sys = make();
  std::unique_ptr<System> serial = make();
  workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.0;
  workload::QueryGen gen(qcfg, &sys->catalog(), common::Rng(5));
  auto queries = gen.Batch(16);
  System::BatchSubmitResult result = sys->SubmitQueries(queries);
  ASSERT_TRUE(result.first_error.ok());
  EXPECT_EQ(result.admitted, 16);
  ASSERT_TRUE(serial->SubmitQueries(queries).first_error.ok());
  // Reference oracle: the joint Section 3.2.2 partition of the batch's
  // query graph over the alive entities.
  std::vector<common::EntityId> alive;
  for (int e = 0; e < sys->num_entities(); ++e) {
    if (sys->IsAlive(e)) alive.push_back(e);
  }
  partition::MultilevelPartitioner partitioner;
  auto expected = partitioner.Partition(
      partition::QueryGraph::Build(queries, sys->catalog()),
      static_cast<int>(alive.size()), SmallConfig().balance_tolerance);
  ASSERT_TRUE(expected.ok());
  // Every query got its oracle home; homes cover multiple entities.
  std::set<common::EntityId> homes;
  for (size_t i = 0; i < queries.size(); ++i) {
    common::EntityId home = sys->EntityOf(queries[i].id);
    ASSERT_NE(home, common::kInvalidEntity);
    EXPECT_EQ(home, alive[expected.value()[i]]) << "query " << queries[i].id;
    homes.insert(home);
  }
  EXPECT_GT(homes.size(), 1u);
  // A lone query is placed by interest affinity, never by partitioning a
  // one-vertex graph: a span of one duplicating a batch query's interest
  // lands beside it, where a serial twin's SubmitQuery puts it too.
  for (const engine::Query& original : queries) {
    engine::Query twin = original;
    twin.id = original.id + 1000;
    ASSERT_TRUE(sys->SubmitQueries({&twin, 1}).first_error.ok());
    ASSERT_TRUE(serial->SubmitQuery(twin).ok());
    EXPECT_EQ(sys->EntityOf(twin.id), serial->EntityOf(twin.id));
    EXPECT_EQ(sys->EntityOf(twin.id), sys->EntityOf(original.id))
        << "query " << original.id;
  }
}

TEST(SystemTest, GraphPartitionBatchShipsResultsToClients) {
  System::Config cfg = SmallConfig(AllocationMode::kGraphPartition);
  cfg.num_clients = 2;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  std::vector<engine::Query> queries;
  for (int i = 1; i <= 16; ++i) queries.push_back(WideQuery(i, i % 2));
  ASSERT_TRUE(sys.SubmitQueries(queries).first_error.ok());
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);
  SystemMetrics m = sys.Collect();
  EXPECT_GT(m.results, 0);
  EXPECT_GT(m.client_results, 0);
  // Every result of every query reached a client: a query installed
  // without a client assignment would have its results dropped.
  EXPECT_EQ(m.client_results, m.results);
}

TEST(SystemTest, PeriodicLoopsFireOnPeriodBoundaries) {
  // Period 0.5 up to until = 2.0, a multiple of the period: every loop
  // fires at 0.5, 1.0, 1.5 and 2.0 — first firing one period after the
  // start, the last exactly at `until`, none after it.
  System::Config cfg = SmallConfig();
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  const double period = 0.5, until = 2.0;
  System::FailureDetectionConfig det;
  det.heartbeat_period_s = period;
  det.sweep_period_s = period;
  det.timeout_s = 1.5;
  sys.EnableFailureDetection(det, until);
  sys.EnableMaintenance(period, until);
  Auditor* auditor = sys.EnableAudit(period, until, /*fatal=*/false);
  telemetry::Watchdog* watchdog = sys.EnableWatchdog(period, until);
  telemetry::TimeSeriesRecorder recorder;
  sys.EnableTimeSeries(&recorder, period, until);
  // Every loaded entity is hot from the first observation and may grow
  // every round: grow events count elasticity rounds exactly.
  tenant::ElasticityManager::Config ecfg;
  ecfg.high_watermark = 1e-12;
  ecfg.low_watermark = 0.0;
  ecfg.sustain_rounds = 1;
  ecfg.max_processors = 64;
  sys.EnableElasticity(ecfg, period, until);
  int loaded = 0;
  for (int e = 0; e < sys.num_entities(); ++e) {
    if (sys.entity_at(e)->TotalCommittedLoad() > 0.0) ++loaded;
  }
  ASSERT_GT(loaded, 0);
  sys.GenerateTraffic(3.0);
  sys.RunUntil(3.0);
  EXPECT_EQ(sys.maintenance_stats().rounds, 4);
  EXPECT_EQ(auditor->sweeps(), 4);
  EXPECT_EQ(auditor->violations(), 0);
  EXPECT_EQ(sys.failure_stats().heartbeat_messages, 4 * sys.num_entities());
  EXPECT_EQ(watchdog->ticks(), 4);
  EXPECT_EQ(recorder.num_samples(), 1u + 4u);
  EXPECT_EQ(sys.elasticity_stats().grow_events, 4 * loaded);
}

TEST(SystemTest, EarlyFilterCutsWanBytes) {
  auto run = [&](bool early) {
    System::Config cfg = SmallConfig();
    cfg.dissemination.early_filter = early;
    System sys(cfg);
    sys.AddStreams(SmallStreams(2));
    // One narrow query: most tuples are uninteresting.
    engine::Query q;
    q.id = 1;
    auto plan = std::make_shared<engine::QueryPlan>();
    interest::Box box{{0, 2}, {0, 100}, {0, 1e9}};
    auto f = plan->AddOperator(std::make_unique<engine::FilterOp>(
        std::vector<int>{0, 1, 2}, box));
    EXPECT_TRUE(plan->BindStream(0, f, 0).ok());
    q.plan = plan;
    q.interest.Add(0, box);
    EXPECT_TRUE(sys.SubmitQuery(q).ok());
    sys.GenerateTraffic(2.0);
    sys.RunUntil(3.0);
    return sys.Collect().wan_bytes;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SystemTest, CoordinatorBalancesBetterThanIsolated) {
  auto imbalance = [&](AllocationMode mode) {
    System sys(SmallConfig(mode));
    sys.AddStreams(SmallStreams(2));
    workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                           common::Rng(11));
    for (const auto& q : gen.Batch(40)) {
      EXPECT_TRUE(sys.SubmitQuery(q).ok());
    }
    return sys.Collect().entity_load_imbalance;
  };
  double coord = imbalance(AllocationMode::kCoordinatorTree);
  double isolated = imbalance(AllocationMode::kIsolatedZipf);
  EXPECT_LT(coord, isolated);
}

TEST(SystemTest, MixedEnginesInteroperate) {
  // Entities run different engine families ("mixed") yet the system
  // produces results from all of them — the loose-coupling property.
  System::Config cfg = SmallConfig(AllocationMode::kRoundRobin);
  cfg.engine_family = "mixed";
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, 0)).ok());
  }
  sys.GenerateTraffic(2.0);
  sys.RunUntil(3.5);
  // All four entities host one query each (round robin) and each produced
  // results.
  for (int e = 0; e < sys.num_entities(); ++e) {
    EXPECT_GT(sys.entity_at(e)->results_count(), 0) << "entity " << e;
  }
}

TEST(SystemTest, InterestAwareAllocationCutsWanBytes) {
  auto run = [&](AllocationMode mode) {
    System::Config cfg = SmallConfig(mode);
    cfg.topology.num_entities = 8;
    System sys(cfg);
    sys.AddStreams(SmallStreams(2));
    // Hotspot workload: heavy interest overlap between queries.
    workload::QueryGen::Config qcfg;
    qcfg.join_prob = 0;
    qcfg.agg_prob = 0;
    qcfg.num_hotspots = 2;
    qcfg.hotspot_prob = 0.95;
    qcfg.width_min_frac = 0.2;
    qcfg.width_max_frac = 0.5;
    workload::QueryGen gen(qcfg, &sys.catalog(), common::Rng(13));
    for (const auto& q : gen.Batch(48)) {
      EXPECT_TRUE(sys.SubmitQuery(q).ok());
    }
    sys.GenerateTraffic(2.0);
    sys.RunUntil(3.0);
    SystemMetrics m = sys.Collect();
    return std::make_pair(m.wan_bytes, m.entity_load_imbalance);
  };
  auto [wan_plain, imb_plain] = run(AllocationMode::kCoordinatorTree);
  auto [wan_interest, imb_interest] = run(AllocationMode::kCoordinatorInterest);
  // Co-locating overlapping queries reduces duplicate dissemination.
  EXPECT_LT(wan_interest, wan_plain);
  // Balance must not collapse.
  EXPECT_LT(imb_interest, 8.0);
}

TEST(SystemTest, RemoveQueryClearsInterest) {
  System sys(SmallConfig());
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  common::EntityId home = sys.EntityOf(1);
  ASSERT_TRUE(sys.RemoveQuery(1).ok());
  EXPECT_EQ(sys.EntityOf(1), common::kInvalidEntity);
  EXPECT_FALSE(sys.RemoveQuery(1).ok());
  EXPECT_EQ(sys.entity_at(home)->query_count(), 0u);
  // With no interest left, traffic produces no deliveries to that entity.
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);
  EXPECT_EQ(sys.Collect().results, 0);
}

TEST(SystemTest, FailEntityRehomesQueries) {
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  // Fail the entity hosting query 1.
  common::EntityId victim = sys.EntityOf(1);
  auto rehomed = sys.FailEntity(victim);
  ASSERT_TRUE(rehomed.ok());
  EXPECT_GE(rehomed.value(), 1);
  EXPECT_FALSE(sys.IsAlive(victim));
  EXPECT_EQ(sys.num_alive(), 3);
  // Every query has a live home now.
  for (int i = 1; i <= 8; ++i) {
    common::EntityId home = sys.EntityOf(i);
    ASSERT_NE(home, common::kInvalidEntity) << "query " << i;
    EXPECT_NE(home, victim);
    EXPECT_TRUE(sys.IsAlive(home));
  }
  // The system still produces results after the failure.
  sys.GenerateTraffic(1.5);
  sys.RunUntil(3.0);
  EXPECT_GT(sys.Collect().results, 50);
  // Double failure is rejected; failing everyone is rejected.
  EXPECT_FALSE(sys.FailEntity(victim).ok());
  EXPECT_FALSE(sys.FailEntity(99).ok());
}

TEST(SystemTest, MaintenanceRunsAndKeepsResultsFlowing) {
  System::Config cfg = SmallConfig();
  cfg.dissemination.tree.policy = dissemination::TreePolicy::kRandom;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.EnableMaintenance(0.5, 3.0);
  sys.GenerateTraffic(3.0);
  sys.RunUntil(4.0);
  EXPECT_GE(sys.maintenance_stats().rounds, 4);
  EXPECT_GT(sys.Collect().results, 100);
}

TEST(SystemTest, MigrateQueryMovesHomeAndKeepsResults) {
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  ASSERT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
  common::EntityId from = sys.EntityOf(1);
  common::EntityId to = (from + 1) % sys.num_entities();
  ASSERT_TRUE(sys.MigrateQuery(1, to).ok());
  EXPECT_EQ(sys.EntityOf(1), to);
  EXPECT_EQ(sys.entity_at(from)->query_count(), 0u);
  EXPECT_EQ(sys.entity_at(to)->query_count(), 1u);
  sys.GenerateTraffic(1.0);
  sys.RunUntil(2.0);
  EXPECT_GT(sys.Collect().results, 50);
  EXPECT_FALSE(sys.MigrateQuery(99, to).ok());
  EXPECT_TRUE(sys.MigrateQuery(1, to).ok());  // no-op move
}

TEST(SystemTest, LiveRepartitioningImprovesPlacement) {
  // Pile everything on one entity (isolated-zipf-like), then one hybrid
  // repartitioning round must spread it out.
  System sys(SmallConfig(AllocationMode::kRoundRobin));
  sys.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &sys.catalog(),
                         common::Rng(21));
  auto queries = gen.Batch(24);
  for (const auto& q : queries) {
    ASSERT_TRUE(sys.SubmitQuery(q).ok());
  }
  // Force-migrate everything to entity 0 to create a degenerate start.
  for (const auto& q : queries) {
    ASSERT_TRUE(sys.MigrateQuery(q.id, 0).ok());
  }
  partition::HybridRepartitioner hybrid;
  auto report = sys.RepartitionQueries(&hybrid);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().migrations, 0);
  EXPECT_LT(report.value().imbalance, 1.5);
  // Homes now span several entities.
  std::set<common::EntityId> homes;
  for (const auto& q : queries) homes.insert(sys.EntityOf(q.id));
  EXPECT_GE(homes.size(), 3u);
}

TEST(SystemTest, ClientLatencyRecorded) {
  System::Config cfg = SmallConfig(AllocationMode::kCoordinatorTree);
  cfg.num_clients = 4;
  System sys(cfg);
  sys.AddStreams(SmallStreams(2));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(sys.SubmitQuery(WideQuery(i, i % 2)).ok());
  }
  sys.GenerateTraffic(1.5);
  sys.RunUntil(3.0);
  SystemMetrics m = sys.Collect();
  EXPECT_GT(m.client_results, 50);
  EXPECT_GT(m.client_latency.p50(), 0.0);
  // Client latency includes the entity->client WAN hop, so it dominates
  // the entity-side latency.
  EXPECT_GE(m.client_latency.p50(), m.latency.p50());
}

TEST(SystemTest, SubmitQueriesMatchesSerialSubmission) {
  // The grouped batch path (route all, install grouped by entity) must
  // pick the same homes and produce the same simulation as per-query
  // submission — the grouping is a pure reordering of independent work.
  System serial(SmallConfig(AllocationMode::kCoordinatorTree));
  serial.AddStreams(SmallStreams(2));
  System batch(SmallConfig(AllocationMode::kCoordinatorTree));
  batch.AddStreams(SmallStreams(2));
  workload::QueryGen gen(workload::QueryGen::Config{}, &serial.catalog(),
                         common::Rng(13));
  std::vector<engine::Query> queries = gen.Batch(48);
  for (const engine::Query& q : queries) {
    ASSERT_TRUE(serial.SubmitQuery(q).ok());
  }
  System::BatchSubmitResult result = batch.SubmitQueries(queries);
  EXPECT_EQ(result.admitted, 48);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.failed, 0);
  for (const engine::Query& q : queries) {
    EXPECT_EQ(serial.EntityOf(q.id), batch.EntityOf(q.id)) << q.id;
  }
  serial.GenerateTraffic(1.0);
  serial.RunUntil(2.0);
  batch.GenerateTraffic(1.0);
  batch.RunUntil(2.0);
  SystemMetrics ms = serial.Collect();
  SystemMetrics mb = batch.Collect();
  EXPECT_EQ(ms.results, mb.results);
  EXPECT_EQ(ms.delivered_tuples, mb.delivered_tuples);
  EXPECT_EQ(ms.wan_bytes, mb.wan_bytes);
}

TEST(SystemTest, SubmitQueriesMatchesSerialUnderAdmissionRefusals) {
  // Near-limit admission decisions are where a changed summation order
  // or install order would show: every per-query verdict and home must
  // match the serial loop exactly, refusals included.
  auto make = [] {
    System::Config cfg = SmallConfig(AllocationMode::kRoundRobin);
    cfg.admission.load_factor = 1.0;  // limit 2.0 per entity, unit loads
    return cfg;
  };
  System serial(make());
  serial.AddStreams(SmallStreams(2));
  System batch(make());
  batch.AddStreams(SmallStreams(2));
  std::vector<engine::Query> queries;
  for (int i = 1; i <= 24; ++i) queries.push_back(WideQuery(i, i % 2));
  int64_t ok = 0, refused = 0;
  for (const engine::Query& q : queries) {
    common::Status st = serial.SubmitQuery(q);
    if (st.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(st.code(), common::StatusCode::kResourceExhausted);
      ++refused;
    }
  }
  ASSERT_GT(refused, 0);  // the config must actually force refusals
  System::BatchSubmitResult result = batch.SubmitQueries(queries);
  EXPECT_EQ(result.admitted, ok);
  EXPECT_EQ(result.rejected, refused);
  EXPECT_EQ(result.failed, 0);
  for (const engine::Query& q : queries) {
    EXPECT_EQ(serial.EntityOf(q.id), batch.EntityOf(q.id)) << q.id;
  }
}

TEST(SystemTest, DeterministicForSeed) {
  auto run = [] {
    System sys(SmallConfig());
    sys.AddStreams(SmallStreams(2));
    EXPECT_TRUE(sys.SubmitQuery(WideQuery(1, 0)).ok());
    sys.GenerateTraffic(1.0);
    sys.RunUntil(2.0);
    SystemMetrics m = sys.Collect();
    return std::make_tuple(m.results, m.wan_bytes, m.delivered_tuples);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dsps::system
