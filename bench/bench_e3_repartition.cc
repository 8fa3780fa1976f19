// Experiment E3 (Section 3.2.2): adaptive repartitioning of the query
// graph under drift. Compares the two extremes the paper describes
// (from-scratch vs overlap-oblivious incremental moves) with the hybrid
// middle ground, over a sequence of drift episodes.

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "index_series.h"
#include "interest/box_index.h"
#include "partition/graph_index.h"
#include "partition/repartitioner.h"
#include "telemetry/bench_report.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;
using dsps::partition::HybridRepartitioner;
using dsps::partition::IncrementalRepartitioner;
using dsps::partition::MultilevelPartitioner;
using dsps::partition::QueryGraph;
using dsps::partition::Repartitioner;
using dsps::partition::ScratchRepartitioner;

/// Clustered query graph with per-vertex loads.
QueryGraph MakeGraph(int clusters, int per_cluster,
                     const std::vector<double>& loads, dsps::common::Rng* rng) {
  QueryGraph g;
  int n = clusters * per_cluster;
  for (int i = 0; i < n; ++i) g.AddVertex(i, loads[i]);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      bool same = (i / per_cluster) == (j / per_cluster);
      if (same && rng->Bernoulli(0.4)) {
        g.AddEdge(i, j, rng->Uniform(5, 10));
      } else if (!same && rng->Bernoulli(0.01)) {
        g.AddEdge(i, j, rng->Uniform(0.1, 0.5));
      }
    }
  }
  return g;
}

struct EpisodeStats {
  dsps::common::RunningStat cut, imbalance, migrations, decision_ms;
};

/// Runs `rounds` drift episodes: loads drift multiplicatively each round;
/// the repartitioner adapts from the previous assignment.
EpisodeStats RunDrift(Repartitioner* rp, int rounds, uint64_t seed) {
  const int clusters = 8, per_cluster = 64;
  const int n = clusters * per_cluster;
  dsps::common::Rng rng(seed);
  std::vector<double> loads(n);
  for (double& l : loads) l = rng.Uniform(0.5, 1.5);
  // Edge structure is fixed; rebuild graphs with the same edge seed.
  dsps::common::Rng edge_rng(seed + 1);
  QueryGraph g = MakeGraph(clusters, per_cluster, loads, &edge_rng);
  MultilevelPartitioner initial;
  std::vector<int> assignment = initial.Partition(g, clusters, 1.15).value();
  EpisodeStats stats;
  for (int round = 0; round < rounds; ++round) {
    // Drift: one cluster heats up, one cools down.
    int hot = static_cast<int>(rng.NextUint64(clusters));
    int cold = static_cast<int>(rng.NextUint64(clusters));
    for (int v = 0; v < n; ++v) {
      if (v / per_cluster == hot) loads[v] *= rng.Uniform(1.5, 2.0);
      if (v / per_cluster == cold) loads[v] *= rng.Uniform(0.4, 0.7);
    }
    dsps::common::Rng er(seed + 1);
    QueryGraph drifted = MakeGraph(clusters, per_cluster, loads, &er);
    auto result = rp->Repartition(drifted, assignment, clusters, 1.15);
    stats.cut.Add(result.edge_cut);
    stats.imbalance.Add(result.imbalance);
    stats.migrations.Add(result.migrations);
    stats.decision_ms.Add(result.decision_seconds * 1e3);
    assignment = std::move(result.assignment);
  }
  return stats;
}

void BM_Repartition(benchmark::State& state) {
  int which = static_cast<int>(state.range(0));
  ScratchRepartitioner scratch;
  IncrementalRepartitioner inc;
  HybridRepartitioner hybrid;
  Repartitioner* rp = which == 0 ? static_cast<Repartitioner*>(&scratch)
                      : which == 1 ? static_cast<Repartitioner*>(&inc)
                                   : static_cast<Repartitioner*>(&hybrid);
  for (auto _ : state) {
    EpisodeStats s = RunDrift(rp, 3, 11);
    benchmark::DoNotOptimize(s.cut.mean());
  }
  state.SetLabel(rp->name());
}
BENCHMARK(BM_Repartition)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void PrintE3() {
  const int rounds = 10;
  dsps::telemetry::BenchReport report("e3_repartition");
  Table table({"repartitioner", "mean cut B/s", "mean imbalance",
               "migrations/round", "decision ms/round"});
  ScratchRepartitioner scratch;
  IncrementalRepartitioner inc;
  HybridRepartitioner hybrid;
  for (Repartitioner* rp : std::initializer_list<Repartitioner*>{
           &scratch, &inc, &hybrid}) {
    // Each strategy's migration counters land in its own registry slice.
    dsps::telemetry::MetricsRegistry metrics;
    rp->SetMetrics(&metrics);
    EpisodeStats s = RunDrift(rp, rounds, 21);
    table.AddRow({rp->name(), Table::Num(s.cut.mean(), 0),
                  Table::Num(s.imbalance.mean(), 3),
                  Table::Num(s.migrations.mean(), 1),
                  Table::Num(s.decision_ms.mean(), 2)});
    dsps::telemetry::Labels row =
        dsps::telemetry::MakeLabels({{"strategy", rp->name()}});
    report.SetHeadline("cut_mean", s.cut.mean(), row);
    report.SetHeadline("imbalance_mean", s.imbalance.mean(), row);
    report.SetHeadline("migrations_per_round", s.migrations.mean(), row);
    report.MergeSnapshot(metrics.Snapshot());
    rp->SetMetrics(nullptr);
  }
  // Graph-construction cost: the indexed full build (timed as
  // partition.graph_build_us) vs incremental delta maintenance of the
  // same graph under churn (partition.incremental_delta_us per delta).
  {
    auto us_since = [](std::chrono::steady_clock::time_point start) {
      return std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    dsps::telemetry::MetricsRegistry metrics;
    auto* build_us = metrics.histogram("partition.graph_build_us");
    auto* delta_us = metrics.histogram("partition.incremental_delta_us");
    dsps::interest::StreamCatalog catalog;
    dsps::common::Rng srng(5);
    auto streams = dsps::workload::MakeTickerStreams(
        4, dsps::workload::StockTickerGen::Config{}, &catalog, &srng);
    dsps::workload::QueryGen qgen(dsps::workload::QueryGen::Config{}, &catalog,
                                  dsps::common::Rng(6));
    std::vector<dsps::engine::Query> queries = qgen.Batch(512);
    const int reps = 5;
    dsps::interest::IndexStats build_stats;
    for (int rep = 0; rep < reps; ++rep) {
      dsps::interest::IndexStats rep_stats;
      auto start = std::chrono::steady_clock::now();
      QueryGraph g = QueryGraph::Build(queries, catalog, 1e-9, &rep_stats);
      build_us->Add(us_since(start));
      benchmark::DoNotOptimize(g.total_edge_weight());
      if (rep == reps - 1) build_stats = rep_stats;
    }
    // Index health of the inverted per-stream indexes the build ran on.
    dsps::bench::ExportIndexStats(
        build_stats, &metrics,
        dsps::telemetry::MakeLabels({{"scope", "graph_build"}}));
    // Churn: remove + re-add one query per delta against the live index,
    // the pattern a repartition round sees between rebuild-free rounds.
    dsps::partition::QueryGraphIndex index(&catalog);
    for (const dsps::engine::Query& q : queries) index.AddQuery(q);
    const int deltas = 256;
    for (int i = 0; i < deltas; ++i) {
      const dsps::engine::Query& q = queries[i % queries.size()];
      auto start = std::chrono::steady_clock::now();
      index.RemoveQuery(q.id);
      index.AddQuery(q);
      delta_us->Add(us_since(start));
    }
    QueryGraph materialized = index.Graph();
    benchmark::DoNotOptimize(materialized.total_edge_weight());
    // The live incremental indexes after the churn phase, plus a lookup
    // probe over the workload's own stream-0 interest boxes so this
    // report carries index.lookup_us / index.build_us / index.mem_bytes.
    dsps::bench::ExportIndexStats(
        index.StreamIndexStats(), &metrics,
        dsps::telemetry::MakeLabels({{"scope", "incremental"}}));
    {
      std::vector<dsps::interest::Box> probe_boxes;
      for (const dsps::engine::Query& q : queries) {
        const std::vector<dsps::interest::Box>* boxes =
            q.interest.boxes_for(0);
        if (boxes == nullptr) continue;
        probe_boxes.insert(probe_boxes.end(), boxes->begin(), boxes->end());
      }
      dsps::bench::RunIndexLookupProbe(
          probe_boxes, catalog.stats(0).domain,
          dsps::bench::IndexProbeConfig{}, &metrics,
          dsps::telemetry::MakeLabels({{"scope", "probe"}}));
    }
    report.SetHeadline("graph_build_queries", queries.size());
    report.SetHeadline("graph_build_edges", materialized.total_edge_weight());
    report.MergeSnapshot(metrics.Snapshot());
    Table graph_table({"operation", "count", "mean us"});
    const dsps::telemetry::MetricsSnapshot snap = metrics.Snapshot();
    if (const auto* s = snap.Find("partition.graph_build_us")) {
      graph_table.AddRow({"full indexed build", Table::Int(s->count),
                          Table::Num(s->mean, 1)});
    }
    if (const auto* s = snap.Find("partition.incremental_delta_us")) {
      graph_table.AddRow({"incremental delta (remove+add)",
                          Table::Int(s->count), Table::Num(s->mean, 1)});
    }
    graph_table.Print(
        "Query-graph construction, 512 queries / 4 streams: indexed full "
        "build vs per-query incremental deltas");
  }
  report.WriteFileOrDie();
  table.Print(
      "E3 (Section 3.2.2): adaptive repartitioning over 10 drift episodes, "
      "512 queries, 8 entities — hybrid holds the cut near from-scratch at "
      "incremental-like migration cost");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE3();
  return 0;
}
