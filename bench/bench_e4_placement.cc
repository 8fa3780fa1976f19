// Experiment E4 (Section 4.1): intra-entity operator placement. Runs one
// entity's runtime under load with PR-aware, load-only, and random
// placement, sweeping the distribution limit; reports PR_max (the paper's
// objective), mean PR, LAN traffic and utilization.

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/table.h"
#include "engine/operators.h"
#include "entity/entity.h"
#include "placement/placement.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;

struct PlacementRunResult {
  double pr_max = 0.0;
  double pr_p99 = 0.0;
  double pr_mean = 0.0;
  int64_t lan_bytes = 0;
  double max_util = 0.0;
  double mean_util = 0.0;
  int64_t results = 0;
};

PlacementRunResult Run(dsps::placement::PlacementPolicy* policy, int limit,
                       int processors, int num_queries, double duration,
                       uint64_t seed) {
  dsps::sim::Simulator sim;
  dsps::sim::Network net(&sim);
  std::vector<dsps::common::SimNodeId> nodes;
  for (int p = 0; p < processors; ++p) {
    nodes.push_back(net.AddNode({0.01 * p, 0}));
  }
  dsps::entity::Entity::Config cfg;
  cfg.distribution_limit = limit;
  dsps::entity::Entity ent(0, &net, nodes,
                           [] {
                             return std::unique_ptr<dsps::engine::ExecutionEngine>(
                                 new dsps::engine::BasicEngine());
                           },
                           policy, cfg);
  ent.InstallHandlers();

  dsps::interest::StreamCatalog catalog;
  dsps::common::Rng rng(seed);
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 600.0;
  tcfg.zipf_s = 0.0;  // uniform symbols: coverage-based load estimates are exact
  auto gens = dsps::workload::MakeTickerStreams(4, tcfg, &catalog, &rng);

  dsps::workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0.1;
  qcfg.agg_prob = 0.3;
  qcfg.width_min_frac = 0.2;
  qcfg.width_max_frac = 0.6;
  dsps::workload::QueryGen qgen(qcfg, &catalog, dsps::common::Rng(seed + 1));
  for (int i = 0; i < num_queries; ++i) {
    dsps::engine::Query q = qgen.Next();
    // Inflate operator costs so CPU contention is the bottleneck.
    auto plan = q.plan->Clone();
    for (int op = 0; op < plan->num_operators(); ++op) {
      plan->mutable_op(op)->set_cost_per_tuple(
          plan->mutable_op(op)->cost_per_tuple() * 100.0);
    }
    q.plan = std::shared_ptr<dsps::engine::QueryPlan>(std::move(plan));
    // A query's leaf filters see every tuple of their bound stream that
    // reaches the entity — the full stream rate here (interest coverage
    // only shrinks the filter's OUTPUT, which the fragmenter's
    // selectivity cascade already models).
    double tps = 1.0;
    for (dsps::common::StreamId s : q.interest.streams()) {
      tps = std::max(tps, catalog.stats(s).tuples_per_s);
    }
    if (!ent.InstallQuery(q, tps).ok()) std::abort();
  }

  std::function<void(int, double)> schedule = [&](int s, double end) {
    double t = sim.now() + rng.Exponential(tcfg.tuples_per_s);
    if (t > end) return;
    sim.ScheduleAt(t, [&, s, end]() {
      ent.OnStreamTuple(std::make_shared<const dsps::engine::Tuple>(
          gens[s]->Next(sim.now())));
      schedule(s, end);
    });
  };
  for (size_t s = 0; s < gens.size(); ++s) {
    schedule(static_cast<int>(s), duration);
  }
  sim.RunUntil(duration + 2.0);

  PlacementRunResult r;
  r.pr_max = ent.pr_sketch().max();
  r.pr_p99 = ent.pr_sketch().p99();
  r.pr_mean = ent.pr_sketch().mean();
  r.lan_bytes = net.total_bytes();
  r.max_util = ent.MaxUtilization();
  r.mean_util = ent.MeanUtilization();
  r.results = ent.results_count();
  return r;
}

void BM_InstallQueries(benchmark::State& state) {
  dsps::placement::PrAwarePlacement policy;
  for (auto _ : state) {
    PlacementRunResult r = Run(&policy, 2, 8, 32, 0.2, 3);
    benchmark::DoNotOptimize(r.results);
  }
}
BENCHMARK(BM_InstallQueries)->Unit(benchmark::kMillisecond);

void PrintE4Policies(dsps::telemetry::BenchReport* report) {
  Table table({"policy", "PR max", "PR p99", "PR mean", "LAN MB",
               "max util", "mean util", "results"});
  dsps::placement::PrAwarePlacement pr;
  dsps::placement::LoadOnlyPlacement lo;
  dsps::placement::RandomPlacement rnd(7);
  struct Row {
    const char* name;
    dsps::placement::PlacementPolicy* policy;
  };
  for (const Row& row : {Row{"pr-aware", &pr}, Row{"load-only", &lo},
                         Row{"random", &rnd}}) {
    PlacementRunResult r = Run(row.policy, 2, 16, 128, 3.0, 5);
    table.AddRow({row.name, Table::Num(r.pr_max, 0), Table::Num(r.pr_p99, 0),
                  Table::Num(r.pr_mean, 0), Table::Num(r.lan_bytes / 1e6, 2),
                  Table::Num(r.max_util, 3), Table::Num(r.mean_util, 3),
                  Table::Int(r.results)});
    dsps::telemetry::Labels labels =
        dsps::telemetry::MakeLabels({{"policy", row.name}});
    report->SetHeadline("pr_max", r.pr_max, labels);
    report->SetHeadline("pr_p99", r.pr_p99, labels);
    report->SetHeadline("pr_mean", r.pr_mean, labels);
    report->SetHeadline("lan_mb", r.lan_bytes / 1e6, labels);
    report->SetHeadline("max_util", r.max_util, labels);
  }
  table.Print(
      "E4a (Section 4.1): placement policies, 16 processors, 128 queries — "
      "PR-aware minimizes the worst Performance Ratio");
}

void PrintE4LimitSweep(dsps::telemetry::BenchReport* report) {
  Table table({"distribution limit L", "PR max", "PR p99", "PR mean",
               "LAN MB", "max util"});
  dsps::placement::PrAwarePlacement pr;
  for (int limit : {1, 2, 4, 8}) {
    PlacementRunResult r = Run(&pr, limit, 16, 128, 3.0, 5);
    table.AddRow({Table::Int(limit), Table::Num(r.pr_max, 0),
                  Table::Num(r.pr_p99, 0), Table::Num(r.pr_mean, 0),
                  Table::Num(r.lan_bytes / 1e6, 2), Table::Num(r.max_util, 3)});
    dsps::telemetry::Labels labels =
        dsps::telemetry::MakeLabels({{"limit", std::to_string(limit)}});
    report->SetHeadline("pr_max", r.pr_max, labels);
    report->SetHeadline("pr_p99", r.pr_p99, labels);
    report->SetHeadline("lan_mb", r.lan_bytes / 1e6, labels);
  }
  table.Print(
      "E4b (Section 4.1): distribution-limit sweep — small L caps "
      "communication, large L buys balance; the knee is the design point");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dsps::telemetry::BenchReport report("e4_placement");
  PrintE4Policies(&report);
  PrintE4LimitSweep(&report);
  report.WriteFileOrDie();
  return 0;
}
