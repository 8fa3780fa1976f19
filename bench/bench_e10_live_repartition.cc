// Experiment E10 (Section 3.2.2, closed loop): runtime adaptive
// repartitioning of LIVE queries between entities. Query churn (arrivals
// allocated by the fast coordinator path) gradually erodes an initially
// good interest-clustered assignment; periodic repartitioning rounds
// restore it. Inter-entity moves are query-level reinstalls (state
// restarts) — the price of loose coupling — so the bench reports both the
// recovered dissemination efficiency and the migration count.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "partition/repartitioner.h"
#include "system/system.h"
#include "telemetry/bench_report.h"
#include "telemetry/timeseries.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

using dsps::common::Table;

/// Total data rate subscribed across entities (duplicate dissemination
/// proxy; exact and cheap to evaluate between rounds).
double SubscribedRate(dsps::system::System* sys) {
  double total = 0.0;
  for (int e = 0; e < sys->num_entities(); ++e) {
    // Rebuild each entity's union from its hosted queries via the
    // dissemination registration the system maintains: approximate with
    // the catalog-measured rate of the entity's interest by re-deriving
    // it from homes (System keeps it internally; we sum per-entity via
    // disseminator tree local interests).
    for (dsps::common::StreamId s : sys->catalog().streams()) {
      const auto* tree = sys->disseminator()->tree(s);
      if (tree == nullptr || !tree->Contains(e)) continue;
      dsps::interest::InterestSet set;
      for (const auto& box : tree->LocalInterest(e)) set.Add(s, box);
      total += dsps::interest::InterestRateBytesPerSec(
          set, s, sys->catalog().stats(s));
    }
  }
  return total;
}

struct ChurnResult {
  double final_subscribed = 0.0;
  int total_migrations = 0;
  double mean_decision_ms = 0.0;
};

ChurnResult RunChurn(const char* policy, int rounds,
                     dsps::telemetry::MetricsRegistry* metrics = nullptr,
                     dsps::telemetry::TimeSeriesRecorder* series = nullptr) {
  dsps::system::System::Config cfg;
  cfg.topology.num_entities = 8;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 2;
  cfg.allocation = dsps::system::AllocationMode::kGraphPartition;
  cfg.seed = 55;
  cfg.metrics = metrics;
  dsps::system::System sys(cfg);
  dsps::workload::StockTickerGen::Config tcfg;
  dsps::interest::StreamCatalog scratch;
  dsps::common::Rng rng(9);
  sys.AddStreams(dsps::workload::MakeTickerStreams(2, tcfg, &scratch, &rng));

  dsps::workload::QueryGen::Config qcfg;
  qcfg.join_prob = 0;
  qcfg.agg_prob = 0;
  qcfg.num_hotspots = 3;
  qcfg.hotspot_prob = 0.9;
  dsps::workload::QueryGen gen(qcfg, &sys.catalog(), dsps::common::Rng(7));
  // Initial well-clustered batch.
  if (!sys.SubmitQueries(gen.Batch(64)).first_error.ok()) std::abort();

  dsps::partition::HybridRepartitioner hybrid;
  dsps::partition::ScratchRepartitioner scratch_rp;
  ChurnResult r;
  dsps::common::RunningStat decisions;
  dsps::common::Rng churn_rng(17);
  // Churn rounds happen at a frozen sim clock, so the trajectory's time
  // axis is the round number: round+0.5 right after churn lands (erosion
  // peak), round+1 after the repartition round answers it.
  if (series != nullptr) {
    sys.RegisterSeriesProbes(series);
    dsps::system::System* sys_p = &sys;
    series->AddGaugeProbe("series.subscribed_bps", {},
                          [sys_p] { return SubscribedRate(sys_p); });
    series->Sample(0.0);
  }
  for (int round = 0; round < rounds; ++round) {
    // Churn: 16 arrivals stick to whatever entity their client happens to
    // use (interest-blind — the erosion the paper's runtime adaptation
    // must undo).
    for (const auto& q : gen.Batch(16)) {
      if (!sys.SubmitQuery(q).ok()) std::abort();
      auto victim = static_cast<dsps::common::EntityId>(
          churn_rng.NextUint64(static_cast<uint64_t>(sys.num_entities())));
      if (!sys.MigrateQuery(q.id, victim).ok()) std::abort();
    }
    if (series != nullptr) series->Sample(round + 0.5);
    if (std::string(policy) == "hybrid") {
      auto report = sys.RepartitionQueries(&hybrid);
      if (report.ok()) {
        r.total_migrations += report.value().migrations;
        decisions.Add(report.value().decision_seconds * 1e3);
      }
    } else if (std::string(policy) == "scratch") {
      auto report = sys.RepartitionQueries(&scratch_rp);
      if (report.ok()) {
        r.total_migrations += report.value().migrations;
        decisions.Add(report.value().decision_seconds * 1e3);
      }
    }
    if (series != nullptr) series->Sample(round + 1.0);
  }
  r.final_subscribed = SubscribedRate(&sys);
  r.mean_decision_ms = decisions.count() > 0 ? decisions.mean() : 0.0;
  return r;
}

void BM_RepartitionRound(benchmark::State& state) {
  for (auto _ : state) {
    ChurnResult r = RunChurn("hybrid", 2);
    benchmark::DoNotOptimize(r.total_migrations);
  }
}
BENCHMARK(BM_RepartitionRound)->Unit(benchmark::kMillisecond);

void PrintE10() {
  const int rounds = 5;
  dsps::telemetry::BenchReport report("e10_live_repartition");
  Table table({"policy", "final subscribed B/s", "migrations",
               "decision ms/round"});
  // One trajectory per policy; recorders must outlive WriteFileOrDie.
  std::vector<std::unique_ptr<dsps::telemetry::TimeSeriesRecorder>> recorders;
  for (const char* policy : {"none", "hybrid", "scratch"}) {
    // Migration and repartition counters flow through the system registry.
    dsps::telemetry::MetricsRegistry metrics;
    dsps::telemetry::TimeSeriesRecorder::Config scfg;
    scfg.interval_s = 0.5;  // two samples per churn round
    recorders.push_back(
        std::make_unique<dsps::telemetry::TimeSeriesRecorder>(scfg));
    ChurnResult r = RunChurn(policy, rounds, &metrics, recorders.back().get());
    table.AddRow({policy, Table::Num(r.final_subscribed, 0),
                  Table::Int(r.total_migrations),
                  Table::Num(r.mean_decision_ms, 2)});
    dsps::telemetry::Labels labels =
        dsps::telemetry::MakeLabels({{"policy", policy}});
    report.SetHeadline("final_subscribed_bps", r.final_subscribed, labels);
    report.SetHeadline("migrations", r.total_migrations, labels);
    report.SetHeadline("decision_ms_per_round", r.mean_decision_ms, labels);
    report.MergeSnapshot(metrics.Snapshot(), labels);
    report.AttachSeries(recorders.back().get(), labels);
  }
  report.WriteFileOrDie();
  table.Print(
      "E10 (Section 3.2.2, live): query churn erodes the clustered "
      "assignment; periodic repartitioning of LIVE queries restores "
      "dissemination efficiency — hybrid at a fraction of scratch's "
      "migrations (64 initial + 5x16 churn queries, 8 entities)");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintE10();
  return 0;
}
