// Golden pins for the data plane: small fixed-seed System runs whose
// simulated outputs must reproduce exactly. Every figure below is a pure
// function of the seed (simulated time, no wall clock), so any change to
// event order, message sizes, routing or delivery shows up here as a
// mismatch. A change that alters simulated behaviour on purpose updates the
// pins and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "interest/measure.h"
#include "system/system.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace dsps::system {
namespace {

struct Golden {
  uint64_t events = 0;
  int64_t results = 0;
  int64_t wan_bytes = 0;
  int64_t lan_bytes = 0;
  int64_t delivered_tuples = 0;
  int64_t client_results = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double pr_p50 = 0.0;
  double pr_p99 = 0.0;
};

/// 32 entities under the coordinator tree, two tenants behind admission,
/// four clients receiving results, 120 generated queries, about 1 s of
/// ticker traffic on three streams.
Golden RunFixedSeed(bool reliable_lossy) {
  System::Config cfg;
  cfg.topology.num_entities = 32;
  cfg.topology.processors_per_entity = 2;
  cfg.topology.num_sources = 3;
  cfg.allocation = AllocationMode::kCoordinatorTree;
  cfg.seed = 2024;
  cfg.num_clients = 4;
  for (tenant::TenantId t : {1, 2}) {
    tenant::TenantSpec spec;
    spec.id = t;
    spec.weight = 1.0;
    cfg.tenants.push_back(spec);
  }
  cfg.admission.load_factor = 4.0;
  if (reliable_lossy) {
    cfg.dissemination.reliable = true;
    cfg.reliable_results = true;
    cfg.inject_faults = true;
    cfg.faults.seed = 99;
    cfg.faults.loss_probability = 0.05;
    cfg.faults.duplication_probability = 0.05;
    cfg.faults.latency_jitter_s = 0.002;
  }
  System sys(cfg);

  interest::StreamCatalog catalog;
  common::Rng rng(17);
  workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = 800.0;
  common::Rng stream_rng = rng.Fork(1);
  auto streams = workload::MakeTickerStreams(3, tcfg, &catalog, &stream_rng);
  workload::QueryGen gen(workload::QueryGen::Config{}, &catalog, rng.Fork(2));
  std::vector<engine::Query> queries;
  for (int i = 0; i < 120; ++i) {
    engine::Query q = gen.Next();
    q.tenant = 1 + i % 2;
    queries.push_back(std::move(q));
  }
  sys.AddStreams(std::move(streams));
  for (size_t i = 0; i < queries.size(); i += 4) {
    sys.SubmitQueries(std::span<const engine::Query>(queries.data() + i, 4));
  }
  sys.GenerateTraffic(1.0);
  sys.RunUntil(1.5);

  const SystemMetrics m = sys.Collect();
  Golden g;
  g.events = sys.network()->simulator()->events_executed();
  g.results = m.results;
  g.wan_bytes = m.wan_bytes;
  g.lan_bytes = m.lan_bytes;
  g.delivered_tuples = m.delivered_tuples;
  g.client_results = m.client_results;
  g.latency_p50 = m.latency_quantile(0.5);
  g.latency_p99 = m.latency_quantile(0.99);
  g.pr_p50 = m.pr_quantile(0.5);
  g.pr_p99 = m.pr_quantile(0.99);
  return g;
}

void ExpectPinned(const Golden& got, const Golden& want) {
  // On a mismatch, print the full observed set so an intended change can
  // update the pins in one step.
  std::printf(
      "observed: events=%llu results=%lld wan=%lld lan=%lld delivered=%lld "
      "client=%lld lat_p50=%.17g lat_p99=%.17g pr_p50=%.17g pr_p99=%.17g\n",
      static_cast<unsigned long long>(got.events),
      static_cast<long long>(got.results),
      static_cast<long long>(got.wan_bytes),
      static_cast<long long>(got.lan_bytes),
      static_cast<long long>(got.delivered_tuples),
      static_cast<long long>(got.client_results), got.latency_p50,
      got.latency_p99, got.pr_p50, got.pr_p99);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(got.wan_bytes, want.wan_bytes);
  EXPECT_EQ(got.lan_bytes, want.lan_bytes);
  EXPECT_EQ(got.delivered_tuples, want.delivered_tuples);
  EXPECT_EQ(got.client_results, want.client_results);
  // Bit-identical, not approximately equal: the run is deterministic.
  EXPECT_EQ(got.latency_p50, want.latency_p50);
  EXPECT_EQ(got.latency_p99, want.latency_p99);
  EXPECT_EQ(got.pr_p50, want.pr_p50);
  EXPECT_EQ(got.pr_p99, want.pr_p99);
}

TEST(DataPlaneGoldenTest, FixedSeedRunIsPinned) {
  const Golden want{12663,
                    1318,
                    237168,
                    22392,
                    2284,
                    1318,
                    0.050279910507353406,
                    0.61258575584944208,
                    49528.837389634034,
                    603435.0495559409};
  ExpectPinned(RunFixedSeed(/*reliable_lossy=*/false), want);
}

TEST(DataPlaneGoldenTest, ReliableLossyRunIsPinned) {
  // Reliable hops and results under injected loss, duplication and
  // jitter: exercises acks, cancellable retry timers and deduplication.
  const Golden want{24711,
                    1320,
                    416108,
                    22032,
                    2284,
                    1320,
                    0.055568080093912453,
                    0.6504672444652998,
                    54738.013159809409,
                    640750.67066186317};
  ExpectPinned(RunFixedSeed(/*reliable_lossy=*/true), want);
}

}  // namespace
}  // namespace dsps::system
