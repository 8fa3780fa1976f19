// One repetition of one benchmark workload against the public
// system::System API, in its own single-threaded process:
//
//   perfbench_driver --workload <name> --seed <n> [--traced] [--spans <path>]
//   perfbench_driver --workload <name> --seed <n> --digest
//
// A repetition runs four phases — setup (System built, streams added,
// inputs generated), install (every standing query through
// SubmitQueries), run (RunUntil slices with churn ops at fixed simulated
// instants), collect (Collect and the end-state reads) — and prints one
// JSON line: end-to-end metrics, the simulated-domain outputs the
// determinism check compares, per-layer metrics, and the correctness
// checks. The process exits 1 when a check fails.
//
// Untraced repetitions leave cfg.metrics and cfg.trace null. --traced
// sets both (stage-aggregating trace) plus periodic audit sweeps and adds
// the telemetry-derived layer metrics. Either way the driver times every
// call it makes into the System with wall-clock spans; --spans writes
// them as JSONL. --digest prints a hash of the generated inputs only, so
// perfbench/run.py can show that another seed gives other inputs.
//
// perfbench/README.md says why each workload exists and which layer
// metric should move which end-to-end metric.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "partition/repartitioner.h"
#include "summary.h"
#include "system/system.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "workload/query_gen.h"
#include "workload/stream_gen.h"

namespace {

namespace pb = dsps::perfbench;
using dsps::system::AllocationMode;
using dsps::system::System;
using Clock = std::chrono::steady_clock;

/// Wall-clock origin: static initialization runs right after exec, so
/// setup time counts from (nearly) process start.
const Clock::time_point kStart = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

/// Shared by every workload: processors per entity, ticker streams, the
/// simulated length of one RunUntil slice, the drain after traffic stops
/// (so in-flight tuples land), and the tenant workloads' admission load
/// factor (sized so every query fits: nothing is queued or refused).
constexpr int kProcessorsPerEntity = 2;
constexpr int kStreams = 8;
constexpr double kSliceS = 0.01;
constexpr double kDrainS = 0.5;
constexpr double kTenantLoadFactor = 4.0;

struct WorkloadSpec {
  const char* name;
  int entities;
  double tuples_per_s;
  AllocationMode allocation;
  /// Equal-weight tenants 1..tenants (queries tagged round-robin); 0 runs
  /// everything as the implicit tenant with no admission controller.
  int tenants;
  int initial_queries;
  /// Queries per SubmitQueries call in the install phase.
  int install_chunk;
  dsps::workload::QueryGen::Config queries;
  /// Simulated seconds of traffic, run in kSliceS slices.
  double run_s;
  /// Every churn_every slices: remove the churn_size oldest queries and
  /// submit churn_size new ones, each as a SubmitQueries span of one.
  int churn_every = 0;
  int churn_size = 0;
  /// Every repartition_every slices one HybridRepartitioner round (0 = off).
  int repartition_every = 0;
  /// EnableMaintenance period (0 = off).
  double maintenance_s = 0.0;
  /// Slice after which FailEntity removes the busiest entity (-1 = never).
  int fail_slice = -1;
};

/// Ticker symbol skew. At the generator default (1.0) a handful of hot
/// symbols carry most tuples, so whether a seed's interest hotspots land
/// on them swings result counts several-fold between seeds.
constexpr double kTickerZipf = 0.5;

/// The filter / aggregate / join mix. Joins match on the symbol, so with
/// the generator defaults (15% joins, 10 s windows) a few joins on a hot
/// symbol dominate the result count of a seed; 5% joins over 1 s windows
/// keep them in the mix without that heavy tail. Queries spread evenly
/// over the streams and forty hotspots per stream, so a seed's figures
/// average over every dissemination tree instead of hinging on the one
/// stream a Zipf choice would favour.
dsps::workload::QueryGen::Config HotspotQueries() {
  dsps::workload::QueryGen::Config c;
  c.join_prob = 0.05;
  c.window_s = 1.0;
  c.num_hotspots = 40;
  c.stream_zipf_s = 0.0;
  return c;
}

/// The same mix with every interest box centred uniformly at random.
dsps::workload::QueryGen::Config RandomInterestQueries() {
  dsps::workload::QueryGen::Config c = HotspotQueries();
  c.hotspot_prob = 0.0;
  return c;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  // perfbench/README.md records why each workload exists.
  const WorkloadSpec metro{.name = "metro_traffic",
                           .entities = 200,
                           .tuples_per_s = 2000.0,
                           .allocation = AllocationMode::kCoordinatorTree,
                           .tenants = 4,
                           .initial_queries = 1000,
                           .install_chunk = 1,
                           .queries = HotspotQueries(),
                           .run_s = 1.0};
  const WorkloadSpec storm{.name = "install_storm",
                           .entities = 200,
                           .tuples_per_s = 1000.0,
                           .allocation = AllocationMode::kCoordinatorTree,
                           .tenants = 4,
                           .initial_queries = 2000,
                           .install_chunk = 4,
                           .queries = RandomInterestQueries(),
                           .run_s = 0.5};
  const WorkloadSpec churn{.name = "churn_adapt",
                           .entities = 16,
                           .tuples_per_s = 400.0,
                           .allocation = AllocationMode::kGraphPartition,
                           .tenants = 0,
                           .initial_queries = 600,
                           .install_chunk = 1,
                           .queries = HotspotQueries(),
                           .run_s = 2.0,
                           .churn_every = 25,
                           .churn_size = 15,
                           .repartition_every = 50,
                           .maintenance_s = 0.5,
                           .fail_slice = 100};
  for (const WorkloadSpec& w : {metro, storm, churn}) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

/// Forwards to a real generator and counts the tuples it emits, so the
/// run-phase throughput is normalised by input, not by simulator events.
class CountingStream : public dsps::workload::StreamGen {
 public:
  CountingStream(std::unique_ptr<dsps::workload::StreamGen> inner,
                 int64_t* emitted)
      : inner_(std::move(inner)), emitted_(emitted) {}

  dsps::common::StreamId stream() const override { return inner_->stream(); }
  const dsps::engine::Schema& schema() const override {
    return inner_->schema();
  }
  dsps::interest::StreamStats stats() const override {
    return inner_->stats();
  }
  dsps::engine::Tuple Next(double timestamp) override {
    ++*emitted_;
    return inner_->Next(timestamp);
  }

 private:
  std::unique_ptr<dsps::workload::StreamGen> inner_;
  int64_t* emitted_;
};

/// Seed-derived generators of one workload's inputs.
struct Inputs {
  std::vector<std::unique_ptr<dsps::workload::StreamGen>> streams;
  dsps::interest::StreamCatalog catalog;
  std::vector<dsps::engine::Query> initial;
  /// One batch per churn instant.
  std::vector<std::vector<dsps::engine::Query>> churn;
};

int RunSlices(const WorkloadSpec& w) {
  return static_cast<int>(std::lround(w.run_s / kSliceS));
}

Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed) {
  Inputs in;
  dsps::common::Rng rng(seed);
  dsps::workload::StockTickerGen::Config tcfg;
  tcfg.tuples_per_s = w.tuples_per_s;
  tcfg.zipf_s = kTickerZipf;
  dsps::common::Rng stream_rng = rng.Fork(1);
  in.streams = dsps::workload::MakeTickerStreams(kStreams, tcfg, &in.catalog,
                                                 &stream_rng);
  dsps::workload::QueryGen gen(w.queries, &in.catalog, rng.Fork(2));
  int tagged = 0;
  auto next = [&]() {
    dsps::engine::Query q = gen.Next();
    if (w.tenants > 0) q.tenant = 1 + tagged++ % w.tenants;
    return q;
  };
  for (int i = 0; i < w.initial_queries; ++i) in.initial.push_back(next());
  if (w.churn_every > 0) {
    for (int k = w.churn_every; k <= RunSlices(w); k += w.churn_every) {
      std::vector<dsps::engine::Query> batch;
      for (int i = 0; i < w.churn_size; ++i) batch.push_back(next());
      in.churn.push_back(std::move(batch));
    }
  }
  return in;
}

/// FNV-1a over the generated inputs: query ids, tenants, loads, interest
/// boxes, and the first tuples of every stream.
uint64_t InputsDigest(Inputs* in) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  auto mix_query = [&](const dsps::engine::Query& q) {
    mix(static_cast<double>(q.id));
    mix(static_cast<double>(q.tenant));
    mix(q.load);
    for (const auto& [stream, boxes] : q.interest.boxes_by_stream()) {
      mix(static_cast<double>(stream));
      for (const auto& box : boxes) {
        for (const auto& iv : box) {
          mix(iv.lo);
          mix(iv.hi);
        }
      }
    }
  };
  for (const auto& q : in->initial) mix_query(q);
  for (const auto& batch : in->churn) {
    for (const auto& q : batch) mix_query(q);
  }
  for (auto& s : in->streams) {
    for (int i = 0; i < 16; ++i) {
      for (const auto& v : s->Next(0.0).values) mix(dsps::engine::AsDouble(v));
    }
  }
  return h;
}

double ProcStatusMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

/// Ordered name -> number map, printed as one JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

std::string JsonObject(const Fields& fields) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < fields.size(); ++i) {
    const double v = fields[i].second;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += (i > 0 ? ", \"" : "\"") + fields[i].first + "\": " + buf;
  }
  return out + "}";
}

std::string JsonQuoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

double Sum(const dsps::telemetry::MetricsSnapshot& snap, const char* name) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// p50 or p99 of the first histogram series named `name`, scaled; 0 when
/// the series was never observed.
double HistQuantile(const dsps::telemetry::MetricsSnapshot& snap,
                    const char* name, bool p99, double scale) {
  for (const auto& s : snap.samples) {
    if (s.name == name &&
        s.kind == dsps::telemetry::MetricSample::Kind::kHistogram) {
      return (p99 ? s.p99 : s.p50) * scale;
    }
  }
  return 0.0;
}

/// What the collect phase reads back from the System.
struct EndState {
  dsps::system::SystemMetrics metrics;
  dsps::interest::IndexStats index;
  int64_t standing = 0;
  int64_t queued = 0;
  int64_t unplaced = 0;
  std::vector<int64_t> tenant_results;
};

class Driver {
 public:
  Driver(const WorkloadSpec& w, uint64_t seed, bool traced)
      : w_(w), seed_(seed), traced_(traced) {}

  /// Runs the repetition, prints its JSON line, returns the exit code.
  int Run(const std::string& spans_path);

 private:
  /// Times one call into the System as a span of the current phase.
  template <class F>
  auto Timed(const char* name, F&& f) {
    const double start = Now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      spans_.push_back({name, phase_, start, Now()});
    } else {
      auto result = f();
      spans_.push_back({name, phase_, start, Now()});
      return result;
    }
  }
  void BeginPhase(const char* name, double start) {
    phase_ = name;
    phase_start_ = start;
  }
  void EndPhase() { spans_.push_back({phase_, phase_, phase_start_, Now()}); }

  void Setup();
  void Install();
  void RunPhase();
  EndState CollectPhase();
  void Submit(std::span<const dsps::engine::Query> queries);
  void Churn(int instant);
  void Repartition();
  void Fail();
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void CheckEnd(const EndState& end);

  /// Simulated-time end-to-end metrics: identical for identical seeds.
  Fields SimE2e(const EndState& end) const;
  Fields WallE2e() const;
  /// Simulated-domain outputs the determinism check compares.
  Fields SimOutputs(const EndState& end) const;
  /// Per-layer figures the driver times itself: wall clock around calls
  /// into the System and the System's own install profile.
  Fields LayerWall(std::map<std::string, double>* quantile_used) const;
  /// Per-layer work counts, sizes and simulated-time figures.
  Fields Layer(const EndState& end) const;
  /// Per-layer figures only telemetry can give (traced runs).
  Fields TracedLayer() const;
  void Print(const EndState& end) const;

  /// Durations (seconds) of the spans named `name`, in call order.
  std::vector<double> Durations(const char* name) const;
  double PhaseWall(const std::string& phase) const;
  bool WriteSpans(const std::string& path) const;

  const WorkloadSpec w_;
  const uint64_t seed_;
  const bool traced_;
  /// Telemetry and the emitted-tuple count outlive the System using them.
  std::unique_ptr<dsps::telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<dsps::telemetry::TraceLog> trace_;
  int64_t emitted_ = 0;
  std::unique_ptr<System> sys_;
  Inputs inputs_;
  dsps::partition::HybridRepartitioner repartitioner_;

  std::string phase_;
  double phase_start_ = 0.0;
  std::vector<pb::Span> spans_;
  /// Queries per SubmitQueries span, in call order.
  std::vector<int64_t> submit_sizes_;
  /// Accepted queries, oldest first (the churn removal order).
  std::deque<dsps::common::QueryId> live_;
  pb::OpTally ops_;
  int64_t submitted_ = 0;
  int64_t refused_ = 0;
  int64_t removed_ = 0;
  int64_t migrations_ = 0;
  System::RepartitionReport last_repartition_;
  std::vector<double> decision_ms_;
  System::InstallProfile install_profile_;
  double rss_install_delta_mb_ = 0.0;
  uint64_t events_ = 0;
  std::vector<std::string> failures_;
};

void Driver::Setup() {
  BeginPhase("setup", 0.0);
  System::Config cfg;
  cfg.topology.num_entities = w_.entities;
  cfg.topology.processors_per_entity = kProcessorsPerEntity;
  cfg.topology.num_sources = kStreams;
  cfg.allocation = w_.allocation;
  cfg.seed = seed_;
  cfg.bounded_stats = true;
  for (int t = 1; t <= w_.tenants; ++t) {
    dsps::tenant::TenantSpec spec;
    spec.id = t;
    spec.weight = 1.0;
    cfg.tenants.push_back(spec);
  }
  cfg.admission.load_factor = kTenantLoadFactor;
  if (traced_) {
    metrics_ = std::make_unique<dsps::telemetry::MetricsRegistry>();
    metrics_->UseSketches();
    dsps::telemetry::TraceLog::Config tcfg;
    tcfg.sample_every_n = 1;
    tcfg.aggregate_stages = true;
    tcfg.retain_spans = false;
    trace_ = std::make_unique<dsps::telemetry::TraceLog>(tcfg);
    cfg.metrics = metrics_.get();
    cfg.trace = trace_.get();
  }
  inputs_ = Timed("GenerateInputs", [&] { return MakeInputs(w_, seed_); });
  sys_ = Timed("System::System", [&] { return std::make_unique<System>(cfg); });
  std::vector<std::unique_ptr<dsps::workload::StreamGen>> counted;
  for (auto& s : inputs_.streams) {
    counted.push_back(std::make_unique<CountingStream>(std::move(s), &emitted_));
  }
  Timed("AddStreams", [&] { sys_->AddStreams(std::move(counted)); });
  EndPhase();
}

void Driver::Submit(std::span<const dsps::engine::Query> queries) {
  const System::BatchSubmitResult r =
      Timed("SubmitQueries", [&] { return sys_->SubmitQueries(queries); });
  const auto n = static_cast<int64_t>(queries.size());
  submit_sizes_.push_back(n);
  submitted_ += n;
  refused_ += r.rejected + r.failed;
  ops_.Submit(n, r.rejected, r.failed);
  if (r.failed > 0) Check(false, "submit error: " + r.first_error.ToString());
  // The tally does not say which queries were refused; churn only removes
  // queries from calls that refused none.
  if (r.rejected + r.failed == 0) {
    for (const auto& q : queries) live_.push_back(q.id);
  }
}

void Driver::Install() {
  const double rss_before_mb = ProcStatusMb("VmRSS");
  BeginPhase("install", Now());
  const std::vector<dsps::engine::Query>& all = inputs_.initial;
  for (size_t i = 0; i < all.size(); i += w_.install_chunk) {
    const size_t n = std::min<size_t>(w_.install_chunk, all.size() - i);
    Submit(std::span<const dsps::engine::Query>(all.data() + i, n));
  }
  EndPhase();
  install_profile_ = sys_->install_profile();
  rss_install_delta_mb_ = ProcStatusMb("VmRSS") - rss_before_mb;
}

void Driver::Churn(int instant) {
  for (int i = 0; i < w_.churn_size && !live_.empty(); ++i) {
    const dsps::common::QueryId victim = live_.front();
    live_.pop_front();
    const bool ok =
        Timed("RemoveQuery", [&] { return sys_->RemoveQuery(victim); }).ok();
    ops_.Call(ok);
    if (ok) ++removed_;
  }
  const std::vector<dsps::engine::Query>& batch = inputs_.churn[instant];
  for (size_t i = 0; i < batch.size(); ++i) {
    Submit(std::span<const dsps::engine::Query>(batch.data() + i, 1));
  }
}

void Driver::Repartition() {
  const auto r = Timed("RepartitionQueries",
                       [&] { return sys_->RepartitionQueries(&repartitioner_); });
  ops_.Call(r.ok());
  if (!r.ok()) return;
  last_repartition_ = r.value();
  migrations_ += r.value().migrations;
  decision_ms_.push_back(r.value().decision_seconds * 1e3);
}

void Driver::Fail() {
  // The busiest entity leaves: the largest repair the workload can cause.
  int victim = 0;
  for (int e = 1; e < sys_->num_entities(); ++e) {
    if (sys_->entity_at(e)->query_count() >
        sys_->entity_at(victim)->query_count()) {
      victim = e;
    }
  }
  const auto r = Timed("FailEntity", [&] { return sys_->FailEntity(victim); });
  ops_.Call(r.ok());
}

void Driver::RunPhase() {
  BeginPhase("run", Now());
  const int slices = RunSlices(w_);
  const double end = w_.run_s + kDrainS;
  const uint64_t events_before =
      sys_->network()->simulator()->events_executed();
  Timed("GenerateTraffic", [&] { sys_->GenerateTraffic(w_.run_s); });
  if (w_.maintenance_s > 0) {
    Timed("EnableMaintenance",
          [&] { sys_->EnableMaintenance(w_.maintenance_s, end); });
  }
  if (traced_) {
    Timed("EnableAudit", [&] { sys_->EnableAudit(1.0, end, false); });
  }
  int churn_instant = 0;
  for (int k = 1; k <= slices; ++k) {
    const double t = k * kSliceS;
    Timed("RunUntil", [&] { sys_->RunUntil(t); });
    if (w_.churn_every > 0 && k % w_.churn_every == 0) Churn(churn_instant++);
    if (k == w_.fail_slice) Fail();
    if (w_.repartition_every > 0 && k % w_.repartition_every == 0) {
      Repartition();
    }
  }
  Timed("RunUntil.drain", [&] { sys_->RunUntil(end); });
  events_ = sys_->network()->simulator()->events_executed() - events_before;
  // Each audit sweep is one simulator event of its own; leave them out so
  // traced and untraced runs count the same events.
  if (traced_) events_ -= static_cast<uint64_t>(sys_->auditor()->sweeps());
  EndPhase();
}

EndState Driver::CollectPhase() {
  BeginPhase("collect", Now());
  EndState end;
  end.metrics = Timed("Collect", [&] { return sys_->Collect(); });
  end.index = Timed("IndexStatsSnapshot",
                    [&] { return sys_->IndexStatsSnapshot(); });
  for (int e = 0; e < sys_->num_entities(); ++e) {
    end.standing += static_cast<int64_t>(sys_->entity_at(e)->query_count());
  }
  end.queued = static_cast<int64_t>(sys_->QueuedAdmissions().size());
  end.unplaced = sys_->unplaced_count();
  for (int t = 1; t <= w_.tenants; ++t) {
    end.tenant_results.push_back(sys_->TenantResults(t));
  }
  EndPhase();
  ops_.Leftover(end.queued, end.unplaced);
  return end;
}

void Driver::CheckEnd(const EndState& end) {
  int64_t expired = 0;
  if (const dsps::tenant::AdmissionController* adm = sys_->admission()) {
    const dsps::common::Status st = adm->CheckConservation();
    Check(st.ok(), "admission conservation: " + st.ToString());
    for (const auto& [tenant, c] : adm->all_counters()) expired += c.evicted;
  }
  const int64_t refused = refused_ + expired;
  Check(submitted_ - removed_ ==
            end.standing + end.unplaced + end.queued + refused,
        "query conservation: submitted " + std::to_string(submitted_) +
            " - removed " + std::to_string(removed_) + " != standing " +
            std::to_string(end.standing) + " + unplaced " +
            std::to_string(end.unplaced) + " + queued " +
            std::to_string(end.queued) + " + refused " +
            std::to_string(refused));
  const dsps::system::SystemMetrics& m = end.metrics;
  Check(m.dropped_messages == 0,
        "dropped messages: " + std::to_string(m.dropped_messages));
  Check(m.results >= 1000,
        "fewer than 1000 results: " + std::to_string(m.results));
  Check(pb::SupportedQuantile(m.latency_count(), 0.99) >= 0.99,
        "latency sample too small for p99");
  Check(events_ > 0 && emitted_ > 0, "the run phase did no work");
  if (traced_) {
    const dsps::system::Auditor* auditor = sys_->auditor();
    Check(auditor->sweeps() > 0, "audit sweeps did not run");
    Check(auditor->violations() == 0,
          "audit violations: " + std::to_string(auditor->violations()));
  }
}

Fields Driver::SimE2e(const EndState& end) const {
  const dsps::system::SystemMetrics& m = end.metrics;
  return {
      {"result_latency_p50_ms", m.latency_quantile(0.50) * 1e3},
      {"result_latency_p99_ms", m.latency_quantile(0.99) * 1e3},
      {"pr_p99", m.pr_quantile(0.99)},
      {"wan_bytes_per_result", static_cast<double>(m.wan_bytes) /
                                   static_cast<double>(m.results)},
  };
}

Fields Driver::WallE2e() const {
  return {
      {"setup_s", PhaseWall("setup")},
      {"install_us_per_query",
       PhaseWall("install") * 1e6 / static_cast<double>(w_.initial_queries)},
      {"run_tuples_per_s", static_cast<double>(emitted_) / PhaseWall("run")},
      {"peak_rss_mb", ProcStatusMb("VmHWM")},
  };
}

Fields Driver::SimOutputs(const EndState& end) const {
  const dsps::system::SystemMetrics& m = end.metrics;
  Fields sim = {
      {"results", static_cast<double>(m.results)},
      {"latency_count", static_cast<double>(m.latency_count())},
      {"sim_events", static_cast<double>(events_)},
      {"tuples_emitted", static_cast<double>(emitted_)},
      {"wan_bytes", static_cast<double>(m.wan_bytes)},
      {"lan_bytes", static_cast<double>(m.lan_bytes)},
      {"delivered_tuples", static_cast<double>(m.delivered_tuples)},
      {"standing", static_cast<double>(end.standing)},
      {"migrations", static_cast<double>(migrations_)},
      {"attempted", static_cast<double>(ops_.attempted)},
      {"failed", static_cast<double>(ops_.failed)},
  };
  for (size_t t = 0; t < end.tenant_results.size(); ++t) {
    sim.emplace_back("tenant" + std::to_string(t + 1) + "_results",
                     static_cast<double>(end.tenant_results[t]));
  }
  const Fields e2e = SimE2e(end);
  sim.insert(sim.end(), e2e.begin(), e2e.end());
  return sim;
}

Fields Driver::LayerWall(std::map<std::string, double>* quantile_used) const {
  // A tail is reported at the highest percentile its sample supports.
  auto at = [&](const char* metric, std::vector<double> v, double q,
                double scale) {
    const double used =
        pb::SupportedQuantile(static_cast<int64_t>(v.size()), q);
    (*quantile_used)[metric] = used;
    return pb::NearestRank(&v, used) * scale;
  };
  std::vector<double> submit_us = Durations("SubmitQueries");
  for (size_t i = 0; i < submit_us.size(); ++i) {
    submit_us[i] *= 1e6 / static_cast<double>(submit_sizes_[i]);
  }
  const std::vector<double> slices = Durations("RunUntil");
  double run_until_s = 0.0;
  for (double d : slices) run_until_s += d;
  for (double d : Durations("RunUntil.drain")) run_until_s += d;
  const std::vector<double> remove = Durations("RemoveQuery");
  const std::vector<double> fail = Durations("FailEntity");
  std::vector<double> repartition = Durations("RepartitionQueries");
  std::vector<double> decision_ms = decision_ms_;
  const double install_us = PhaseWall("install") * 1e6;
  const double per_q = 1.0 / static_cast<double>(w_.initial_queries);
  const System::InstallProfile& p = install_profile_;
  return {
      {"sim.us_per_event", run_until_s * 1e6 / static_cast<double>(events_)},
      {"sim.run_slice_ms_p50", at("sim.run_slice_ms_p50", slices, 0.5, 1e3)},
      {"sim.run_slice_ms_p99", at("sim.run_slice_ms_p99", slices, 0.99, 1e3)},
      {"install.us_per_query", install_us * per_q},
      {"install.route_us_per_query", p.route_us * per_q},
      {"install.admit_us_per_query", p.install_us * per_q},
      {"install.interest_us_per_query", p.interest_us * per_q},
      {"install.graph_us_per_query", p.graph_us * per_q},
      {"install.profile_coverage",
       (p.route_us + p.install_us + p.interest_us + p.graph_us) / install_us},
      {"system.fail_entity_ms", fail.empty() ? 0.0 : fail.front() * 1e3},
      {"partition.repartition_ms", pb::NearestRank(&repartition, 0.5) * 1e3},
      {"partition.decision_ms_p50", pb::NearestRank(&decision_ms, 0.5)},
      {"system.submit_us_p50", at("system.submit_us_p50", submit_us, 0.5, 1)},
      {"system.submit_us_p99", at("system.submit_us_p99", submit_us, 0.99, 1)},
      {"system.remove_us_p50", at("system.remove_us_p50", remove, 0.5, 1e6)},
      {"system.remove_us_p99", at("system.remove_us_p99", remove, 0.99, 1e6)},
      {"system.collect_ms", Durations("Collect").front() * 1e3},
  };
}

Fields Driver::Layer(const EndState& end) const {
  const dsps::system::SystemMetrics& m = end.metrics;
  const System::MaintenanceStats& maint = sys_->maintenance_stats();
  auto count = [](auto v) { return static_cast<double>(v); };
  return {
      {"sim.events", count(events_)},
      {"sim.events_per_tuple", count(events_) / count(emitted_)},
      {"net.messages", count(sys_->network()->total_messages())},
      {"net.bytes", count(sys_->network()->total_bytes())},
      {"dissemination.delivered", count(m.delivered_tuples)},
      {"index.lookups", count(end.index.lookups)},
      {"index.fallback_ratio", end.index.FallbackRate()},
      {"index.mem_bytes", count(end.index.mem_bytes)},
      {"coordinator.messages",
       count(sys_->coordinator_tree()->total_messages())},
      {"entity.results_per_delivered_tuple",
       count(m.results) / count(std::max<int64_t>(1, m.delivered_tuples))},
      {"processor.utilization_max", m.max_processor_utilization},
      {"maintenance.fragment_moves", count(maint.fragment_moves)},
      {"maintenance.tree_moves", count(maint.tree_moves)},
      {"partition.migrations", count(migrations_)},
      {"partition.edge_cut", last_repartition_.edge_cut},
      {"partition.imbalance", last_repartition_.imbalance},
      {"system.op_fail_ratio", ops_.ratio()},
      {"system.rss_bytes_per_query",
       rss_install_delta_mb_ * 1048576.0 / count(w_.initial_queries)},
  };
}

Fields Driver::TracedLayer() const {
  using dsps::telemetry::Stage;
  const dsps::telemetry::MetricsSnapshot snap = metrics_->Snapshot();
  const double forwarded = Sum(snap, "dissemination.forwarded");
  const double filtered = Sum(snap, "dissemination.filtered");
  auto stage_ms = [&](Stage stage, double q) {
    const auto& sketches = trace_->stage_sketches();
    auto it = sketches.find(stage);
    return it == sketches.end() ? 0.0 : it->second.Percentile(q) * 1e3;
  };
  return {
      {"net.link_queue_wait_ms_p99",
       HistQuantile(snap, "net.link_queue_wait_s", true, 1e3)},
      {"dissemination.forwarded", forwarded},
      {"dissemination.filtered", filtered},
      {"dissemination.filter_ratio",
       forwarded + filtered > 0 ? filtered / (forwarded + filtered) : 0.0},
      {"dissemination.route_lookup_us_p50",
       HistQuantile(snap, "dissem.route_lookup_us", false, 1.0)},
      {"stage.dissemination_hop_ms_p50",
       stage_ms(Stage::kDisseminationHop, 0.5)},
      {"stage.dissemination_hop_ms_p99",
       stage_ms(Stage::kDisseminationHop, 0.99)},
      {"coordinator.leaves", Sum(snap, "coordinator.leaves")},
      {"tenant.admitted", Sum(snap, "tenant.admitted")},
      {"tenant.degraded", Sum(snap, "tenant.degraded")},
      {"tenant.queued", Sum(snap, "tenant.queued")},
      {"tenant.rejected", Sum(snap, "tenant.rejected")},
      {"processor.tuples", Sum(snap, "processor.tuples")},
      {"stage.queue_wait_ms_p99", stage_ms(Stage::kQueueWait, 0.99)},
      {"stage.execute_ms_p99", stage_ms(Stage::kExecute, 0.99)},
      {"partition.incremental_delta_us_p50",
       HistQuantile(snap, "partition.incremental_delta_us", false, 1.0)},
  };
}

std::vector<double> Driver::Durations(const char* name) const {
  std::vector<double> out;
  for (const pb::Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration());
  }
  return out;
}

double Driver::PhaseWall(const std::string& phase) const {
  for (const pb::Span& s : spans_) {
    if (s.name == phase && s.phase == phase) return s.duration();
  }
  return 0.0;
}

bool Driver::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const pb::Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": %s, \"phase\": %s, \"start\": %.9f, "
                 "\"end\": %.9f}\n",
                 JsonQuoted(s.name).c_str(), JsonQuoted(s.phase).c_str(),
                 s.start, s.end);
  }
  return std::fclose(f) == 0;
}

void Driver::Print(const EndState& end) const {
  std::map<std::string, double> quantile_used;
  Fields e2e = WallE2e();
  const Fields sim_e2e = SimE2e(end);
  e2e.insert(e2e.end(), sim_e2e.begin(), sim_e2e.end());
  const Fields layer_wall = LayerWall(&quantile_used);
  Fields layer = Layer(end);
  if (traced_) {
    const Fields traced = TracedLayer();
    layer.insert(layer.end(), traced.begin(), traced.end());
  }
  // Phase wall and self time (the part no timed call covers).
  Fields phase_s, phase_self_s;
  for (const char* phase : {"setup", "install", "run", "collect"}) {
    std::vector<pb::Span> children;
    pb::Span parent;
    for (const pb::Span& s : spans_) {
      if (s.phase != phase) continue;
      if (s.name == phase) {
        parent = s;
      } else {
        children.push_back(s);
      }
    }
    phase_s.emplace_back(phase, parent.duration());
    phase_self_s.emplace_back(phase, pb::SelfTime(parent, children));
  }
  // Count and total wall seconds per phase/call.
  std::map<std::string, std::pair<double, double>> calls;
  for (const pb::Span& s : spans_) {
    if (s.name == s.phase) continue;
    auto& [n, total] = calls[s.phase + "/" + s.name];
    n += 1;
    total += s.duration();
  }
  Fields call_count, call_s;
  for (const auto& [name, n_total] : calls) {
    call_count.emplace_back(name, n_total.first);
    call_s.emplace_back(name, n_total.second);
  }
  std::string failures = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonQuoted(failures_[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"traced\": %s, \"failures\": %s, \"attempted\": %" PRId64
      ", \"failed\": %" PRId64
      ", \"e2e\": %s, \"sim\": %s, \"layer_wall\": %s, \"layer\": %s, "
      "\"quantile_used\": %s, \"phase_s\": %s, \"phase_self_s\": %s, "
      "\"call_count\": %s, \"call_s\": %s}\n",
      JsonQuoted(w_.name).c_str(), seed_, traced_ ? "true" : "false",
      failures.c_str(), ops_.attempted, ops_.failed, JsonObject(e2e).c_str(),
      JsonObject(SimOutputs(end)).c_str(), JsonObject(layer_wall).c_str(),
      JsonObject(layer).c_str(),
      JsonObject(Fields(quantile_used.begin(), quantile_used.end())).c_str(),
      JsonObject(phase_s).c_str(), JsonObject(phase_self_s).c_str(),
      JsonObject(call_count).c_str(), JsonObject(call_s).c_str());
  std::fflush(stdout);
}

int Driver::Run(const std::string& spans_path) {
  Setup();
  Install();
  RunPhase();
  const EndState end = CollectPhase();
  CheckEnd(end);
  if (traced_ && !spans_path.empty()) {
    Check(WriteSpans(spans_path), "could not write spans to " + spans_path);
  }
  Print(end);
  return failures_.empty() ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<metro_traffic|install_storm|churn_adapt> --seed <n> "
               "[--traced] [--spans <path>] [--digest]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::optional<uint64_t> seed;
  bool traced = false, digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || errno != 0 || argv[i][0] == '-') {
        return Usage("--seed needs a non-negative 64-bit number");
      }
      seed = v;
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--digest") {
      digest = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const std::optional<WorkloadSpec> spec = FindWorkload(workload);
  if (!spec) return Usage("unknown or missing --workload");
  if (!seed) return Usage("missing --seed");
  if (digest) {
    Inputs in = MakeInputs(*spec, *seed);
    std::printf("%016" PRIx64 "\n", InputsDigest(&in));
    return 0;
  }
  return Driver(*spec, *seed, traced).Run(spans_path);
}
