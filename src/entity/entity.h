#ifndef DSPS_ENTITY_ENTITY_H_
#define DSPS_ENTITY_ENTITY_H_

#include <functional>
#include <map>
#include <set>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/engine.h"
#include "interest/index_stats.h"
#include "interest/match_table.h"
#include "interest/measure.h"
#include "engine/plan.h"
#include "entity/processor.h"
#include "placement/placement.h"
#include "placement/rebalancer.h"
#include "sim/network.h"
#include "telemetry/sketch.h"

namespace dsps::entity {

/// Message types of the intra-entity runtime.
inline constexpr int kMsgStreamTuple = 201;    // gateway -> stream delegate
inline constexpr int kMsgFragmentTuple = 202;  // pipeline hop between procs
inline constexpr int kMsgMigration = 203;      // fragment state transfer

/// Payload of kMsgStreamTuple.
struct StreamTupleEnvelope {
  std::shared_ptr<const engine::Tuple> tuple;
};

/// Payload of kMsgFragmentTuple.
struct FragmentTupleEnvelope {
  common::FragmentId fragment = -1;
  common::OperatorId op = -1;
  int port = 0;
  std::shared_ptr<const engine::Tuple> tuple;
};

/// One business entity (Section 4): a cluster of processors on a fast LAN
/// under central administration. Implements the paper's intra-entity
/// machinery:
///  * stream delegation — each incoming stream is owned by one delegate
///    processor that routes it to the others (Figure 3);
///  * dynamic operator placement — queries are cut into fragments
///    (bounded by the distribution limit) and placed by a pluggable
///    PlacementPolicy (Section 4.1);
///  * Performance Ratio accounting — every query result records
///    PR = delay / inherent evaluation time.
/// The runtime is platform independent: processors host any
/// ExecutionEngine produced by the factory.
class Entity {
 public:
  using EngineFactory =
      std::function<std::unique_ptr<engine::ExecutionEngine>()>;

  struct Config {
    /// Max processors one query may touch (Section 4.1's heuristic 2).
    int distribution_limit = 2;
    /// CPU capacity per processor (CPU seconds per second).
    double processor_capacity = 1.0;
    /// Bytes per tuple used in placement traffic estimates.
    double bytes_per_tuple = 64.0;
    /// Baseline knob (Figure 3 ablation): route every stream through
    /// processor 0 instead of per-stream delegates.
    bool single_receiver = false;
    /// Fault domain (rack/site) this entity's processors share — set
    /// from TopologyConfig::num_fault_domains by the System so placement
    /// can straddle domains; the auditor cross-checks the placement
    /// map's domain view against this ground truth.
    int fault_domain = 0;
    /// When set, delegates match each tuple against a per-stream table of
    /// the queries' interests and fan it out only to queries whose filter
    /// can match — the delegate's hot loop goes from O(queries) to
    /// O(cell). Queries without interest boxes on a stream still get
    /// everything.
    const interest::StreamCatalog* catalog = nullptr;
    /// Optional telemetry (null = disabled, zero overhead). Processors
    /// export per-processor metrics labeled {entity, processor}; sampled
    /// tuples keep their trace across intra-entity hops; fragment
    /// migrations count into entity.fragment_migrations.
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::TraceLog* trace = nullptr;
  };

  /// `network`, `policy` must outlive the entity. One processor is created
  /// per node in `processor_nodes`; the first node doubles as the entity's
  /// gateway (wrapper) for inter-entity traffic.
  Entity(common::EntityId id, sim::Network* network,
         std::vector<common::SimNodeId> processor_nodes,
         EngineFactory engine_factory, placement::PlacementPolicy* policy,
         const Config& config);
  // Handlers capture `this`; the object must stay put.
  Entity(const Entity&) = delete;
  Entity& operator=(const Entity&) = delete;

  common::EntityId id() const { return id_; }
  int fault_domain() const { return config_.fault_domain; }
  common::SimNodeId gateway_node() const;
  int num_processors() const { return static_cast<int>(processors_.size()); }
  Processor* processor(common::ProcessorId id);

  /// Installs this entity's network handlers on its processor nodes
  /// (standalone use; a full-system runtime dispatches HandleMessage from
  /// its own handlers instead).
  void InstallHandlers();

  /// Dispatches an intra-entity message addressed to one of this entity's
  /// processor nodes. Returns true if consumed.
  bool HandleMessage(const sim::Message& msg);

  /// The delegate processor of `stream`, assigned round-robin on first
  /// use (Figure 3's delegation scheme).
  common::ProcessorId DelegateFor(common::StreamId stream);

  /// Admits a continuous query: fragments it, places the fragments, and
  /// installs them on the processors. `expected_input_tps` is the
  /// estimated per-stream arrival rate used for load/traffic estimates.
  common::Status InstallQuery(const engine::Query& query,
                              double expected_input_tps);

  /// Removes a query and uninstalls its fragments.
  common::Status RemoveQuery(common::QueryId query);

  size_t query_count() const { return queries_.size(); }

  /// Installed query ids, ascending (for conservation audits: the
  /// system-level home map and the entity-level installs must agree).
  std::vector<common::QueryId> InstalledQueries() const {
    std::vector<common::QueryId> out;
    out.reserve(queries_.size());
    for (const auto& [id, state] : queries_) out.push_back(id);
    return out;
  }

  /// Entry point: a stream tuple reached this entity (delivered by the
  /// dissemination layer at the gateway, at the current simulated time).
  /// The tuple is shared with the delegate hop, not copied.
  void OnStreamTuple(std::shared_ptr<const engine::Tuple> tuple);

  /// A produced query result with its delay accounting.
  struct ResultRecord {
    common::QueryId query = common::kInvalidQuery;
    /// completion time - result timestamp (the paper's d_k).
    double latency = 0.0;
    /// latency / p_k (the paper's Performance Ratio).
    double pr = 0.0;
  };
  using ResultHandler =
      std::function<void(const ResultRecord&, const engine::Tuple&)>;
  void SetResultHandler(ResultHandler handler);

  int64_t results_count() const { return results_; }
  /// Distribution of Performance Ratios over all results so far, one
  /// sample per result; the only place a PR sample is added (the system
  /// distribution is the merge of these).
  const telemetry::Sketch& pr_sketch() const { return pr_sketch_; }
  /// Max/mean processor utilization (busy seconds / elapsed).
  double MaxUtilization() const;
  double MeanUtilization() const;

  /// Where a fragment lives (NotFound if unknown).
  common::Result<common::ProcessorId> FragmentLocation(
      common::FragmentId fragment) const;

  /// Migrates a live fragment (with its window state) to another
  /// processor. Buffered work is flushed first; the state transfer is
  /// charged to the LAN as a kMsgMigration message; all routing tables
  /// are updated. Dynamic placement (Section 4.1) is built on this.
  common::Status MoveFragment(common::FragmentId fragment,
                              common::ProcessorId to);

  /// One round of dynamic re-placement: plans migrations with
  /// `rebalancer` from the current committed loads and applies them.
  /// Returns the number of fragments moved.
  int Rebalance(const placement::Rebalancer& rebalancer);

  /// Load (CPU s/s) this entity believes it has committed.
  double TotalCommittedLoad() const;

  /// Accumulates the delegate tables' statistics into `stats`: one index
  /// per indexed stream, its compiled boxes and bytes (plus the subscriber
  /// ids), and one lookup per delegate match.
  void CollectIndexStats(interest::IndexStats* stats) const;

  /// Audit: every delegate table's subscribers are exactly the installed
  /// queries bound to its stream that are not always delivered, ascending
  /// and each with interest boxes there, and every up-to-date table
  /// routes like a BoxContains scan over those queries' boxes at their
  /// box centres. Read-only: probes count no lookups and
  /// build no tables. Internal error naming the first violation.
  common::Status CheckDelegateTables() const;

  /// Elastic capacity: adds one processor hosted on `node` (a member of
  /// this entity's LAN), wired like the constructor-built ones (engine
  /// from the factory, emission handler, telemetry labels). New fragments
  /// may land on it immediately; the caller owns routing the node's
  /// messages to HandleMessage.
  common::ProcessorId AddProcessor(common::SimNodeId node);

  /// Elastic capacity: drains and retires the last processor. Its
  /// fragments migrate to the least-loaded remaining processors via the
  /// MoveFragment machinery and its stream delegations are reassigned;
  /// the freed sim node is returned so the caller can retire it. The
  /// Processor object itself is kept (unrouted) until the entity dies —
  /// in-flight completion callbacks hold a pointer to it. Fails if only
  /// the gateway remains.
  common::Result<common::SimNodeId> RemoveLastProcessor();

 private:
  struct RouteTarget {
    common::FragmentId fragment = -1;
    common::OperatorId op = -1;
    int port = 0;
    common::ProcessorId proc = common::kInvalidProcessor;
  };
  struct QueryState {
    engine::Query query;
    double p_k = 1e-9;
    std::vector<placement::FragmentSpec> fragments;
    placement::Placement placement;
    /// stream -> fragment entry points.
    std::map<common::StreamId, std::vector<RouteTarget>> stream_entries;
    /// (fragment, producing op) -> downstream targets.
    std::map<std::pair<common::FragmentId, common::OperatorId>,
             std::vector<RouteTarget>>
        routes;
  };

  void OnEmission(common::ProcessorId proc, const Processor::Emission& em);
  void SendFragmentTuple(common::SimNodeId from_node, const RouteTarget& to,
                         std::shared_ptr<const engine::Tuple> tuple);
  int ProcIndexOf(common::ProcessorId id) const;

  common::EntityId id_;
  sim::Network* network_;
  Config config_;
  EngineFactory engine_factory_;
  placement::PlacementPolicy* policy_;
  std::vector<std::unique_ptr<Processor>> processors_;
  /// Processors removed by RemoveLastProcessor: kept alive (their pending
  /// simulator callbacks capture the raw pointer) but never routed to.
  std::vector<std::unique_ptr<Processor>> retired_;
  /// Delegate processor of each stream, indexed by stream id
  /// (kNoDelegate = not yet assigned).
  static constexpr common::ProcessorId kNoDelegate = -1;
  std::vector<common::ProcessorId> delegates_;
  int next_delegate_ = 0;
  std::map<common::QueryId, QueryState> queries_;
  std::map<common::FragmentId, common::QueryId> query_of_fragment_;
  /// One stream's delegate-side interest table (only when config_.catalog
  /// is set): the queries with interest boxes on the stream, and their
  /// boxes compiled into a MatchTable (owner o = subscribers[o]) on the
  /// first tuple after an install or a removal. The boxes are read from
  /// the queries' own QueryState, never copied elsewhere.
  struct DelegateTable {
    /// Ascending query ids.
    std::vector<common::QueryId> subscribers;
    interest::MatchTable table;
    /// True while `table` lags `subscribers`; the next delegate match on
    /// the stream recompiles it.
    bool stale = false;
    /// Delegate matches on this stream, across rebuilds.
    int64_t lookups = 0;
  };
  /// True if `boxes` (a query's interest in `stream`) can be indexed.
  bool Indexable(common::StreamId stream,
                 const std::vector<interest::Box>* boxes) const;
  /// Recompiles `dt`'s table from its subscribers' boxes on `stream`.
  void CompileDelegateTable(common::StreamId stream, DelegateTable* dt);
  std::map<common::StreamId, DelegateTable> delegate_tables_;
  /// Queries bound to a stream without index coverage: always delivered.
  std::map<common::StreamId, std::set<common::QueryId>> always_deliver_;
  std::vector<double> point_scratch_;
  common::FragmentId next_fragment_id_ = 1;
  ResultHandler result_handler_;
  telemetry::Sketch pr_sketch_;
  int64_t results_ = 0;
  double start_time_ = 0.0;
  telemetry::Counter* migrations_counter_ = nullptr;
};

}  // namespace dsps::entity

#endif  // DSPS_ENTITY_ENTITY_H_
