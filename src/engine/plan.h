#ifndef DSPS_ENGINE_PLAN_H_
#define DSPS_ENGINE_PLAN_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/operators.h"
#include "interest/interest.h"

namespace dsps::engine {

/// A dataflow edge: every output tuple of `from` is delivered to input
/// `to_port` of `to`.
struct PlanEdge {
  common::OperatorId from = -1;
  common::OperatorId to = -1;
  int to_port = 0;
};

/// Binds a raw stream to an operator input port.
struct StreamBinding {
  common::StreamId stream = common::kInvalidStream;
  common::OperatorId to = -1;
  int to_port = 0;
};

/// A continuous query plan: a DAG of operators fed by bound streams.
/// Operators without outgoing edges are sinks; their outputs are the query
/// results delivered to the client.
class QueryPlan {
 public:
  QueryPlan() = default;
  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  /// Adds an operator; returns its id within this plan.
  common::OperatorId AddOperator(std::unique_ptr<Operator> op);

  /// Adds the dataflow edge from -> (to, to_port).
  common::Status Connect(common::OperatorId from, common::OperatorId to,
                         int to_port);

  /// Feeds `stream` (a non-negative id) into (to, to_port).
  common::Status BindStream(common::StreamId stream, common::OperatorId to,
                            int to_port);

  int num_operators() const { return static_cast<int>(ops_.size()); }
  const Operator& op(common::OperatorId id) const;
  Operator* mutable_op(common::OperatorId id);

  const std::vector<PlanEdge>& edges() const { return edges_; }
  const std::vector<StreamBinding>& bindings() const { return bindings_; }

  /// Out-edges of `id`.
  std::vector<PlanEdge> OutEdges(common::OperatorId id) const;

  /// Operators with no outgoing edges (result producers).
  std::vector<common::OperatorId> SinkOps() const;

  /// Checks that ids/ports are in range, every input port is fed exactly
  /// once (by a stream or an edge), and the graph is acyclic.
  common::Status Validate() const;

  /// Operator ids in topological order; error if cyclic.
  common::Result<std::vector<common::OperatorId>> TopologicalOrder() const;

  /// Deep copy (operators cloned with fresh state).
  std::unique_ptr<QueryPlan> Clone() const;

  /// Estimated CPU seconds spent evaluating the plan per source tuple,
  /// propagating operator selectivities from the stream bindings down the
  /// DAG. This is the "inherent complexity" p_k of Section 4.1 (up to the
  /// arrival-rate scale factor, which cancels in the Performance Ratio).
  double EstimateInherentCostPerTuple() const;

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
  std::vector<PlanEdge> edges_;
  std::vector<StreamBinding> bindings_;
};

/// A registered continuous query.
struct Query {
  common::QueryId id = common::kInvalidQuery;
  std::shared_ptr<const QueryPlan> plan;
  /// The streams+value-ranges this query needs (drives dissemination and
  /// the query-graph edge weights).
  interest::InterestSet interest;
  /// Processing load this query imposes (query-graph vertex weight).
  double load = 1.0;
  /// Owning tenant (multi-tenant admission control). 0 is the implicit
  /// tenant every untagged query belongs to, so single-tenant workloads
  /// need no configuration.
  int32_t tenant = 0;
};

}  // namespace dsps::engine

#endif  // DSPS_ENGINE_PLAN_H_
