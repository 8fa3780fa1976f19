#ifndef DSPS_DISSEMINATION_DISSEMINATOR_H_
#define DSPS_DISSEMINATION_DISSEMINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "dissemination/tree.h"
#include "engine/tuple.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace dsps::dissemination {

/// Message type used on the simulated network for tuple forwarding.
inline constexpr int kMsgTupleForward = 101;
/// Hop-level acknowledgment (sim::AckEnvelope) of a reliable
/// kMsgTupleForward.
inline constexpr int kMsgTupleAck = 102;

/// Payload of a kMsgTupleForward message.
struct TupleEnvelope {
  std::shared_ptr<const engine::Tuple> tuple;
  /// Numeric projection of the tuple, precomputed once at the source.
  std::shared_ptr<const std::vector<double>> point;
  /// Reliable-mode sequence number (0 = fire-and-forget). Unique per
  /// Disseminator; the receiver acks it and suppresses re-deliveries.
  int64_t seq = 0;
};

/// Runs the dissemination trees of all streams over the simulated network:
/// sources publish tuples, each entity's wrapper/gateway node forwards them
/// down its per-stream tree (optionally early-filtered by subtree
/// interest), and locally-matching tuples are handed to the entity.
class Disseminator {
 public:
  struct Config {
    DisseminationTree::Config tree;
    /// Apply subtree-interest early filtering (Section 3.1); false =
    /// forward-everything-to-children baseline.
    bool early_filter = true;
    /// Reliable forwarding for lossy networks (fault-injection runs):
    /// every tuple-forward hop goes through a sim::ReliableChannel (acked,
    /// retransmitted with backoff, deduplicated), so each hop is
    /// exactly-once under loss and duplication; a hop whose retries run
    /// out counts in dissemination.delivery_failed — never silent. Off by
    /// default — when false no acks, sequence numbers, or timers exist and
    /// the wire traffic is bit-identical to the fire-and-forget build.
    bool reliable = false;
    /// First retransmission fires this long after an unacked send.
    double retry_timeout_s = sim::kDefaultRetryTimeoutS;
    /// Optional telemetry (null = disabled, zero overhead). With metrics,
    /// each tree node exports dissemination.forwarded / .filtered /
    /// .delivered counters labeled {stream, node}. With a trace log,
    /// sampled publications start traces (source_emit anchor spans) that
    /// then follow the tuple through the whole system.
    telemetry::MetricsRegistry* metrics = nullptr;
    telemetry::TraceLog* trace = nullptr;
  };

  /// `network` must outlive this object.
  Disseminator(sim::Network* network, const Config& config);

  /// Registers a stream source at `source_node`. Must precede AddEntity
  /// calls for trees of this stream.
  common::Status AddSource(common::StreamId stream,
                           common::SimNodeId source_node);

  /// Registers an entity's gateway node and attaches it to every stream's
  /// tree. Installs a network handler on the gateway.
  common::Status AddEntity(common::EntityId id, common::SimNodeId gateway);

  /// Detaches an entity from every tree (children re-attach) and stops
  /// delivering to it. Used for failures and departures.
  common::Status RemoveEntity(common::EntityId id);

  /// Sets the entity's local interest in `stream` (union of its queries'
  /// boxes on that stream).
  common::Status SetEntityInterest(common::EntityId id,
                                   common::StreamId stream,
                                   std::vector<interest::Box> boxes);

  /// Called whenever a tuple matching the entity's local interest arrives
  /// at its gateway.
  using DeliveryHandler =
      std::function<void(common::EntityId, const engine::Tuple&)>;
  void SetDeliveryHandler(DeliveryHandler handler);

  /// Publishes a tuple at its stream's source: sends it to the (filtered)
  /// first-level children. Delivery and further forwarding happen inside
  /// the simulation as messages arrive.
  common::Status Publish(const engine::Tuple& tuple);

  /// Handles a network message addressed to a registered gateway. Exposed
  /// so an outer runtime that owns the node handlers can dispatch by
  /// message type. Returns true if the message was consumed.
  bool HandleMessage(const sim::Message& msg);

  const DisseminationTree* tree(common::StreamId stream) const;
  DisseminationTree* mutable_tree(common::StreamId stream);

  /// Tuples delivered to entities (local-interest matches).
  int64_t delivered_count() const { return delivered_; }
  /// Tuple-forward messages sent (source + entity hops).
  int64_t forward_count() const { return forwards_; }

  /// Reliable-mode statistics (all zero when Config::reliable is false).
  int64_t retries_count() const { return channel_.retries(); }
  /// Hops whose retries ran out, plus pending sends to a removed entity.
  int64_t delivery_failures_count() const { return delivery_failures_; }
  int64_t duplicates_suppressed_count() const {
    return channel_.duplicates();
  }
  /// Pending sends abandoned because their *sender* gateway was removed
  /// (RemoveEntity): a dead process cannot retransmit, so its retry
  /// timers are cancelled instead of running out.
  int64_t retries_cancelled_count() const { return retries_cancelled_; }
  /// Sends awaiting an ack right now.
  size_t pending_reliable_count() const { return channel_.pending(); }

  /// Statistics of the gridded route tables across every stream tree
  /// (see DisseminationTree::CollectIndexStats); feeds bench JSON and
  /// dsps_doctor.
  interest::IndexStats RouteIndexStats() const;

 private:
  void Forward(const DisseminationTree& tree, common::EntityId from,
               common::SimNodeId from_node, const TupleEnvelope& env);
  sim::ReliableChannel::Hooks ChannelHooks();
  void CountDeliveryFailure();
  /// The gateway of `id`; kInvalidSimNode if it is not registered.
  common::SimNodeId GatewayOf(common::EntityId id) const {
    return id >= 0 && static_cast<size_t>(id) < gateways_.size()
               ? gateways_[static_cast<size_t>(id)]
               : common::kInvalidSimNode;
  }

  /// Cached per-(stream, tree-node) counters; node = kInvalidEntity is
  /// the source. Interned lazily on first traffic through the node.
  struct NodeCounters {
    telemetry::Counter* forwarded = nullptr;
    telemetry::Counter* filtered = nullptr;
    telemetry::Counter* delivered = nullptr;
  };
  NodeCounters& CountersFor(common::StreamId stream, common::EntityId node);

  sim::Network* network_;
  Config config_;
  std::map<std::pair<common::StreamId, common::EntityId>, NodeCounters>
      node_counters_;
  std::map<common::StreamId, std::unique_ptr<DisseminationTree>> trees_;
  std::map<common::StreamId, common::SimNodeId> source_nodes_;
  /// Gateway of each entity, indexed by entity id (kInvalidSimNode = not
  /// registered), and its inverse indexed by sim node id.
  std::vector<common::SimNodeId> gateways_;
  std::vector<common::EntityId> by_node_;
  DeliveryHandler delivery_;
  int64_t delivered_ = 0;
  int64_t forwards_ = 0;
  /// Wall-clock cost of each ForwardTargets routing lookup (interned once
  /// when metrics are configured; null = no timing overhead).
  telemetry::Sketch* route_lookup_us_ = nullptr;
  /// Per-hop scratch for Forward's target list. Safe to reuse: message
  /// delivery is always scheduled, never synchronous, so Forward cannot
  /// re-enter while the list is being walked.
  std::vector<common::EntityId> targets_scratch_;

  /// Reliable-mode state (untouched when Config::reliable is false).
  sim::ReliableChannel channel_;
  int64_t delivery_failures_ = 0;
  int64_t retries_cancelled_ = 0;
  telemetry::Counter* retries_counter_ = nullptr;
  telemetry::Counter* delivery_failed_counter_ = nullptr;
  telemetry::Counter* duplicates_counter_ = nullptr;
  telemetry::Counter* retries_cancelled_counter_ = nullptr;
};

}  // namespace dsps::dissemination

#endif  // DSPS_DISSEMINATION_DISSEMINATOR_H_
