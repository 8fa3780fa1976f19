#include "dissemination/disseminator.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace dsps::dissemination {

Disseminator::Disseminator(sim::Network* network, const Config& config)
    : network_(network),
      config_(config),
      channel_(network, kMsgTupleAck, config.retry_timeout_s,
               ChannelHooks()) {
  if (config_.metrics != nullptr) {
    route_lookup_us_ = config_.metrics->histogram("dissem.route_lookup_us");
  }
  if (config_.reliable && config_.metrics != nullptr) {
    retries_counter_ = config_.metrics->counter("dissemination.retries");
    delivery_failed_counter_ =
        config_.metrics->counter("dissemination.delivery_failed");
    duplicates_counter_ =
        config_.metrics->counter("dissemination.duplicates_suppressed");
    retries_cancelled_counter_ =
        config_.metrics->counter("dissemination.retries_cancelled");
  }
}

common::Status Disseminator::AddSource(common::StreamId stream,
                                       common::SimNodeId source_node) {
  if (trees_.count(stream) > 0) {
    return common::Status::AlreadyExists("stream already has a source");
  }
  trees_[stream] = std::make_unique<DisseminationTree>(
      stream, network_->position(source_node), config_.tree);
  source_nodes_[stream] = source_node;
  // The source must hear hop acks in reliable mode; the handler is inert
  // otherwise (nothing ever addresses a source in fire-and-forget mode).
  network_->SetHandler(source_node, [this](const sim::Message& msg) {
    HandleMessage(msg);
  });
  return common::Status::OK();
}

common::Status Disseminator::AddEntity(common::EntityId id,
                                       common::SimNodeId gateway) {
  if (id < 0 || gateway < 0) {
    return common::Status::InvalidArgument("negative entity or node id");
  }
  if (GatewayOf(id) != common::kInvalidSimNode) {
    return common::Status::AlreadyExists("entity already registered");
  }
  if (static_cast<size_t>(id) >= gateways_.size()) {
    gateways_.resize(static_cast<size_t>(id) + 1, common::kInvalidSimNode);
  }
  if (static_cast<size_t>(gateway) >= by_node_.size()) {
    by_node_.resize(static_cast<size_t>(gateway) + 1, common::kInvalidEntity);
  }
  gateways_[static_cast<size_t>(id)] = gateway;
  by_node_[static_cast<size_t>(gateway)] = id;
  for (auto& [stream, tree] : trees_) {
    DSPS_RETURN_IF_ERROR(tree->AddEntity(id, network_->position(gateway)));
  }
  network_->SetHandler(gateway, [this](const sim::Message& msg) {
    HandleMessage(msg);
  });
  return common::Status::OK();
}

common::Status Disseminator::RemoveEntity(common::EntityId id) {
  const common::SimNodeId gone = GatewayOf(id);
  if (gone == common::kInvalidSimNode) {
    return common::Status::NotFound("entity not registered");
  }
  for (auto& [stream, tree] : trees_) {
    if (tree->Contains(id)) {
      DSPS_RETURN_IF_ERROR(tree->RemoveEntity(id));
    }
  }
  // Abandon reliable sends addressed to the removed entity (it will never
  // ack — counted as delivery failures) and cancel sends *from* its
  // gateway (the sender process is gone; its retransmissions would only
  // burn simulated bandwidth on a peer known dead — counted as
  // cancelled).
  channel_.CancelIf([this, gone](const sim::Message& msg) {
    if (msg.to == gone) {
      CountDeliveryFailure();
      return true;
    }
    if (msg.from != gone) return false;
    retries_cancelled_ += 1;
    if (retries_cancelled_counter_ != nullptr) {
      retries_cancelled_counter_->Increment();
    }
    return true;
  });
  by_node_[static_cast<size_t>(gone)] = common::kInvalidEntity;
  gateways_[static_cast<size_t>(id)] = common::kInvalidSimNode;
  return common::Status::OK();
}

common::Status Disseminator::SetEntityInterest(common::EntityId id,
                                               common::StreamId stream,
                                               std::vector<interest::Box> boxes) {
  auto it = trees_.find(stream);
  if (it == trees_.end()) return common::Status::NotFound("unknown stream");
  if (GatewayOf(id) == common::kInvalidSimNode) {
    return common::Status::NotFound("unknown entity");
  }
  it->second->SetLocalInterest(id, std::move(boxes));
  return common::Status::OK();
}

interest::IndexStats Disseminator::RouteIndexStats() const {
  interest::IndexStats stats;
  for (const auto& [stream, tree] : trees_) {
    tree->CollectIndexStats(&stats);
  }
  return stats;
}

void Disseminator::SetDeliveryHandler(DeliveryHandler handler) {
  delivery_ = std::move(handler);
}

Disseminator::NodeCounters& Disseminator::CountersFor(common::StreamId stream,
                                                      common::EntityId node) {
  auto it = node_counters_.find({stream, node});
  if (it != node_counters_.end()) return it->second;
  telemetry::Labels labels = telemetry::MakeLabels(
      {{"stream", std::to_string(stream)},
       {"node", node == common::kInvalidEntity ? std::string("source")
                                               : std::to_string(node)}});
  NodeCounters counters;
  counters.forwarded =
      config_.metrics->counter("dissemination.forwarded", labels);
  counters.filtered = config_.metrics->counter("dissemination.filtered", labels);
  counters.delivered =
      config_.metrics->counter("dissemination.delivered", std::move(labels));
  return node_counters_.emplace(std::make_pair(stream, node), counters)
      .first->second;
}

void Disseminator::Forward(const DisseminationTree& tree,
                           common::EntityId from, common::SimNodeId from_node,
                           const TupleEnvelope& env) {
  std::vector<common::EntityId>& targets = targets_scratch_;
  if (route_lookup_us_ != nullptr) {
    auto start = std::chrono::steady_clock::now();
    tree.ForwardTargets(from, env.point->data(), config_.early_filter,
                        &targets);
    route_lookup_us_->Add(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  } else {
    tree.ForwardTargets(from, env.point->data(), config_.early_filter,
                        &targets);
  }
  if (config_.metrics != nullptr) {
    NodeCounters& counters = CountersFor(env.tuple->stream, from);
    counters.forwarded->Increment(static_cast<int64_t>(targets.size()));
    counters.filtered->Increment(tree.ChildCount(from) -
                                 static_cast<int64_t>(targets.size()));
  }
  if (targets.empty()) return;
  // One hop is a batch: every outgoing message shares the same source,
  // size, and trace id, so hoist them and only the destination varies.
  const int64_t size_bytes = env.tuple->SizeBytes();
  const int64_t trace_id = env.tuple->trace_id;
  for (common::EntityId target : targets) {
    sim::Message msg;
    msg.from = from_node;
    msg.to = gateways_[static_cast<size_t>(target)];
    msg.type = kMsgTupleForward;
    msg.size_bytes = size_bytes;
    msg.trace_id = trace_id;
    msg.payload = env;
    if (config_.reliable) {
      int64_t seq = channel_.NextSeq();
      std::any_cast<TupleEnvelope&>(msg.payload).seq = seq;
      common::Status s = network_->Send(msg);
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
      channel_.Track(seq, std::move(msg));
    } else {
      common::Status s = network_->Send(std::move(msg));
      DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    }
    ++forwards_;
  }
}

sim::ReliableChannel::Hooks Disseminator::ChannelHooks() {
  sim::ReliableChannel::Hooks hooks;
  hooks.retry = [this]() {
    if (retries_counter_ != nullptr) retries_counter_->Increment();
  };
  hooks.exhausted = [this](const sim::Message&) {
    // The hop failed for good; the tuple is gone for this subtree.
    CountDeliveryFailure();
  };
  hooks.duplicate = [this]() {
    if (duplicates_counter_ != nullptr) duplicates_counter_->Increment();
  };
  return hooks;
}

void Disseminator::CountDeliveryFailure() {
  delivery_failures_ += 1;
  if (delivery_failed_counter_ != nullptr) {
    delivery_failed_counter_->Increment();
  }
}

common::Status Disseminator::Publish(const engine::Tuple& tuple) {
  auto it = trees_.find(tuple.stream);
  if (it == trees_.end()) return common::Status::NotFound("unknown stream");
  TupleEnvelope env;
  if (config_.trace != nullptr && config_.trace->enabled()) {
    engine::Tuple traced = tuple;
    traced.trace_id = config_.trace->MaybeStartTrace();
    if (traced.trace_id != 0) {
      // Anchor span: covers source-side dwell from the tuple's logical
      // timestamp to the moment it enters the dissemination layer.
      config_.trace->Record(traced.trace_id, telemetry::Stage::kSourceEmit,
                            tuple.timestamp,
                            network_->simulator()->now());
    }
    env.tuple = std::make_shared<const engine::Tuple>(std::move(traced));
  } else {
    env.tuple = std::make_shared<const engine::Tuple>(tuple);
  }
  auto point = std::make_shared<std::vector<double>>();
  point->reserve(tuple.values.size());
  for (const engine::Value& v : tuple.values) {
    point->push_back(engine::AsDouble(v));
  }
  env.point = std::move(point);
  Forward(*it->second, common::kInvalidEntity, source_nodes_.at(tuple.stream),
          env);
  return common::Status::OK();
}

bool Disseminator::HandleMessage(const sim::Message& msg) {
  if (channel_.HandleAck(msg)) return true;
  if (msg.type != kMsgTupleForward) return false;
  if (msg.to < 0 || static_cast<size_t>(msg.to) >= by_node_.size()) {
    return false;
  }
  const common::EntityId entity = by_node_[static_cast<size_t>(msg.to)];
  if (entity == common::kInvalidEntity) return false;
  const auto* env = std::any_cast<TupleEnvelope>(&msg.payload);
  DSPS_CHECK(env != nullptr);
  // Reliable hop: retries and network duplicates are acked but never
  // double-processed or double-forwarded.
  if (env->seq != 0 && !channel_.Receive(msg, env->seq)) return true;
  const DisseminationTree* tree = trees_.at(env->tuple->stream).get();
  if (tree->LocalMatch(entity, env->point->data())) {
    ++delivered_;
    if (config_.metrics != nullptr) {
      CountersFor(env->tuple->stream, entity).delivered->Increment();
    }
    if (delivery_) delivery_(entity, *env->tuple);
  }
  // Forward down the tree.
  Forward(*tree, entity, msg.to, *env);
  return true;
}

const DisseminationTree* Disseminator::tree(common::StreamId stream) const {
  auto it = trees_.find(stream);
  return it == trees_.end() ? nullptr : it->second.get();
}

DisseminationTree* Disseminator::mutable_tree(common::StreamId stream) {
  auto it = trees_.find(stream);
  return it == trees_.end() ? nullptr : it->second.get();
}

}  // namespace dsps::dissemination
