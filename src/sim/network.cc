#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "telemetry/flight_recorder.h"

namespace dsps::sim {

namespace {
/// Delivery delay for node-local sends (scheduler hop, no wire).
constexpr double kLocalDeliveryDelay = 1e-6;
}  // namespace

double Distance(const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Network::Network(Simulator* simulator) : sim_(simulator) {
  DSPS_CHECK(simulator != nullptr);
  default_model_ = [](const Point& from, const Point& to) {
    LinkParams p;
    // 1 ms base + 50 us per distance unit; 100 MB/s default WAN pipe.
    p.latency_s = 0.001 + 5e-5 * Distance(from, to);
    p.bandwidth_bps = 1e8;
    return p;
  };
}

common::SimNodeId Network::AddNode(const Point& position) {
  nodes_.push_back(NodeState{position, nullptr, 0, {}});
  return static_cast<common::SimNodeId>(nodes_.size() - 1);
}

void Network::SetHandler(common::SimNodeId node, Handler handler) {
  DSPS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void Network::SetDefaultLinkModel(LinkModel model) {
  DSPS_CHECK(model != nullptr);
  default_model_ = std::move(model);
}

void Network::SetLink(common::SimNodeId from, common::SimNodeId to,
                      const LinkParams& params) {
  DSPS_CHECK(from >= 0 && static_cast<size_t>(from) < nodes_.size());
  DSPS_CHECK(to >= 0 && static_cast<size_t>(to) < nodes_.size());
  GetOrCreateLink(from, to, &params).params = params;
}

std::vector<Network::OutLink>::const_iterator Network::Seek(
    const std::vector<OutLink>& out, common::SimNodeId to) {
  return std::lower_bound(
      out.begin(), out.end(), to,
      [](const OutLink& l, common::SimNodeId id) { return l.to < id; });
}

uint32_t Network::FindLink(common::SimNodeId from, common::SimNodeId to) const {
  if (from < 0 || static_cast<size_t>(from) >= nodes_.size()) return kNoLink;
  const std::vector<OutLink>& out = nodes_[from].out;
  auto it = Seek(out, to);
  return it != out.end() && it->to == to ? it->link : kNoLink;
}

Network::LinkState& Network::GetOrCreateLink(common::SimNodeId from,
                                             common::SimNodeId to,
                                             const LinkParams* params) {
  std::vector<OutLink>& out = nodes_[from].out;
  auto it = Seek(out, to);
  if (it != out.end() && it->to == to) return links_[it->link];
  LinkState state;
  state.params = params != nullptr
                     ? *params
                     : default_model_(nodes_[from].position,
                                      nodes_[to].position);
  out.insert(it, OutLink{to, static_cast<uint32_t>(links_.size())});
  links_.push_back(std::move(state));
  return links_.back();
}

void Network::CountFaultDrop() {
  dropped_faults_ += 1;
  // Interned on first drop (not at SetMetrics time) so fault-free runs
  // export exactly the same series as a build without fault injection.
  if (metrics_ != nullptr) {
    if (dropped_fault_counter_ == nullptr) {
      dropped_fault_counter_ = metrics_->counter(
          "net.dropped_messages", telemetry::MakeLabels({{"reason", "fault"}}));
    }
    dropped_fault_counter_->Increment();
  }
  if (flight_ != nullptr) {
    flight_->RecordInstant("net.drop.fault", sim_->now(), /*node=*/-1,
                           /*value=*/1.0,
                           telemetry::FlightRecorder::EventKind::kNetDrop);
  }
}

void Network::ScheduleDelivery(double deliver_at, Message&& msg) {
  // Park the message in an arena slot; the delivery lambda captures only
  // {this, slot} — small enough for std::function's inline storage, so
  // scheduling a delivery performs no heap allocation.
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    arena_[slot] = std::move(msg);
  } else {
    slot = static_cast<uint32_t>(arena_.size());
    arena_.push_back(std::move(msg));
  }
  sim_->ScheduleAt(deliver_at, [this, slot]() { DeliverSlot(slot); });
}

void Network::DeliverSlot(uint32_t slot) {
  // The reference stays valid while the handler sends more messages: the
  // arena is a deque, so growth never relocates existing slots.
  const Message& m = arena_[slot];
  common::SimNodeId to = m.to;
  // In-flight messages to a node that crashed before delivery are lost
  // (the injector's delivery-time crash check).
  if (faults_ != nullptr && !faults_->IsNodeUp(to)) {
    faults_->CountDrop(FaultInjector::DropReason::kNodeDown);
    CountFaultDrop();
    ReleaseSlot(slot);
    return;
  }
  const Handler& h = nodes_[to].handler;
  if (!h) {
    // A message addressed to a node nobody listens on is data loss;
    // count it so it can never be silent, and abort in debug mode.
    DSPS_CHECK_MSG(!fail_on_unhandled_,
                   "message type %d delivered to node %d with no handler",
                   m.type, to);
    dropped_no_handler_ += 1;
    if (metrics_ != nullptr) {
      if (dropped_no_handler_counter_ == nullptr) {
        dropped_no_handler_counter_ = metrics_->counter(
            "net.dropped_messages",
            telemetry::MakeLabels({{"reason", "no_handler"}}));
      }
      dropped_no_handler_counter_->Increment();
    }
    if (flight_ != nullptr) {
      flight_->RecordInstant("net.drop.no_handler", sim_->now(), to,
                             static_cast<double>(m.type),
                             telemetry::FlightRecorder::EventKind::kNetDrop);
    }
    ReleaseSlot(slot);
    return;
  }
  h(m);
  ReleaseSlot(slot);
}

void Network::ReleaseSlot(uint32_t slot) {
  // Drop the payload now (it may own arbitrary application state); the
  // slot shell is recycled for the next Send.
  arena_[slot].payload.reset();
  free_slots_.push_back(slot);
}

common::Status Network::Send(Message msg) {
  if (msg.from < 0 || static_cast<size_t>(msg.from) >= nodes_.size() ||
      msg.to < 0 || static_cast<size_t>(msg.to) >= nodes_.size()) {
    return common::Status::InvalidArgument("unknown node in Send");
  }
  if (msg.size_bytes < 0) {
    return common::Status::InvalidArgument("negative message size");
  }
  FaultInjector::Verdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->Judge(msg.from, msg.to);
    if (verdict.drop != FaultInjector::DropReason::kNone) {
      CountFaultDrop();
      return common::Status::OK();
    }
  }
  double deliver_at;
  if (msg.from == msg.to) {
    deliver_at = sim_->now() + kLocalDeliveryDelay;
    if (local_messages_counter_ != nullptr) {
      local_messages_counter_->Increment();
    }
  } else {
    LinkState& link = GetOrCreateLink(msg.from, msg.to);
    double start = std::max(sim_->now(), link.busy_until);
    double tx = static_cast<double>(msg.size_bytes) / link.params.bandwidth_bps;
    link.busy_until = start + tx;
    deliver_at = start + tx + link.params.latency_s + verdict.extra_latency_s;
    link.stats.messages += 1;
    link.stats.bytes += msg.size_bytes;
    nodes_[msg.from].egress_bytes += msg.size_bytes;
    total_bytes_ += msg.size_bytes;
    total_messages_ += 1;
    if (metrics_ != nullptr) {
      messages_counter_->Increment();
      bytes_counter_->Increment(msg.size_bytes);
      queue_wait_hist_->Add(start - sim_->now());
      if (per_link_metrics_) {
        if (link.bytes_counter == nullptr) {
          telemetry::Labels labels = telemetry::MakeLabels(
              {{"from", std::to_string(msg.from)},
               {"to", std::to_string(msg.to)}});
          link.bytes_counter = metrics_->counter("net.link.bytes", labels);
          link.messages_counter =
              metrics_->counter("net.link.messages", std::move(labels));
        }
        link.bytes_counter->Increment(msg.size_bytes);
        link.messages_counter->Increment();
      }
    }
  }
  if (trace_ != nullptr && msg.trace_id != 0) {
    trace_->RecordMessage(msg.trace_id, msg.type, sim_->now(), deliver_at,
                          msg.from, msg.to);
  }
  if (verdict.duplicate && msg.from != msg.to) {
    // The duplicate gets its own arena slot (a copy); the original moves.
    ScheduleDelivery(deliver_at + verdict.duplicate_extra_latency_s,
                     Message(msg));
  }
  ScheduleDelivery(deliver_at, std::move(msg));
  return common::Status::OK();
}

const Point& Network::position(common::SimNodeId node) const {
  DSPS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  return nodes_[node].position;
}

LinkStats Network::link_stats(common::SimNodeId from,
                              common::SimNodeId to) const {
  uint32_t link = FindLink(from, to);
  return link == kNoLink ? LinkStats{} : links_[link].stats;
}

int64_t Network::egress_bytes(common::SimNodeId node) const {
  DSPS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  return nodes_[node].egress_bytes;
}

std::vector<Network::LinkRecord> Network::AllLinkStats() const {
  std::vector<LinkRecord> out;
  out.reserve(links_.size());
  for (size_t from = 0; from < nodes_.size(); ++from) {
    for (const OutLink& l : nodes_[from].out) {
      const LinkStats& stats = links_[l.link].stats;
      if (stats.messages > 0) {
        out.push_back(
            LinkRecord{static_cast<common::SimNodeId>(from), l.to, stats});
      }
    }
  }
  return out;
}

void Network::SetMetrics(telemetry::MetricsRegistry* metrics, bool per_link) {
  metrics_ = metrics;
  per_link_metrics_ = per_link && metrics != nullptr;
  for (LinkState& link : links_) {
    link.bytes_counter = nullptr;
    link.messages_counter = nullptr;
  }
  if (metrics == nullptr) {
    messages_counter_ = nullptr;
    bytes_counter_ = nullptr;
    local_messages_counter_ = nullptr;
    queue_wait_hist_ = nullptr;
    dropped_fault_counter_ = nullptr;
    dropped_no_handler_counter_ = nullptr;
    return;
  }
  messages_counter_ = metrics->counter("net.messages");
  bytes_counter_ = metrics->counter("net.bytes");
  local_messages_counter_ = metrics->counter("net.local_messages");
  queue_wait_hist_ = metrics->histogram("net.link_queue_wait_s");
  // net.dropped_messages counters are interned lazily on first drop so
  // fault-free snapshots stay byte-identical to the pre-fault-layer ones.
  dropped_fault_counter_ = nullptr;
  dropped_no_handler_counter_ = nullptr;
}

void Network::ResetStats() {
  total_bytes_ = 0;
  total_messages_ = 0;
  for (auto& node : nodes_) node.egress_bytes = 0;
  for (LinkState& link : links_) link.stats = LinkStats{};
}

}  // namespace dsps::sim
