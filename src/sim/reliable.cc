#include "sim/reliable.h"

#include <utility>

#include "common/check.h"

namespace dsps::sim {

namespace {

void MustSend(Network* network, Message msg) {
  common::Status s = network->Send(std::move(msg));
  DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
}

}  // namespace

ReliableChannel::ReliableChannel(Network* network, int ack_type,
                                 double retry_timeout_s, Hooks hooks)
    : network_(network),
      ack_type_(ack_type),
      retry_timeout_s_(retry_timeout_s),
      hooks_(std::move(hooks)) {
  DSPS_CHECK(network != nullptr);
  DSPS_CHECK(retry_timeout_s > 0);
}

void ReliableChannel::Track(int64_t seq, Message msg) {
  Pending& p = pending_[seq];
  p.msg = std::move(msg);
  p.timeout_s = retry_timeout_s_;
  ArmTimer(seq, &p);
}

void ReliableChannel::ArmTimer(int64_t seq, Pending* pending) {
  // Cancellable, so a settled message frees its heap slot at once instead
  // of leaving a dud event behind.
  pending->timer = network_->simulator()->ScheduleCancellable(
      pending->timeout_s, [this, seq]() { OnTimeout(seq); });
}

void ReliableChannel::OnTimeout(int64_t seq) {
  auto it = pending_.find(seq);
  // Every path that settles a message also cancels its timer.
  DSPS_CHECK(it != pending_.end());
  Pending& p = it->second;
  if (p.retries_left == 0) {
    Message msg = std::move(p.msg);
    pending_.erase(it);
    ++exhausted_;
    if (hooks_.exhausted) hooks_.exhausted(msg);
    return;
  }
  p.retries_left -= 1;
  p.timeout_s *= kBackoff;
  ++retries_;
  if (hooks_.retry) hooks_.retry();
  MustSend(network_, p.msg);
  ArmTimer(seq, &p);
}

bool ReliableChannel::HandleAck(const Message& msg) {
  if (msg.type != ack_type_) return false;
  const auto* ack = msg.payload.get<AckEnvelope>();
  DSPS_CHECK(ack != nullptr);
  auto it = pending_.find(ack->seq);
  if (it != pending_.end()) {
    network_->simulator()->Cancel(it->second.timer);
    pending_.erase(it);
  }
  return true;
}

bool ReliableChannel::Receive(const Message& msg, int64_t seq) {
  Message ack;
  ack.from = msg.to;
  ack.to = msg.from;
  ack.type = ack_type_;
  ack.size_bytes = kAckBytes;
  ack.payload = AckEnvelope{seq};
  MustSend(network_, std::move(ack));
  if (seen_.insert(seq).second) return true;
  ++duplicates_;
  if (hooks_.duplicate) hooks_.duplicate();
  return false;
}

int ReliableChannel::CancelIf(
    const std::function<bool(const Message&)>& pred) {
  int cancelled = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (pred(it->second.msg)) {
      network_->simulator()->Cancel(it->second.timer);
      it = pending_.erase(it);
      ++cancelled;
    } else {
      ++it;
    }
  }
  return cancelled;
}

}  // namespace dsps::sim
