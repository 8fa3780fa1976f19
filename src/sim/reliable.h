#ifndef DSPS_SIM_RELIABLE_H_
#define DSPS_SIM_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>

#include "sim/network.h"
#include "sim/simulator.h"

namespace dsps::sim {

/// Default first-retransmission timeout of every reliable path.
inline constexpr double kDefaultRetryTimeoutS = 0.05;

/// Payload of every reliable-delivery ack, whatever its message type.
struct AckEnvelope {
  int64_t seq = 0;
};

/// Exactly-once delivery over the lossy simulated WAN: the one ack /
/// retransmit / deduplicate protocol behind reliable dissemination hops,
/// client results, and re-home batches.
///
/// The sender stamps NextSeq() into its payload, sends the message itself,
/// and hands a copy to Track(), which arms a cancellable retry timer. An
/// unacked message is retransmitted retry_timeout_s after the send, then
/// after kBackoff times the previous wait, kMaxRetries times in all; the
/// timeout after the last retransmission declares it exhausted. The
/// receiver calls Receive(), which always acks (the sender may be retrying
/// because an earlier ack was lost) and reports whether the sequence number
/// is new, so retransmissions and network duplicates are processed once.
/// One channel serves both ends of its path: it owns the sequence space,
/// the pending map, and the seen set.
class ReliableChannel {
 public:
  static constexpr double kBackoff = 2.0;
  static constexpr int kMaxRetries = 4;
  /// Wire size of an ack.
  static constexpr int64_t kAckBytes = 16;

  /// Optional per-event hooks, run after the channel's own counters move,
  /// for call sites that mirror the counts into their stats or metrics.
  struct Hooks {
    std::function<void()> retry;
    /// Gets the abandoned message; it is no longer pending.
    std::function<void(const Message&)> exhausted;
    std::function<void()> duplicate;
  };

  /// Acks travel as `ack_type` messages. `network` must outlive the
  /// channel.
  ReliableChannel(Network* network, int ack_type, double retry_timeout_s,
                  Hooks hooks = {});
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Allocates the sequence number of the next tracked message (from 1).
  int64_t NextSeq() { return next_seq_++; }

  /// Tracks `msg`, whose first transmission the caller makes itself
  /// (before or after this call): keeps a copy under `seq` and arms its
  /// retry timer.
  void Track(int64_t seq, Message msg);

  /// Sender side: settles the acked message and cancels its timer. Returns
  /// false (and ignores `msg`) unless it is this channel's ack type.
  bool HandleAck(const Message& msg);

  /// Receiver side: acks `seq` back to msg's sender; true the first time
  /// `seq` arrives, false for a duplicate.
  bool Receive(const Message& msg, int64_t seq);

  /// Stops tracking every pending message `pred` accepts and cancels its
  /// timer. `pred` sees the pending messages in sequence order and may
  /// record what it cancels. Returns the number cancelled.
  int CancelIf(const std::function<bool(const Message&)>& pred);

  int64_t retries() const { return retries_; }
  int64_t exhausted() const { return exhausted_; }
  int64_t duplicates() const { return duplicates_; }
  /// Messages awaiting an ack right now.
  size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    Message msg;
    int retries_left = kMaxRetries;
    double timeout_s = 0.0;
    TimerId timer = kInvalidTimer;
  };

  void ArmTimer(int64_t seq, Pending* pending);
  void OnTimeout(int64_t seq);

  Network* network_;
  int ack_type_;
  double retry_timeout_s_;
  Hooks hooks_;
  int64_t next_seq_ = 1;
  std::map<int64_t, Pending> pending_;
  std::unordered_set<int64_t> seen_;
  int64_t retries_ = 0;
  int64_t exhausted_ = 0;
  int64_t duplicates_ = 0;
};

}  // namespace dsps::sim

#endif  // DSPS_SIM_RELIABLE_H_
