#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace dsps::sim {
namespace {

// --------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    sim.Schedule(1.0, [&] { fired = 1; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<double>(i), [&] { ++count; });
  }
  sim.RunUntil(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.RunUntil(20.0);
  EXPECT_EQ(count, 10);
  // Clock advances to the requested horizon even with no events there.
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(SimulatorTest, StopAbortsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<double>(i), [&] {
      ++count;
      if (count == 3) sim.Stop();
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  double t = -1;
  sim.Schedule(5.0, [&] {
    sim.Schedule(-3.0, [&] { t = sim.now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(t, 5.0);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// Regression: Schedule/ScheduleAt used to accept NaN/Inf silently, which
// poisons the heap's strict-weak order (every comparison with NaN is
// false) and can starve or misorder the queue forever after.
TEST(SimulatorTest, NonFiniteTimesAreRejected) {
#ifdef NDEBUG
  // Release builds clamp: NaN/-Inf mean "now", +Inf means "after every
  // finite event" — the heap invariant survives either way.
  Simulator sim;
  double nan_ran_at = -1.0;
  bool inf_ran = false;
  sim.Schedule(std::numeric_limits<double>::quiet_NaN(),
               [&] { nan_ran_at = sim.now(); });
  sim.ScheduleAt(std::numeric_limits<double>::infinity(),
                 [&] { inf_ran = true; });
  sim.Schedule(1.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_DOUBLE_EQ(nan_ran_at, 0.0);
  EXPECT_FALSE(inf_ran);
  EXPECT_EQ(sim.pending_events(), 1u);  // the +Inf event, parked at max
  Simulator sim2;
  double neg_inf_ran_at = -1.0;
  sim2.Schedule(3.0, [&] {
    sim2.ScheduleAt(-std::numeric_limits<double>::infinity(),
                    [&] { neg_inf_ran_at = sim2.now(); });
  });
  sim2.Run();
  EXPECT_DOUBLE_EQ(neg_inf_ran_at, 3.0);
#else
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.Schedule(std::numeric_limits<double>::quiet_NaN(), [] {});
      },
      "isfinite");
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.ScheduleAt(std::numeric_limits<double>::infinity(), [] {});
      },
      "isfinite");
#endif
}

// Regression: RunUntil(t) used to leave now() at the last event's time
// when Stop() fired during the final event at-or-before t, so a caller's
// "time is now t" assumption broke. The clock must advance to t whenever
// every event <= t has executed — Stop() only freezes the clock when it
// leaves such events pending.
TEST(SimulatorTest, RunUntilAdvancesClockWhenStopFiresDuringFinalEvent) {
  Simulator sim;
  sim.Schedule(1.0, [&] { sim.Stop(); });
  sim.Schedule(7.0, [] {});  // beyond the horizon; must not gate the clock
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilKeepsStopTimeWhenEventsBeforeHorizonPend) {
  Simulator sim;
  sim.Schedule(1.0, [&] { sim.Stop(); });
  sim.Schedule(2.0, [] {});  // within the horizon and still pending
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// Property test for the indexed 4-ary heap: one million events at the
// same timestamp must run in exact insertion order — the (time, seq)
// total order is what makes every simulation bit-reproducible.
TEST(SimulatorTest, MillionSameTimestampEventsRunInInsertionOrder) {
  Simulator sim;
  constexpr int kEvents = 1000000;
  int expected = 0;
  bool in_order = true;
  for (int i = 0; i < kEvents; ++i) {
    sim.Schedule(1.0, [&, i] {
      if (i != expected) in_order = false;
      ++expected;
    });
  }
  sim.Run();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(expected, kEvents);
  EXPECT_EQ(sim.events_executed(), static_cast<uint64_t>(kEvents));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorTest, CancelledTimersNeverFire) {
  Simulator sim;
  int fired = 0;
  std::vector<TimerId> timers;
  // Interleave cancellable timers with plain events so cancellation has
  // to repair the heap around untracked entries.
  for (int i = 0; i < 1000; ++i) {
    timers.push_back(
        sim.ScheduleCancellable(i * 0.001, [&] { ++fired; }));
    sim.Schedule(i * 0.001, [] {});
  }
  for (size_t i = 0; i < timers.size(); i += 2) {
    EXPECT_TRUE(sim.Cancel(timers[i]));
  }
  EXPECT_FALSE(sim.Cancel(timers[0]));  // double-cancel reports false
  EXPECT_FALSE(sim.Cancel(kInvalidTimer));
  sim.Run();
  EXPECT_EQ(fired, 500);
  EXPECT_FALSE(sim.Cancel(timers[1]));  // already fired
}

TEST(SimulatorTest, CancelFromEventDisarmsSameTimeLaterTimer) {
  Simulator sim;
  bool fired = false;
  TimerId timer = kInvalidTimer;
  sim.Schedule(1.0, [&] { EXPECT_TRUE(sim.Cancel(timer)); });
  timer = sim.ScheduleCancellable(1.0, [&] { fired = true; });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 1u);
}

/// Drives a Simulator with a random interleaving of Schedule,
/// ScheduleCancellable, Cancel and Step — events themselves schedule and
/// cancel too — and checks every pop and every Cancel result against a
/// std::set reference model of the pending (time, seq) keys.
class SimulatorModel {
 public:
  using Key = std::pair<SimTime, uint64_t>;

  explicit SimulatorModel(uint64_t seed) : rng_(seed) {}

  void RandomOp() {
    uint64_t op = rng_.NextUint64(10);
    if (op < 3) {
      ScheduleOne(/*cancellable=*/false);
    } else if (op < 6) {
      ScheduleOne(/*cancellable=*/true);
    } else if (op < 8) {
      CancelRandom();
    } else {
      StepOne();
    }
    EXPECT_EQ(sim_.pending_events(), pending_.size());
  }

  void Drain() {
    while (!pending_.empty()) StepOne();
    EXPECT_FALSE(sim_.Step());
  }

  uint64_t fired() const { return fired_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  SimTime RandomDelay() {
    // A few fixed delays make same-instant ties (the seq tie-break) common.
    switch (rng_.NextUint64(4)) {
      case 0:
        return 0.0;
      case 1:
        return 0.25;
      case 2:
        return 1.0;
      default:
        return rng_.Uniform(0.0, 2.0);
    }
  }

  void ScheduleOne(bool cancellable) {
    SimTime delay = RandomDelay();
    Key key{sim_.now() + delay, next_seq_++};
    pending_.insert(key);
    auto fn = [this, key] { Fire(key); };
    if (cancellable) {
      TimerId timer = sim_.ScheduleCancellable(delay, fn);
      ASSERT_NE(timer, kInvalidTimer);
      live_.emplace(timer, key);
      timer_of_.emplace(key, timer);
      issued_.push_back(timer);
    } else {
      sim_.Schedule(delay, fn);
    }
  }

  void CancelRandom() {
    if (issued_.empty()) return;
    TimerId timer = issued_[rng_.NextUint64(issued_.size())];
    auto it = live_.find(timer);
    const bool pending = it != live_.end();
    EXPECT_EQ(sim_.Cancel(timer), pending);
    if (pending) {
      pending_.erase(it->second);
      timer_of_.erase(it->second);
      live_.erase(it);
      ++cancelled_;
    }
  }

  void StepOne() {
    const bool had = !pending_.empty();
    EXPECT_EQ(sim_.Step(), had);
  }

  void Fire(const Key& key) {
    ASSERT_FALSE(pending_.empty());
    EXPECT_EQ(key, *pending_.begin()) << "popped out of (time, seq) order";
    EXPECT_EQ(sim_.now(), key.first);
    pending_.erase(key);
    auto timer = timer_of_.find(key);
    if (timer != timer_of_.end()) {
      live_.erase(timer->second);
      timer_of_.erase(timer);
    }
    ++fired_;
    // Events schedule and cancel from inside the simulation too; a fired
    // event's own handle must already be dead.
    if (rng_.Bernoulli(0.3)) CancelRandom();
    if (rng_.Bernoulli(0.4)) ScheduleOne(rng_.Bernoulli(0.5));
  }

  Simulator sim_;
  common::Rng rng_;
  uint64_t next_seq_ = 0;
  std::set<Key> pending_;
  std::map<TimerId, Key> live_;
  std::map<Key, TimerId> timer_of_;
  std::vector<TimerId> issued_;
  uint64_t fired_ = 0;
  uint64_t cancelled_ = 0;
};

TEST(SimulatorTest, RandomInterleavingMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SimulatorModel model(seed);
    for (int i = 0; i < 5000; ++i) model.RandomOp();
    model.Drain();
    EXPECT_GT(model.fired(), 1000u) << "seed " << seed;
    EXPECT_GT(model.cancelled(), 100u) << "seed " << seed;
    if (HasFailure()) break;
  }
}

// ----------------------------------------------------------------- Network

TEST(NetworkTest, DeliversMessageWithLatency) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.5, 1e9});
  double arrival = -1;
  int got_type = 0;
  net.SetHandler(b, [&](const Message& m) {
    arrival = sim.now();
    got_type = m.type;
  });
  Message m;
  m.from = a;
  m.to = b;
  m.type = 7;
  m.size_bytes = 0;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_DOUBLE_EQ(arrival, 0.5);
  EXPECT_EQ(got_type, 7);
}

TEST(NetworkTest, BandwidthAddsTransferTime) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.1, 1000.0});  // 1000 B/s
  double arrival = -1;
  net.SetHandler(b, [&](const Message&) { arrival = sim.now(); });
  Message m;
  m.from = a;
  m.to = b;
  m.size_bytes = 500;  // 0.5 s of transfer
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_NEAR(arrival, 0.6, 1e-9);
}

TEST(NetworkTest, LinkSerializesBackToBackSends) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.0, 1000.0});
  std::vector<double> arrivals;
  net.SetHandler(b, [&](const Message&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.from = a;
    m.to = b;
    m.size_bytes = 1000;  // 1 s each
    ASSERT_TRUE(net.Send(m).ok());
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 1.0, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.0, 1e-9);
  EXPECT_NEAR(arrivals[2], 3.0, 1e-9);
}

TEST(NetworkTest, TracksLinkAndEgressStats) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({3, 4});
  net.SetHandler(b, [](const Message&) {});
  Message m;
  m.from = a;
  m.to = b;
  m.size_bytes = 100;
  ASSERT_TRUE(net.Send(m).ok());
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_EQ(net.link_stats(a, b).messages, 2);
  EXPECT_EQ(net.link_stats(a, b).bytes, 200);
  EXPECT_EQ(net.link_stats(b, a).messages, 0);
  EXPECT_EQ(net.total_bytes(), 200);
  EXPECT_EQ(net.total_messages(), 2);
  EXPECT_EQ(net.egress_bytes(a), 200);
  EXPECT_EQ(net.egress_bytes(b), 0);
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0);
  EXPECT_EQ(net.link_stats(a, b).bytes, 0);
}

TEST(NetworkTest, LocalSendIsFreeAndFast) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  bool got = false;
  net.SetHandler(a, [&](const Message&) { got = true; });
  Message m;
  m.from = a;
  m.to = a;
  m.size_bytes = 1 << 20;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.total_bytes(), 0);
  EXPECT_LT(sim.now(), 0.001);
}

TEST(NetworkTest, UnknownNodeRejected) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  Message m;
  m.from = a;
  m.to = 99;
  EXPECT_FALSE(net.Send(m).ok());
  m.to = a;
  m.from = -5;
  EXPECT_FALSE(net.Send(m).ok());
}

TEST(NetworkTest, DefaultLinkModelUsesDistance) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto near = net.AddNode({0, 10});
  auto far = net.AddNode({0, 1000});
  double t_near = -1, t_far = -1;
  net.SetHandler(near, [&](const Message&) { t_near = sim.now(); });
  net.SetHandler(far, [&](const Message&) { t_far = sim.now(); });
  Message m;
  m.from = a;
  m.to = near;
  ASSERT_TRUE(net.Send(m).ok());
  m.to = far;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_GT(t_far, t_near);
}

TEST(NetworkTest, DroppedWhenNoHandler) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({1, 1});
  Message m;
  m.from = a;
  m.to = b;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();  // must not crash
  EXPECT_EQ(net.total_messages(), 1);
}

TEST(NetworkTest, AllLinkStatsAscendByFromThenTo) {
  Simulator sim;
  Network net(&sim);
  std::vector<common::SimNodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(net.AddNode({1.0 * i, 0}));
  for (common::SimNodeId n : nodes) net.SetHandler(n, [](const Message&) {});
  // First sends in scrambled order; links are created on first use.
  const std::vector<std::pair<int, int>> pairs = {
      {3, 1}, {0, 4}, {3, 0}, {1, 2}, {0, 1}, {4, 3}, {3, 1}, {2, 0}};
  for (const auto& [from, to] : pairs) {
    Message m;
    m.from = nodes[from];
    m.to = nodes[to];
    m.size_bytes = 10;
    ASSERT_TRUE(net.Send(m).ok());
  }
  // A link that exists but never carried traffic is not reported.
  net.SetLink(nodes[2], nodes[4], LinkParams{0.01, 1e9});
  sim.Run();
  std::vector<std::pair<int, int>> got;
  for (const Network::LinkRecord& r : net.AllLinkStats()) {
    got.emplace_back(r.from, r.to);
    EXPECT_EQ(r.stats.bytes, 10 * r.stats.messages);
  }
  const std::vector<std::pair<int, int>> want = {
      {0, 1}, {0, 4}, {1, 2}, {2, 0}, {3, 0}, {3, 1}, {4, 3}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(net.link_stats(nodes[3], nodes[1]).messages, 2);
}

TEST(NetworkTest, SetLinkBeforeAndAfterFirstSend) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  auto c = net.AddNode({0, 0});
  std::vector<double> arrivals;
  net.SetHandler(b, [&](const Message&) { arrivals.push_back(sim.now()); });
  net.SetHandler(c, [&](const Message&) { arrivals.push_back(sim.now()); });
  Message m;
  m.from = a;
  m.size_bytes = 0;
  // Before the pair's first send: the explicit parameters win over the
  // default model from the start.
  net.SetLink(a, b, LinkParams{0.5, 1e9});
  m.to = b;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.5);
  // After the first send: the link (and its stats) is kept, only the
  // parameters change for later sends.
  m.to = c;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  const double default_latency = arrivals[1] - 0.5;
  EXPECT_GT(default_latency, 0.0);
  net.SetLink(a, c, LinkParams{0.25, 1e9});
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_DOUBLE_EQ(arrivals[2] - (0.5 + default_latency), 0.25);
  EXPECT_EQ(net.link_stats(a, c).messages, 2);
  EXPECT_EQ(net.link_stats(a, b).messages, 1);
}

TEST(NetworkTest, UnusedPairHasZeroLinkStats) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({1, 0});
  net.SetHandler(b, [](const Message&) {});
  Message m;
  m.from = a;
  m.to = b;
  m.size_bytes = 7;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  EXPECT_EQ(net.link_stats(b, a).messages, 0);
  EXPECT_EQ(net.link_stats(b, a).bytes, 0);
  EXPECT_EQ(net.link_stats(a, a).messages, 0);
  // Ids the network never issued read as unused pairs too.
  EXPECT_EQ(net.link_stats(-1, b).messages, 0);
  EXPECT_EQ(net.link_stats(a, 99).bytes, 0);
  EXPECT_EQ(net.link_stats(a, b).bytes, 7);
}

// ----------------------------------------------------------------- Payload

/// Counts live instances so tests can check that Payload constructs and
/// destroys exactly what it should; `Pad` bytes decide inline vs heap.
template <size_t Pad>
struct Counted {
  static inline int live = 0;
  int64_t value = 0;
  std::array<char, Pad> pad{};
  explicit Counted(int64_t v) : value(v) { ++live; }
  Counted(const Counted& o) : value(o.value), pad(o.pad) { ++live; }
  Counted(Counted&& o) noexcept : value(o.value), pad(o.pad) { ++live; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { --live; }
};
using SmallCounted = Counted<8>;
using BigCounted = Counted<128>;

template <class T>
void ExpectBalancedLifecycle() {
  ASSERT_EQ(T::live, 0);
  {
    Payload a = T(7);
    EXPECT_EQ(T::live, 1);
    ASSERT_NE(a.get<T>(), nullptr);
    EXPECT_EQ(a.get<T>()->value, 7);
    Payload b = a;  // copy
    EXPECT_EQ(T::live, 2);
    Payload c = std::move(a);  // move leaves the source empty
    EXPECT_EQ(T::live, 2);
    EXPECT_FALSE(a.has_value());
    EXPECT_EQ(c.get<T>()->value, 7);
    b.get<T>()->value = 9;
    c = b;  // copy-assign over a held value
    EXPECT_EQ(T::live, 2);
    EXPECT_EQ(c.get<T>()->value, 9);
    a = std::move(c);  // move-assign into an empty payload
    EXPECT_EQ(T::live, 2);
    a.emplace<T>(11);  // replaces the held value
    EXPECT_EQ(T::live, 2);
    EXPECT_EQ(a.get<T>()->value, 11);
    b.reset();
    EXPECT_EQ(T::live, 1);
    a = int64_t{5};  // a different type destroys the old value
    EXPECT_EQ(T::live, 0);
    EXPECT_EQ(*a.get<int64_t>(), 5);
    a = T(3);
  }
  EXPECT_EQ(T::live, 0);
}

TEST(PayloadTest, InlineAndHeapTypesBalanceLifecycles) {
  static_assert(Payload::StoresInline<SmallCounted>());
  static_assert(!Payload::StoresInline<BigCounted>());
  static_assert(Payload::StoresInline<std::shared_ptr<int>>());
  ExpectBalancedLifecycle<SmallCounted>();
  ExpectBalancedLifecycle<BigCounted>();
}

TEST(PayloadTest, GetOfWrongTypeIsNull) {
  Payload empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_EQ(empty.get<int64_t>(), nullptr);
  Payload p = std::string("hello");
  EXPECT_TRUE(p.has_value());
  EXPECT_EQ(p.get<int64_t>(), nullptr);
  EXPECT_EQ(p.get<BigCounted>(), nullptr);
  ASSERT_NE(p.get<std::string>(), nullptr);
  EXPECT_EQ(*p.get<std::string>(), "hello");
  const Payload& cp = p;
  EXPECT_EQ(cp.get<int32_t>(), nullptr);
  EXPECT_EQ(*cp.get<std::string>(), "hello");
}

TEST(PayloadTest, MessageCarriesPayloadThroughNetwork) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({1, 0});
  auto shared = std::make_shared<int>(42);
  int64_t got = 0;
  net.SetHandler(b, [&](const Message& m) {
    const auto* p = m.payload.get<std::shared_ptr<int>>();
    ASSERT_NE(p, nullptr);
    got = **p;
  });
  Message m;
  m.from = a;
  m.to = b;
  m.payload = shared;
  ASSERT_TRUE(net.Send(std::move(m)).ok());
  EXPECT_EQ(shared.use_count(), 2);  // one copy parked in flight
  sim.Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(shared.use_count(), 1);  // released after delivery
}

// --------------------------------------------------------- ReliableChannel

constexpr int kData = 11;
constexpr int kAck = 12;

Message DataMessage(common::SimNodeId from, common::SimNodeId to) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = kData;
  m.size_bytes = 100;
  return m;
}

/// Sends `msg` the way the reliable paths do: stamp, send, then track.
int64_t SendTracked(Network* net, ReliableChannel* channel, Message msg) {
  int64_t seq = channel->NextSeq();
  msg.payload = seq;
  EXPECT_TRUE(net->Send(msg).ok());
  channel->Track(seq, std::move(msg));
  return seq;
}

TEST(ReliableChannelTest, RetransmitsWithBackoffThenExhaustsOnce) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.001, 1e9});
  net.SetHandler(b, [](const Message&) {});  // never acks
  std::vector<double> retries;
  std::vector<double> exhausted;
  ReliableChannel::Hooks hooks;
  hooks.retry = [&] { retries.push_back(sim.now()); };
  hooks.exhausted = [&](const Message& m) {
    EXPECT_EQ(m.type, kData);
    exhausted.push_back(sim.now());
  };
  ReliableChannel channel(&net, kAck, /*retry_timeout_s=*/0.05,
                          std::move(hooks));
  sim.RunUntil(1.0);  // the send happens at t = 1
  SendTracked(&net, &channel, DataMessage(a, b));
  sim.Run();

  const std::vector<double> want = {1.05, 1.15, 1.35, 1.75};
  ASSERT_EQ(retries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(retries[i], want[i], 1e-9) << "retry " << i;
  }
  ASSERT_EQ(exhausted.size(), 1u);
  EXPECT_NEAR(exhausted[0], 2.55, 1e-9);
  EXPECT_EQ(channel.retries(), 4);
  EXPECT_EQ(channel.exhausted(), 1);
  EXPECT_EQ(channel.pending(), 0u);
  EXPECT_EQ(net.total_messages(), 5);  // one send + four retransmissions
}

TEST(ReliableChannelTest, AckCancelsRetryTimer) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  net.SetLink(a, b, LinkParams{0.001, 1e9});
  net.SetLink(b, a, LinkParams{0.001, 1e9});
  ReliableChannel channel(&net, kAck, /*retry_timeout_s=*/0.05);
  net.SetHandler(b, [&](const Message& m) {
    EXPECT_TRUE(channel.Receive(m, *m.payload.get<int64_t>()));
  });
  net.SetHandler(a, [&](const Message& m) {
    EXPECT_TRUE(channel.HandleAck(m));
  });
  SendTracked(&net, &channel, DataMessage(a, b));
  EXPECT_EQ(sim.pending_events(), 2u);  // the delivery and the retry timer
  EXPECT_EQ(channel.pending(), 1u);
  sim.RunUntil(0.01);  // data lands at 1 ms, its ack at 2 ms
  EXPECT_EQ(channel.pending(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);  // the timer left the heap
  EXPECT_EQ(channel.retries(), 0);
}

TEST(ReliableChannelTest, DuplicateIsAckedAgainButNotFirst) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  ReliableChannel channel(&net, kAck, /*retry_timeout_s=*/0.05);
  std::vector<int64_t> acked;
  net.SetHandler(a, [&](const Message& m) {
    EXPECT_EQ(m.type, kAck);
    EXPECT_EQ(m.size_bytes, ReliableChannel::kAckBytes);
    acked.push_back(m.payload.get<AckEnvelope>()->seq);
  });
  Message m = DataMessage(a, b);
  EXPECT_TRUE(channel.Receive(m, 7));
  EXPECT_FALSE(channel.Receive(m, 7));
  EXPECT_TRUE(channel.Receive(m, 8));
  sim.Run();
  EXPECT_EQ(acked, (std::vector<int64_t>{7, 7, 8}));
  EXPECT_EQ(channel.duplicates(), 1);
}

TEST(ReliableChannelTest, CancelIfErasesMatchesAndTheirTimers) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({0, 0});
  auto c = net.AddNode({0, 0});
  ReliableChannel channel(&net, kAck, /*retry_timeout_s=*/0.05);
  for (common::SimNodeId to : {b, c, b}) {
    Message m = DataMessage(a, to);
    channel.Track(channel.NextSeq(), std::move(m));  // timers only
  }
  EXPECT_EQ(sim.pending_events(), 3u);
  std::vector<common::SimNodeId> visited;
  int cancelled = channel.CancelIf([&](const Message& m) {
    visited.push_back(m.to);
    return m.to == b;
  });
  EXPECT_EQ(cancelled, 2);
  EXPECT_EQ(visited, (std::vector<common::SimNodeId>{b, c, b}));  // seq order
  EXPECT_EQ(channel.pending(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  net.SetHandler(c, [](const Message&) {});
  sim.Run();
  // Only the survivor ever retransmitted; the cancelled ones never fired.
  EXPECT_EQ(channel.retries(), 4);
  EXPECT_EQ(channel.exhausted(), 1);
}

TEST(ReliableChannelTest, LossFreeSendCostsOneMessageAndOneAck) {
  Simulator sim;
  Network net(&sim);
  auto a = net.AddNode({0, 0});
  auto b = net.AddNode({3, 4});
  ReliableChannel channel(&net, kAck, /*retry_timeout_s=*/0.05);
  int delivered = 0;
  net.SetHandler(b, [&](const Message& m) {
    if (channel.Receive(m, *m.payload.get<int64_t>())) ++delivered;
  });
  net.SetHandler(a, [&](const Message& m) { channel.HandleAck(m); });
  SendTracked(&net, &channel, DataMessage(a, b));
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.total_messages(), 2);
  EXPECT_EQ(net.total_bytes(), 100 + ReliableChannel::kAckBytes);
  EXPECT_EQ(channel.retries(), 0);
  EXPECT_EQ(channel.exhausted(), 0);
  EXPECT_EQ(channel.duplicates(), 0);
  EXPECT_EQ(channel.pending(), 0u);
}

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, BuildsRequestedShape) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(1);
  TopologyConfig cfg;
  cfg.num_entities = 5;
  cfg.processors_per_entity = 3;
  cfg.num_sources = 2;
  Topology topo = BuildTopology(&net, cfg, &rng);
  EXPECT_EQ(topo.entities.size(), 5u);
  EXPECT_EQ(topo.sources.size(), 2u);
  for (const auto& e : topo.entities) {
    EXPECT_EQ(e.processors.size(), 3u);
  }
  EXPECT_EQ(net.node_count(), 5u * 3u + 2u);
}

TEST(TopologyTest, FaultDomainsAssignedInContiguousBlocks) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(1);
  TopologyConfig cfg;
  cfg.num_entities = 8;
  cfg.num_fault_domains = 4;
  Topology topo = BuildTopology(&net, cfg, &rng);
  std::vector<int> domains;
  for (const auto& e : topo.entities) domains.push_back(e.fault_domain);
  EXPECT_EQ(domains, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(TopologyTest, ZeroFaultDomainsMeansEveryEntityIsItsOwn) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(1);
  TopologyConfig cfg;
  cfg.num_entities = 4;  // num_fault_domains left at the default 0
  Topology topo = BuildTopology(&net, cfg, &rng);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(topo.entities[e].fault_domain, e);
  }
  // More domains than entities clamps to one entity per domain.
  common::Rng rng2(1);
  cfg.num_fault_domains = 99;
  Topology topo2 = BuildTopology(&net, cfg, &rng2);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(topo2.entities[e].fault_domain, e);
  }
}

TEST(TopologyTest, FaultDomainAssignmentConsumesNoRng) {
  // The domain labels must not shift positions or node ids: a labeled
  // topology is bit-identical to an unlabeled one apart from the labels.
  auto build = [](int domains) {
    Simulator sim;
    Network net(&sim);
    common::Rng rng(42);
    TopologyConfig cfg;
    cfg.num_entities = 4;
    cfg.num_fault_domains = domains;
    Topology topo = BuildTopology(&net, cfg, &rng);
    std::vector<double> xs;
    for (const auto& e : topo.entities) {
      xs.push_back(e.center.x);
      for (auto p : e.processors) xs.push_back(net.position(p).x);
    }
    return xs;
  };
  EXPECT_EQ(build(0), build(2));
}

TEST(TopologyTest, ProcessorsNearTheirCenter) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(2);
  TopologyConfig cfg;
  cfg.num_entities = 4;
  cfg.processors_per_entity = 8;
  cfg.lan_radius = 1.0;
  Topology topo = BuildTopology(&net, cfg, &rng);
  for (const auto& e : topo.entities) {
    for (auto p : e.processors) {
      EXPECT_LE(Distance(net.position(p), e.center), cfg.lan_radius + 1e-9);
    }
  }
}

TEST(TopologyTest, IntraEntityLatencyMuchLowerThanWan) {
  Simulator sim;
  Network net(&sim);
  common::Rng rng(3);
  TopologyConfig cfg;
  cfg.num_entities = 2;
  cfg.processors_per_entity = 2;
  cfg.num_sources = 0;
  Topology topo = BuildTopology(&net, cfg, &rng);
  auto p0 = topo.entities[0].processors[0];
  auto p1 = topo.entities[0].processors[1];
  auto q0 = topo.entities[1].processors[0];
  double t_lan = -1, t_wan = -1;
  net.SetHandler(p1, [&](const Message&) { t_lan = sim.now(); });
  net.SetHandler(q0, [&](const Message&) { t_wan = sim.now(); });
  Message m;
  m.from = p0;
  m.to = p1;
  ASSERT_TRUE(net.Send(m).ok());
  m.to = q0;
  ASSERT_TRUE(net.Send(m).ok());
  sim.Run();
  ASSERT_GT(t_lan, 0);
  ASSERT_GT(t_wan, 0);
  EXPECT_LT(t_lan * 5, t_wan);  // LAN at least 5x faster here
}

TEST(TopologyTest, DeterministicForSeed) {
  for (int trial = 0; trial < 2; ++trial) {
    static std::vector<double> first_xs;
    Simulator sim;
    Network net(&sim);
    common::Rng rng(42);
    TopologyConfig cfg;
    cfg.num_entities = 3;
    Topology topo = BuildTopology(&net, cfg, &rng);
    std::vector<double> xs;
    for (const auto& e : topo.entities) xs.push_back(e.center.x);
    if (trial == 0) {
      first_xs = xs;
    } else {
      EXPECT_EQ(xs, first_xs);
    }
  }
}

}  // namespace
}  // namespace dsps::sim
