// Unit tests: discrete-event simulator, routing, buffering, adversary
// model enforcement, event ordering (the (time, klass, insertion) queue
// order against a reference model).
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <tuple>

#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

/// Minimal instance: records arrivals, can ping peers.
class Probe : public ProtocolInstance {
 public:
  Probe(Party& party, std::string key) : ProtocolInstance(party, std::move(key)) {}

  void on_message(const Message& msg) override {
    arrivals.push_back({msg.from, msg.type, now()});
  }

  void ping(PartyId to, int type) { send(to, type, Words{}); }
  void ping_all(int type) { send_all(type, Words{}); }
  void timer_at(Time t, std::function<void()> fn) { at(t, std::move(fn)); }

  struct Arrival {
    PartyId from;
    int type;
    Time when;
  };
  std::vector<Arrival> arrivals;
};

TEST(Sim, SynchronousDeliveryWithinDelta) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  std::vector<Probe*> probes;
  for (int i = 0; i < 4; ++i) probes.push_back(&sim->party(i).spawn<Probe>("probe"));
  probes[0]->ping_all(1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(probes[static_cast<std::size_t>(i)]->arrivals.size(), 1u);
    EXPECT_LE(probes[static_cast<std::size_t>(i)]->arrivals[0].when,
              sim->timing().delta);
  }
}

TEST(Sim, SynchronousFifoPerChannel) {
  auto sim = make_sim({.params = testing::p4_1_0(), .seed = 123});
  auto& p0 = sim->party(0).spawn<Probe>("probe");
  auto& p1 = sim->party(1).spawn<Probe>("probe");
  (void)p0;
  for (int k = 0; k < 50; ++k) {
    sim->party(0).spawn<Probe>("probe" + std::to_string(k)).ping(1, k);
    sim->party(1).spawn<Probe>("probe" + std::to_string(k));
  }
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  (void)p1;  // arrivals land on per-k probes; FIFO asserted below via times
  // Re-run with messages through a single instance to check ordering.
  auto sim2 = make_sim({.params = testing::p4_1_0(), .seed = 124});
  auto& a = sim2->party(0).spawn<Probe>("x");
  auto& b = sim2->party(1).spawn<Probe>("x");
  for (int k = 0; k < 50; ++k) a.ping(1, k);
  EXPECT_EQ(sim2->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 50u);
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(b.arrivals[static_cast<std::size_t>(k)].type, k);  // FIFO order
  }
}

TEST(Sim, MessagesBeforeTimersAtSameTick) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  bool timer_saw_message = false;
  // Adversary-free sync: delay <= delta. Set a timer at exactly delta.
  b.timer_at(sim->timing().delta,
             [&] { timer_saw_message = !b.arrivals.empty(); });
  a.ping(1, 7);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(timer_saw_message);
}

TEST(Sim, BuffersMessagesForUnregisteredInstances) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  auto& a = sim->party(0).spawn<Probe>("late");
  a.ping(1, 42);
  // Party 1 creates the instance only at time 100, long after arrival.
  Probe* late = nullptr;
  sim->schedule(100, [&] { late = &sim->party(1).spawn<Probe>("late"); });
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_NE(late, nullptr);
  ASSERT_EQ(late->arrivals.size(), 1u);
  EXPECT_EQ(late->arrivals[0].type, 42);
  EXPECT_GE(late->arrivals[0].when, 100);
}

TEST(Sim, HonestMessagesCannotBeDroppedByAdversary) {
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
  adv->silence(0);  // rule targets an HONEST party: must be ignored
  adv->silence(1);  // rule targets the corrupt party: applies
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  auto& c = sim->party(2).spawn<Probe>("x");
  a.ping(2, 1);  // honest -> delivered despite rule
  b.ping(2, 2);  // corrupt + silenced -> dropped
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(c.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals[0].type, 1);
}

TEST(Sim, SyncClampsHonestDelaysToDelta) {
  auto adv = std::make_shared<ScriptedAdversary>();
  adv->fixed_delay(10'000);  // way beyond delta; must be clamped for honest
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  a.ping(1, 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_LE(b.arrivals[0].when, sim->timing().delta);
}

TEST(Sim, AsyncAllowsArbitraryFiniteDelays) {
  auto adv = std::make_shared<ScriptedAdversary>();
  adv->fixed_delay(10'000);
  auto sim = make_sim(
      {.params = testing::p5_1_1(), .kind = NetworkKind::asynchronous}, adv);
  auto& a = sim->party(0).spawn<Probe>("x");
  auto& b = sim->party(1).spawn<Probe>("x");
  a.ping(1, 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when, 10'000);
}

TEST(Sim, CorruptionBudgetEnforced) {
  Simulation::Config cfg;
  cfg.params = testing::p4_1_0();  // ta = 0
  cfg.kind = NetworkKind::asynchronous;
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  EXPECT_THROW(Simulation(cfg, adv), InvariantError);  // 1 > ta = 0
}

TEST(Sim, InfeasibleParamsRejectedUnlessAllowed) {
  Simulation::Config cfg;
  cfg.params = {6, 2, 1};  // n = 2ts + 2ta: infeasible by Theorem 1.1
  EXPECT_THROW(Simulation(cfg, std::make_shared<Adversary>()), InvariantError);
  cfg.allow_infeasible = true;
  EXPECT_NO_THROW(Simulation(cfg, std::make_shared<Adversary>()));
}

TEST(Sim, DeterministicGivenSeed) {
  for (int rep = 0; rep < 2; ++rep) {
    auto sim = make_sim({.params = testing::p7_2_1(), .seed = 555});
    auto& a = sim->party(0).spawn<Probe>("x");
    auto& b = sim->party(3).spawn<Probe>("x");
    a.ping_all(9);
    EXPECT_EQ(sim->run(), RunStatus::quiescent);
    static Time first_time = -1;
    ASSERT_EQ(b.arrivals.size(), 1u);
    if (rep == 0) {
      first_time = b.arrivals[0].when;
    } else {
      EXPECT_EQ(b.arrivals[0].when, first_time);
    }
  }
}

TEST(Sim, AdversaryCannotSpoofEndpoints) {
  // Channels are authenticated (§3.1): a rewrite that changes the sender or
  // receiver must be rejected by the model-enforcement layer.
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
  adv->add_rule(
      [](const Message& m, Time) { return m.from == 1; },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.from = 0;  // try to impersonate party 0
        d.replacement = std::move(alt);
        return d;
      });
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(1).spawn<Probe>("x");
  sim->party(2).spawn<Probe>("x");
  EXPECT_THROW(a.ping(2, 1), InvariantError);
}

TEST(Sim, CorruptSenderMayExceedDeltaInSync) {
  // The synchronous bound applies to honest senders only; a corrupt party
  // may deliver arbitrarily late (it could equally not send at all).
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({1}));
  adv->add_rule([](const Message& m, Time) { return m.from == 1; },
                [](const Message&, Time, Rng&) {
                  SendDecision d;
                  d.delay = 9999;
                  return d;
                });
  auto sim = make_sim({.params = testing::p4_1_0()}, adv);
  auto& a = sim->party(1).spawn<Probe>("x");
  auto& b = sim->party(2).spawn<Probe>("x");
  a.ping(2, 1);
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when, 9999);
}

// --------------------------------------------------------- event queue --

/// One event a dispatched event schedules: `dt` ticks after now (0 = the
/// tick being drained), in `klass`; klass-0 events are message deliveries
/// or klass-0 timers.
struct QueueChild {
  Time dt;
  int klass;
  bool delivery;
};

/// Deterministic per-event fan-out, shared by the simulator run and the
/// reference model: events with id < cap schedule 0–2 children, a third of
/// them at the current tick (pushes into the bucket being drained, or into
/// a lower klass than the running handler's).
std::vector<QueueChild> queue_children(std::uint64_t seed, int id, int cap) {
  if (id >= cap) return {};
  std::mt19937_64 gen(seed * 7919 + static_cast<std::uint64_t>(id));
  std::vector<QueueChild> out(gen() % 3);
  for (QueueChild& c : out) {
    c.dt = gen() % 3 == 0 ? 0 : static_cast<Time>(1 + gen() % 4);
    c.klass = static_cast<int>(gen() % 4);
    c.delivery = c.klass == 0 && gen() % 2 == 0;
  }
  return out;
}

/// The initial events: random (time, klass) in a small window, plus a few
/// at and past kFarFuture.
std::vector<std::pair<Time, QueueChild>> queue_roots(std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<std::pair<Time, QueueChild>> roots;
  for (int i = 0; i < 40; ++i) {
    const int klass = static_cast<int>(gen() % 4);
    roots.push_back({static_cast<Time>(gen() % 12),
                     {0, klass, klass == 0 && gen() % 2 == 0}});
  }
  for (int i = 0; i < 3; ++i) {
    roots.push_back({kFarFuture + static_cast<Time>(gen() % 2),
                     {0, static_cast<int>(gen() % 4), false}});
  }
  return roots;
}

/// Reference dispatch order: a sort by (time, klass, insertion index) over
/// the events as they are scheduled. `horizon` stops it like run() does.
std::vector<int> reference_queue_order(std::uint64_t seed, int cap,
                                       Time horizon) {
  std::set<std::tuple<Time, int, int>> pending;
  int next_id = 0;
  for (const auto& [t, c] : queue_roots(seed)) {
    pending.emplace(t, c.klass, next_id++);
  }
  std::vector<int> order;
  while (!pending.empty()) {
    const auto [t, klass, id] = *pending.begin();
    if (t >= horizon) break;
    pending.erase(pending.begin());
    order.push_back(id);
    for (const QueueChild& c : queue_children(seed, id, cap)) {
      pending.emplace(t + c.dt, c.klass, next_id++);
    }
  }
  return order;
}

/// Drives the simulator through the same events; deliveries land on a
/// Relay instance, timers are plain closures.
class QueueHarness {
 public:
  class Relay : public ProtocolInstance {
   public:
    Relay(Party& party, std::string key, QueueHarness* harness)
        : ProtocolInstance(party, std::move(key)), harness_(harness) {}
    void on_message(const Message& msg) override { harness_->fire(msg.type); }

   private:
    QueueHarness* harness_;
  };

  QueueHarness(Simulation& sim, std::uint64_t seed, int cap)
      : sim_(sim),
        seed_(seed),
        cap_(cap),
        relay_(sim.party(0).spawn<Relay>("relay", this)) {
    for (const auto& [t, c] : queue_roots(seed)) push(t, c);
  }

  std::vector<int> order;

  void fire(int id) {
    order.push_back(id);
    for (const QueueChild& c : queue_children(seed_, id, cap_)) {
      push(sim_.now() + c.dt, c);
    }
  }

 private:
  void push(Time t, const QueueChild& c) {
    const int id = next_id_++;
    if (c.delivery) {
      Message m;
      m.from = 0;
      m.to = 0;
      m.type = id;
      m.instance_id = relay_.instance_id();
      m.instance_name = &sim_.instance_name(relay_.instance_id());
      sim_.schedule_delivery(t, std::move(m));
    } else {
      sim_.schedule(t, [this, id] { fire(id); }, c.klass);
    }
  }

  Simulation& sim_;
  std::uint64_t seed_;
  int cap_;
  Relay& relay_;
  int next_id_ = 0;
};

TEST(SimQueue, DispatchOrderIsTimeKlassInsertion) {
  constexpr int kCap = 400;
  constexpr Time kHorizon = 1000;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Simulation::Config cfg;
    cfg.params = testing::p4_1_0();
    cfg.seed = seed;
    cfg.horizon = kHorizon;
    Simulation sim(cfg, std::make_shared<Adversary>());
    QueueHarness harness(sim, seed, kCap);
    if (seed % 2 == 0) {
      // run(): stops before the kFarFuture events beyond the horizon and
      // leaves them pending.
      EXPECT_EQ(sim.run(), RunStatus::horizon);
      EXPECT_EQ(harness.order, reference_queue_order(seed, kCap, kHorizon));
      ASSERT_TRUE(sim.next_event_time().has_value());
      EXPECT_GE(*sim.next_event_time(), kHorizon);
      EXPECT_LT(sim.now(), kHorizon);
    } else {
      // run_one(): ignores the horizon and steps one event at a time, in
      // next_event_time() order, until the queue is empty.
      const std::vector<int> want = reference_queue_order(
          seed, kCap, std::numeric_limits<Time>::max());
      Time last = 0;
      while (const std::optional<Time> next = sim.next_event_time()) {
        EXPECT_GE(*next, last);
        ASSERT_TRUE(sim.run_one());
        EXPECT_EQ(sim.now(), *next);
        last = *next;
      }
      EXPECT_FALSE(sim.run_one());
      EXPECT_EQ(sim.last_status(), RunStatus::quiescent);
      EXPECT_EQ(harness.order, want);
      EXPECT_GE(sim.now(), kFarFuture);
    }
  }
}

TEST(SimQueue, RejectsKlassOutsideZeroToThree) {
  auto sim = make_sim({.params = testing::p4_1_0()});
  EXPECT_THROW(sim->schedule(0, [] {}, 4), InvariantError);
  EXPECT_THROW(sim->schedule(0, [] {}, -1), InvariantError);
  for (int klass = 0; klass <= 3; ++klass) {
    EXPECT_NO_THROW(sim->schedule(0, [] {}, klass));
  }
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_EQ(sim->metrics().events_processed, 4u);
}

TEST(PartySetUtil, SubsetIteration) {
  int count = 0;
  PartySet::for_each_subset(5, 2, [&](PartySet s) {
    EXPECT_EQ(s.size(), 2);
    ++count;
  });
  EXPECT_EQ(count, 10);
  // k = 0 yields exactly the empty set.
  count = 0;
  PartySet::for_each_subset(5, 0, [&](PartySet s) {
    EXPECT_TRUE(s.empty());
    ++count;
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace nampc
