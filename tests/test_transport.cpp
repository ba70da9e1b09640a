// Transport seam, threaded backend, and the record/replay bridge.
//
// Covers: the DES default at the seam (and that the refactor kept the DES
// deterministic — identical run-report bytes across identical runs), the
// "nampc-schedule/1" JSON round trip, threaded end-to-end WSS and MPC with
// online monitors (8 parties, the ISSUE acceptance shape), the determinism
// envelope (10 threaded runs with the same inputs produce monitor-clean,
// output-identical results even though interleavings differ), and the
// replay gate: a schedule recorded from a real threaded run, re-imported
// into the DES via ReplayAdversary, replays byte-identically twice. Also
// the shared message body (Payload): copies share one buffer, rewrites
// detach, and one send_all buffer is read and released on several party
// threads.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "adversary/replay.h"
#include "field/fp.h"
#include "mpc/mpc.h"
#include "net/schedule.h"
#include "net/threaded.h"
#include "net/transport.h"
#include "obs/report.h"
#include "sharing/wss.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::Fanout;
using testing::make_sim;
using testing::SimSpec;
using testing::spawn_fanouts;

/// The dealer's row-0 polynomial for the WSS runs below: every backend and
/// every replay must share one input to compare outputs.
std::vector<Polynomial> fixed_row0s(int ts) {
  Rng rng(0xfeedu);
  return {Polynomial::random_with_constant(Fp(4242), ts, rng)};
}

/// Spawn callback: WSS with dealer 0 on every party, goal = has_output.
ThreadedSpawn wss_spawn(std::vector<Wss*>& instances) {
  return [&instances](Simulation& sim, PartyId id) {
    WssOptions opts;
    opts.num_secrets = 1;
    Wss& w = sim.party(id).spawn<Wss>("wss", 0, 0, opts, nullptr);
    instances[static_cast<std::size_t>(id)] = &w;
    if (id == 0) w.start(fixed_row0s(sim.params().ts));
    return [&w] { return w.has_output(); };
  };
}

/// Canonical encoding of one party's WSS output for cross-run comparison.
std::vector<std::uint64_t> wss_output_words(const Wss& w) {
  std::vector<std::uint64_t> out;
  out.push_back(static_cast<std::uint64_t>(w.outcome()));
  if (w.outcome() == WssOutcome::rows) {
    for (const Polynomial& p : w.rows()) {
      for (const Fp& c : p.coeffs()) out.push_back(c.value());
    }
  }
  return out;
}

TEST(Payload, EmptyAllocatesNothing) {
  Words reserved;
  reserved.reserve(8);
  const Payload none;
  const Payload from_empty(std::move(reserved));
  const Payload copy = none;
  for (const Payload* p : {&none, &from_empty, &copy}) {
    EXPECT_TRUE(p->empty());
    EXPECT_EQ(p->size(), 0u);
    EXPECT_FALSE(p->shares_buffer_with(*p)) << "an empty payload holds none";
    EXPECT_EQ(*p, Words{});
  }
}

TEST(Payload, CopiesShareOneBuffer) {
  Payload a(Words{1, 2, 3});
  const Payload b = a;
  Payload c;
  c = b;
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_TRUE(c.shares_buffer_with(a));
  EXPECT_EQ(&a.words(), &c.words());
  EXPECT_EQ(c, (Words{1, 2, 3}));
  const Payload moved = std::move(a);
  EXPECT_TRUE(moved.shares_buffer_with(b));
  EXPECT_TRUE(a.empty());  // a moved-from payload is empty
}

TEST(Payload, MutateOnSharedBufferDetaches) {
  const Payload a(Words{1, 2, 3});
  Payload b = a;
  b.mutate()[0] = 9;
  EXPECT_EQ(a, (Words{1, 2, 3}));
  EXPECT_EQ(b, (Words{9, 2, 3}));
  EXPECT_FALSE(a.shares_buffer_with(b));
  // b is now the sole holder of its buffer: writes stay in place.
  const Word* own = b.words().data();
  b.mutate()[1] = 7;
  EXPECT_EQ(b.words().data(), own);
  EXPECT_EQ(b, (Words{9, 7, 3}));
  // Mutating an empty payload gives it a private buffer.
  Payload e;
  e.mutate().push_back(4);
  EXPECT_EQ(e, (Words{4}));
}

/// A corrupt sender's rewrite of one recipient's copy of a send_all must
/// not reach any other recipient, the sender's own self-delivery included.
TEST(Payload, GarbleReachesOnlyTheTargetedRecipient) {
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({2}));
  adv->add_rule(
      [](const Message& m, Time) { return m.from == 2 && m.to == 0; },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message garbled = m;
        for (Word& w : garbled.payload.mutate()) w = (Fp(w) + Fp(1)).value();
        d.replacement = std::move(garbled);
        return d;
      });
  SimSpec spec;
  auto sim = make_sim(spec, adv);
  const std::vector<Fanout*> f = spawn_fanouts(*sim);
  const Words body{10, 20, 30};
  f[2]->broadcast(body);
  (void)sim->run();
  ASSERT_EQ(f[0]->received.size(), 1u);
  EXPECT_EQ(f[0]->received[0], (Words{11, 21, 31}));
  for (int i = 1; i < sim->n(); ++i) {
    const Fanout& p = *f[static_cast<std::size_t>(i)];
    ASSERT_EQ(p.received.size(), 1u) << "party " << i;
    EXPECT_EQ(p.received[0], body) << "party " << i;
    EXPECT_TRUE(p.received[0].shares_buffer_with(f[2]->received[0]));
    EXPECT_FALSE(p.received[0].shares_buffer_with(f[0]->received[0]));
  }
}

/// Threaded probe: party 0 broadcasts one body and keeps its own copy, so
/// the buffer outlives every recipient. The others check the words and note
/// the buffer's address on their own threads, then drop their handles
/// there.
class SharedBodyProbe final : public ProtocolInstance {
 public:
  static inline const Words kBody{5, 6, 7, 8};
  SharedBodyProbe(Party& party, std::string key)
      : ProtocolInstance(party, std::move(key)) {}
  void start() { send_all(1, kBody); }
  void on_message(const Message& msg) override {
    if (msg.from != 0 || msg.payload != kBody) return;
    buffer = msg.payload.words().data();
    if (my_id() == 0) kept = msg.payload;
  }
  const Word* buffer = nullptr;
  Payload kept;
};

TEST(Threaded, SendAllBufferSharedAcrossPartyThreads) {
  ThreadedConfig cfg;
  cfg.params = {4, 1, 0};
  std::vector<SharedBodyProbe*> probes(4, nullptr);
  const ThreadedResult result = run_threaded(
      cfg, [&probes](Simulation& sim, PartyId id) -> std::function<bool()> {
        auto& p = sim.party(id).spawn<SharedBodyProbe>("probe");
        probes[static_cast<std::size_t>(id)] = &p;
        if (id == 0) p.start();
        return [&p] { return p.buffer != nullptr; };
      });
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.wire_messages, 3u);
  const SharedBodyProbe& sender = *probes[0];
  ASSERT_EQ(sender.kept, SharedBodyProbe::kBody);
  for (const SharedBodyProbe* p : probes) {
    EXPECT_EQ(p->buffer, sender.kept.words().data());
  }
}

TEST(TransportSeam, DesIsTheDefaultBackend) {
  SimSpec spec;
  auto sim = make_sim(spec);
  EXPECT_STREQ(sim->transport().name(), "des");
  DesTransport other(spec.params.n);
  sim->set_transport(&other);
  EXPECT_EQ(&sim->transport(), &other);
  sim->set_transport(nullptr);  // restores the built-in DES transport
  EXPECT_STREQ(sim->transport().name(), "des");
}

/// The seam refactor must not change what the DES computes: two identical
/// runs produce byte-identical run reports (the property the whole replay
/// machinery rests on).
TEST(TransportSeam, DesRunReportDeterministic) {
  auto report = [] {
    SimSpec spec;
    spec.params = testing::p7_2_1();
    spec.kind = NetworkKind::asynchronous;
    auto sim = make_sim(spec);
    std::vector<Wss*> inst;
    WssOptions opts;
    opts.num_secrets = 1;
    for (int i = 0; i < sim->n(); ++i) {
      inst.push_back(&sim->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
    }
    inst[0]->start(fixed_row0s(sim->params().ts));
    const RunStatus status = sim->run();
    std::ostringstream os;
    obs::write_run_report(os, *sim, status, nullptr);
    return os.str();
  };
  const std::string first = report();
  const std::string second = report();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ScheduleJson, RoundTrip) {
  RecordedSchedule s;
  s.params = {8, 2, 1};
  s.kind = NetworkKind::asynchronous;
  s.seed = 99;
  s.tick_us = 150;
  s.backend = "threaded";
  s.records.push_back({1, 0, "wss", 0, 10, 14});
  s.records.push_back({0, 1, "wss", 1, 12, 13});
  s.records.push_back({0, 1, "wss", 0, 3, 9});
  s.sort();
  ASSERT_EQ(s.records.front().seq, 0u);
  ASSERT_EQ(s.records.front().from, 0);

  std::ostringstream os;
  write_schedule(os, s);
  RecordedSchedule back;
  std::string error;
  ASSERT_TRUE(read_schedule(os.str(), back, error)) << error;
  EXPECT_EQ(back.params.n, 8);
  EXPECT_EQ(back.params.ts, 2);
  EXPECT_EQ(back.params.ta, 1);
  EXPECT_EQ(back.kind, NetworkKind::asynchronous);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.tick_us, 150);
  EXPECT_EQ(back.backend, "threaded");
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[0].key, "wss");
  EXPECT_EQ(back.records[2].from, 1);
  EXPECT_EQ(back.records[2].arrival_tick, 14);

  // Serialising the parsed value reproduces the original bytes.
  std::ostringstream os2;
  write_schedule(os2, back);
  EXPECT_EQ(os.str(), os2.str());

  RecordedSchedule bad;
  EXPECT_FALSE(read_schedule("{\"schema\":\"nampc-run-report/3\"}", bad, error));
  EXPECT_FALSE(read_schedule("not json", bad, error));
}

TEST(Threaded, EightPartyWssMonitorClean) {
  ThreadedConfig cfg;
  cfg.params = {8, 2, 1};
  cfg.seed = 21;
  cfg.tick_us = 100;
  // Watchdog budgets in this file are deadlock detectors, not perf gates:
  // they must hold even when ctest -j packs several heavy tests onto an
  // oversubscribed box, so they are sized an order of magnitude above the
  // unloaded wall time (table_transport.cpp measures the real numbers).
  cfg.timeout_s = 600.0;
  std::vector<Wss*> instances(8, nullptr);
  const ThreadedResult result = run_threaded(cfg, wss_spawn(instances));
  ASSERT_TRUE(result.completed) << "watchdog fired after " << result.wall_ms
                                << " ms";
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front().monitor << ": "
      << result.violations.front().detail;
  EXPECT_GT(result.monitor_events, 0u);
  EXPECT_GT(result.wire_messages, 0u);
  const std::vector<Polynomial> row0s = fixed_row0s(cfg.params.ts);
  for (int i = 0; i < cfg.params.n; ++i) {
    ASSERT_NE(instances[static_cast<std::size_t>(i)], nullptr);
    const Wss& w = *instances[static_cast<std::size_t>(i)];
    ASSERT_EQ(w.outcome(), WssOutcome::rows) << "party " << i;
    EXPECT_EQ(w.share(0), row0s[0].eval(eval_point(i))) << "party " << i;
  }
}

/// Satellite: the determinism envelope. Honest protocol outputs are
/// schedule-independent, so ten threaded runs (ten different real
/// interleavings) must agree output-for-output and stay monitor-clean.
TEST(Threaded, DeterminismEnvelopeTenRuns) {
  constexpr int kRuns = 10;
  std::vector<std::vector<std::uint64_t>> baseline;
  for (int run = 0; run < kRuns; ++run) {
    ThreadedConfig cfg;
    cfg.params = {4, 1, 0};
    cfg.seed = 5;
    cfg.tick_us = 50;
    cfg.timeout_s = 300.0;
    std::vector<Wss*> instances(4, nullptr);
    const ThreadedResult result = run_threaded(cfg, wss_spawn(instances));
    ASSERT_TRUE(result.completed) << "run " << run;
    ASSERT_TRUE(result.violations.empty())
        << "run " << run << ": " << result.violations.front().detail;
    std::vector<std::vector<std::uint64_t>> outputs;
    for (const Wss* w : instances) {
      ASSERT_NE(w, nullptr);
      outputs.push_back(wss_output_words(*w));
    }
    if (run == 0) {
      baseline = std::move(outputs);
      continue;
    }
    EXPECT_EQ(outputs, baseline) << "outputs diverged on run " << run;
  }
}

/// Acceptance shape: an 8-party end-to-end MPC over real threads,
/// monitor-clean, all honest parties agreeing on the output.
TEST(Threaded, EightPartyMpcMonitorClean) {
  const int n = 8;
  const Circuit circuit = [n] {
    Circuit c;
    std::vector<int> in;
    for (int i = 0; i < n; ++i) in.push_back(c.input(i));
    const int s = c.add(in[0], in[1]);
    const int m = c.mul(s, in[2]);
    c.mark_output(m);
    return c;
  }();
  ThreadedConfig cfg;
  cfg.params = {n, 2, 1};
  cfg.seed = 3;
  cfg.tick_us = 50;
  cfg.timeout_s = 1200.0;
  std::vector<Mpc*> instances(static_cast<std::size_t>(n), nullptr);
  const ThreadedResult result = run_threaded(
      cfg, [&](Simulation& sim, PartyId id) -> std::function<bool()> {
        const FpVec inputs = {Fp(static_cast<std::uint64_t>(10 + id))};
        Mpc& m = sim.party(id).spawn<Mpc>("mpc", circuit, inputs, nullptr);
        instances[static_cast<std::size_t>(id)] = &m;
        return [&m] { return m.has_output(); };
      });
  ASSERT_TRUE(result.completed) << "watchdog fired after " << result.wall_ms
                                << " ms";
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front().monitor << ": "
      << result.violations.front().detail;
  ASSERT_NE(instances[0], nullptr);
  const FpVec& first = instances[0]->output();
  for (int i = 1; i < n; ++i) {
    ASSERT_NE(instances[static_cast<std::size_t>(i)], nullptr);
    EXPECT_EQ(instances[static_cast<std::size_t>(i)]->output(), first)
        << "party " << i << " disagrees";
  }
}

/// Satellite + acceptance: a recorded threaded schedule re-imported into
/// the DES replays byte-identically — two replays of the same schedule
/// produce the same run-report bytes, and most deliveries match a recorded
/// delay rather than falling back to the model distribution.
TEST(RecordReplay, DesReplayByteIdenticalTwice) {
  ThreadedConfig cfg;
  cfg.params = {8, 2, 1};
  cfg.seed = 13;
  cfg.tick_us = 100;
  cfg.timeout_s = 600.0;
  cfg.record_schedule = true;
  std::vector<Wss*> instances(8, nullptr);
  const ThreadedResult real = run_threaded(cfg, wss_spawn(instances));
  ASSERT_TRUE(real.completed);
  ASSERT_FALSE(real.schedule.records.empty());

  // Export → import: the replay consumes exactly what the JSON carries.
  std::ostringstream os;
  write_schedule(os, real.schedule);
  RecordedSchedule imported;
  std::string error;
  ASSERT_TRUE(read_schedule(os.str(), imported, error)) << error;

  auto replay_report = [&imported](std::uint64_t* matched,
                                   std::uint64_t* missed) {
    SimSpec spec;
    spec.params = imported.params;
    spec.kind = imported.kind;
    spec.seed = imported.seed;
    auto adversary = std::make_shared<ReplayAdversary>(imported);
    auto sim = make_sim(spec, adversary);
    std::vector<Wss*> inst;
    WssOptions opts;
    opts.num_secrets = 1;
    for (int i = 0; i < sim->n(); ++i) {
      inst.push_back(&sim->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
    }
    inst[0]->start(fixed_row0s(sim->params().ts));
    const RunStatus status = sim->run();
    EXPECT_EQ(status, RunStatus::quiescent);
    for (int i = 0; i < sim->n(); ++i) {
      EXPECT_EQ(inst[static_cast<std::size_t>(i)]->outcome(),
                WssOutcome::rows);
    }
    if (matched != nullptr) *matched = adversary->matched();
    if (missed != nullptr) *missed = adversary->missed();
    std::ostringstream report;
    obs::write_run_report(report, *sim, status, nullptr);
    return report.str();
  };

  std::uint64_t matched = 0;
  std::uint64_t missed = 0;
  const std::string first = replay_report(&matched, &missed);
  const std::string second = replay_report(nullptr, nullptr);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "replay is not deterministic";
  EXPECT_GT(matched, 0u);
  // The replayed execution's send pattern tracks the recorded one closely
  // for an honest run; misses only come from divergence tails.
  EXPECT_GT(matched, missed);
}

}  // namespace
}  // namespace nampc
