// Tests for the online invariant monitors (obs/monitor.h).
//
// Two directions: (1) the full catalogue stays silent across honest
// executions of every protocol layer in both network models while actually
// exercising its checks (checks() > 0); (2) each monitor fires on an
// engineered execution that contradicts its theorem — scripted adversaries
// force Acast/BC equivocation and a WSS dealer committing to no single
// bivariate polynomial, the privacy monitor sees an over-ts reveal, and the
// agreement/ACS/MPC monitors are driven with synthetic events (their
// protocols' guarantees hold by construction under this simulator's
// network-boundary corruption model, so a live counterexample would be a
// protocol bug, not a monitor test).
#include <gtest/gtest.h>

#include "acs/acs.h"
#include "adversary/scripted.h"
#include "broadcast/acast.h"
#include "broadcast/ba.h"
#include "broadcast/bc.h"
#include "graph/graph.h"
#include "mpc/mpc.h"
#include "obs/monitor.h"
#include "sharing/encoding.h"
#include "sharing/vss.h"
#include "sharing/wss.h"
#include "sim_helpers.h"
#include "util/assert.h"

namespace nampc {
namespace {

using testing::make_monitored_sim;
using testing::MonitoredSim;
using testing::p4_1_0;
using testing::p5_1_1;
using testing::p7_2_1;
using testing::SimSpec;

Words words_of(std::initializer_list<std::uint64_t> xs) { return Words(xs); }

bool fired(const obs::MonitorEngine& eng, const std::string& monitor) {
  for (const obs::Violation& v : eng.violations()) {
    if (v.monitor == monitor) return true;
  }
  return false;
}

std::string describe(const obs::MonitorEngine& eng) {
  std::string out;
  for (const obs::Violation& v : eng.violations()) {
    out += "[" + v.monitor + "] " + v.kind + " '" + v.key + "': " + v.detail +
           "\n";
  }
  return out;
}

/// Asserts a finished monitored run saw events, ran `monitor`'s checks, and
/// recorded no violations.
void expect_silent(const MonitoredSim& ms, const std::string& monitor) {
  const obs::MonitorEngine& eng = *ms.monitors;
  EXPECT_TRUE(eng.ok()) << describe(eng);
  EXPECT_GT(eng.events_seen(), 0u);
  const auto checks = eng.checks_by_monitor();
  const auto it = checks.find(monitor);
  ASSERT_NE(it, checks.end());
  EXPECT_GT(it->second, 0u) << "monitor '" << monitor
                            << "' never exercised a check";
}

// ---------------------------------------------------------------------------
// Honest executions: every layer, both networks, monitors silent.

TEST(MonitorHonest, WssBothNetworks) {
  for (const NetworkKind kind :
       {NetworkKind::synchronous, NetworkKind::asynchronous}) {
    SimSpec spec;
    spec.params = p5_1_1();
    spec.kind = kind;
    spec.ideal = kind == NetworkKind::asynchronous;
    MonitoredSim ms = make_monitored_sim(spec);
    std::vector<Wss*> inst;
    WssOptions opts;
    opts.num_secrets = 1;
    for (int i = 0; i < ms->n(); ++i) {
      inst.push_back(&ms->party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
    }
    Rng rng(99);
    inst[0]->start({Polynomial::random_with_constant(
        Fp(42), ms->params().ts, rng)});
    ASSERT_EQ(ms->run(), RunStatus::quiescent);
    expect_silent(ms, "sharing");
    expect_silent(ms, "acast");
  }
}

TEST(MonitorHonest, VssSync) {
  SimSpec spec;
  spec.params = p7_2_1();
  MonitoredSim ms = make_monitored_sim(spec);
  std::vector<Vss*> inst;
  for (int i = 0; i < ms->n(); ++i) {
    inst.push_back(
        &ms->party(i).spawn<Vss>("vss", 0, 0, 1, PartySet::of({6}), nullptr));
  }
  Rng rng(7);
  inst[0]->start({Polynomial::random_with_constant(
      Fp(5), ms->params().ts, rng)});
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  expect_silent(ms, "sharing");
  expect_silent(ms, "bc");
}

TEST(MonitorHonest, BaBothNetworks) {
  for (const NetworkKind kind :
       {NetworkKind::synchronous, NetworkKind::asynchronous}) {
    SimSpec spec;
    spec.params = p4_1_0();
    spec.kind = kind;
    spec.ideal = kind == NetworkKind::asynchronous;
    MonitoredSim ms = make_monitored_sim(spec);
    std::vector<Ba*> inst;
    for (int i = 0; i < ms->n(); ++i) {
      inst.push_back(&ms->party(i).spawn<Ba>("ba", 0, nullptr));
    }
    for (int i = 0; i < ms->n(); ++i) inst[static_cast<std::size_t>(i)]->start(i % 2 == 0);
    ASSERT_EQ(ms->run(), RunStatus::quiescent);
    expect_silent(ms, "agreement");
  }
}

TEST(MonitorHonest, AcsSync) {
  SimSpec spec;
  spec.params = p4_1_0();
  MonitoredSim ms = make_monitored_sim(spec);
  std::vector<Acs*> inst;
  for (int i = 0; i < ms->n(); ++i) {
    inst.push_back(&ms->party(i).spawn<Acs>("acs", 0, nullptr));
  }
  for (Acs* acs : inst) {
    for (int j = 0; j < ms->n(); ++j) acs->mark(j);
  }
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  expect_silent(ms, "acs");
}

TEST(MonitorHonest, MpcSync) {
  SimSpec spec;
  spec.params = p4_1_0();
  spec.ideal = true;
  MonitoredSim ms = make_monitored_sim(spec);
  Circuit c;
  const int a = c.input(0);
  const int b = c.input(1);
  c.mark_output(c.mul(a, b));
  for (int i = 0; i < ms->n(); ++i) {
    ms->party(i).spawn<Mpc>("mpc", c,
                            FpVec{Fp(static_cast<std::uint64_t>(10 + i))},
                            nullptr);
  }
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  expect_silent(ms, "mpc");
}

// ---------------------------------------------------------------------------
// Engineered violations: a corrupt Acast sender equivocating per destination.
// Infeasible point {4,2,1} (2ts + ta >= n) so the corrupt pair alone meets
// the echo/ready quorums of n - ts = 2 at each destination.

TEST(MonitorViolation, AcastEquivocationFlagged) {
  SimSpec spec;
  spec.params = {4, 2, 1};
  spec.allow_infeasible = true;
  const PartySet corrupt = PartySet::of({2, 3});
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  // Every corrupt message into the honest pair carries a per-destination
  // value: P0 only ever hears {1000}, P1 only {1001}, for INIT, ECHO and
  // READY alike — both quorums fill with conflicting values.
  adv->add_rule(
      [](const Message& m, Time) {
        return (m.from == 2 || m.from == 3) && m.to < 2 &&
               m.instance() == "acast";
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message repl = m;
        repl.payload = {1000 + static_cast<std::uint64_t>(m.to)};
        d.replacement = std::move(repl);
        return d;
      });
  MonitoredSim ms = make_monitored_sim(spec, adv);
  std::vector<Acast*> inst;
  for (int i = 0; i < ms->n(); ++i) {
    inst.push_back(&ms->party(i).spawn<Acast>("acast", 3, nullptr));
  }
  inst[3]->start(words_of({7}));
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  EXPECT_FALSE(ms.monitors->ok());
  EXPECT_TRUE(fired(*ms.monitors, "acast")) << describe(*ms.monitors);
}

// Same equivocation aimed at Π_BC's embedded acast in an asynchronous run:
// both honest parties fall back to their (differing) acast outputs, breaking
// BC consistency — two distinct non-⊥ deliveries.

TEST(MonitorViolation, BcEquivocationFlagged) {
  SimSpec spec;
  spec.params = {4, 2, 2};
  spec.kind = NetworkKind::asynchronous;
  spec.allow_infeasible = true;
  const PartySet corrupt = PartySet::of({2, 3});
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->add_rule(
      [](const Message& m, Time) {
        return (m.from == 2 || m.from == 3) && m.to < 2 &&
               m.instance() == "bc/acast";
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message repl = m;
        repl.payload = {1000 + static_cast<std::uint64_t>(m.to)};
        d.replacement = std::move(repl);
        return d;
      });
  MonitoredSim ms = make_monitored_sim(spec, adv);
  std::vector<Bc*> inst;
  for (int i = 0; i < ms->n(); ++i) {
    inst.push_back(&ms->party(i).spawn<Bc>("bc", 3, 0, nullptr));
  }
  inst[3]->start(words_of({7}));
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  EXPECT_FALSE(ms.monitors->ok());
  EXPECT_TRUE(fired(*ms.monitors, "bc")) << describe(*ms.monitors);
}

// A corrupt WSS dealer committing to no single bivariate polynomial. The
// dealer hands P0 a perturbed row f_0 + δ where δ = (x - α_2)(x - α_3)
// vanishes at the corrupt parties' evaluation points: P0 stays pairwise
// consistent with {2, 3} (so AOK edges 0-2, 0-3 form) but not with P1.
// The dealer then stalls the synchronous path (its pub/step-5/step-8
// broadcasts never arrive) and equivocates on the asynchronous-exit
// acast: P0 is told the qualified set is {0,2,3}, P1 is told {1,2,3} —
// each a clique in that party's local AOK graph with U = ∅ (forced by
// ts - ta = 0) — so both accept and output rows of different bivariate
// polynomials. Theorem 6.3's weak commitment breaks, pairwise-checked by
// the sharing monitor.

TEST(MonitorViolation, WssEquivocatingDealerFlagged) {
  SimSpec spec;
  spec.params = {4, 2, 2};
  spec.kind = NetworkKind::asynchronous;
  spec.ideal = true;
  spec.allow_infeasible = true;
  const PartySet corrupt = PartySet::of({2, 3});
  auto adv = std::make_shared<ScriptedAdversary>(corrupt);
  adv->silence_on(3, "/pub");
  adv->silence_on(3, "/d5");
  adv->silence_on(3, "/d8");
  // δ(x) = (x - 3)(x - 4) = x^2 - 7x + 12; α_2 = 3, α_3 = 4.
  adv->add_rule(
      [](const Message& m, Time) {
        return m.from == 3 && m.to == 0 && m.instance() == "wss" &&
               m.type == 1;  // Wss row-distribution message
      },
      [](const Message& m, Time, Rng&) {
        Reader r(m.payload);
        std::vector<Polynomial> rows = decode_polys(r, 4, 8);
        const Polynomial delta(FpVec{Fp(12), Fp(0) - Fp(7), Fp(1)});
        rows[0] = rows[0] + delta;
        Writer w;
        encode_polys(w, rows);
        SendDecision d;
        Message repl = m;
        repl.payload = std::move(w).take();
        d.replacement = std::move(repl);
        return d;
      });
  adv->add_rule(
      [](const Message& m, Time) {
        return (m.from == 2 || m.from == 3) && m.to < 2 &&
               m.instance().find("asyncq") != std::string::npos;
      },
      [](const Message& m, Time, Rng&) {
        Graph g(4);  // AOK graph as the honest parties will see it: K4 - (0,1)
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        Writer w;
        g.encode(w);
        w.u64(m.to == 0 ? PartySet::of({0, 2, 3}).mask()
                        : PartySet::of({1, 2, 3}).mask());
        w.u64(0);  // U = ∅: no published rows accompany the candidate
        SendDecision d;
        Message repl = m;
        repl.payload = std::move(w).take();
        d.replacement = std::move(repl);
        return d;
      });
  MonitoredSim ms = make_monitored_sim(spec, adv);
  std::vector<Wss*> inst;
  WssOptions opts;
  opts.num_secrets = 1;
  for (int i = 0; i < ms->n(); ++i) {
    inst.push_back(&ms->party(i).spawn<Wss>("wss", 3, 0, opts, nullptr));
  }
  Rng rng(13);
  inst[3]->start({Polynomial::random_with_constant(
      Fp(77), ms->params().ts, rng)});
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  // The attack only demonstrates anything if both honest parties accepted.
  ASSERT_EQ(inst[0]->outcome(), WssOutcome::rows);
  ASSERT_EQ(inst[1]->outcome(), WssOutcome::rows);
  EXPECT_FALSE(ms.monitors->ok());
  EXPECT_TRUE(fired(*ms.monitors, "sharing")) << describe(*ms.monitors);
}

// Privacy: an over-ts reveal recorded in the ledger surfaces as a reported
// violation (with the revealed-party set) instead of only the quiescence
// assert. privacy_audit stays on in the companion test to show the assert
// still fires after the monitor has recorded the violation.

TEST(MonitorViolation, PrivacyRevealBeyondTsFlagged) {
  SimSpec spec;
  spec.params = p4_1_0();  // ts = 1
  spec.privacy_audit = false;
  MonitoredSim ms = make_monitored_sim(spec);
  ms->note_honest_reveal("wss", 3, 0);
  ms->note_honest_reveal("wss", 3, 1);
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  EXPECT_FALSE(ms.monitors->ok());
  ASSERT_TRUE(fired(*ms.monitors, "privacy")) << describe(*ms.monitors);
  for (const obs::Violation& v : ms.monitors->violations()) {
    if (v.monitor != "privacy") continue;
    EXPECT_EQ(v.key, "wss");
    EXPECT_EQ(v.parties, PartySet::of({0, 1}));
  }
}

// Party ids past one machine word (n goes up to 128) are named in full.
TEST(MonitorViolation, PrivacyRevealNamesPartiesBeyond64) {
  SimSpec spec;
  spec.params = {70, 2, 0};  // ts = 2
  spec.privacy_audit = false;
  MonitoredSim ms = make_monitored_sim(spec);
  for (const int member : {5, 65, 66}) {
    ms->note_honest_reveal("wss", 3, member);
  }
  ASSERT_EQ(ms->run(), RunStatus::quiescent);
  ASSERT_TRUE(fired(*ms.monitors, "privacy")) << describe(*ms.monitors);
  for (const obs::Violation& v : ms.monitors->violations()) {
    if (v.monitor != "privacy") continue;
    EXPECT_EQ(v.key, "wss");
    EXPECT_EQ(v.parties, PartySet::of({5, 65, 66}));
  }
}

TEST(MonitorViolation, PrivacyAuditAbortsAfterRecording) {
  SimSpec spec;
  spec.params = p4_1_0();
  MonitoredSim ms = make_monitored_sim(spec);
  ms->note_honest_reveal("wss", 3, 0);
  ms->note_honest_reveal("wss", 3, 1);
  EXPECT_THROW(ms->run(), InvariantError);
  // Monitors run before the audit assert, so the violation is on record.
  EXPECT_TRUE(fired(*ms.monitors, "privacy"));
}

// ---------------------------------------------------------------------------
// Synthetic events: agreement, ACS and MPC guarantees hold by construction
// under the simulator's corruption model, so their violation paths are
// driven directly through the engine.

obs::ProtocolEvent ev(bool input, const char* kind, const char* key,
                      int party, Words value, Time t = 1) {
  obs::ProtocolEvent e;
  e.input = input;
  e.kind = kind;
  e.key = key;
  e.party = party;
  e.honest = true;
  e.time = t;
  e.value = std::move(value);
  return e;
}

TEST(MonitorSynthetic, AgreementSplitDecision) {
  obs::MonitorEngine eng;
  obs::install_standard_monitors(eng);
  eng.set_context(p4_1_0(), NetworkKind::synchronous, PartySet{});
  eng.on_event(ev(false, "ba", "b", 0, words_of({1})));
  eng.on_event(ev(false, "ba", "b", 1, words_of({0})));
  EXPECT_TRUE(fired(eng, "agreement")) << describe(eng);
}

TEST(MonitorSynthetic, AgreementTerminationAndValidity) {
  SimSpec spec;
  spec.params = p4_1_0();
  // Termination: all four joined, only three decided by quiescence.
  {
    MonitoredSim ms = make_monitored_sim(spec);
    obs::MonitorEngine& eng = *ms.monitors;
    for (int p = 0; p < 4; ++p) eng.on_event(ev(true, "ba", "b", p, words_of({1})));
    for (int p = 0; p < 3; ++p) eng.on_event(ev(false, "ba", "b", p, words_of({1})));
    ASSERT_EQ(ms->run(), RunStatus::quiescent);
    EXPECT_TRUE(fired(eng, "agreement")) << describe(eng);
  }
  // Validity: unanimous input 1, unanimous decision 0.
  {
    MonitoredSim ms = make_monitored_sim(spec);
    obs::MonitorEngine& eng = *ms.monitors;
    for (int p = 0; p < 4; ++p) eng.on_event(ev(true, "ba", "b", p, words_of({1})));
    for (int p = 0; p < 4; ++p) eng.on_event(ev(false, "ba", "b", p, words_of({0})));
    ASSERT_EQ(ms->run(), RunStatus::quiescent);
    EXPECT_TRUE(fired(eng, "agreement")) << describe(eng);
  }
}

TEST(MonitorSynthetic, AcsDisagreementAndQuorum) {
  obs::MonitorEngine eng;
  obs::install_standard_monitors(eng);
  eng.set_context(p7_2_1(), NetworkKind::synchronous, PartySet{});
  const auto acs_out = [](PartySet com, std::uint64_t quorum) {
    Writer w;
    w.u64(com.mask()).u64(quorum);
    return std::move(w).take();
  };
  eng.on_event(
      ev(false, "acs", "a", 0, acs_out(PartySet::of({0, 1, 2, 3, 4}), 5)));
  eng.on_event(
      ev(false, "acs", "a", 1, acs_out(PartySet::of({0, 1, 2, 3, 5}), 5)));
  EXPECT_TRUE(fired(eng, "acs")) << describe(eng);

  obs::MonitorEngine eng2;
  obs::install_standard_monitors(eng2);
  eng2.set_context(p7_2_1(), NetworkKind::synchronous, PartySet{});
  eng2.on_event(ev(false, "acs", "a", 0, acs_out(PartySet::of({0, 1}), 5)));
  EXPECT_TRUE(fired(eng2, "acs")) << describe(eng2);
}

TEST(MonitorSynthetic, MpcOutputMismatch) {
  obs::MonitorEngine eng;
  obs::install_standard_monitors(eng);
  eng.set_context(p4_1_0(), NetworkKind::synchronous, PartySet{});
  const auto mpc_out = [](std::uint64_t value) {
    Writer w;
    w.u64(1).boolean(true).u64(value);
    return std::move(w).take();
  };
  eng.on_event(ev(false, "mpc", "m", 0, mpc_out(42)));
  eng.on_event(ev(false, "mpc", "m", 1, mpc_out(43)));
  EXPECT_TRUE(fired(eng, "mpc")) << describe(eng);
}

TEST(MonitorSynthetic, BcSyncValidity) {
  obs::MonitorEngine eng;
  obs::install_standard_monitors(eng);
  eng.set_context(p4_1_0(), NetworkKind::synchronous, PartySet{});
  eng.on_event(ev(true, "bc", "bc", 3, words_of({9})));
  Writer w;
  w.u64(0).boolean(false).vec(Words{});  // regular-phase ⊥
  eng.on_event(ev(false, "bc", "bc", 0, std::move(w).take()));
  EXPECT_TRUE(fired(eng, "bc")) << describe(eng);
}

}  // namespace
}  // namespace nampc
