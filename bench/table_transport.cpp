// Experiment T1 — transport backends (BENCH_transport): the threaded
// real-concurrency backend (net/threaded.h; one OS thread per party,
// mutex+condvar mailboxes) against the DES virtual-time baseline on the
// same protocols, same parameter ladder, same fixed inputs. Sections:
//
//   WSS e2e  n in {4, 8, 16, 32}
//   VSS e2e  n in {4, 8, 16}
//   MPC e2e  n in {4, 5}     (full primitives; larger full-stack MPC is
//                             minutes per run — see table_mpc_e2e.cpp, which
//                             switches n=7 to ideal BA/SBA for the same
//                             reason. Ideal primitives share state across
//                             parties and are DES-only.)
//   record/replay bridge     one recorded 8-party threaded WSS schedule,
//                            replayed twice on the DES via ReplayAdversary;
//                            the gate is byte-identical run reports.
//
// Wall-clock cells are intentionally present (this file IS the backend
// comparison); the bench-smoke shape gate ignores cell values. "latest t"
// is virtual for the DES and wall-tick-derived for the threaded backend —
// comparable only within a backend. "messages" counts every send for the
// DES but cross-party wires only for the threaded backend (self-deliveries
// never reach the Transport seam). Cells run serially, never through the
// sweep engine: the threaded backend owns all the cores it can get, and
// concurrent cells would distort exactly the wall numbers this table is for.
//
// transport_smoke: threaded 8-party WSS e2e (monitor-clean, correct
// shares) plus the record/replay round-trip gate; exits nonzero on any
// failure — the CI transport-smoke job.
#include <chrono>
#include <iostream>
#include <sstream>

#include "adversary/replay.h"
#include "bench_util.h"
#include "mpc/mpc.h"
#include "net/schedule.h"
#include "net/threaded.h"
#include "obs/report.h"
#include "sharing/vss.h"
#include "sharing/wss.h"

using namespace nampc;

namespace {

using bench::fixed2;
using bench::ms_since;
using bench::params_for;

/// One fixed dealer input per threshold so every backend shares it.
std::vector<Polynomial> fixed_row0s(int ts) {
  Rng rng(0xfeedu);
  return {Polynomial::random_with_constant(Fp(4242), ts, rng)};
}

/// One backend×cell measurement. `ok` = run completed, every honest party
/// produced the expected output, and the invariant monitors stayed clean.
struct Row {
  bool ok = false;
  Time latest = -1;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  std::uint64_t violations = 0;
};

void add_row(bench::Table& t, const char* backend, int n, const Row& r) {
  const ProtocolParams p = params_for(n);
  const double msgs_per_s =
      r.wall_ms > 0 ? static_cast<double>(r.messages) / (r.wall_ms / 1000.0)
                    : 0.0;
  t.row(backend, n, p.ts, p.ta, r.ok ? "yes" : "NO", r.latest, r.messages,
        r.events, fixed2(r.wall_ms), fixed2(msgs_per_s), r.violations);
}

const std::vector<std::string> kHeaders = {
    "backend", "n",       "ts",      "ta",     "ok",         "latest t",
    "messages", "events", "wall ms", "msg/s",  "violations"};

// ---------------------------------------------------------------------------
// WSS / VSS cells (Vss extends Wss, so one pair of runners covers both).

template <typename Inst>
using SharingSpawn = std::function<Inst&(Simulation&, PartyId)>;

/// Threaded run of a WSS-family protocol: dealer 0 deals fixed_row0s, every
/// party's goal is has_output, outputs checked against the dealt polynomial.
template <typename Inst>
Row run_threaded_sharing(bench::MonitorTally& tally, int n, std::uint64_t seed,
                         const SharingSpawn<Inst>& spawn_one) {
  ThreadedConfig cfg;
  cfg.params = params_for(n);
  cfg.seed = seed;
  cfg.tick_us = 100;
  cfg.timeout_s = 120.0;
  std::vector<Inst*> inst(static_cast<std::size_t>(n), nullptr);
  const ThreadedResult res = run_threaded(
      cfg, [&inst, &spawn_one](Simulation& sim, PartyId id) {
        Inst& w = spawn_one(sim, id);
        inst[static_cast<std::size_t>(id)] = &w;
        if (id == 0) w.start(fixed_row0s(sim.params().ts));
        return [&w] { return w.has_output(); };
      });
  Row r;
  r.wall_ms = res.wall_ms;
  r.messages = res.wire_messages;
  r.events = res.events;
  r.violations = res.violations.size();
  // No MonitoredRun here: the threaded run's shared engine reports its own
  // counts, folded into the tally by hand.
  tally.events += res.monitor_events;
  tally.violations += res.violations.size();
  r.ok = res.completed && res.violations.empty();
  const std::vector<Polynomial> row0s = fixed_row0s(cfg.params.ts);
  for (int i = 0; i < n && r.ok; ++i) {
    const Inst* w = inst[static_cast<std::size_t>(i)];
    r.ok = w != nullptr && w->outcome() == WssOutcome::rows &&
           w->share(0) == row0s[0].eval(eval_point(i));
    if (w != nullptr && w->has_output()) {
      r.latest = std::max(r.latest, w->output_time());
    }
  }
  return r;
}

/// DES baseline for the same cell: asynchronous network (what a real
/// network models), same seed, same dealt polynomial.
template <typename Inst>
Row run_des_sharing(bench::MonitorTally& tally, int n, std::uint64_t seed,
                    const std::string& label,
                    const SharingSpawn<Inst>& spawn_one) {
  Simulation::Config cfg;
  cfg.params = params_for(n);
  cfg.kind = NetworkKind::asynchronous;
  cfg.seed = seed;
  Simulation sim(cfg, std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, tally, label);
  std::vector<Inst*> inst;
  for (int i = 0; i < n; ++i) inst.push_back(&spawn_one(sim, i));
  const auto t0 = std::chrono::steady_clock::now();
  inst[0]->start(fixed_row0s(cfg.params.ts));
  const RunStatus status = sim.run();
  Row r;
  r.wall_ms = ms_since(t0);
  r.messages = sim.metrics().messages_sent;
  r.events = sim.metrics().events_processed;
  r.violations = mon_guard.engine().violations().size();
  r.ok = status == RunStatus::quiescent && r.violations == 0;
  const std::vector<Polynomial> row0s = fixed_row0s(cfg.params.ts);
  for (int i = 0; i < n && r.ok; ++i) {
    const Inst* w = inst[static_cast<std::size_t>(i)];
    r.ok = w->outcome() == WssOutcome::rows &&
           w->share(0) == row0s[0].eval(eval_point(i));
    if (w->has_output()) r.latest = std::max(r.latest, w->output_time());
  }
  return r;
}

SharingSpawn<Wss> wss_spawner() {
  return [](Simulation& sim, PartyId id) -> Wss& {
    WssOptions opts;
    opts.num_secrets = 1;
    return sim.party(id).spawn<Wss>("wss", 0, 0, opts, nullptr);
  };
}

SharingSpawn<Vss> vss_spawner(int n) {
  // Z = the last ts - ta parties (any fixed choice works for honest runs).
  const ProtocolParams p = params_for(n);
  PartySet z;
  for (int i = 0; i < p.ts - p.ta; ++i) z.insert(p.n - 1 - i);
  return [z](Simulation& sim, PartyId id) -> Vss& {
    return sim.party(id).spawn<Vss>("vss", 0, 0, 1, z, nullptr);
  };
}

// ---------------------------------------------------------------------------
// MPC cells: sum of all inputs times input 0. "ok" is completion +
// monitor-clean + cross-party output agreement — NOT equality with the
// full-input plaintext evaluation, because an asynchronous MPC's output
// legitimately depends on the committed core set (a slow party's input may
// be excluded by schedule), and the threaded backend's schedules are real.
// Output-value correctness against plaintext is table_mpc_e2e's job.

Circuit mpc_circuit(int n) {
  Circuit c;
  std::vector<int> in;
  for (int i = 0; i < n; ++i) in.push_back(c.input(i));
  int acc = in[0];
  for (int i = 1; i < n; ++i) acc = c.add(acc, in[static_cast<std::size_t>(i)]);
  c.mark_output(c.mul(acc, in[0]));
  return c;
}

Row run_threaded_mpc(bench::MonitorTally& tally, int n, std::uint64_t seed) {
  const Circuit circuit = mpc_circuit(n);
  ThreadedConfig cfg;
  cfg.params = params_for(n);
  cfg.seed = seed;
  cfg.tick_us = 50;
  cfg.timeout_s = 300.0;
  std::vector<Mpc*> inst(static_cast<std::size_t>(n), nullptr);
  const ThreadedResult res = run_threaded(
      cfg, [&inst, &circuit](Simulation& sim, PartyId id) {
        const FpVec inputs = {Fp(static_cast<std::uint64_t>(3 + id))};
        Mpc& m = sim.party(id).spawn<Mpc>("mpc", circuit, inputs, nullptr);
        inst[static_cast<std::size_t>(id)] = &m;
        return [&m] { return m.has_output(); };
      });
  Row r;
  r.wall_ms = res.wall_ms;
  r.messages = res.wire_messages;
  r.events = res.events;
  r.violations = res.violations.size();
  tally.events += res.monitor_events;
  tally.violations += res.violations.size();
  r.ok = res.completed && res.violations.empty();
  for (int i = 0; i < n && r.ok; ++i) {
    const Mpc* m = inst[static_cast<std::size_t>(i)];
    r.ok = m != nullptr && m->has_output() &&
           m->output() == inst[0]->output();
    if (m != nullptr && m->has_output()) {
      r.latest = std::max(r.latest, m->output_time());
    }
  }
  return r;
}

Row run_des_mpc(bench::MonitorTally& tally, int n, std::uint64_t seed) {
  const Circuit circuit = mpc_circuit(n);
  Simulation::Config cfg;
  cfg.params = params_for(n);
  cfg.kind = NetworkKind::asynchronous;
  cfg.seed = seed;
  Simulation sim(cfg, std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(
      sim, tally, "transport_mpc_des_n" + std::to_string(n));
  std::vector<Mpc*> inst;
  for (int i = 0; i < n; ++i) {
    const FpVec inputs = {Fp(static_cast<std::uint64_t>(3 + i))};
    inst.push_back(&sim.party(i).spawn<Mpc>("mpc", circuit, inputs, nullptr));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const RunStatus status = sim.run();
  Row r;
  r.wall_ms = ms_since(t0);
  r.messages = sim.metrics().messages_sent;
  r.events = sim.metrics().events_processed;
  r.violations = mon_guard.engine().violations().size();
  r.ok = status == RunStatus::quiescent && r.violations == 0;
  for (int i = 0; i < n && r.ok; ++i) {
    const Mpc* m = inst[static_cast<std::size_t>(i)];
    r.ok = m->has_output() && m->output() == inst[0]->output();
    if (m->has_output()) r.latest = std::max(r.latest, m->output_time());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Record/replay bridge: capture one threaded 8-party WSS schedule, export
// it as "nampc-schedule/1" JSON, re-import, and replay it twice on the DES
// under ReplayAdversary. The gate is byte-identical run reports.

struct ReplayResult {
  bool recorded = false;         ///< threaded run completed with a schedule
  std::size_t records = 0;       ///< deliveries captured
  std::size_t json_bytes = 0;    ///< exported schedule size
  bool round_trip = false;       ///< JSON re-imported cleanly
  std::uint64_t matched = 0;     ///< replay deliveries using a recorded delay
  std::uint64_t missed = 0;      ///< replay fallbacks to the model default
  bool replay_ok = false;        ///< both replays quiescent, outputs correct
  bool byte_identical = false;   ///< the two replay run reports agree
};

ReplayResult run_replay_gate(bench::MonitorTally& tally) {
  ReplayResult out;
  ThreadedConfig cfg;
  cfg.params = {8, 2, 1};
  cfg.seed = 13;
  cfg.tick_us = 100;
  cfg.timeout_s = 120.0;
  cfg.record_schedule = true;
  std::vector<Wss*> inst(8, nullptr);
  const SharingSpawn<Wss> spawn_one = wss_spawner();
  const ThreadedResult real = run_threaded(
      cfg, [&inst, &spawn_one](Simulation& sim, PartyId id) {
        Wss& w = spawn_one(sim, id);
        inst[static_cast<std::size_t>(id)] = &w;
        if (id == 0) w.start(fixed_row0s(sim.params().ts));
        return [&w] { return w.has_output(); };
      });
  tally.events += real.monitor_events;
  tally.violations += real.violations.size();
  out.recorded = real.completed && real.violations.empty() &&
                 !real.schedule.records.empty();
  out.records = real.schedule.records.size();
  if (!out.recorded) return out;

  std::ostringstream os;
  write_schedule(os, real.schedule);
  const std::string json = os.str();
  out.json_bytes = json.size();
  RecordedSchedule imported;
  std::string error;
  out.round_trip = read_schedule(json, imported, error);
  if (!out.round_trip) {
    std::cerr << "transport replay gate: re-import failed: " << error << "\n";
    return out;
  }

  auto replay_once = [&imported, &tally](std::uint64_t* matched,
                                         std::uint64_t* missed, bool* ok) {
    Simulation::Config rc;
    rc.params = imported.params;
    rc.kind = imported.kind;
    rc.seed = imported.seed;
    auto adversary = std::make_shared<ReplayAdversary>(imported);
    Simulation sim(rc, adversary);
    bench::MonitoredRun mon_guard(sim, tally, "transport_replay");
    std::vector<Wss*> replay_inst;
    WssOptions opts;
    opts.num_secrets = 1;
    for (int i = 0; i < rc.params.n; ++i) {
      replay_inst.push_back(
          &sim.party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
    }
    replay_inst[0]->start(fixed_row0s(rc.params.ts));
    const RunStatus status = sim.run();
    bool good = status == RunStatus::quiescent &&
                mon_guard.engine().violations().empty();
    for (const Wss* w : replay_inst) {
      good = good && w->outcome() == WssOutcome::rows;
    }
    if (matched != nullptr) *matched = adversary->matched();
    if (missed != nullptr) *missed = adversary->missed();
    if (ok != nullptr) *ok = good;
    std::ostringstream report;
    obs::write_run_report(report, sim, status, nullptr);
    return report.str();
  };

  bool ok1 = false;
  bool ok2 = false;
  const std::string first = replay_once(&out.matched, &out.missed, &ok1);
  const std::string second = replay_once(nullptr, nullptr, &ok2);
  out.replay_ok = ok1 && ok2 && out.matched > 0 && out.matched > out.missed;
  out.byte_identical = !first.empty() && first == second;
  return out;
}

}  // namespace

/// Threaded 8-party WSS e2e plus the record/replay round-trip gate. Nonzero
/// exit on any failure — the CI transport-smoke contract.
int bench::transport_smoke(RunContext& ctx) {
  std::cout << "transport smoke: threaded 8-party Pi_WSS + record/replay "
               "round trip\n";
  const Row wss = run_threaded_sharing<Wss>(ctx.monitors, 8, 21, wss_spawner());
  std::cout << "  threaded wss: ok=" << (wss.ok ? "yes" : "NO")
            << " messages=" << wss.messages << " wall_ms="
            << fixed2(wss.wall_ms) << " violations=" << wss.violations
            << "\n";
  const ReplayResult gate = run_replay_gate(ctx.monitors);
  std::cout << "  replay gate: records=" << gate.records
            << " matched=" << gate.matched << " missed=" << gate.missed
            << " byte_identical=" << (gate.byte_identical ? "yes" : "NO")
            << "\n";
  const bool pass = wss.ok && gate.recorded && gate.round_trip &&
                    gate.replay_ok && gate.byte_identical;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

int bench::table_transport(RunContext& ctx) {
  std::cout << "T1: transport backends. Threaded real-concurrency backend "
               "(one OS thread per party) vs the DES virtual-time baseline; "
               "honest parties, asynchronous model, fixed inputs.\n"
            << "(latest t is virtual DES time / wall ticks respectively; "
               "messages counts cross-party wires only for the threaded "
               "backend.)\n";
  ctx.report.note("backends", "des (virtual time), threaded (1 thread/party)");
  ctx.report.note("model",
                  "asynchronous, honest-only (adversary hooks are DES)");
  bench::MonitorTally& m = ctx.monitors;

  {
    bench::Table t(kHeaders);
    for (int n : {4, 8, 16, 32}) {
      add_row(t, "des", n,
              run_des_sharing<Wss>(
                  m, n, 21, "transport_wss_des_n" + std::to_string(n),
                  wss_spawner()));
      add_row(t, "threaded", n,
              run_threaded_sharing<Wss>(m, n, 21, wss_spawner()));
    }
    ctx.section("Pi_WSS end-to-end", t);
  }

  {
    bench::Table t(kHeaders);
    for (int n : {4, 8, 16}) {
      add_row(t, "des", n,
              run_des_sharing<Vss>(
                  m, n, 33, "transport_vss_des_n" + std::to_string(n),
                  vss_spawner(n)));
      add_row(t, "threaded", n,
              run_threaded_sharing<Vss>(m, n, 33, vss_spawner(n)));
    }
    ctx.section("Pi_VSS end-to-end", t);
  }

  {
    bench::Table t(kHeaders);
    for (int n : {4, 5}) {
      add_row(t, "des", n, run_des_mpc(m, n, 55));
      add_row(t, "threaded", n, run_threaded_mpc(m, n, 55));
    }
    ctx.section("MPC end-to-end (full primitives)", t);
  }

  const ReplayResult g = run_replay_gate(m);
  bench::Table t({"records", "json bytes", "round trip", "matched", "missed",
                  "replay ok", "byte identical"});
  t.row(g.records, g.json_bytes, g.round_trip ? "yes" : "NO", g.matched,
        g.missed, g.replay_ok ? "yes" : "NO", g.byte_identical ? "yes" : "NO");
  ctx.section("record/replay bridge (threaded n=8 WSS -> DES)", t);
  return 0;
}
