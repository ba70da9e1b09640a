// Experiment E7 — property/latency matrix of the imported primitives
// (Lemmas 4.4, 4.6, 4.8 and Theorem 4.10): Acast, Π_BC, Π_BA, Π_ACS in
// both networks, Full mode, measured against the T_* formulas.
// The 30 grid cells (parameter point x network x primitive) are
// independent simulations, fanned out through the sweep engine
// (--jobs / NAMPC_JOBS) and rendered in submission order.
#include <iostream>

#include "acs/acs.h"
#include "bench_util.h"
#include "broadcast/ba.h"
#include "broadcast/bc.h"
#include "net/simulation.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

Simulation::Config config(ProtocolParams p, NetworkKind kind,
                          std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = seed;
  return cfg;
}

struct Row {
  bool all_output = false;
  bool consistent = true;
  Time latest = 0;
  std::uint64_t messages = 0;
};

Row run_acast(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind) {
  Simulation sim(config(p, kind, 11), std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, tally);
  std::vector<Acast*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Acast>("a", 0, nullptr));
  }
  inst[0]->start({42});
  (void)sim.run();
  Row r;
  r.all_output = true;
  for (Acast* a : inst) {
    if (!a->has_output() || a->output() != Words{42}) r.all_output = false;
    if (a->has_output()) r.latest = std::max(r.latest, a->output_time());
  }
  r.messages = sim.metrics().messages_sent;
  return r;
}

Row run_bc(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind) {
  Simulation sim(config(p, kind, 12), std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, tally);
  std::vector<Bc*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Bc>("b", 0, 0, nullptr));
  }
  inst[0]->start({7});
  (void)sim.run();
  Row r;
  r.all_output = true;
  for (Bc* b : inst) {
    const auto& out = b->current_output();
    if (!out.has_value() || *out != Words{7}) r.all_output = false;
    r.latest = std::max(r.latest, b->value_time());
  }
  r.messages = sim.metrics().messages_sent;
  return r;
}

Row run_ba(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind,
           bool mixed) {
  Simulation sim(config(p, kind, 13), std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, tally);
  std::vector<Ba*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Ba>("ba", 0, nullptr));
  }
  for (int i = 0; i < p.n; ++i) {
    inst[static_cast<std::size_t>(i)]->start(mixed ? (i % 2 == 0) : true);
  }
  (void)sim.run();
  Row r;
  r.all_output = true;
  std::optional<bool> v;
  for (Ba* b : inst) {
    if (!b->has_output()) {
      r.all_output = false;
      continue;
    }
    if (!v.has_value()) v = b->output();
    if (*v != b->output()) r.consistent = false;
  }
  r.messages = sim.metrics().messages_sent;
  return r;
}

Row run_acs(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind) {
  Simulation sim(config(p, kind, 14), std::make_shared<Adversary>());
  bench::MonitoredRun mon_guard(sim, tally);
  std::vector<Acs*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Acs>("acs", 0, nullptr));
  }
  for (Acs* a : inst) {
    for (int j = 0; j < p.n; ++j) a->mark(j);
  }
  (void)sim.run();
  Row r;
  r.all_output = true;
  std::optional<PartySet> com;
  for (Acs* a : inst) {
    if (!a->has_output()) {
      r.all_output = false;
      continue;
    }
    if (!com.has_value()) com = a->output();
    if (*com != a->output()) r.consistent = false;
  }
  r.messages = sim.metrics().messages_sent;
  return r;
}

}  // namespace

int bench::table_primitives(RunContext& ctx) {
  std::cout << "E7: primitive matrix (Full mode, honest runs), latency vs "
               "the T_* formulas.\n";
  const std::vector<ProtocolParams> params = {
      ProtocolParams{4, 1, 0}, ProtocolParams{7, 2, 1},
      ProtocolParams{10, 3, 1}};
  const std::vector<NetworkKind> kinds = {NetworkKind::synchronous,
                                          NetworkKind::asynchronous};

  // Five primitive runs per (params, network) cell, in table order.
  Sweep<Row> sweep(ctx.jobs);
  bench::MonitorTally& m = ctx.monitors;
  for (ProtocolParams p : params) {
    for (NetworkKind kind : kinds) {
      sweep.add([&m, p, kind] { return run_acast(m, p, kind); });
      sweep.add([&m, p, kind] { return run_bc(m, p, kind); });
      sweep.add([&m, p, kind] { return run_ba(m, p, kind, /*mixed=*/false); });
      sweep.add([&m, p, kind] { return run_ba(m, p, kind, /*mixed=*/true); });
      sweep.add([&m, p, kind] { return run_acs(m, p, kind); });
    }
  }
  const std::vector<Row> rows = sweep.run();

  std::size_t idx = 0;
  for (ProtocolParams p : params) {
    const Timing tm = Timing::derive(p, 10);
    const std::string title =
        "n=" + std::to_string(p.n) + " ts=" + std::to_string(p.ts) +
        " ta=" + std::to_string(p.ta) + "  (T_BC=" + std::to_string(tm.t_bc) +
        ", T_BA=" + std::to_string(tm.t_ba) +
        ", T_ACS=" + std::to_string(tm.t_acs) + ", Δ=10)";
    bench::Table t({"primitive", "network", "all output", "consistent",
                    "latest output", "bound", "messages"});
    for (NetworkKind kind : kinds) {
      const char* nk = kind == NetworkKind::synchronous ? "sync" : "async";
      const bool sync = kind == NetworkKind::synchronous;
      {
        const Row r = rows[idx++];
        t.row("Acast (4.3)", nk, r.all_output ? "yes" : "NO", "-", r.latest,
              sync ? std::to_string(3 * tm.delta) : "eventual", r.messages);
      }
      {
        const Row r = rows[idx++];
        t.row("Pi_BC (4.5)", nk, r.all_output ? "yes" : "NO", "-", r.latest,
              sync ? std::to_string(tm.t_bc) : "eventual", r.messages);
      }
      {
        const Row r = rows[idx++];
        t.row("Pi_BA unanimous (4.7)", nk, r.all_output ? "yes" : "NO",
              r.consistent ? "yes" : "NO", "-",
              sync ? std::to_string(tm.t_ba) : "a.s. eventual", r.messages);
      }
      {
        const Row r = rows[idx++];
        t.row("Pi_BA mixed (4.7)", nk, r.all_output ? "yes" : "NO",
              r.consistent ? "yes" : "NO", "-",
              sync ? std::to_string(tm.t_ba) : "a.s. eventual", r.messages);
      }
      {
        const Row r = rows[idx++];
        t.row("Pi_ACS (4.9)", nk, r.all_output ? "yes" : "NO",
              r.consistent ? "yes" : "NO", "-",
              sync ? std::to_string(tm.t_acs) : "a.s. eventual", r.messages);
      }
    }
    ctx.section(title, t);
  }
  return 0;
}
