// Experiment E4 — Π_WSS behaviour matrix (Theorem 6.3): completion time vs
// T_WSS, restart counts, privacy audit, across parameter points, networks
// and adversaries.
// The 18 grid cells (parameter point x network x adversary) are
// independent simulations, so they fan out through the sweep engine
// (--jobs / NAMPC_JOBS) and are rendered in submission order.
#include <iostream>

#include "adversary/scripted.h"
#include "bench_util.h"
#include "sharing/wss.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

struct Result {
  int with_rows = 0;
  int with_bot = 0;
  int no_output = 0;
  Time latest = -1;
  std::uint64_t restarts = 0;
  std::uint64_t messages = 0;
  int revealed = 0;
  bool consistent = true;
};

Result run(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind,
           const std::string& attack, bool ideal, std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = seed;
  cfg.ideal_primitives = ideal;

  const int budget = kind == NetworkKind::synchronous ? p.ts : p.ta;
  PartySet corrupt;
  auto adv = std::make_shared<ScriptedAdversary>();
  if (attack != "none" && budget > 0) {
    for (int i = 0; i < budget; ++i) corrupt.insert(p.n - 1 - i);
    adv = std::make_shared<ScriptedAdversary>(corrupt);
    for (int id : corrupt.to_vector()) {
      if (attack == "silent") adv->silence(id);
      if (attack == "wrong-points") adv->garble_on(id, "wss");
    }
  }

  Simulation sim(cfg, adv);
  bench::MonitoredRun mon_guard(sim, tally);
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Wss>("wss", 0, 0, opts, nullptr));
  }
  Rng rng(seed);
  inst[0]->start({Polynomial::random_with_constant(Fp(12345), p.ts, rng)});
  (void)sim.run();

  Result r;
  for (int i = 0; i < p.n; ++i) {
    if (corrupt.contains(i)) continue;
    Wss* w = inst[static_cast<std::size_t>(i)];
    switch (w->outcome()) {
      case WssOutcome::rows: ++r.with_rows; break;
      case WssOutcome::bot: ++r.with_bot; break;
      case WssOutcome::none: ++r.no_output; break;
    }
    if (w->has_output()) r.latest = std::max(r.latest, w->output_time());
    r.revealed = std::max(r.revealed, w->revealed_parties().size());
  }
  // Pairwise consistency of row holders.
  for (int i = 0; i < p.n && r.consistent; ++i) {
    for (int j = i + 1; j < p.n; ++j) {
      if (corrupt.contains(i) || corrupt.contains(j)) continue;
      Wss* a = inst[static_cast<std::size_t>(i)];
      Wss* b = inst[static_cast<std::size_t>(j)];
      if (a->outcome() != WssOutcome::rows || b->outcome() != WssOutcome::rows)
        continue;
      if (a->point_for(0, j) != b->point_for(0, i)) r.consistent = false;
    }
  }
  r.restarts = sim.metrics().wss_restarts;
  r.messages = sim.metrics().messages_sent;
  return r;
}

}  // namespace

int bench::table_wss(RunContext& ctx) {
  std::cout << "E4: Pi_WSS matrix (Theorem 6.3). T_WSS = "
               "(ts-ta+1)(5T_BC+2T_BA)+3Δ; restarts bounded by ts-ta; "
               "revealed rows bounded by ts-ta.\n";
  struct Cfg {
    ProtocolParams p;
    bool ideal;
  };
  const std::vector<Cfg> cfgs = {Cfg{{4, 1, 0}, false}, Cfg{{7, 2, 1}, false},
                                 Cfg{{10, 3, 1}, true}};
  const std::vector<NetworkKind> kinds = {NetworkKind::synchronous,
                                          NetworkKind::asynchronous};
  const std::vector<const char*> attacks = {"none", "silent", "wrong-points"};

  Sweep<Result> sweep(ctx.jobs);
  for (const Cfg& c : cfgs) {
    for (NetworkKind kind : kinds) {
      for (const char* attack : attacks) {
        sweep.add([&ctx, c, kind, attack] {
          return run(ctx.monitors, c.p, kind, attack, c.ideal, 77);
        });
      }
    }
  }
  const std::vector<Result> results = sweep.run();

  std::size_t idx = 0;
  for (const Cfg& c : cfgs) {
    const Timing tm = Timing::derive(c.p, 10);
    const std::string title =
        "n=" + std::to_string(c.p.n) + " ts=" + std::to_string(c.p.ts) +
        " ta=" + std::to_string(c.p.ta) + "  T_WSS=" +
        std::to_string(tm.t_wss) +
        (c.ideal ? "  [ideal BA/SBA]" : "  [full primitives]");
    bench::Table t({"network", "adversary", "rows", "bot", "none",
                    "latest t", "<=T_WSS", "restarts", "revealed",
                    "consistent", "messages"});
    for (NetworkKind kind : kinds) {
      for (const char* attack : attacks) {
        const Result r = results[idx++];
        const bool sync = kind == NetworkKind::synchronous;
        t.row(sync ? "sync" : "async", attack, r.with_rows, r.with_bot,
              r.no_output, r.latest,
              sync ? (r.latest <= tm.t_wss ? "yes" : "NO") : "n/a",
              r.restarts, r.revealed, r.consistent ? "yes" : "NO",
              r.messages);
      }
    }
    ctx.section(title, t);
  }
  return 0;
}
