// Experiment E6 — Π_VTS matrix (Theorem 8.2): verified multiplication
// triples in both networks, with a cheating-dealer column showing that a
// dealer whose Z-polynomial violates X·Y = Z never gets bad triples
// accepted.
// The 18 grid cells (parameter point x network x adversary) fan out
// through the sweep engine (--jobs / NAMPC_JOBS); rendering happens on the
// main thread in submission order.
#include <iostream>

#include "adversary/scripted.h"
#include "bench_util.h"
#include "triples/vts.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

struct Result {
  int with_triples = 0;
  int discarded = 0;
  int none = 0;
  bool triples_valid = true;  // c = a*b after interpolation
  Time latest = -1;
  std::uint64_t messages = 0;
};

Result run(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind,
           const std::string& attack, bool ideal, PartySet z,
           std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = seed;
  cfg.ideal_primitives = ideal;

  const int budget = kind == NetworkKind::synchronous ? p.ts : p.ta;
  PartySet corrupt;
  auto adv = std::make_shared<ScriptedAdversary>();
  if (attack == "silent-z" && !z.empty() && z.size() <= budget) {
    corrupt = z;
    adv = std::make_shared<ScriptedAdversary>(corrupt);
    for (int id : corrupt.to_vector()) adv->silence(id);
  } else if (attack == "bad-dealer" && budget > 0) {
    corrupt = PartySet::of({0});
    adv = std::make_shared<ScriptedAdversary>(corrupt);
  }

  Simulation sim(cfg, adv);
  bench::MonitoredRun mon_guard(sim, tally);
  std::vector<Vts*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Vts>("vts", 0, 0, 2, z, nullptr));
  }
  inst[0]->start(/*sabotage=*/attack == "bad-dealer");
  (void)sim.run();

  Result r;
  FpVec xs, sa, sb, sc;
  for (int i = 0; i < p.n; ++i) {
    if (corrupt.contains(i)) continue;
    Vts* v = inst[static_cast<std::size_t>(i)];
    switch (v->outcome()) {
      case VtsOutcome::triples:
        ++r.with_triples;
        xs.push_back(eval_point(i));
        sa.push_back(v->triples().a[0]);
        sb.push_back(v->triples().b[0]);
        sc.push_back(v->triples().c[0]);
        r.latest = std::max(r.latest, v->output_time());
        break;
      case VtsOutcome::discarded: ++r.discarded; break;
      case VtsOutcome::none: ++r.none; break;
    }
  }
  if (static_cast<int>(xs.size()) >= p.ts + 1) {
    const Fp a = Polynomial::interpolate(xs, sa).eval(Fp(0));
    const Fp b = Polynomial::interpolate(xs, sb).eval(Fp(0));
    const Fp c = Polynomial::interpolate(xs, sc).eval(Fp(0));
    r.triples_valid = a * b == c;
  }
  r.messages = sim.metrics().messages_sent;
  return r;
}

}  // namespace

int bench::table_vts(RunContext& ctx) {
  std::cout << "E6: Pi_VTS matrix (Theorem 8.2). T_VTS = T_VSS + 3T_BC + 2Δ; "
               "an accepted triple always satisfies c = a*b.\n";
  struct Cfg {
    ProtocolParams p;
    bool ideal;
    PartySet z;
  };
  const std::vector<Cfg> cfgs = {Cfg{{4, 1, 0}, false, PartySet::of({3})},
                                 Cfg{{5, 1, 1}, false, PartySet{}},
                                 Cfg{{7, 2, 1}, true, PartySet::of({6})}};
  const std::vector<NetworkKind> kinds = {NetworkKind::synchronous,
                                          NetworkKind::asynchronous};
  const std::vector<const char*> attacks = {"none", "silent-z", "bad-dealer"};

  Sweep<Result> sweep(ctx.jobs);
  for (const Cfg& c : cfgs) {
    for (NetworkKind kind : kinds) {
      for (const char* attack : attacks) {
        sweep.add([&ctx, c, kind, attack] {
          return run(ctx.monitors, c.p, kind, attack, c.ideal, c.z, 33);
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
        " ta=" + std::to_string(c.p.ta) + " Z=" + c.z.str() +
        "  T_VTS=" + std::to_string(tm.t_vts) +
        (c.ideal ? "  [ideal BA/SBA]" : "  [full primitives]");
    bench::Table t({"network", "adversary", "triples", "discarded", "none",
                    "c==a*b", "latest t", "<=T_VTS", "messages"});
    for (NetworkKind kind : kinds) {
      for (const char* attack : attacks) {
        const Result r = results[idx++];
        const bool sync = kind == NetworkKind::synchronous;
        t.row(sync ? "sync" : "async", attack, r.with_triples, r.discarded,
              r.none, r.triples_valid ? "yes" : "NO", r.latest,
              sync && r.latest >= 0 ? (r.latest <= tm.t_vts ? "yes" : "NO")
                                    : "n/a",
              r.messages);
      }
    }
    ctx.section(title, t);
  }
  std::cout << "(bad-dealer rows: 'discarded'/'none' outcomes are the "
               "correct behaviour; 'c==a*b: yes' confirms no bad triple "
               "was ever accepted)\n";
  return 0;
}
