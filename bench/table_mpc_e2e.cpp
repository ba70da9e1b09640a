// Experiment E8 — end-to-end MPC (Section 10): latency and message
// complexity across parameter points, networks, circuit sizes and
// adversaries; correctness checked against plaintext evaluation.
// This is by far the heaviest regenerator (the n=7 cells dominate), and
// its 22 grid cells are independent simulations — they fan out through the
// sweep engine (--jobs / NAMPC_JOBS) and render in submission order.
#include <iostream>

#include "adversary/scripted.h"
#include "bench_util.h"
#include "mpc/mpc.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

Circuit make_circuit(int n, int mults) {
  // Chain of multiplications over the input sum: depth grows with size.
  Circuit c;
  std::vector<int> in;
  for (int i = 0; i < n; ++i) in.push_back(c.input(i));
  int acc = in[0];
  for (int i = 1; i < n; ++i) acc = c.add(acc, in[static_cast<std::size_t>(i)]);
  int v = acc;
  for (int m = 0; m < mults; ++m) {
    v = c.mul(v, in[static_cast<std::size_t>(m % n)]);
  }
  c.mark_output(v);
  return c;
}

struct Result {
  bool correct = false;
  Time latest = -1;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t events = 0;
};

Result run(bench::MonitorTally& tally, ProtocolParams p, NetworkKind kind,
           int mults, const std::string& attack, bool ideal,
           std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = seed;
  cfg.ideal_primitives = ideal;

  const Circuit circuit = make_circuit(p.n, mults);

  const int budget = kind == NetworkKind::synchronous ? p.ts : p.ta;
  PartySet corrupt;
  auto adv = std::make_shared<ScriptedAdversary>();
  if (attack == "crash" && budget > 0) {
    for (int i = 0; i < budget; ++i) corrupt.insert(p.n - 1 - i);
    adv = std::make_shared<ScriptedAdversary>(corrupt);
    for (int id : corrupt.to_vector()) adv->silence(id);
  }

  Simulation sim(cfg, adv);
  bench::MonitoredRun mon_guard(sim, tally);
  std::map<int, FpVec> inputs;
  std::vector<Mpc*> nodes;
  for (int i = 0; i < p.n; ++i) {
    inputs[i] = {Fp(static_cast<std::uint64_t>(3 + i))};
    nodes.push_back(
        &sim.party(i).spawn<Mpc>("mpc", circuit, inputs[i], nullptr));
  }
  Result r;
  if (sim.run() != RunStatus::quiescent) return r;

  std::map<int, FpVec> effective = inputs;
  for (int id : corrupt.to_vector()) effective[id] = {Fp(0)};
  const FpVec want = circuit.eval_plain(effective);
  r.correct = true;
  for (int i = 0; i < p.n; ++i) {
    if (corrupt.contains(i)) continue;
    Mpc* m = nodes[static_cast<std::size_t>(i)];
    if (!m->has_output() || m->output() != want) r.correct = false;
    if (m->has_output()) r.latest = std::max(r.latest, m->output_time());
  }
  r.messages = sim.metrics().messages_sent;
  r.words = sim.metrics().words_sent;
  r.events = sim.metrics().events_processed;
  return r;
}

}  // namespace

int bench::table_mpc_e2e(RunContext& ctx) {
  std::cout << "E8: end-to-end MPC (Section 10). Correctness vs plaintext "
               "evaluation; virtual latency; message/word complexity.\n"
            << "(k = C(n, ts-ta) candidate Z-subsets all run in parallel — "
               "the dominant cost, exactly as the paper's construction "
               "prescribes.)\n";
  struct Cfg {
    ProtocolParams p;
    bool ideal;
    const char* note;
  };
  const std::vector<Cfg> cfgs = {Cfg{{4, 1, 0}, false, "k=4, full primitives"},
                                 Cfg{{5, 1, 1}, false, "k=1, full primitives"},
                                 Cfg{{7, 2, 1}, true, "k=7, ideal BA/SBA"}};
  const std::vector<NetworkKind> kinds = {NetworkKind::synchronous,
                                          NetworkKind::asynchronous};

  // One cell per (cfg, network, mults, adversary), minus the bounded-out
  // heaviest configuration — the same skip the serial loop applied.
  struct Cell {
    int mults;
    const char* attack;
  };
  auto cells_for = [](const Cfg& c) {
    std::vector<Cell> cells;
    for (int mults : {1, 8}) {
      for (const char* attack : {"none", "crash"}) {
        // Keep the heaviest configuration bounded.
        if (c.p.n == 7 && mults == 8 && std::string(attack) == "crash") {
          continue;
        }
        cells.push_back({mults, attack});
      }
    }
    return cells;
  };

  Sweep<Result> sweep(ctx.jobs);
  for (const Cfg& c : cfgs) {
    for (NetworkKind kind : kinds) {
      for (const Cell& cell : cells_for(c)) {
        sweep.add([&ctx, c, kind, cell] {
          return run(ctx.monitors, c.p, kind, cell.mults, cell.attack,
                     c.ideal, 55);
        });
      }
    }
  }
  const std::vector<Result> results = sweep.run();

  std::size_t idx = 0;
  for (const Cfg& c : cfgs) {
    const std::string title =
        "n=" + std::to_string(c.p.n) + " ts=" + std::to_string(c.p.ts) +
        " ta=" + std::to_string(c.p.ta) + "  (" + c.note + ")";
    bench::Table t({"network", "mults", "adversary", "correct", "latest t",
                    "messages", "payload words", "events"});
    for (NetworkKind kind : kinds) {
      const bool sync = kind == NetworkKind::synchronous;
      for (const Cell& cell : cells_for(c)) {
        const Result r = results[idx++];
        t.row(sync ? "sync" : "async", cell.mults, cell.attack,
              r.correct ? "yes" : "NO", r.latest, r.messages, r.words,
              r.events);
      }
    }
    ctx.section(title, t);
  }
  return 0;
}
