// Shared helpers for protocol tests: simulation construction, common
// adversaries, and monitored simulations (invariant monitors attached).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adversary/scripted.h"
#include "net/simulation.h"
#include "obs/monitor.h"

namespace nampc::testing {

struct SimSpec {
  ProtocolParams params{4, 1, 0};
  NetworkKind kind = NetworkKind::synchronous;
  std::uint64_t seed = 7;
  bool ideal = false;
  bool local_coins = false;
  Time delta = 10;
  /// Violation tests run deliberately-infeasible parameter points (small n
  /// with over-budget corruption) to make attacks land; skips the
  /// Theorem 1.1 feasibility check and the privacy-audit assert.
  bool allow_infeasible = false;
  bool privacy_audit = true;
};

inline std::unique_ptr<Simulation> make_sim(
    const SimSpec& spec,
    std::shared_ptr<Adversary> adversary = nullptr) {
  Simulation::Config cfg;
  cfg.params = spec.params;
  cfg.kind = spec.kind;
  cfg.delta = spec.delta;
  cfg.seed = spec.seed;
  cfg.ideal_primitives = spec.ideal;
  cfg.local_coins = spec.local_coins;
  cfg.allow_infeasible = spec.allow_infeasible;
  cfg.privacy_audit = spec.privacy_audit;
  if (!adversary) adversary = std::make_shared<Adversary>();
  return std::make_unique<Simulation>(cfg, std::move(adversary));
}

/// A simulation with the standard invariant monitors attached. The engine
/// is heap-allocated and declared before the simulation so it outlives it
/// (at_quiescence fires inside Simulation::run; monitors must also survive
/// any instance destructors).
struct MonitoredSim {
  std::unique_ptr<obs::MonitorEngine> monitors;
  std::unique_ptr<Simulation> sim;

  Simulation& operator*() { return *sim; }
  Simulation* operator->() { return sim.get(); }
};

inline MonitoredSim make_monitored_sim(
    const SimSpec& spec,
    std::shared_ptr<Adversary> adversary = nullptr) {
  MonitoredSim ms;
  ms.monitors = std::make_unique<obs::MonitorEngine>();
  obs::install_standard_monitors(*ms.monitors);
  ms.sim = make_sim(spec, std::move(adversary));
  ms.sim->set_monitors(ms.monitors.get());
  return ms;
}

/// Broadcasts on demand and keeps every body it receives, so a test can
/// see which payload buffers the recipients hold.
class Fanout final : public ProtocolInstance {
 public:
  Fanout(Party& party, std::string key)
      : ProtocolInstance(party, std::move(key)) {}
  void broadcast(Words body) { send_all(1, std::move(body)); }
  void forward(const Payload& body) { send_all(2, body); }
  void on_message(const Message& msg) override {
    received.push_back(msg.payload);
  }
  std::vector<Payload> received;
};

/// One Fanout "f" per party, indexed by party id.
inline std::vector<Fanout*> spawn_fanouts(Simulation& sim) {
  std::vector<Fanout*> out;
  for (int i = 0; i < sim.n(); ++i) {
    out.push_back(&sim.party(i).spawn<Fanout>("f"));
  }
  return out;
}

/// Canonical parameter points from DESIGN.md §4.
inline ProtocolParams p4_1_0() { return {4, 1, 0}; }
inline ProtocolParams p5_1_1() { return {5, 1, 1}; }
inline ProtocolParams p7_2_1() { return {7, 2, 1}; }
inline ProtocolParams p10_3_1() { return {10, 3, 1}; }

}  // namespace nampc::testing
