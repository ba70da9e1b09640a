// perfbench — the repository benchmark (see README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload as a closed loop with a single client: protocol
// executions back to back in this process, the next one starting only after
// the previous one returned, until S seconds have passed. Every execution
// gets its own seed derived from N, carries the standard monitor catalogue,
// and is checked (per-party shares or the circuit's plain evaluation, zero
// monitor violations, a quiescent exit). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   --trace 0   end-to-end metrics, measured with no instrumentation.
//   --trace 1   per-layer metrics. Each execution runs twice on one seed:
//               plainly, then stepped with run_one() under the benchmark's
//               own timers (a Transport decorator, two bracketing monitors,
//               per-step kind attribution). The stepped run must reproduce
//               the plain run's exact counts.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/nampc.h"
#include "net/threaded.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/monitor.h"

using namespace nampc;

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

constexpr double kNsPerS = 1e9;

// ------------------------------------------------------------- workloads

enum class Proto { wss, mpc };

struct Workload {
  const char* name;
  Proto proto;
  ProtocolParams params;
  NetworkKind network;
  bool garble;    ///< the last ta parties garble every payload they send
  bool threaded;  ///< net/threaded backend instead of the DES
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"wss-sync-n32", Proto::wss, {32, 10, 5}, NetworkKind::synchronous,
       false, false},
      {"wss-async-n24-garble", Proto::wss, {24, 7, 3},
       NetworkKind::asynchronous, true, false},
      {"mpc-async-n5", Proto::mpc, {5, 1, 1}, NetworkKind::asynchronous, false,
       false},
      {"mpc-threaded-n4", Proto::mpc, {4, 1, 0}, NetworkKind::asynchronous,
       false, true},
  };
  return all;
}

/// Wall microseconds per virtual tick on the threaded backend (the
/// nampc_cli default).
constexpr std::int64_t kThreadedTickUs = 100;
/// Threaded watchdog. A healthy execution takes about a second; the
/// watchdog only bounds a hung one so the process still ends in time.
constexpr double kThreadedTimeoutS = 20.0;

/// splitmix64 over (seed, index): the seed of execution `index`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

PartySet corrupt_set(const Workload& w) {
  PartySet corrupt;
  if (w.garble) {
    for (int i = 0; i < w.params.ta; ++i) corrupt.insert(w.params.n - 1 - i);
  }
  return corrupt;
}

/// nampc_cli's MPC circuit: (x_0 + ... + x_{n-1}) * x_0.
Circuit cli_circuit(int n) {
  Circuit c;
  std::vector<int> in;
  for (int i = 0; i < n; ++i) in.push_back(c.input(i));
  int acc = in[0];
  for (int i = 1; i < n; ++i) acc = c.add(acc, in[static_cast<std::size_t>(i)]);
  c.mark_output(c.mul(acc, in[0]));
  return c;
}

std::map<int, FpVec> circuit_inputs(int n, std::uint64_t seed) {
  Rng rng(seed ^ 0x1c9u);
  std::map<int, FpVec> inputs;
  for (int i = 0; i < n; ++i) inputs[i] = {Fp(1 + rng.next_below(1'000'000))};
  return inputs;
}

// ------------------------------------------------------ host-speed gauge

/// Benchmark-owned fixed work whose wall time tracks how fast the shared host
/// runs at the moment: a hold-model binary heap of 1M keys (8 MiB) whose
/// every pop also makes one data-dependent read of a 16 MiB table. It calls
/// nothing in the library and allocates nothing after construction, so no
/// change to the library moves it; only the host does. Like the event queue
/// of a large run it lives in the last-level cache, so it slows with a busy
/// host much as the protocol runs do (see README.md).
class HostGauge {
 public:
  static constexpr std::size_t kHeapKeys = 1u << 20;
  static constexpr std::size_t kTableEntries = 1u << 22;
  static constexpr int kSliceOps = 10'000;
  /// Resident bytes, all touched by the constructor.
  static constexpr std::size_t kBytes =
      kHeapKeys * sizeof(std::uint64_t) + kTableEntries * sizeof(std::uint32_t);

  HostGauge() : heap_(kHeapKeys), table_(kTableEntries) {
    // Keys start in the hold model's stationary state, so a slice costs the
    // same on the first call as on the millionth: each key ahead of the
    // minimum by the equilibrium residual of the uniform increment below,
    // with density 2(1 - x/L)/L on [0, L).
    for (std::uint64_t& key : heap_) {
      const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
      key = static_cast<std::uint64_t>(kIncrements * (1 - std::sqrt(1 - u)));
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<std::uint32_t>(next() & (kTableEntries - 1));
    }
  }

  /// Runs one slice of kSliceOps heap operations; returns its wall ns.
  std::int64_t slice() {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSliceOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      cursor_ = table_[(cursor_ ^ heap_.back()) & (kTableEntries - 1)];
      heap_.back() += 1 + ((next() ^ cursor_) & (kIncrements - 1));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return now_ns() - t0;
  }

 private:
  static constexpr std::uint64_t kIncrements = 1u << 16;

  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::vector<std::uint64_t> heap_;
  std::vector<std::uint32_t> table_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
  std::uint32_t cursor_ = 0;
};

/// A fixed scale near the gauge's slice time in the slow spells of the
/// 4-vCPU Xeon the benchmark was defined on. run_s and setup_s are wall
/// times scaled by (this / the gauge time measured beside them) ^
/// kGaugeElasticity: seconds on that host in such a spell.
constexpr double kGaugeNominalNs = 4'000'000;
/// How much faster the protocol runs than the gauge when the host speeds up,
/// as a power: regressing log run time on log gauge time over executions
/// gave slopes of 1.45 (mpc-async-n5), 1.63 (wss-async-n24-garble) and 0.88
/// (wss-sync-n32); see README.md.
constexpr double kGaugeElasticity = 1.4;
/// Run time between two gauge slices inside one execution.
constexpr std::int64_t kGaugePeriodNs = 50'000'000;

/// Added after the standard catalogue on untraced DES runs. At the first
/// protocol event once kGaugePeriodNs of run time has passed, it runs a gauge
/// slice; the run's wall time excludes the time spent there. The slices
/// sample the host throughout long executions without driving the
/// simulation any other way than Simulation::run().
class GaugeMonitor final : public obs::InvariantMonitor {
 public:
  explicit GaugeMonitor(HostGauge& gauge) : gauge_(gauge) {}
  [[nodiscard]] const char* name() const override { return "bench.gauge"; }
  void arm() { due_ns_ = now_ns() + kGaugePeriodNs; }
  void on_event(const obs::ProtocolEvent&) override {
    const std::int64_t t0 = now_ns();
    if (t0 < due_ns_) return;
    slices_ns.push_back(gauge_.slice());
    const std::int64_t t1 = now_ns();
    paused_ns += t1 - t0;
    due_ns_ = t1 + kGaugePeriodNs;
  }

  std::vector<std::int64_t> slices_ns;
  std::int64_t paused_ns = 0;

 private:
  HostGauge& gauge_;
  std::int64_t due_ns_ = 0;
};

// ---------------------------------------------------- per-layer probes

/// Protocol kinds the per-step dispatch time is attributed to. Kind id 0 of
/// the registry (untagged instances, timers owned by no instance) and any
/// kind not in this list land in "unattributed".
constexpr std::array<const char*, 15> kKinds = {
    "acast", "sba", "aba", "bc", "ba", "wss", "vss", "vts",
    "acs", "pub_rec", "priv_rec", "beaver", "triple_ext", "mpc",
    "unattributed"};
constexpr std::size_t kUnattributed = kKinds.size() - 1;

std::size_t kind_slot(const std::string& name) {
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    if (name == kKinds[i]) return i;
  }
  return kUnattributed;
}

/// Wall time the traced run spends in the transport and the monitors.
struct Probe {
  std::int64_t post_ns = 0;
  std::uint64_t posts = 0;
  std::int64_t monitor_ns = 0;
  std::int64_t monitor_open_ns = 0;
};

/// Times every Transport::post of one simulation: a decorator around the
/// reference DES backend (which it owns, so the FIFO state is fresh and the
/// run stays byte-identical to an undecorated one).
class TimedTransport final : public Transport {
 public:
  TimedTransport(int n, Probe& probe) : inner_(n), probe_(probe) {}

  void post(Simulation& sim, Message msg) override {
    const std::int64_t t0 = now_ns();
    inner_.post(sim, std::move(msg));
    probe_.post_ns += now_ns() - t0;
    probe_.posts++;
  }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  DesTransport inner_;
  Probe& probe_;
};

/// Installed first and last around the standard catalogue: the engine fans
/// every event (and the quiescence call) out in installation order, so the
/// interval between the two brackets is the catalogue's own work.
class BracketOpen final : public obs::InvariantMonitor {
 public:
  explicit BracketOpen(Probe& probe) : probe_(probe) {}
  [[nodiscard]] const char* name() const override { return "bench.open"; }
  void on_event(const obs::ProtocolEvent&) override {
    probe_.monitor_open_ns = now_ns();
  }
  void at_quiescence(const Simulation&) override {
    probe_.monitor_open_ns = now_ns();
  }

 private:
  Probe& probe_;
};

class BracketClose final : public obs::InvariantMonitor {
 public:
  explicit BracketClose(Probe& probe) : probe_(probe) {}
  [[nodiscard]] const char* name() const override { return "bench.close"; }
  void on_event(const obs::ProtocolEvent&) override { close(); }
  void at_quiescence(const Simulation&) override { close(); }

 private:
  void close() { probe_.monitor_ns += now_ns() - probe_.monitor_open_ns; }
  Probe& probe_;
};

// ------------------------------------------------------ one execution

/// What one execution did. Counts are exact on the DES.
struct Record {
  bool ok = true;
  std::string why;  ///< first failed check
  double setup_s = 0;
  double run_s = 0;
  /// Median gauge slice during the run and right after it, in ns (untraced
  /// DES runs only; else 0). Scales the run and the set-ups around it.
  double gauge_ns = 0;
  std::uint64_t msgs = 0;
  std::uint64_t words = 0;
  std::uint64_t events = 0;
  std::uint64_t timers = 0;
  std::int64_t vt_latency = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t rs_decodes = 0;
  std::uint64_t monitor_events = 0;
  std::array<obs::InstanceCost, kKinds.size()> kind_cost{};
  // Traced runs only.
  std::array<std::int64_t, kKinds.size()> dispatch_ns{};
  std::uint64_t steps = 0;
  std::int64_t post_ns = 0;
  std::uint64_t posts = 0;
  std::int64_t monitor_ns = 0;
  // Threaded runs only.
  double goal_s = 0;
  double teardown_s = 0;
  std::uint64_t wire_msgs = 0;
  bool incomplete = false;

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// A DES execution under construction or finished. Members are declared in
/// the order the Simulation needs them to outlive it (the circuit is held
/// by reference by Mpc, the engine and transport by the Simulation).
struct DesExecution {
  Circuit circuit;
  std::map<int, FpVec> inputs;
  Polynomial secret;
  PartySet corrupt;
  obs::MonitorEngine monitors;
  std::unique_ptr<TimedTransport> transport;
  std::unique_ptr<Simulation> sim;
  std::vector<Wss*> wss;
  std::vector<Mpc*> mpc;
  GaugeMonitor* gauge = nullptr;  ///< owned by `monitors`; untraced only
};

/// Set-up: builds the Simulation, attaches monitors (and, when traced, the
/// probes; else the gauge, when given), and spawns every party's instances,
/// up to the first event.
std::unique_ptr<DesExecution> set_up(const Workload& w, std::uint64_t seed,
                                     Probe* probe, HostGauge* gauge) {
  auto ex = std::make_unique<DesExecution>();
  const int n = w.params.n;
  if (probe != nullptr) {
    ex->monitors.add(std::make_unique<BracketOpen>(*probe));
  }
  obs::install_standard_monitors(ex->monitors);
  if (probe != nullptr) {
    ex->monitors.add(std::make_unique<BracketClose>(*probe));
  } else if (gauge != nullptr) {
    ex->gauge = static_cast<GaugeMonitor*>(
        &ex->monitors.add(std::make_unique<GaugeMonitor>(*gauge)));
  }
  ex->corrupt = corrupt_set(w);
  auto adversary = std::make_shared<ScriptedAdversary>(ex->corrupt);
  for (int id : ex->corrupt.to_vector()) adversary->garble_on(id, "");

  Simulation::Config cfg;
  cfg.params = w.params;
  cfg.kind = w.network;
  cfg.seed = seed;
  ex->sim = std::make_unique<Simulation>(cfg, adversary);
  Simulation& sim = *ex->sim;
  if (probe != nullptr) {
    ex->transport = std::make_unique<TimedTransport>(n, *probe);
    sim.set_transport(ex->transport.get());
    sim.metrics_registry().set_flight_ring(1);
  }
  sim.set_monitors(&ex->monitors);

  if (w.proto == Proto::wss) {
    Rng rng(seed ^ 0xc11u);
    ex->secret = Polynomial::random_with_constant(Fp(rng.next_u64()),
                                                  w.params.ts, rng);
    for (int i = 0; i < n; ++i) {
      ex->wss.push_back(
          &sim.party(i).spawn<Wss>("p", 0, 0, WssOptions{}, nullptr));
    }
    ex->wss[0]->start({ex->secret});
  } else {
    ex->circuit = cli_circuit(n);
    ex->inputs = circuit_inputs(n, seed);
    for (int i = 0; i < n; ++i) {
      ex->mpc.push_back(&sim.party(i).spawn<Mpc>("p", ex->circuit,
                                                 ex->inputs.at(i), nullptr));
    }
  }
  return ex;
}

/// Steps the simulation with run_one(), attributing each step's self time
/// (wall time minus the nested transport and monitor time) to the protocol
/// kind of the dispatched instance, then finishes with run() so the
/// quiescence monitors and the privacy audit execute as usual.
RunStatus step_traced(DesExecution& ex, Probe& probe, Record& rec) {
  Simulation& sim = *ex.sim;
  const obs::MetricsRegistry& reg = sim.metrics_registry();
  std::vector<std::size_t> slot_of;  // registry kind id -> kKinds slot
  auto slot = [&](std::size_t kind_id) {
    while (slot_of.size() <= kind_id) {
      const std::size_t k = slot_of.size();
      slot_of.push_back(k == 0 ? kUnattributed
                               : kind_slot(reg.kind_names()[k]));
    }
    return slot_of[kind_id];
  };
  const Time horizon = sim.config().horizon;
  while (true) {
    const std::optional<Time> next = sim.next_event_time();
    if (!next.has_value() || *next >= horizon) break;
    const std::int64_t post0 = probe.post_ns;
    const std::int64_t mon0 = probe.monitor_ns;
    const std::int64_t t0 = now_ns();
    if (!sim.run_one()) break;
    const std::int64_t t1 = now_ns();
    const std::uint32_t instance = reg.ring_in_order().back().instance;
    const std::size_t k = slot(reg.kind_index(instance));
    rec.dispatch_ns[k] +=
        (t1 - t0) - (probe.post_ns - post0) - (probe.monitor_ns - mon0);
    rec.steps++;
  }
  const std::int64_t mon0 = probe.monitor_ns;
  const std::int64_t t0 = now_ns();
  const RunStatus status = sim.run();
  rec.dispatch_ns[kUnattributed] +=
      (now_ns() - t0) - (probe.monitor_ns - mon0);
  return status;
}

/// MPC correctness: every honest party outputs the circuit's plain
/// evaluation over the inputs of the dealer set Com it agreed on (dealers
/// outside Com contribute the default 0, as Π_MPC specifies), all honest
/// parties agree on Com, and Com holds at least `min_com` dealers.
void check_mpc(const std::vector<Mpc*>& mpc, const Circuit& circuit,
               const std::map<int, FpVec>& inputs, PartySet corrupt,
               int min_com, Record& rec) {
  std::optional<PartySet> com;
  for (std::size_t i = 0; i < mpc.size(); ++i) {
    if (corrupt.contains(static_cast<int>(i))) continue;
    const std::string who = "P" + std::to_string(i);
    const Mpc* m = mpc[i];
    if (m == nullptr || !m->has_output()) {
      rec.fail(who + ": no output");
      continue;
    }
    if (!com.has_value()) com = m->com();
    if (!(m->com() == *com)) rec.fail(who + ": disagrees on Com");
    if (m->com().size() < min_com) rec.fail(who + ": Com " + m->com().str());
    std::map<int, FpVec> counted = inputs;
    for (auto& [dealer, values] : counted) {
      if (!m->com().contains(dealer)) values.assign(values.size(), Fp(0));
    }
    if (m->output() != circuit.eval_plain(counted)) {
      rec.fail(who + ": wrong output");
    }
    rec.vt_latency = std::max<std::int64_t>(rec.vt_latency, m->output_time());
  }
}

/// The correctness checks of nampc_cli: every honest party outputs, shares
/// lie on the dealer's polynomial (WSS) or outputs equal the circuit's plain
/// evaluation over every party's input (MPC), no monitor violation,
/// quiescent exit.
void check(const Workload& w, const DesExecution& ex, RunStatus status,
           Record& rec) {
  if (status != RunStatus::quiescent) {
    rec.fail(std::string("exit status ") + to_string(status));
  }
  if (!ex.monitors.ok()) {
    const obs::Violation& v = ex.monitors.violations().front();
    rec.fail(std::to_string(ex.monitors.violations().size()) +
             " monitor violation(s), first [" + v.monitor + "] " + v.key +
             ": " + v.detail);
  }
  if (w.proto == Proto::mpc) {
    check_mpc(ex.mpc, ex.circuit, ex.inputs, ex.corrupt, w.params.n, rec);
    return;
  }
  for (int i = 0; i < w.params.n; ++i) {
    if (ex.corrupt.contains(i)) continue;
    const Wss& s = *ex.wss[static_cast<std::size_t>(i)];
    if (s.outcome() != WssOutcome::rows) {
      rec.fail("P" + std::to_string(i) + ": no share");
      continue;
    }
    if (s.share(0) != ex.secret.eval(eval_point(i))) {
      rec.fail("P" + std::to_string(i) + ": wrong share");
    }
    rec.vt_latency = std::max<std::int64_t>(rec.vt_latency, s.output_time());
  }
}

/// Reads the run's counts from the public registry and Metrics view.
void read_counts(const DesExecution& ex, Record& rec) {
  const Simulation& sim = *ex.sim;
  const Metrics& m = sim.metrics();
  const obs::MetricsRegistry& reg = sim.metrics_registry();
  rec.msgs = m.messages_sent;
  rec.words = m.words_sent;
  rec.events = m.events_processed;
  rec.timers = reg.timers_total();
  rec.queue_peak = m.peak_queue_depth;
  rec.pool_hits = m.payload_pool_hits;
  rec.pool_misses = m.payload_pool_misses;
  rec.rs_decodes = m.rs_decodes;
  rec.monitor_events = ex.monitors.events_seen();
  for (std::size_t k = 0; k < reg.kind_rows().size(); ++k) {
    const std::size_t s =
        k == 0 ? kUnattributed : kind_slot(reg.kind_names()[k]);
    const obs::InstanceCost& c = reg.kind_rows()[k];
    rec.kind_cost[s].events += c.events;
    rec.kind_cost[s].messages += c.messages;
    rec.kind_cost[s].words += c.words;
  }
}

double median(std::vector<double> v);

Record run_des(const Workload& w, std::uint64_t seed, bool traced,
               HostGauge& gauge) {
  Record rec;
  Probe probe;
  try {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<DesExecution> ex =
        traced ? set_up(w, seed, &probe, nullptr)
               : set_up(w, seed, nullptr, &gauge);
    const std::int64_t t1 = now_ns();
    if (ex->gauge != nullptr) ex->gauge->arm();
    const RunStatus status =
        traced ? step_traced(*ex, probe, rec) : ex->sim->run();
    const std::int64_t t2 = now_ns();
    rec.setup_s = static_cast<double>(t1 - t0) / kNsPerS;
    rec.run_s = static_cast<double>(t2 - t1) / kNsPerS;
    if (ex->gauge != nullptr) {
      rec.run_s -= static_cast<double>(ex->gauge->paused_ns) / kNsPerS;
      std::vector<double> slices(ex->gauge->slices_ns.begin(),
                                 ex->gauge->slices_ns.end());
      slices.push_back(static_cast<double>(gauge.slice()));
      rec.gauge_ns = median(std::move(slices));
    }
    rec.post_ns = probe.post_ns;
    rec.posts = probe.posts;
    rec.monitor_ns = probe.monitor_ns;
    check(w, *ex, status, rec);
    read_counts(*ex, rec);
  } catch (const std::exception& e) {
    rec.fail(std::string("exception: ") + e.what());
  }
  return rec;
}

Record run_threaded_execution(const Workload& w, std::uint64_t seed) {
  Record rec;
  const int n = w.params.n;
  ThreadedConfig cfg;
  cfg.params = w.params;
  cfg.seed = seed;
  cfg.kind = w.network;
  cfg.tick_us = kThreadedTickUs;
  cfg.timeout_s = kThreadedTimeoutS;
  const Circuit circuit = cli_circuit(n);
  const std::map<int, FpVec> inputs = circuit_inputs(n, seed);
  const auto slots = static_cast<std::size_t>(n);
  std::vector<Mpc*> mpc(slots, nullptr);
  // Written by party i's runtime thread only; read after the join.
  std::vector<std::int64_t> spawned_ns(slots, 0);
  std::vector<std::int64_t> goal_ns(slots, 0);
  try {
    const std::int64_t t0 = now_ns();
    ThreadedResult res = run_threaded(
        cfg, [&](Simulation& sim, PartyId id) -> std::function<bool()> {
          const auto idx = static_cast<std::size_t>(id);
          Mpc& m = sim.party(id).spawn<Mpc>("p", circuit, inputs.at(id),
                                            nullptr);
          mpc[idx] = &m;
          spawned_ns[idx] = now_ns();
          return [&m, &goal = goal_ns[idx]] {
            if (!m.has_output()) return false;
            if (goal == 0) goal = now_ns();
            return true;
          };
        });
    const std::int64_t t_end = now_ns();
    const std::int64_t t_setup =
        *std::max_element(spawned_ns.begin(), spawned_ns.end());
    const std::int64_t t_goal =
        *std::max_element(goal_ns.begin(), goal_ns.end());
    rec.setup_s = static_cast<double>(t_setup - t0) / kNsPerS;
    rec.run_s = static_cast<double>(t_end - t_setup) / kNsPerS;
    rec.incomplete = !res.completed;
    if (!res.completed) rec.fail("watchdog fired");
    if (std::find(goal_ns.begin(), goal_ns.end(), 0) == goal_ns.end()) {
      rec.goal_s = static_cast<double>(t_goal - t_setup) / kNsPerS;
      rec.teardown_s = static_cast<double>(t_end - t_goal) / kNsPerS;
    }
    rec.wire_msgs = res.wire_messages;
    rec.events = res.events;
    rec.monitor_events = res.monitor_events;
    if (!res.violations.empty()) {
      const obs::Violation& v = res.violations.front();
      rec.fail(std::to_string(res.violations.size()) +
               " monitor violation(s), first [" + v.monitor + "] " + v.key +
               ": " + v.detail);
    }
    for (const auto& sim : res.sims) {
      rec.msgs += sim->metrics().messages_sent;
      rec.words += sim->metrics().words_sent;
    }
    // Real concurrency may legitimately leave up to ts dealers out of Com.
    check_mpc(mpc, circuit, inputs, PartySet{}, n - w.params.ts, rec);
  } catch (const std::exception& e) {
    rec.fail(std::string("exception: ") + e.what());
  }
  return rec;
}

Record run_execution(const Workload& w, std::uint64_t seed, bool traced,
                     HostGauge& gauge) {
  return w.threaded ? run_threaded_execution(w, seed)
                    : run_des(w, seed, traced, gauge);
}

/// Set-up only (no run): extra set-up samples for the median.
double setup_only(const Workload& w, std::uint64_t seed, HostGauge& gauge) {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<DesExecution> ex = set_up(w, seed, nullptr, &gauge);
  const std::int64_t t1 = now_ns();
  ex.reset();
  return static_cast<double>(t1 - t0) / kNsPerS;
}

// ------------------------------------------------------ kernel unit costs

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Median wall time of one `fn()` call, in microseconds, over batches of
/// calls that each take at least 0.5 ms, for a 0.2 s budget.
template <typename Fn>
double unit_cost_us(Fn&& fn) {
  constexpr std::int64_t kBatchNs = 500'000;
  constexpr std::int64_t kBudgetNs = 200'000'000;
  std::int64_t batch = 1;
  while (true) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < batch; ++i) fn();
    if (now_ns() - t0 >= kBatchNs) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  const std::int64_t start = now_ns();
  while (per_call.size() < 9 || now_ns() - start < kBudgetNs) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < batch; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                       static_cast<double>(batch));
  }
  return median(std::move(per_call));
}

struct KernelCosts {
  double rs_decode_us = 0;
  double star_us = 0;
  double matching_us = 0;
  bool ok = true;
};

/// Unit costs of the kernels through the public rs/graph APIs at the
/// workload's shape: a scheduled RS decode of n points of a degree-ts
/// polynomial carrying ta errors, and find_star / maximum_matching on an
/// n-vertex consistency graph from which the last ta parties' edges are
/// removed (the parties that garble on the garbling workload). find_star
/// uses t = ta, as Π_WSS's dealer does.
KernelCosts kernel_costs(const Workload& w, std::uint64_t seed) {
  KernelCosts out;
  const int n = w.params.n;
  const int ts = w.params.ts;
  const int ta = w.params.ta;
  Rng rng(seed ^ 0x4b3u);
  const Polynomial f =
      Polynomial::random_with_constant(Fp(rng.next_u64()), ts, rng);
  std::vector<RsPoint> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({eval_point(i), f.eval(eval_point(i))});
  }
  for (int i = 0; i < ta; ++i) {
    points[static_cast<std::size_t>(n - 1 - i)].y +=
        Fp(1 + rng.next_below(1000));
  }
  const ScheduledDecode probe = rs_decode_scheduled(points, ts, ta);
  out.ok = out.ok && probe.result.status == RsStatus::ok &&
           probe.result.poly == f;
  out.rs_decode_us = unit_cost_us([&] {
    const ScheduledDecode d = rs_decode_scheduled(points, ts, ta);
    if (d.result.status != RsStatus::ok) out.ok = false;
  });

  Graph g(n);
  for (int i = 0; i < n - ta; ++i) {
    for (int j = i + 1; j < n - ta; ++j) g.add_edge(i, j);
  }
  const Graph complement = g.complement();
  // The complement holds exactly the removed parties' edges, so a maximum
  // matching pairs each of them with a distinct other party.
  auto matching_ok = [&] {
    return static_cast<int>(maximum_matching(complement).size()) == ta;
  };
  out.ok = out.ok && find_star(g, ta).has_value() && matching_ok();
  out.star_us = unit_cost_us([&] {
    if (!find_star(g, ta).has_value()) out.ok = false;
  });
  out.matching_us = unit_cost_us([&] {
    if (!matching_ok()) out.ok = false;
  });
  return out;
}

// ------------------------------------------------------------- reporting

/// Median / mean over records of `get` (a member pointer or a callable).
template <typename Get>
double median_of(const std::vector<Record>& recs, Get get) {
  std::vector<double> v;
  for (const Record& r : recs) {
    v.push_back(static_cast<double>(std::invoke(get, r)));
  }
  return median(std::move(v));
}

template <typename Get>
double mean_of(const std::vector<Record>& recs, Get get) {
  double sum = 0;
  for (const Record& r : recs) sum += static_cast<double>(std::invoke(get, r));
  return recs.empty() ? 0 : sum / static_cast<double>(recs.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A wall time at the gauge's nominal host speed, given the gauge time
/// measured beside it (as is where no gauge ran: threaded runs).
double scaled(double wall_s, double gauge_ns) {
  return gauge_ns > 0
             ? wall_s * std::pow(kGaugeNominalNs / gauge_ns, kGaugeElasticity)
             : wall_s;
}

class MetricsOut {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    os_ << (first_ ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << unit << "\"}";
    first_ = false;
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Peak resident memory of the process, less the host gauge's fixed
/// footprint (resident from its construction to the end, so the peak of the
/// rest is exactly this).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double gauge_kib = static_cast<double>(HostGauge::kBytes) / 1024.0;
  return (static_cast<double>(ru.ru_maxrss) - gauge_kib) /
         1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

/// Share of the traced run's wall time that the per-kind dispatch, transport
/// and monitor timers may leave uncovered before the traced run's self-check
/// fails. The uncovered part is the stepping loop's own bookkeeping (about
/// 80 ns per step: the ring read and half of each clock pair), 4-9% of the
/// traced run on the DES workloads.
constexpr double kAttributionTolerance = 0.15;
/// After each untraced DES execution, set-up alone is repeated for this
/// share of the execution's run time (at least once). The extra samples are
/// spread over the run like the executions, so a shared host's slow and
/// fast spells weigh on setup_s as they do on run_s.
constexpr double kSetupShare = 0.03;

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  const Workload& w = *found;
  const bool traced = args.trace == 1 && !w.threaded;

  // Closed loop: one execution at a time until the time is up.
  std::vector<Record> plain;   // untraced executions
  std::vector<Record> probed;  // traced twins (same seeds), --trace 1 only
  std::vector<double> setups;         // wall seconds
  std::vector<double> setups_scaled;  // at the gauge's nominal host speed
  std::vector<std::string> failures;
  bool self_check = true;
  std::string self_check_why;
  HostGauge gauge;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * kNsPerS);
  std::uint64_t index = 0;
  do {
    const std::uint64_t seed = derive_seed(args.seed, index++);
    plain.push_back(run_execution(w, seed, false, gauge));
    const Record& last = plain.back();
    setups.push_back(last.setup_s);
    setups_scaled.push_back(scaled(last.setup_s, last.gauge_ns));
    if (!last.ok) {
      failures.push_back("seed " + std::to_string(seed) + ": " + last.why);
    }
    if (args.trace == 0 && !w.threaded) {
      const std::int64_t until =
          now_ns() +
          static_cast<std::int64_t>(last.run_s * kSetupShare * kNsPerS);
      do {
        setups.push_back(setup_only(w, seed, gauge));
        setups_scaled.push_back(scaled(setups.back(), last.gauge_ns));
      } while (now_ns() < until);
    }
    if (traced) {
      probed.push_back(run_execution(w, seed, true, gauge));
      const Record& a = plain.back();
      const Record& b = probed.back();
      if (!b.ok) {
        failures.push_back("seed " + std::to_string(seed) + " (traced): " +
                           b.why);
      }
      if (a.msgs != b.msgs || a.words != b.words || a.events != b.events ||
          a.vt_latency != b.vt_latency) {
        self_check = false;
        self_check_why = "traced counts differ from untraced on seed " +
                         std::to_string(seed);
      }
    }
  } while (now_ns() < deadline);

  MetricsOut out;
  std::ostringstream info;
  const auto attempted = plain.size() + probed.size();
  const auto failed = failures.size();
  info << "{\"perfbench\": {\"workload\": \"" << w.name << "\", \"seed\": "
       << args.seed << ", \"trace\": " << args.trace
       << ", \"executions\": " << plain.size()
       << ", \"setup_samples\": " << setups.size();
  auto write_samples = [&info](const char* key, const std::vector<double>& v) {
    info << ", \"" << key << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) info << (i ? ", " : "") << v[i];
    info << "]";
  };
  std::vector<double> runs;
  std::vector<double> runs_scaled;
  std::vector<double> gauges;
  for (const Record& r : plain) {
    runs.push_back(r.run_s);
    runs_scaled.push_back(scaled(r.run_s, r.gauge_ns));
    gauges.push_back(r.gauge_ns);
  }
  write_samples("run_s_samples", runs_scaled);
  write_samples("setup_s_samples", setups_scaled);
  write_samples("wall_run_s_samples", runs);
  write_samples("wall_setup_s_samples", setups);
  write_samples("gauge_ns_samples", gauges);
  info << ", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";

  if (args.trace == 0) {
    out.add("run_s", median(runs_scaled), "s");
    out.add("setup_s", median(setups_scaled), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("ok_share",
            ratio(static_cast<double>(attempted - failed),
                  static_cast<double>(attempted)),
            "share");
    out.add("msgs", median_of(plain, &Record::msgs), "count");
    out.add("words", median_of(plain, &Record::words), "count");
    out.add("vt_latency", median_of(plain, &Record::vt_latency), "ticks");
  } else if (w.threaded) {
    out.add("threaded.goal_s", median_of(plain, &Record::goal_s), "s");
    out.add("threaded.teardown_s", median_of(plain, &Record::teardown_s), "s");
    out.add("threaded.wire_msgs", median_of(plain, &Record::wire_msgs),
            "count");
    out.add("threaded.events", median_of(plain, &Record::events), "count");
    out.add("threaded.vt_latency", median_of(plain, &Record::vt_latency),
            "ticks");
    out.add("threaded.incomplete_share", mean_of(plain, &Record::incomplete),
            "share");
    out.add("obs.monitor_events", median_of(plain, &Record::monitor_events),
            "count");
  } else {
    // Per-execution means over the traced twins.
    const std::vector<Record>& t = probed;
    double traced_s = 0;
    double plain_s = 0;
    std::int64_t self_ns = 0;
    std::int64_t post_ns = 0;
    std::int64_t monitor_ns = 0;
    std::uint64_t steps = 0;
    std::uint64_t posts = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      traced_s += t[i].run_s;
      plain_s += plain[i].run_s;
      for (std::int64_t ns : t[i].dispatch_ns) self_ns += ns;
      post_ns += t[i].post_ns;
      monitor_ns += t[i].monitor_ns;
      steps += t[i].steps;
      posts += t[i].posts;
    }
    const double execs = static_cast<double>(t.size());
    auto per_exec_s = [execs](std::int64_t ns) {
      return static_cast<double>(ns) / kNsPerS / execs;
    };
    const double covered =
        static_cast<double>(self_ns + post_ns + monitor_ns) / kNsPerS;
    const double gap = 1.0 - ratio(covered, traced_s);
    if (std::abs(gap) > kAttributionTolerance) {
      self_check = false;
      self_check_why = "layer times cover only " +
                       std::to_string(ratio(covered, traced_s)) +
                       " of the traced run";
    }
    const double pool_hits = mean_of(t, &Record::pool_hits);
    const double pool_all = pool_hits + mean_of(t, &Record::pool_misses);

    out.add("net.events", mean_of(t, &Record::events), "count");
    out.add("net.timers", mean_of(t, &Record::timers), "count");
    out.add("net.queue_peak", mean_of(t, &Record::queue_peak), "count");
    out.add("net.pool_hit_ratio", ratio(pool_hits, pool_all), "ratio");
    out.add("net.dispatch_ns",
            ratio(static_cast<double>(self_ns), static_cast<double>(steps)),
            "ns");
    out.add("net.transport.post_ns",
            ratio(static_cast<double>(post_ns), static_cast<double>(posts)),
            "ns");
    out.add("net.transport.post_s", per_exec_s(post_ns), "s");
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      std::int64_t ns = 0;
      for (const Record& r : t) ns += r.dispatch_ns[k];
      out.add(std::string("net.dispatch_s.") + kKinds[k], per_exec_s(ns), "s");
    }
    const std::array<std::pair<const char*, std::uint64_t obs::InstanceCost::*>,
                     3>
        kind_counts = {{{"net.events.", &obs::InstanceCost::events},
                        {"net.msgs.", &obs::InstanceCost::messages},
                        {"net.words.", &obs::InstanceCost::words}}};
    for (const auto& [prefix, field] : kind_counts) {
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        out.add(std::string(prefix) + kKinds[k],
                mean_of(t, [k, field = field](const Record& r) {
                  return r.kind_cost[k].*field;
                }),
                "count");
      }
    }
    out.add("rs.decodes", mean_of(t, &Record::rs_decodes), "count");
    out.add("obs.monitor_s", per_exec_s(monitor_ns), "s");
    out.add("obs.monitor_events", mean_of(t, &Record::monitor_events), "count");
    out.add("obs.trace_overhead", ratio(traced_s, plain_s), "ratio");
    out.add("obs.traced_run_s", traced_s / execs, "s");
    out.add("obs.attribution_gap", gap, "share");
    out.add("host.gauge_ms", median(gauges) / 1e6, "ms");
    out.add("host.wall_run_s", median(runs), "s");
    info << ", \"attribution_tolerance\": " << kAttributionTolerance;
  }
  if (args.trace == 1) {
    const KernelCosts kc = kernel_costs(w, args.seed);
    if (!kc.ok) {
      self_check = false;
      self_check_why = "kernel probe returned a wrong result";
    }
    out.add("rs.decode_us", kc.rs_decode_us, "us");
    out.add("graph.star_us", kc.star_us, "us");
    out.add("graph.matching_us", kc.matching_us, "us");
  }
  info << ", \"self_check\": " << (self_check ? "true" : "false");
  if (!self_check) {
    info << ", \"self_check_failure\": \"" << json_escape(self_check_why)
         << "\"";
  }
  info << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    info << (i ? ", " : "") << '"' << json_escape(failures[i]) << '"';
  }
  info << "]}}";
  for (const std::string& f : failures) {
    std::cerr << "perfbench: FAILED " << f << "\n";
  }
  if (!self_check) {
    std::cerr << "perfbench: self-check failed: " << self_check_why << "\n";
  }

  std::cout << info.str() << "\n";
  const bool correct = failed == 0 && self_check;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << out.str() << "}" << std::endl;
  return 0;
}
