// Discrete-event simulator: parties, routing, timers, adversarial delivery.
//
// One Simulation hosts n parties, an event queue ordered by (virtual time,
// event klass, insertion order), a network model (synchronous with bound Δ,
// or asynchronous), and an Adversary that corrupts parties and schedules
// delivery. Protocol code is written as ProtocolInstance subclasses that
// exchange Messages and set timers; the same protocol code runs unchanged
// under either network, which is the whole point of the paper.
//
// Model enforcement (see adversary.h): honest→* messages cannot be dropped
// or modified; in a synchronous network they arrive within Δ and in FIFO
// order per channel. Corrupt senders can do anything, including staying
// silent forever.
//
// Delivery itself goes through a pluggable Transport (net/transport.h);
// the DES scheduler above is the default backend, and net/threaded.h runs
// the same protocol code over real threads instead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/adversary.h"
#include "net/message.h"
#include "net/time.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_safety.h"

namespace nampc {

namespace obs {
class Tracer;
class MonitorEngine;
struct ProtocolEvent;
}

class Party;
class ProtocolInstance;
class Transport;
class DesTransport;

/// Why Simulation::run returned.
enum class RunStatus {
  quiescent,    ///< no pending events (every protocol ran to completion)
  event_limit,  ///< safety valve tripped — almost certainly a bug or livelock
  horizon,      ///< only events beyond the configured horizon remain
};

[[nodiscard]] inline const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::quiescent: return "quiescent";
    case RunStatus::event_limit: return "event_limit";
    case RunStatus::horizon: return "horizon";
  }
  return "?";
}

/// One simulated execution.
class Simulation {
 public:
  struct Config {
    ProtocolParams params;
    NetworkKind kind = NetworkKind::synchronous;
    Time delta = 10;
    /// Honest asynchronous delays are uniform in [1, async_spread * delta].
    Time async_spread = 25;
    std::uint64_t seed = 1;
    std::uint64_t max_events = 200'000'000;
    /// When true, Π_SBA / Π_ABA (the *imported* primitives of §4) run as
    /// ideal functionalities with the same interface and timing — see
    /// DESIGN.md substitution #3. Acast, Π_BC, Π_BA and Π_ACS logic always
    /// runs for real.
    bool ideal_primitives = false;
    /// ABA coin: false = ideal common coin (default), true = Ben-Or local
    /// coins (almost-surely terminating, slower).
    bool local_coins = false;
    /// Events scheduled at or beyond this time are not executed; used to cut
    /// off kFarFuture deliveries from adversarial schedulers.
    Time horizon = kFarFuture;
    /// The lower-bound experiment (§5) deliberately runs with parameters
    /// that violate Theorem 1.1; it sets this to skip feasibility checks.
    bool allow_infeasible = false;
    /// Privacy audit at quiescence: assert that no dealer had more than ts
    /// honest row polynomials revealed in any single sharing instance
    /// (honest_reveals()). Skipped under allow_infeasible.
    bool privacy_audit = true;
  };

  Simulation(Config config, std::shared_ptr<Adversary> adversary);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const ProtocolParams& params() const { return config_.params; }
  [[nodiscard]] const Timing& timing() const { return timing_; }
  [[nodiscard]] NetworkKind kind() const { return config_.kind; }
  /// The run totals, owned by the metrics registry.
  [[nodiscard]] Metrics& metrics() { return registry_.totals(); }
  [[nodiscard]] const Metrics& metrics() const { return registry_.totals(); }

  /// The dimensional cost-attribution registry (obs/metrics.h). Always
  /// attached; it is the single accounting path for the run's counters.
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics_registry() const {
    return registry_;
  }

  /// Privacy ledger entry of one sharing instance: its dealer and the
  /// honest parties whose row polynomials were made public there.
  struct HonestReveals {
    PartyId dealer = -1;
    PartySet honest;
  };

  /// Records that honest party `member` had its row polynomial made public
  /// in sharing instance `instance_key` dealt by `dealer`. Instance keys are
  /// identical across parties, so each logical reveal is recorded once (by
  /// the revealed party's own instance copy).
  void note_honest_reveal(const std::string& instance_key, PartyId dealer,
                          PartyId member);
  /// The privacy ledger, keyed by sharing-instance key.
  [[nodiscard]] const std::map<std::string, HonestReveals>& honest_reveals()
      const {
    return honest_reveals_;
  }
  /// Per dealer, the most honest rows revealed in any one instance it dealt
  /// (the proofs require each <= ts).
  [[nodiscard]] std::map<PartyId, std::uint64_t> worst_honest_reveals() const;

  /// Why the most recent run() returned (quiescent before any run).
  [[nodiscard]] RunStatus last_status() const { return last_status_; }
  [[nodiscard]] Adversary& adversary() { return *adversary_; }
  [[nodiscard]] const Adversary& adversary() const { return *adversary_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Attaches (or detaches, with nullptr) an observability tracer. The
  /// tracer is not owned and must outlive this Simulation — spans close
  /// from protocol-instance destructors. With no tracer attached every
  /// hook site is a single null-pointer check.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Attaches (or detaches, with nullptr) an online invariant-monitor
  /// engine. Like the tracer it is not owned and must outlive this
  /// Simulation; attaching captures the run context (params, network kind,
  /// corrupt set) via MonitorEngine::bind. With none attached every
  /// protocol notify site is a single null-pointer check.
  void set_monitors(obs::MonitorEngine* monitors);
  [[nodiscard]] obs::MonitorEngine* monitors() const { return monitors_; }

  /// Serialises monitor-engine access when one engine is shared across
  /// concurrently-running party runtimes (the threaded backend —
  /// net/threaded.h). Null (the default) means no locking: the DES is
  /// single-threaded. Not owned.
  void set_monitor_lock(Mutex* mu) { monitor_mu_ = mu; }

  /// Reports a protocol event to the attached monitor engine, taking the
  /// monitor lock when one is set. No-op without an engine.
  void notify_monitors(obs::ProtocolEvent ev);

  /// Attaches (or detaches, with nullptr) the delivery backend used for
  /// messages whose endpoints differ — see net/transport.h. Not owned and
  /// must outlive this Simulation; detaching restores the built-in DES
  /// transport, which is always the default.
  void set_transport(Transport* transport);
  [[nodiscard]] Transport& transport() { return *transport_; }

  [[nodiscard]] Party& party(PartyId id);
  [[nodiscard]] int n() const { return config_.params.n; }

  /// Ideal common coin (the coin-tossing functionality of [24, 6]): every
  /// party computes the same bit for a given (label, round) — see DESIGN.md
  /// substitution #2.
  [[nodiscard]] bool common_coin(const std::string& label,
                                 std::uint64_t round) const {
    return Rng::oracle_coin(config_.seed ^ 0x9e3779b9ull, label, round);
  }

  /// Schedules fn at absolute virtual time t (>= now). Within one tick
  /// events run in klass order (0..3, anything else is rejected), and in
  /// insertion order within one (tick, klass): message deliveries (klass 0)
  /// run before timers, so a protocol step "at time T" observes every
  /// message that arrived "by time T".
  /// `owner` / `owner_party` attribute the timer's dispatch cost in the
  /// metrics registry (ProtocolInstance::at/after pass their own identity;
  /// driver-scheduled timers default to the unattributed cell).
  void schedule(Time t, std::function<void()> fn, int klass = 1,
                std::uint32_t owner = kNoInstance, PartyId owner_party = -1);

  /// Schedules a message delivery at absolute time t. Deliveries carry the
  /// Message inline in the event (klass 0) — no closure allocation on the
  /// hot path, which at n = 64 runs tens of millions of times.
  void schedule_delivery(Time t, Message msg);

  /// Interns a protocol-instance routing key, returning its dense id.
  /// Keys are identical across parties, so each logical instance interns
  /// exactly once; parties route deliveries by indexing with the id.
  [[nodiscard]] std::uint32_t intern_instance(const std::string& key);
  /// The interned key text for `id` (stable address for the run).
  [[nodiscard]] const std::string& instance_name(std::uint32_t id) const {
    return instance_names_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::uint32_t instance_count() const {
    return static_cast<std::uint32_t>(instance_names_.size());
  }

  /// Sends a message through the attached transport (self-deliveries
  /// bypass the network here). Under the default DES transport the
  /// adversary's SendDecision is applied under the model-enforcement
  /// contract of net/adversary.h (honest integrity, Δ-clamping, FIFO); the
  /// delivery delay resolves as explicit decision → Adversary::sample_delay
  /// → built-in model distribution.
  void post_message(Message msg);

  /// Runs until quiescence, the horizon, or the event limit.
  RunStatus run();

  /// Next pending event's virtual time, or nullopt when the queue is empty.
  /// Part of the stepping API used by external runtimes (net/threaded.h)
  /// that interleave local DES events with transport traffic.
  [[nodiscard]] std::optional<Time> next_event_time() const;

  /// Pops and executes the single earliest pending event, advancing now().
  /// Returns false — setting last_status() to quiescent or event_limit —
  /// when the queue is empty or the valve trips; the horizon is not
  /// consulted (stepping runtimes gate on next_event_time themselves).
  bool run_one();

  /// Path of the flight-record JSON written by the most recent event-limit
  /// trip ("" when none was written — no trip yet, or NAMPC_FLIGHT_DIR
  /// unset), so drivers can name the artifact in their own summaries.
  [[nodiscard]] const std::string& last_flight_path() const {
    return last_flight_path_;
  }

  /// Type-erased shared state for ideal-functionality gadgets (Ideal BC/BA).
  /// Creates the object on first access via `factory`.
  template <typename T, typename Factory>
  T& shared_state(const std::string& key, Factory&& factory) {
    auto it = gadgets_.find(key);
    if (it == gadgets_.end()) {
      auto obj = std::shared_ptr<T>(factory());
      it = gadgets_.emplace(key, std::move(obj)).first;
    }
    return *static_cast<T*>(it->second.get());
  }

 private:
  /// A timer event's body: the closure plus its cost attribution.
  struct Timer {
    std::function<void()> fn;
    std::uint32_t owner = kNoInstance;
    PartyId owner_party = -1;
  };
  /// Queue entry body. Deliveries carry the Message inline, so the dominant
  /// event kind costs no std::function heap allocation. The dispatch order
  /// lives in the bucket key and FIFO position, not in the body.
  using Event = std::variant<Message, Timer>;

  /// Every event of one (time, klass), in insertion order. Events are
  /// ordered by (time, klass, insertion sequence) and the sequence only
  /// grows, so popping bucket FIFOs in key order reproduces that total
  /// order with no comparator. `head` is the next event to pop; a bucket
  /// is erased as soon as it drains.
  struct Bucket {
    std::vector<Event> events;
    std::size_t head = 0;
  };
  static constexpr int kKlassBits = 2;
  static constexpr int kMaxKlass = (1 << kKlassBits) - 1;

  void audit_privacy() const;

  void push_event(Time t, int klass, Event ev);

  /// Pops and dispatches the earliest event (shared by run and run_one).
  void dispatch_top();

  /// Composition of the pending event queue (flight recorder, cold path).
  [[nodiscard]] obs::QueueStats queue_stats() const;

  /// Event-limit diagnostics: flight record + stderr dump + optional
  /// NAMPC_FLIGHT_DIR JSON file.
  void on_event_limit();

  Config config_;
  Timing timing_;
  std::shared_ptr<Adversary> adversary_;
  obs::Tracer* tracer_ = nullptr;
  obs::MonitorEngine* monitors_ = nullptr;
  Mutex* monitor_mu_ = nullptr;
  obs::MetricsRegistry registry_;
  std::map<std::string, HonestReveals> honest_reveals_;
  RunStatus last_status_ = RunStatus::quiescent;
  Rng rng_;
  Time now_ = 0;
  // Pending events keyed by (time << kKlassBits) | klass.
  std::map<std::uint64_t, Bucket> queue_;
  std::size_t queue_size_ = 0;
  std::vector<std::unique_ptr<Party>> parties_;
  // Delivery backend: des_transport_ is the built-in default, transport_
  // the active (possibly externally attached) one.
  std::unique_ptr<DesTransport> des_transport_;
  Transport* transport_ = nullptr;
  std::string last_flight_path_;
  std::map<std::string, std::shared_ptr<void>> gadgets_;
  // Instance-key interner: dense ids for vector routing (see message.h).
  // The deque keeps every interned string at a stable address.
  std::map<std::string, std::uint32_t> instance_ids_;
  std::deque<std::string> instance_names_;
};

/// One simulated party: routes messages to protocol instances by key and
/// buffers messages for instances that have not been created yet (an
/// asynchronous network can deliver a child protocol's traffic before the
/// local party has spawned that child).
class Party {
 public:
  Party(Simulation& sim, PartyId id);
  ~Party();

  Party(const Party&) = delete;
  Party& operator=(const Party&) = delete;

  [[nodiscard]] PartyId id() const { return id_; }
  [[nodiscard]] Simulation& sim() { return sim_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] bool corrupt() const;

  /// Creates a top-level protocol instance owned by the party.
  template <typename T, typename... Args>
  T& spawn(Args&&... args) {
    auto owned = std::make_unique<T>(*this, std::forward<Args>(args)...);
    T& ref = *owned;
    roots_.push_back(std::move(owned));
    register_instance(ref);
    return ref;
  }

  void register_instance(ProtocolInstance& inst);
  void unregister_instance(std::uint32_t instance_id);

  /// Routes (or buffers) an arriving message. Called by the simulator.
  void deliver(const Message& msg);

 private:
  void ensure_slot(std::uint32_t instance_id);

  Simulation& sim_;
  PartyId id_;
  Rng rng_;
  // Indexed by interned instance id (grow-on-demand): the per-delivery
  // string-map lookup this replaces dominated the n = 64 routing profile.
  std::vector<ProtocolInstance*> router_;
  std::vector<std::vector<Message>> pending_;
  std::vector<std::unique_ptr<ProtocolInstance>> roots_;
};

/// Base class for protocol state machines.
///
/// A ProtocolInstance belongs to one party and is addressed by a
/// hierarchical string key. Subclasses implement on_message and use the
/// protected helpers for I/O and timers. Composite protocols own child
/// instances (make_child), giving every protocol in the stack a stable
/// address like "mpc/z3/d2/vts/vss/it1/inner4/rbc5".
///
/// Observability: every instance automatically gets a trace span (opened
/// at registration, closed at destruction) when a Tracer is attached.
/// Subclasses annotate it with span_kind (once, in the constructor; the tag
/// is also what counts the instance, in MetricsRegistry::kind_tags),
/// phase() for named transitions, and span_done() when the protocol
/// delivers its output — done-begin is the per-primitive latency reported
/// against the paper's T_* formulas.
/// NAMPC_PLOG(level) logs with virtual time / party / kind / key attached
/// centrally.
class ProtocolInstance {
 public:
  ProtocolInstance(Party& party, std::string key);
  virtual ~ProtocolInstance();

  ProtocolInstance(const ProtocolInstance&) = delete;
  ProtocolInstance& operator=(const ProtocolInstance&) = delete;

  [[nodiscard]] const std::string& key() const { return key_; }
  /// Dense per-Simulation id of key() (see Simulation::intern_instance).
  [[nodiscard]] std::uint32_t instance_id() const { return instance_id_; }

  virtual void on_message(const Message& msg) = 0;

 protected:
  [[nodiscard]] Party& party() { return party_; }
  [[nodiscard]] PartyId my_id() const { return party_.id(); }
  [[nodiscard]] Simulation& sim() { return party_.sim(); }
  [[nodiscard]] Time now() const { return party_.sim().now(); }
  [[nodiscard]] const ProtocolParams& params() const {
    return party_.sim().params();
  }
  [[nodiscard]] int n() const { return params().n; }
  [[nodiscard]] const Timing& timing() const { return party_.sim().timing(); }
  [[nodiscard]] Rng& rng() { return party_.rng(); }
  [[nodiscard]] Metrics& metrics() { return party_.sim().metrics(); }

  void send(PartyId to, int type, Payload payload = {});
  /// Sends one body to every party, self included: all n messages hold
  /// the same buffer. The Words overload allocates that buffer (a pool
  /// miss in the metrics, then n - 1 hits); the Payload overload forwards
  /// a received body with no allocation (n hits). Empty bodies count
  /// neither.
  void send_all(int type, Words payload);
  void send_all(int type, const Payload& payload);

  /// Tags this instance's trace span with a primitive kind ("bc", "wss",
  /// ...). Call once from the constructor; also sets the log module used
  /// by NAMPC_PLOG and Log per-module level filters.
  void span_kind(const char* kind);

  /// Records the protocol's nominal start time on the span (composed
  /// primitives are constructed up front, so begin alone overstates
  /// latency). Call in the constructor next to span_kind.
  void span_nominal(Time t);
  /// Records a named phase transition on this instance's span.
  void phase(const std::string& name);
  /// Marks the virtual time this protocol delivered its output (first call
  /// wins); the span's latency statistic is done - spawn.
  void span_done();

  /// Reports a protocol-level event to the attached monitor engine (no-op
  /// without one). `value` is this kind's canonical payload encoding — see
  /// the monitor catalogue in obs/monitor.cpp. notify_input is called where
  /// a party submits its protocol input, notify_output where the protocol
  /// delivers output (next to span_done).
  void notify_input(Words value);
  void notify_output(Words value);

 public:
  /// Context-carrying log line for NAMPC_PLOG (public so lambdas capturing
  /// `this` inside subclasses can expand the macro).
  [[nodiscard]] detail::LogLine log_line(LogLevel lvl) {
    return detail::LogLine(lvl, now(), my_id(), kind_, key_);
  }

 protected:

  /// Runs fn at absolute time t (clamped to now if already past).
  /// Within one tick events run in klass order: 0 = message deliveries,
  /// 1 = primitive-internal timers (SBA rounds), 2 = Π_BC output steps,
  /// 3 = protocol steps (default) — so a protocol step "at time T" observes
  /// every message and broadcast output "by time T".
  void at(Time t, std::function<void()> fn, int klass = 3);
  /// Runs fn after `delay` ticks.
  void after(Time delay, std::function<void()> fn, int klass = 3);

  /// Creates and registers a child instance keyed `key() + "/" + subkey`.
  template <typename T, typename... Args>
  T& make_child(const std::string& subkey, Args&&... args) {
    auto owned = std::make_unique<T>(party_, key_ + "/" + subkey,
                                     std::forward<Args>(args)...);
    T& ref = *owned;
    children_.push_back(std::move(owned));
    party_.register_instance(ref);
    return ref;
  }

 private:
  /// send_all's loop; `fresh` marks a buffer built for this broadcast.
  void fan_out(int type, const Payload& payload, bool fresh);

  Party& party_;
  std::string key_;
  std::uint32_t instance_id_;
  std::string kind_;  ///< primitive kind from span_kind; "" until tagged
  std::vector<std::unique_ptr<ProtocolInstance>> children_;
};

}  // namespace nampc
