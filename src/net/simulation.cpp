#include "net/simulation.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/tracer.h"

namespace nampc {

Simulation::Simulation(Config config, std::shared_ptr<Adversary> adversary)
    : config_(config),
      timing_(Timing::derive(config.params, config.delta)),
      adversary_(std::move(adversary)),
      registry_(config.params.n),
      rng_(config.seed) {
  if (!config_.allow_infeasible) config_.params.validate();
  NAMPC_REQUIRE(adversary_ != nullptr, "simulation needs an adversary");
  const PartySet corrupt = adversary_->corrupt_set();
  NAMPC_REQUIRE(corrupt.subset_of(PartySet::full(config_.params.n)),
                "corrupt set contains unknown parties");
  const int budget = config_.kind == NetworkKind::synchronous
                         ? config_.params.ts
                         : config_.params.ta;
  NAMPC_REQUIRE(corrupt.size() <= budget,
                "adversary exceeds the corruption budget for this network");
  parties_.reserve(static_cast<std::size_t>(config_.params.n));
  for (int i = 0; i < config_.params.n; ++i) {
    parties_.push_back(std::make_unique<Party>(*this, i));
  }
  des_transport_ = std::make_unique<DesTransport>(config_.params.n);
  transport_ = des_transport_.get();
}

Simulation::~Simulation() {
  // Drop pending events (which may capture instance pointers) before the
  // parties that own those instances.
  queue_.clear();
}

void Simulation::set_monitors(obs::MonitorEngine* monitors) {
  monitors_ = monitors;
  if (monitors_ != nullptr) monitors_->bind(*this);
}

void Simulation::notify_monitors(obs::ProtocolEvent ev) {
  if (monitors_ == nullptr) return;
  if (monitor_mu_ != nullptr) {
    const MutexLock lock(*monitor_mu_);
    monitors_->on_event(std::move(ev));
    return;
  }
  monitors_->on_event(std::move(ev));
}

void Simulation::set_transport(Transport* transport) {
  transport_ = transport != nullptr ? transport : des_transport_.get();
}

Party& Simulation::party(PartyId id) {
  NAMPC_REQUIRE(id >= 0 && id < static_cast<int>(parties_.size()),
                "party id out of range");
  return *parties_[static_cast<std::size_t>(id)];
}

void Simulation::push_event(Time t, int klass, Event ev) {
  NAMPC_REQUIRE(t >= now_, "cannot schedule in the past");
  NAMPC_REQUIRE(klass >= 0 && klass <= kMaxKlass, "event klass out of range");
  NAMPC_REQUIRE(t <= (std::numeric_limits<Time>::max() >> kKlassBits),
                "event time beyond the queue's key range");
  if (tracer_) tracer_->on_schedule(t, klass);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(t) << kKlassBits) |
      static_cast<std::uint64_t>(klass);
  queue_[key].events.push_back(std::move(ev));
  registry_.on_queue_depth(++queue_size_);
}

void Simulation::schedule(Time t, std::function<void()> fn, int klass,
                          std::uint32_t owner, PartyId owner_party) {
  push_event(t, klass, Timer{std::move(fn), owner, owner_party});
}

void Simulation::schedule_delivery(Time t, Message msg) {
  push_event(t, /*klass=*/0, std::move(msg));
}

std::uint32_t Simulation::intern_instance(const std::string& key) {
  const auto it = instance_ids_.find(key);
  if (it != instance_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(instance_names_.size());
  instance_names_.push_back(key);
  instance_ids_.emplace(key, id);
  return id;
}

void Simulation::post_message(Message msg) {
  NAMPC_REQUIRE(msg.from >= 0 && msg.from < n() && msg.to >= 0 && msg.to < n(),
                "message endpoints out of range");
  registry_.on_send(msg.instance_id, msg.from, msg.payload.size());
  if (tracer_) {
    tracer_->on_send(msg.from, msg.instance(), msg.payload.size());
  }

  // Self-delivery bypasses the network (a party talking to itself) in
  // every backend; only cross-party traffic reaches the transport seam.
  if (msg.from == msg.to) {
    if (tracer_) {
      tracer_->on_flow(msg.from, msg.to, msg.payload.size(), now_, now_,
                       msg.instance());
    }
    schedule_delivery(now_, std::move(msg));
    return;
  }

  transport_->post(*this, std::move(msg));
}

void Simulation::dispatch_top() {
  const auto it = queue_.begin();
  const Time t = static_cast<Time>(it->first >> kKlassBits);
  const int klass = static_cast<int>(it->first & kMaxKlass);
  // Move the body out before dispatching: handlers may push into this very
  // bucket (self-deliveries at now_, klass-0 ideal-gadget timers), which
  // can reallocate its FIFO; a drained bucket is erased right away.
  Bucket& bucket = it->second;
  Event ev = std::move(bucket.events[bucket.head++]);
  if (bucket.head == bucket.events.size()) queue_.erase(it);
  --queue_size_;
  registry_.advance_time(t);
  now_ = t;
  if (auto* m = std::get_if<Message>(&ev)) {
    registry_.on_dispatch(m->instance_id, m->to, /*delivery=*/true, m->type,
                          now_, m->payload.size());
    party(m->to).deliver(*m);
  } else {
    Timer& timer = std::get<Timer>(ev);
    registry_.on_dispatch(timer.owner, timer.owner_party, /*delivery=*/false,
                          klass, now_, 0);
    timer.fn();
  }
}

std::optional<Time> Simulation::next_event_time() const {
  if (queue_.empty()) return std::nullopt;
  return static_cast<Time>(queue_.begin()->first >> kKlassBits);
}

bool Simulation::run_one() {
  if (queue_.empty()) {
    last_status_ = RunStatus::quiescent;
    return false;
  }
  if (metrics().events_processed >= config_.max_events) {
    on_event_limit();
    last_status_ = RunStatus::event_limit;
    return false;
  }
  dispatch_top();
  return true;
}

RunStatus Simulation::run() {
  while (!queue_.empty()) {
    if (metrics().events_processed >= config_.max_events) {
      on_event_limit();
      last_status_ = RunStatus::event_limit;
      return RunStatus::event_limit;
    }
    if (*next_event_time() >= config_.horizon) {
      registry_.finish(now_);
      last_status_ = RunStatus::horizon;
      return RunStatus::horizon;
    }
    dispatch_top();
  }
  registry_.finish(now_);
  // Monitors first: a quiescence violation should be recorded (and
  // reported to whoever reads the engine) even when the privacy-audit
  // assert below is about to abort the run.
  if (monitors_ != nullptr) monitors_->at_quiescence(*this);
  if (config_.privacy_audit && !config_.allow_infeasible) audit_privacy();
  last_status_ = RunStatus::quiescent;
  return RunStatus::quiescent;
}

obs::QueueStats Simulation::queue_stats() const {
  obs::QueueStats stats;
  stats.depth = queue_size_;
  for (const auto& [key, bucket] : queue_) {
    const Time t = static_cast<Time>(key >> kKlassBits);
    const int klass = static_cast<int>(key & kMaxKlass);
    stats.by_klass[klass] += bucket.events.size() - bucket.head;
    for (std::size_t i = bucket.head; i < bucket.events.size(); ++i) {
      if (const auto* m = std::get_if<Message>(&bucket.events[i])) {
        stats.deliveries_by_instance[m->instance_id]++;
      }
    }
    if (t > stats.horizon) stats.horizon = t;
  }
  return stats;
}

void Simulation::on_event_limit() {
  // A tripped event limit is almost always a livelock; the flight record
  // (top instances, queue composition, last-dispatches ring) plus the log
  // ring hold the actionable record of the final spins. Composed into one
  // buffer and written in one call so concurrent sweep jobs tripping the
  // limit cannot interleave their dumps.
  registry_.finish(now_);
  registry_.record_valve_trip(
      now_, config_.max_events, queue_stats(),
      [this](std::uint32_t id) -> const std::string& {
        return instance_name(id);
      });
  std::ostringstream dump;
  dump << "nampc: event limit (" << config_.max_events << ") tripped at t="
       << now_ << "\n";
  obs::render_flight_summary(dump, *registry_.flight());
  Log::dump_ring(dump);
  std::cerr << dump.str();
  // Env-gated flight-record dump: CI legs set NAMPC_FLIGHT_DIR so any
  // valve trip anywhere (cli, bench, fuzz) leaves an artifact behind.
  // last_flight_path_ keeps the written name so drivers (table_scaling)
  // can point at the artifact from their own summaries.
  last_flight_path_.clear();
  if (const char* dir = std::getenv("NAMPC_FLIGHT_DIR");
      dir != nullptr && dir[0] != '\0') {
    std::ostringstream name;
    name << dir << "/flight_n" << config_.params.n << "_"
         << (config_.kind == NetworkKind::synchronous ? "sync" : "async")
         << "_seed" << config_.seed << "_e" << metrics().events_processed
         << "_i" << instance_count() << ".json";
    std::ofstream out(name.str());
    if (out) {
      obs::write_flight_record(out, *this);
      last_flight_path_ = name.str();
    }
  }
}

void Simulation::note_honest_reveal(const std::string& instance_key,
                                    PartyId dealer, PartyId member) {
  HonestReveals& entry = honest_reveals_[instance_key];
  entry.dealer = dealer;
  entry.honest.insert(member);
}

std::map<PartyId, std::uint64_t> Simulation::worst_honest_reveals() const {
  std::map<PartyId, std::uint64_t> worst;
  for (const auto& [key, entry] : honest_reveals_) {
    std::uint64_t& w = worst[entry.dealer];
    w = std::max(w, static_cast<std::uint64_t>(entry.honest.size()));
  }
  return worst;
}

void Simulation::audit_privacy() const {
  // The proofs bound the adversary's view by at most ts honest univariate
  // polynomials per sharing instance (§6/§7 privacy arguments). Failing
  // loudly here turns a silent privacy regression into a red test.
  for (const auto& [dealer, worst] : worst_honest_reveals()) {
    NAMPC_ASSERT(worst <= static_cast<std::uint64_t>(config_.params.ts),
                 "privacy audit: dealer P" + std::to_string(dealer) +
                     " had " + std::to_string(worst) +
                     " honest polynomials revealed in one sharing instance "
                     "(bound ts=" +
                     std::to_string(config_.params.ts) + ")");
  }
}

Party::Party(Simulation& sim, PartyId id)
    : sim_(sim), id_(id), rng_(sim.config().seed ^ (0x1000ull + static_cast<std::uint64_t>(id))) {}

Party::~Party() = default;

bool Party::corrupt() const { return sim_.adversary().is_corrupt(id_); }

void Party::ensure_slot(std::uint32_t instance_id) {
  if (instance_id >= router_.size()) {
    router_.resize(instance_id + 1, nullptr);
    pending_.resize(instance_id + 1);
  }
}

void Party::register_instance(ProtocolInstance& inst) {
  const std::uint32_t id = inst.instance_id();
  ensure_slot(id);
  NAMPC_REQUIRE(router_[id] == nullptr,
                "duplicate protocol instance key: " + inst.key());
  router_[id] = &inst;
  if (!pending_[id].empty()) {
    // Flush buffered messages as fresh events so handlers never run inside
    // the constructor call stack of the instance they target.
    std::vector<Message> buffered = std::move(pending_[id]);
    pending_[id].clear();
    for (Message& m : buffered) {
      sim_.schedule_delivery(sim_.now(), std::move(m));
    }
  }
}

void Party::unregister_instance(std::uint32_t instance_id) {
  if (instance_id < router_.size()) router_[instance_id] = nullptr;
}

void Party::deliver(const Message& msg) {
  ensure_slot(msg.instance_id);
  ProtocolInstance* inst = router_[msg.instance_id];
  if (inst == nullptr) {
    pending_[msg.instance_id].push_back(msg);
    return;
  }
  try {
    inst->on_message(msg);
  } catch (const DecodeError&) {
    // Malformed payload from a corrupt sender: ignore, as an implementation
    // of "treat as misbehaviour".
  }
}

ProtocolInstance::ProtocolInstance(Party& party, std::string key)
    : party_(party),
      key_(std::move(key)),
      instance_id_(party.sim().intern_instance(key_)) {
  // The span opens here (not at registration) so that span_kind/phase calls
  // from subclass constructors already find it; the base constructor runs
  // first, so parent spans exist before their children's.
  if (auto* tracer = party_.sim().tracer()) {
    tracer->open_span(party_.id(), key_, party_.sim().now());
  }
}

ProtocolInstance::~ProtocolInstance() {
  if (auto* tracer = party_.sim().tracer()) {
    tracer->close_span(party_.id(), key_, party_.sim().now());
  }
  party_.unregister_instance(instance_id_);
}

void ProtocolInstance::send(PartyId to, int type, Payload payload) {
  Message msg;
  msg.from = my_id();
  msg.to = to;
  msg.type = type;
  msg.instance_id = instance_id_;
  msg.instance_name = &sim().instance_name(instance_id_);
  msg.payload = std::move(payload);
  sim().post_message(std::move(msg));
}

void ProtocolInstance::send_all(int type, Words payload) {
  fan_out(type, Payload(std::move(payload)), /*fresh=*/true);
}

void ProtocolInstance::send_all(int type, const Payload& payload) {
  fan_out(type, payload, /*fresh=*/false);
}

void ProtocolInstance::fan_out(int type, const Payload& payload, bool fresh) {
  for (int to = 0; to < n(); ++to) {
    if (!payload.empty()) {
      // A fresh buffer was allocated once (the miss); every other message
      // of the broadcast reuses it (a hit).
      sim().metrics_registry().on_pool(instance_id_,
                                       /*hit=*/!fresh || to > 0);
    }
    send(to, type, payload);
  }
}

void ProtocolInstance::span_kind(const char* kind) {
  kind_ = kind;
  sim().metrics_registry().tag_instance(instance_id_, kind_);
  if (auto* tracer = sim().tracer()) tracer->set_kind(my_id(), key_, kind_);
}

void ProtocolInstance::span_nominal(Time t) {
  if (auto* tracer = sim().tracer()) tracer->set_nominal(my_id(), key_, t);
}

void ProtocolInstance::phase(const std::string& name) {
  if (auto* tracer = sim().tracer()) {
    tracer->phase(my_id(), key_, name, now());
  }
}

void ProtocolInstance::span_done() {
  if (auto* tracer = sim().tracer()) tracer->mark_done(my_id(), key_, now());
}

void ProtocolInstance::notify_input(Words value) {
  if (sim().monitors() != nullptr) {
    sim().notify_monitors({/*input=*/true, kind_, key_, my_id(),
                           !party_.corrupt(), now(), std::move(value)});
  }
}

void ProtocolInstance::notify_output(Words value) {
  if (sim().monitors() != nullptr) {
    sim().notify_monitors({/*input=*/false, kind_, key_, my_id(),
                           !party_.corrupt(), now(), std::move(value)});
  }
}

void ProtocolInstance::at(Time t, std::function<void()> fn, int klass) {
  sim().schedule(std::max(t, now()), std::move(fn), klass, instance_id_,
                 my_id());
}

void ProtocolInstance::after(Time delay, std::function<void()> fn, int klass) {
  NAMPC_REQUIRE(delay >= 0, "negative timer delay");
  sim().schedule(now() + delay, std::move(fn), klass, instance_id_, my_id());
}

}  // namespace nampc
