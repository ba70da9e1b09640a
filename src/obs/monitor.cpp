#include "obs/monitor.h"

#include <utility>

#include "net/simulation.h"
#include "poly/polynomial.h"
#include "util/assert.h"
#include "util/log.h"

namespace nampc::obs {

void InvariantMonitor::report(Violation v) {
  NAMPC_REQUIRE(engine_ != nullptr, "monitor not attached to an engine");
  v.monitor = name();
  engine_->record(std::move(v));
}

MonitorEngine& InvariantMonitor::engine() const {
  NAMPC_REQUIRE(engine_ != nullptr, "monitor not attached to an engine");
  return *engine_;
}

InvariantMonitor& MonitorEngine::add(std::unique_ptr<InvariantMonitor> monitor) {
  monitor->engine_ = this;
  monitors_.push_back(std::move(monitor));
  return *monitors_.back();
}

void MonitorEngine::bind(const Simulation& sim) {
  set_context(sim.params(), sim.config().kind,
              sim.adversary().corrupt_set());
}

void MonitorEngine::set_context(const ProtocolParams& params,
                                NetworkKind network, PartySet corrupt) {
  params_ = params;
  network_ = network;
  corrupt_ = corrupt;
}

void MonitorEngine::on_event(const ProtocolEvent& ev) {
  ++events_seen_;
  for (const auto& m : monitors_) m->on_event(ev);
}

void MonitorEngine::at_quiescence(const Simulation& sim) {
  for (const auto& m : monitors_) m->at_quiescence(sim);
}

void MonitorEngine::record(Violation v) {
  NAMPC_LOG(error) << "monitor[" << v.monitor << "] violation on " << v.kind
                   << " '" << v.key << "' parties " << v.parties.str() << ": "
                   << v.detail;
  violations_.push_back(std::move(v));
}

std::map<std::string, std::uint64_t> MonitorEngine::checks_by_monitor() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& m : monitors_) out[m->name()] += m->checks();
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Acast (Lemma 4.4): validity — an honest sender's message is the only value
// any honest party outputs; consistency — no two honest parties output
// different values. Event payloads are the message words verbatim.

class AcastMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "acast"; }

  void on_event(const ProtocolEvent& ev) override {
    if (ev.kind != "acast" || !ev.honest) return;
    State& st = state_[ev.key];
    if (st.flagged) return;
    if (ev.input) {
      // Only the sender submits an Acast input; an honest sender pins the
      // valid output value.
      if (!st.has_input) {
        st.has_input = true;
        st.input = ev.value;
        st.sender = ev.party;
      }
      return;
    }
    bump_checks();
    if (st.has_input && ev.value != st.input) {
      st.flagged = true;
      report({{}, "acast", ev.key,
              PartySet::of({st.sender, ev.party}), ev.time,
              "validity: output differs from the honest sender's message"});
      return;
    }
    if (st.has_output && ev.value != st.output) {
      st.flagged = true;
      report({{}, "acast", ev.key,
              PartySet::of({st.first_party, ev.party}), ev.time,
              "consistency: two honest parties output different values"});
      return;
    }
    if (!st.has_output) {
      st.has_output = true;
      st.output = ev.value;
      st.first_party = ev.party;
    }
  }

 private:
  struct State {
    bool has_input = false, has_output = false, flagged = false;
    Words input, output;
    int sender = -1, first_party = -1;
  };
  std::map<std::string, State> state_;
};

// ---------------------------------------------------------------------------
// Π_BC (Theorem 4.6). Output payloads: u64(phase: 0 regular / 1 fallback),
// boolean(has value), vec(value words); a fallback event upgrades an earlier
// ⊥ regular output. Input payloads are the sender's message verbatim.
// Checks: (consistency, both networks) all honest non-⊥ values are equal and
// a party never switches between non-⊥ values; (sync agreement) every honest
// party's regular-phase output is identical, ⊥ included; (validity) with an
// honest sender every honest non-⊥ value equals its message, and in a
// synchronous network the regular output must be that value, not ⊥.

class BcMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "bc"; }

  void on_event(const ProtocolEvent& ev) override {
    if (ev.kind != "bc" || !ev.honest) return;
    State& st = state_[ev.key];
    if (st.flagged) return;
    if (ev.input) {
      if (!st.has_input) {
        st.has_input = true;
        st.input = ev.value;
        st.sender = ev.party;
      }
      return;
    }
    Reader r(ev.value);
    const std::uint64_t phase = r.u64();
    const bool has = r.boolean();
    const Words value = r.vec();
    bump_checks();
    const bool sync = engine().network() == NetworkKind::synchronous;
    if (phase == 0 && sync) {
      // Theorem 4.6(1): the regular-mode output is common to all honest
      // parties in a synchronous network.
      if (st.has_regular && (has != st.regular_has || value != st.regular)) {
        return flag(st, ev, PartySet::of({st.regular_party, ev.party}),
                    "sync agreement: regular-mode outputs differ");
      }
      if (!st.has_regular) {
        st.has_regular = true;
        st.regular_has = has;
        st.regular = value;
        st.regular_party = ev.party;
      }
      if (st.has_input && !has) {
        return flag(st, ev, PartySet::of({st.sender, ev.party}),
                    "sync validity: regular output ⊥ despite honest sender");
      }
    }
    if (!has) return;
    if (st.has_input && value != st.input) {
      return flag(st, ev, PartySet::of({st.sender, ev.party}),
                  "validity: output differs from the honest sender's message");
    }
    if (st.has_value && value != st.value) {
      return flag(st, ev, PartySet::of({st.value_party, ev.party}),
                  "consistency: two distinct non-⊥ values delivered");
    }
    if (!st.has_value) {
      st.has_value = true;
      st.value = value;
      st.value_party = ev.party;
    }
  }

 private:
  struct State {
    bool has_input = false, flagged = false;
    Words input;
    int sender = -1;
    bool has_regular = false, regular_has = false;
    Words regular;
    int regular_party = -1;
    bool has_value = false;
    Words value;
    int value_party = -1;
  };

  void flag(State& st, const ProtocolEvent& ev, PartySet parties,
            const char* what) {
    st.flagged = true;
    report({{}, ev.kind, ev.key, parties, ev.time, what});
  }

  std::map<std::string, State> state_;
};

// ---------------------------------------------------------------------------
// Agreement primitives: Π_BA / Π_ABA (Theorem 4.8) and Π_SBA, which only
// promises anything in a synchronous network. Payloads: ba/aba are
// boolean(bit); sba is boolean(has) + vec(value). Online: agreement among
// honest decisions. At quiescence: validity (unanimous honest inputs force
// the decision) and termination (if every honest party submitted an input,
// every honest party must have decided) — quiescence-gated because both
// obligations are open while events remain.

class AgreementMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "agreement"; }

  void on_event(const ProtocolEvent& ev) override {
    if (ev.kind != "ba" && ev.kind != "aba" && ev.kind != "sba") return;
    if (!ev.honest) return;
    const bool sync = engine().network() == NetworkKind::synchronous;
    if (ev.kind == "sba" && !sync) return;  // async SBA: no guarantees
    State& st = state_[{ev.kind, ev.key}];
    if (ev.input) {
      st.inputs.emplace(ev.party, ev.value);
      return;
    }
    if (st.flagged) return;
    bump_checks();
    auto [it, fresh] = st.decisions.emplace(ev.party, ev.value);
    if (!fresh && it->second != ev.value) {
      st.flagged = true;
      report({{}, ev.kind, ev.key, PartySet::of({ev.party}), ev.time,
              "a party decided twice with different values"});
      return;
    }
    if (st.decisions.begin()->second != ev.value) {
      st.flagged = true;
      report({{}, ev.kind, ev.key,
              PartySet::of({st.decisions.begin()->first, ev.party}), ev.time,
              "agreement: two honest parties decided different values"});
    }
  }

  void at_quiescence(const Simulation& sim) override {
    for (auto& [id, st] : state_) {
      if (st.flagged) continue;
      const auto& [kind, key] = id;
      const int honest = engine().honest_count();
      if (static_cast<int>(st.inputs.size()) < honest) continue;
      bump_checks();
      PartySet in_parties;
      for (const auto& [p, v] : st.inputs) in_parties.insert(p);
      // Termination: everyone joined, so everyone must have decided.
      if (static_cast<int>(st.decisions.size()) < honest) {
        st.flagged = true;
        report({{}, kind, key, in_parties, sim.now(),
                "termination: an honest party never decided"});
        continue;
      }
      // Validity: unanimous honest inputs pin the decision.
      bool unanimous = true;
      for (const auto& [p, v] : st.inputs) {
        if (v != st.inputs.begin()->second) unanimous = false;
      }
      if (unanimous &&
          st.decisions.begin()->second != st.inputs.begin()->second) {
        st.flagged = true;
        report({{}, kind, key, in_parties, sim.now(),
                "validity: unanimous honest input not decided"});
      }
    }
  }

 private:
  struct State {
    bool flagged = false;
    std::map<int, Words> inputs;     // honest party → input payload
    std::map<int, Words> decisions;  // honest party → decision payload
  };
  std::map<std::pair<std::string, std::string>, State> state_;
};

// ---------------------------------------------------------------------------
// Π_WSS / Π_VSS weak and strong commitment (Theorems 6.3 / 7.3): every
// honest party that outputs row polynomials holds rows of one committed
// symmetric bivariate polynomial of degree ≤ ts — pairwise, f_i(α_j) must
// equal f_j(α_i) for every pair of honest outputs and every shared secret —
// and with an honest dealer the committed polynomial is the dealt one:
// f_i(0) == q_k(α_i). Input payload (dealer's start): seq of the q_k row-0
// polynomials. Output payload: u64(outcome), u64(dealer), seq of row
// polynomials (empty unless outcome == rows).

class SharingMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "sharing"; }

  void on_event(const ProtocolEvent& ev) override {
    if (ev.kind != "wss" && ev.kind != "vss") return;
    State& st = state_[ev.key];
    if (ev.input) {
      if (ev.honest && !st.has_input) {
        Reader r(ev.value);
        st.row0s = decode_polys(r);
        st.has_input = true;
        st.dealer = ev.party;
      }
      return;
    }
    if (!ev.honest || st.flagged) return;
    Reader r(ev.value);
    const std::uint64_t outcome = r.u64();  // WssOutcome: 1 == rows
    (void)r.u64();  // dealer id (redundant with the input event's party)
    if (outcome != 1) return;
    Output out{ev.party, decode_polys(r)};
    const int ts = engine().params().ts;
    for (const auto& f : out.rows) {
      bump_checks();
      if (f.degree() > ts) {
        st.flagged = true;
        report({{}, ev.kind, ev.key, PartySet::of({ev.party}), ev.time,
                "commitment: output row exceeds degree ts"});
        return;
      }
    }
    if (st.has_input) {
      // Honest dealer: shares must lie on the dealt polynomials.
      const Fp alpha = eval_point(ev.party);
      for (std::size_t k = 0; k < out.rows.size() && k < st.row0s.size();
           ++k) {
        bump_checks();
        if (out.rows[k].eval(Fp(0)) != st.row0s[k].eval(alpha)) {
          st.flagged = true;
          report({{}, ev.kind, ev.key,
                  PartySet::of({st.dealer, ev.party}), ev.time,
                  "validity: share disagrees with the honest dealer's input"});
          return;
        }
      }
    }
    for (const Output& prev : st.outputs) {
      const Fp a_prev = eval_point(prev.party);
      const Fp a_cur = eval_point(ev.party);
      for (std::size_t k = 0;
           k < out.rows.size() && k < prev.rows.size(); ++k) {
        bump_checks();
        if (prev.rows[k].eval(a_cur) != out.rows[k].eval(a_prev)) {
          st.flagged = true;
          report({{}, ev.kind, ev.key,
                  PartySet::of({prev.party, ev.party}), ev.time,
                  "commitment: rows of two honest parties are inconsistent "
                  "(no single committed bivariate polynomial)"});
          return;
        }
      }
    }
    st.outputs.push_back(std::move(out));
  }

 private:
  struct Output {
    int party = -1;
    std::vector<Polynomial> rows;
  };
  struct State {
    bool has_input = false, flagged = false;
    int dealer = -1;
    std::vector<Polynomial> row0s;
    std::vector<Output> outputs;
  };

  static std::vector<Polynomial> decode_polys(Reader& r) {
    return r.seq<Polynomial>([](Reader& rr) { return Polynomial::decode(rr); });
  }

  std::map<std::string, State> state_;
};

// ---------------------------------------------------------------------------
// Π_ACS (Theorem 4.10): all honest parties output the same common subset,
// and it has at least n - ts members (the quorum the instance was built
// with). Payload: u64(subset mask), u64(quorum).

class AcsMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "acs"; }

  void on_event(const ProtocolEvent& ev) override {
    if (ev.kind != "acs" || !ev.honest || ev.input) return;
    State& st = state_[ev.key];
    if (st.flagged) return;
    Reader r(ev.value);
    const PartySet com(r.u64());
    const auto quorum = static_cast<int>(r.u64());
    bump_checks();
    if (com.size() < quorum) {
      st.flagged = true;
      report({{}, ev.kind, ev.key, com, ev.time,
              "common subset smaller than the n - ts quorum"});
      return;
    }
    if (st.has_output && com != st.com) {
      st.flagged = true;
      report({{}, ev.kind, ev.key,
              PartySet::of({st.first_party, ev.party}), ev.time,
              "agreement: two honest parties hold different common subsets"});
      return;
    }
    if (!st.has_output) {
      st.has_output = true;
      st.com = com;
      st.first_party = ev.party;
    }
  }

 private:
  struct State {
    bool has_output = false, flagged = false;
    PartySet com;
    int first_party = -1;
  };
  std::map<std::string, State> state_;
};

// ---------------------------------------------------------------------------
// MPC output agreement: the circuit outputs every pair of honest parties
// both learned must be equal. Payload: seq of (boolean known, u64 value).

class MpcMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "mpc"; }

  void on_event(const ProtocolEvent& ev) override {
    if (ev.kind != "mpc" || !ev.honest || ev.input) return;
    State& st = state_[ev.key];
    if (st.flagged) return;
    Reader r(ev.value);
    const auto outs = r.seq<std::pair<bool, std::uint64_t>>([](Reader& rr) {
      const bool known = rr.boolean();
      return std::make_pair(known, rr.u64());
    });
    for (const auto& [party, prev] : st.outputs) {
      for (std::size_t k = 0; k < outs.size() && k < prev.size(); ++k) {
        if (!outs[k].first || !prev[k].first) continue;
        bump_checks();
        if (outs[k].second != prev[k].second) {
          st.flagged = true;
          report({{}, ev.kind, ev.key, PartySet::of({party, ev.party}),
                  ev.time,
                  "two honest parties reconstructed different output values"});
          return;
        }
      }
    }
    st.outputs.emplace_back(ev.party, outs);
  }

 private:
  struct State {
    bool flagged = false;
    std::vector<std::pair<int, std::vector<std::pair<bool, std::uint64_t>>>>
        outputs;
  };
  std::map<std::string, State> state_;
};

// ---------------------------------------------------------------------------
// Privacy (the bound Simulation::audit_privacy asserts): in any single
// sharing instance at most ts honest row polynomials ever become public.
// Escalated here from an assert to a reported Violation carrying the
// instance key and the revealed party set, so infeasible or adversarial
// runs surface the leak instead of aborting (the assert stays available
// behind Config::privacy_audit).

class PrivacyMonitor final : public InvariantMonitor {
 public:
  [[nodiscard]] const char* name() const override { return "privacy"; }

  void on_event(const ProtocolEvent& ev) override { (void)ev; }

  void at_quiescence(const Simulation& sim) override {
    const int ts = engine().params().ts;
    for (const auto& [key, entry] : sim.honest_reveals()) {
      bump_checks();
      if (entry.honest.size() <= ts) continue;
      report({{}, "wss", key, entry.honest, sim.now(),
              std::to_string(entry.honest.size()) +
                  " honest row polynomials revealed > ts = " +
                  std::to_string(ts) + " (dealer " +
                  std::to_string(entry.dealer) + ")"});
    }
  }
};

}  // namespace

void install_standard_monitors(MonitorEngine& engine) {
  engine.add(std::make_unique<AcastMonitor>());
  engine.add(std::make_unique<BcMonitor>());
  engine.add(std::make_unique<AgreementMonitor>());
  engine.add(std::make_unique<SharingMonitor>());
  engine.add(std::make_unique<AcsMonitor>());
  engine.add(std::make_unique<MpcMonitor>());
  engine.add(std::make_unique<PrivacyMonitor>());
}

}  // namespace nampc::obs
