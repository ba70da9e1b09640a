#include "broadcast/sba.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace nampc {

bool sba_value_less(const SbaValue& a, const SbaValue& b) {
  if (a.has_value() != b.has_value()) return !a.has_value();
  if (!a.has_value()) return false;
  return *a < *b;
}

bool SbaWireMsg::equals(const SbaValue& v) const {
  if (present != v.has_value()) return false;
  return !present || std::equal(data, data + size, v->begin(), v->end());
}

SbaValue SbaWireMsg::value() const {
  if (!present) return std::nullopt;
  return Words(data, data + size);
}

std::optional<SbaWireMsg> decode_sba_message(const Words& payload, int ts) {
  // Layout: [phase, len, present, inner_len, inner...]; every length is
  // checked against what remains, as Reader::u64 / Reader::vec do.
  const std::size_t total = payload.size();
  if (total < 1) throw DecodeError("payload truncated");
  SbaWireMsg msg;
  msg.phase = static_cast<int>(payload[0]);
  // LINT:threshold(sba.phase_count)
  if (msg.phase < 0 || msg.phase > ts) return std::nullopt;
  if (total < 2) throw DecodeError("payload truncated");
  const std::uint64_t len = payload[1];
  if (len > total - 2) throw DecodeError("bad vector length");
  if (len < 1) throw DecodeError("payload truncated");
  msg.present = payload[2] != 0;
  if (len < 2) throw DecodeError("payload truncated");
  const std::uint64_t inner_len = payload[3];
  if (inner_len > len - 2) throw DecodeError("bad vector length");
  msg.data = payload.data() + 4;
  msg.size = static_cast<std::size_t>(inner_len);
  return msg;
}

void SbaPhaseTally::add(PartyId from, const SbaWireMsg& msg) {
  if (seen_.contains(from)) return;
  seen_.insert(from);
  for (auto& [value, count] : counts_) {
    if (msg.equals(value)) {
      ++count;
      return;
    }
  }
  counts_.emplace_back(msg.value(), 1);
}

std::pair<SbaValue, int> SbaPhaseTally::majority() const {
  SbaValue best;
  int best_count = 0;
  for (const auto& [value, count] : counts_) {
    if (count > best_count ||
        (count == best_count && sba_value_less(value, best))) {
      best = value;
      best_count = count;
    }
  }
  return {best, best_count};
}

void SbaPhaseTally::close() {
  seen_ = PartySet::full(PartySet::kMaxParties);
  counts_ = {};
}

namespace {

/// Shared state of the ideal-agreement functionality (ideal_primitives mode).
struct IdealSbaGadget {
  std::map<PartyId, SbaValue> inputs;

  /// Deterministic agreement rule over the honest inputs: most frequent
  /// value, ties broken towards the smaller value. Realises validity
  /// (unanimous honest input wins) and consistency by construction.
  [[nodiscard]] SbaValue decide(const PartySet& corrupt) const {
    std::vector<std::pair<SbaValue, int>> tally;
    for (const auto& [id, v] : inputs) {
      if (corrupt.contains(id)) continue;
      bool found = false;
      for (auto& [tv, count] : tally) {
        if (tv == v) {
          ++count;
          found = true;
          break;
        }
      }
      if (!found) tally.emplace_back(v, 1);
    }
    SbaValue best;  // ⊥ when no honest input registered
    int best_count = 0;
    for (const auto& [tv, count] : tally) {
      if (count > best_count ||
          (count == best_count && sba_value_less(tv, best))) {
        best = tv;
        best_count = count;
      }
    }
    return best;
  }
};

}  // namespace

Sba::Sba(Party& party, std::string key, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)), on_output_(std::move(on_output)) {
  span_kind("sba");
}

Words Sba::encode_value(const SbaValue& v) {
  Writer w;
  w.boolean(v.has_value());
  w.vec(v.has_value() ? *v : Words{});
  return std::move(w).take();
}

SbaPhaseTally& Sba::exchange_tally(int phase) {
  const auto index = static_cast<std::size_t>(phase);
  if (index >= exchange_.size()) exchange_.resize(index + 1);
  return exchange_[index];
}

void Sba::start(SbaValue input) {
  NAMPC_REQUIRE(!started_, "sba started twice");
  started_ = true;
  start_time_ = now();
  value_ = std::move(input);
  notify_input(encode_value(value_));

  if (sim().config().ideal_primitives) {
    // NOLINT-NAMPC(model-shared-state): ideal-primitive substitution — the
    // gadget IS the ideal SBA functionality (DESIGN.md), not protocol state.
    auto& gadget = sim().shared_state<IdealSbaGadget>(
        "sba:" + key(), [] { return new IdealSbaGadget(); });
    gadget.inputs.emplace(my_id(), value_);
    at(
        start_time_ + timing().t_sba,
        [this, &gadget] {
          if (sim().kind() == NetworkKind::synchronous) {
            output_ = gadget.decide(sim().adversary().corrupt_set());
          } else {
            output_ = value_;  // async: Π_BC relies on Acast, not on Π_SBA
          }
          finish();
        },
        /*klass=*/1);
    return;
  }

  // LINT:threshold(sba.phase_count)
  for (int phase = 0; phase <= params().ts; ++phase) {
    const Time phase_start = start_time_ + 2 * phase * timing().delta;
    at(phase_start, [this, phase] { run_exchange(phase); }, /*klass=*/1);
    at(
        phase_start + timing().delta,
        [this, phase] { tally_exchange(phase); }, /*klass=*/1);
    at(
        phase_start + 2 * timing().delta,
        [this, phase] { conclude_phase(phase); }, /*klass=*/1);
  }
  at(
      start_time_ + timing().t_sba,
      [this] {
        output_ = value_;
        finish();
      },
      /*klass=*/1);
}

void Sba::run_exchange(int phase) {
  Writer w;
  w.u64(static_cast<std::uint64_t>(phase));
  const Words val = encode_value(value_);
  w.vec(val);
  send_all(kExchange, std::move(w).take());
}

void Sba::on_message(const Message& msg) {
  const std::optional<SbaWireMsg> wire =
      decode_sba_message(msg.payload, params().ts);
  if (!wire.has_value()) return;
  const int phase = wire->phase;
  if (msg.type == kExchange) {
    exchange_tally(phase).add(msg.from, *wire);
  } else if (msg.type == kKing) {
    if (msg.from != phase % n()) return;  // only the phase king may speak
    if (!king_msgs_.contains(phase)) king_msgs_.emplace(phase, wire->value());
  }
}

void Sba::tally_exchange(int phase) {
  // Most frequent value among this phase's exchange messages. Nothing
  // reads the phase's exchange messages after this, so its tally closes.
  SbaPhaseTally& tally = exchange_tally(phase);
  std::tie(phase_majority_, phase_majority_count_) = tally.majority();
  tally.close();
  // King round: the phase king announces its majority.
  if (my_id() == phase % n()) {
    Writer w;
    w.u64(static_cast<std::uint64_t>(phase));
    w.vec(encode_value(phase_majority_));
    send_all(kKing, std::move(w).take());
  }
}

void Sba::conclude_phase(int phase) {
  // LINT:threshold(sba.majority_quorum)
  if (phase_majority_count_ >= n() - params().ts) {
    value_ = phase_majority_;
  } else {
    const auto it = king_msgs_.find(phase);
    value_ = it != king_msgs_.end() ? it->second : std::nullopt;
  }
}

void Sba::finish() {
  if (done_) return;
  done_ = true;
  span_done();
  notify_output(encode_value(output_));
  if (on_output_) on_output_(output_);
}

}  // namespace nampc
