#include "broadcast/acast.h"

namespace nampc {

Acast::Acast(Party& party, std::string key, PartyId sender, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      sender_(sender),
      on_output_(std::move(on_output)) {
  span_kind("acast");
}

void Acast::start(Words message) {
  NAMPC_REQUIRE(my_id() == sender_, "only the sender starts an Acast");
  notify_input(message);
  send_all(kInit, std::move(message));
}

void Acast::on_message(const Message& msg) {
  switch (msg.type) {
    case kInit:
      if (msg.from != sender_) return;  // only the sender may init
      maybe_echo(msg.payload);
      break;
    case kEcho: {
      PartySet& who = echoes_[msg.payload];
      who.insert(msg.from);
      // LINT:threshold(acast.echo_quorum)
      if (who.size() >= n() - params().ts) {
        maybe_ready(msg.payload);
      }
      break;
    }
    case kReady: {
      PartySet& who = readies_[msg.payload];
      who.insert(msg.from);
      // LINT:threshold(acast.ready_support)
      if (who.size() >= params().ts + 1) {
        maybe_ready(msg.payload);  // ready amplification
      }
      // LINT:threshold(acast.output_quorum)
      if (who.size() >= n() - params().ts) {
        maybe_output(msg.payload);
      }
      break;
    }
    default:
      break;  // unknown type: ignore (corrupt sender)
  }
}

void Acast::maybe_echo(const Payload& m) {
  if (echoed_) return;
  echoed_ = true;
  send_all(kEcho, m);
}

void Acast::maybe_ready(const Payload& m) {
  if (readied_) return;
  readied_ = true;
  send_all(kReady, m);
}

void Acast::maybe_output(const Words& m) {
  if (output_.has_value()) return;
  output_ = m;
  output_time_ = now();
  span_done();
  notify_output(m);
  if (on_output_) on_output_(*output_);
}

}  // namespace nampc
