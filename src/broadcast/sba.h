// Synchronous Byzantine agreement (the Π_SBA building block of Protocol 4.5).
//
// Multivalued phase-king agreement (Berman-Garay-Perry style) for t < n/3
// over the domain Words ∪ {⊥}: ts+1 phases, each an exchange round and a
// king round, one Δ per round; all honest parties must call start() at the
// same virtual time (Π_BC does). Output is produced exactly T_SBA after
// start. Properties in a synchronous network: validity (unanimous honest
// input is the output) and consistency. In an asynchronous network this
// sub-protocol gives no guarantees — Π_BC only relies on it when the
// network is synchronous (Lemma 4.6's async clauses come from Acast).
//
// When Simulation::Config::ideal_primitives is set, the phase-king rounds
// are replaced by an ideal-agreement gadget with identical interface and
// timing (DESIGN.md substitution #3).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/simulation.h"
#include "util/small_set.h"

namespace nampc {

/// Agreement value: nullopt encodes ⊥.
using SbaValue = std::optional<Words>;

/// Deterministic total order on SbaValue used for tie-breaking (⊥ first,
/// then lexicographic).
[[nodiscard]] bool sba_value_less(const SbaValue& a, const SbaValue& b);

/// One Π_SBA exchange/king message, [phase, len, present, inner_len,
/// inner...], decoded in place: the value's words stay in the payload.
struct SbaWireMsg {
  int phase = 0;
  bool present = false;  ///< false encodes ⊥ (the inner words are ignored)
  const Word* data = nullptr;
  std::size_t size = 0;

  /// Whether the carried value equals `v`, without materialising it.
  [[nodiscard]] bool equals(const SbaValue& v) const;
  /// The carried value as an SbaValue (allocates when present).
  [[nodiscard]] SbaValue value() const;
};

/// Decodes a Π_SBA payload without allocating. Returns nullopt — leaving
/// the value unread — when the phase lies outside [0, ts]. The wire format
/// is Reader-compatible: it throws DecodeError exactly where the Reader
/// sequence u64() (phase), vec() (encoded value), then boolean() and vec()
/// inside that would; trailing words after either vector are ignored.
[[nodiscard]] std::optional<SbaWireMsg> decode_sba_message(
    const Words& payload, int ts);

/// Exchange-round state of one Π_SBA phase: which senders have been heard
/// (the first message per sender wins) and a running count per distinct
/// value, so the phase tally never revisits individual messages.
class SbaPhaseTally {
 public:
  /// Counts `msg`'s value for `from` unless `from` was already heard (or
  /// the tally is closed). Allocates only for a new distinct value.
  void add(PartyId from, const SbaWireMsg& msg);

  /// The most frequent value and its count, ties broken towards the
  /// sba_value_less-smaller value; (⊥, 0) when nothing was counted. The
  /// result does not depend on arrival order.
  [[nodiscard]] std::pair<SbaValue, int> majority() const;

  /// Frees the counts and ignores every later add: a phase is tallied once.
  void close();

 private:
  PartySet seen_;
  std::vector<std::pair<SbaValue, int>> counts_;
};

class Sba : public ProtocolInstance {
 public:
  using OutputFn = std::function<void(const SbaValue&)>;

  Sba(Party& party, std::string key, OutputFn on_output);

  /// Joins the agreement with the given input. In a synchronous network all
  /// honest parties call this at the same time.
  void start(SbaValue input);

  [[nodiscard]] bool has_output() const { return done_; }
  [[nodiscard]] const SbaValue& output() const {
    NAMPC_REQUIRE(done_, "sba has no output yet");
    return output_;
  }

  void on_message(const Message& msg) override;

 private:
  enum MsgType { kExchange = 1, kKing = 2 };

  void run_exchange(int phase);
  void tally_exchange(int phase);
  void conclude_phase(int phase);
  void finish();

  [[nodiscard]] static Words encode_value(const SbaValue& v);
  /// Phase `phase`'s exchange tally, created on first use.
  [[nodiscard]] SbaPhaseTally& exchange_tally(int phase);

  OutputFn on_output_;
  bool started_ = false;
  bool done_ = false;
  Time start_time_ = 0;
  SbaValue value_;
  SbaValue output_;

  // Full-mode state: exchange tallies indexed by phase.
  std::vector<SbaPhaseTally> exchange_;
  std::map<int, SbaValue> king_msgs_;  // first KING message per phase
  SbaValue phase_majority_;
  int phase_majority_count_ = 0;
};

}  // namespace nampc
