// Protocol tests: Acast (Lemma 4.4), Π_BC (Lemma 4.6), Π_SBA's wire
// decoding and tally, Π_BA (Lemma 4.8), in both networks, with honest and
// corrupt senders, Full and Ideal modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "broadcast/ba.h"
#include "broadcast/bc.h"
#include "broadcast/sba.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

Words words_of(std::initializer_list<Word> ws) { return Words(ws); }

// ---------------------------------------------------------------- Acast --

struct AcastHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Acast*> instances;

  explicit AcastHarness(const SimSpec& spec,
                        std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(&sim->party(i).spawn<Acast>("acast", 0, nullptr));
    }
  }
};

class AcastNetworkTest : public ::testing::TestWithParam<NetworkKind> {};

TEST_P(AcastNetworkTest, HonestSenderAllOutputs) {
  AcastHarness h({.params = testing::p7_2_1(), .kind = GetParam()});
  const Words m = words_of({1, 2, 3});
  h.instances[0]->start(m);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Acast* a : h.instances) {
    ASSERT_TRUE(a->has_output());
    EXPECT_EQ(a->output(), m);
    if (GetParam() == NetworkKind::synchronous) {
      EXPECT_LE(a->output_time(), 3 * h.sim->timing().delta);
    }
  }
}

TEST_P(AcastNetworkTest, SilentSenderNobodyOutputs) {
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->silence(0);
  AcastHarness h({.params = testing::p7_2_1(), .kind = GetParam()}, adv);
  h.instances[0]->start(words_of({9}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Acast* a : h.instances) EXPECT_FALSE(a->has_output());
}

TEST_P(AcastNetworkTest, EquivocatingSenderStaysConsistent) {
  // Sender sends different init values to different parties; consistency
  // requires all honest outputs (if any) to be identical.
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({0}));
  adv->add_rule(
      [](const Message& m, Time) {
        return m.from == 0 && m.type == 1;  // Acast kInit
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.payload = Words{static_cast<Word>(100 + m.to % 2)};
        d.replacement = std::move(alt);
        return d;
      });
  AcastHarness h({.params = testing::p7_2_1(), .kind = GetParam()}, adv);
  h.instances[0]->start(words_of({77}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  std::optional<Words> seen;
  for (int i = 1; i < 7; ++i) {
    if (h.instances[static_cast<std::size_t>(i)]->has_output()) {
      const Words& out = h.instances[static_cast<std::size_t>(i)]->output();
      if (seen.has_value()) {
        EXPECT_EQ(out, *seen);
      } else {
        seen = out;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Networks, AcastNetworkTest,
                         ::testing::Values(NetworkKind::synchronous,
                                           NetworkKind::asynchronous));

// ------------------------------------------------------------------ BC --

struct BcHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Bc*> instances;

  explicit BcHarness(const SimSpec& spec, PartyId sender,
                     std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(
          &sim->party(i).spawn<Bc>("bc", sender, /*nominal_start=*/0, nullptr));
    }
  }
};

struct BcCase {
  NetworkKind kind;
  bool ideal;
};

class BcModeTest : public ::testing::TestWithParam<BcCase> {};

TEST_P(BcModeTest, HonestSenderDeliversByTbc) {
  const auto& c = GetParam();
  BcHarness h({.params = testing::p7_2_1(), .kind = c.kind, .ideal = c.ideal},
              0);
  const Words m = words_of({5, 6});
  h.instances[0]->start(m);
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Bc* bc : h.instances) {
    ASSERT_TRUE(bc->regular_done());
    if (c.kind == NetworkKind::synchronous) {
      // Lemma 4.6 sync validity: regular-mode output m.
      ASSERT_TRUE(bc->regular_output().has_value());
      EXPECT_EQ(*bc->regular_output(), m);
    } else {
      // Async weak validity: m or ⊥ regular; fallback upgrades ⊥ to m.
      ASSERT_TRUE(bc->current_output().has_value());
      EXPECT_EQ(*bc->current_output(), m);
    }
  }
}

TEST_P(BcModeTest, SilentSenderGivesBotEverywhere) {
  const auto& c = GetParam();
  auto adv = std::make_shared<ScriptedAdversary>(
      PartySet::of({1}));
  adv->silence(1);
  BcHarness h({.params = testing::p7_2_1(), .kind = c.kind, .ideal = c.ideal},
              1, adv);
  h.instances[1]->start(words_of({3}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  for (Bc* bc : h.instances) {
    EXPECT_TRUE(bc->regular_done());
    EXPECT_FALSE(bc->regular_output().has_value());
    EXPECT_FALSE(bc->current_output().has_value());
  }
}

TEST_P(BcModeTest, SyncConsistencyUnderEquivocation) {
  const auto& c = GetParam();
  if (c.kind != NetworkKind::synchronous) GTEST_SKIP();
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({2}));
  adv->add_rule(
      [](const Message& m, Time) {
        return m.from == 2 && m.type == 1 &&
               m.instance().find("acast") != std::string::npos;
      },
      [](const Message& m, Time, Rng&) {
        SendDecision d;
        Message alt = m;
        alt.payload = Words{static_cast<Word>(m.to % 2)};
        d.replacement = std::move(alt);
        return d;
      });
  BcHarness h({.params = testing::p7_2_1(), .kind = c.kind, .ideal = c.ideal},
              2, adv);
  h.instances[2]->start(words_of({1}));
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  // Lemma 4.6 sync consistency: all honest regular outputs identical.
  const auto& ref = h.instances[0]->regular_output();
  for (int i = 0; i < 7; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(h.instances[static_cast<std::size_t>(i)]->regular_output(), ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BcModeTest,
    ::testing::Values(BcCase{NetworkKind::synchronous, false},
                      BcCase{NetworkKind::synchronous, true},
                      BcCase{NetworkKind::asynchronous, false},
                      BcCase{NetworkKind::asynchronous, true}));

// ----------------------------------------------------------------- SBA --

/// Π_SBA's payload for (phase, value): [phase, len, present, inner_len,
/// inner...] — the layout Sba::run_exchange and the king round send.
Words sba_payload(Word phase, const SbaValue& v) {
  Writer inner;
  inner.boolean(v.has_value());
  inner.vec(v.has_value() ? *v : Words{});
  Writer w;
  w.u64(phase);
  w.vec(inner.words());
  return std::move(w).take();
}

/// What the Reader-based Π_SBA decoder yielded for a payload: whether it
/// threw DecodeError, whether the phase was in range, and the message.
struct ReaderDecode {
  bool threw = false;
  bool in_range = false;
  int phase = 0;
  SbaValue value;
};

/// The Reader-based decoding Sba::on_message used before it decoded in
/// place, kept verbatim as the wire-compatibility reference.
ReaderDecode reader_decode(const Words& payload, int ts) {
  ReaderDecode out;
  try {
    Reader r(payload);
    out.phase = static_cast<int>(r.u64());
    if (out.phase < 0 || out.phase > ts) return out;
    const Words body = r.vec();
    Reader rb(body);
    const bool present = rb.boolean();
    Words inner = rb.vec();
    out.in_range = true;
    if (present) out.value = std::move(inner);
  } catch (const DecodeError&) {
    out.threw = true;
  }
  return out;
}

void expect_same_decode(const Words& payload, int ts) {
  const ReaderDecode ref = reader_decode(payload, ts);
  std::optional<SbaWireMsg> got;
  bool threw = false;
  try {
    got = decode_sba_message(payload, ts);
  } catch (const DecodeError&) {
    threw = true;
  }
  ::testing::Message where;
  where << "payload size " << payload.size();
  ASSERT_EQ(threw, ref.threw) << where;
  if (threw) return;
  ASSERT_EQ(got.has_value(), ref.in_range) << where;
  if (!got.has_value()) return;
  EXPECT_EQ(got->phase, ref.phase) << where;
  EXPECT_EQ(got->value(), ref.value) << where;
  EXPECT_TRUE(got->equals(ref.value)) << where;
}

TEST(SbaWire, RejectsAndAcceptsExactlyAsTheReaderDecoder) {
  constexpr int kTs = 2;
  const Word huge = ~Word{0};
  const std::vector<Words> cases = {
      {},                       // empty: no phase
      {0},                      // phase only
      {9},                      // phase only, out of range: no throw
      {huge},                   // phase -1 after the int cast
      {(Word{1} << 32) + 1},    // wraps to phase 1: phase only, throws
      {0, 0},                   // outer length 0: no present flag
      {0, 1, 1},                // outer length 1: no inner length
      {0, 3, 1, 1},             // outer length past the payload
      {0, huge, 1, 0},          // outer length overflowing the payload
      {0, 2, 1, 1, 7},          // inner length past the outer length
      {0, 2, 1, huge},          // inner length overflowing
      {0, 2, 1, 0},             // present, empty value
      {0, 2, 0, 0},             // ⊥
      {0, 3, 0, 1, 7},          // ⊥ with ignored inner words
      {1, 3, 2, 1, 7},          // nonzero present flag counts as present
      {2, 3, 1, 1, 7, 99, 98},  // trailing words after the outer vector
      {0, 4, 1, 1, 7, 8},       // trailing words inside the outer vector
      {3, 3, 1, 1, 7},          // phase ts+1: out of range
      sba_payload(1, Words{4, 5, 6}),
      sba_payload(2, std::nullopt),
  };
  for (const Words& payload : cases) expect_same_decode(payload, kTs);

  // Random short payloads over small words, so lengths hit every boundary.
  std::mt19937_64 gen(2024);
  for (int iter = 0; iter < 20000; ++iter) {
    Words payload(gen() % 9);
    for (Word& w : payload) w = gen() % 6;
    expect_same_decode(payload, kTs);
  }
}

TEST(SbaTally, FirstMessagePerSenderWins) {
  const Words first = sba_payload(0, Words{1});
  const Words second = sba_payload(0, Words{2});
  SbaPhaseTally tally;
  tally.add(3, *decode_sba_message(first, 1));
  tally.add(3, *decode_sba_message(second, 1));
  const auto [value, count] = tally.majority();
  EXPECT_EQ(value, SbaValue(Words{1}));
  EXPECT_EQ(count, 1);

  tally.close();
  tally.add(0, *decode_sba_message(second, 1));
  EXPECT_EQ(tally.majority().second, 0);  // closed: later messages ignored
}

TEST(SbaTally, MatchesNaiveReferenceOverRandomMultisets) {
  const std::vector<SbaValue> pool = {
      std::nullopt, Words{}, Words{1}, Words{2}, Words{1, 2}, Words{2, 1},
      Words{0, 0}};
  std::mt19937_64 gen(77);
  for (int iter = 0; iter < 2000; ++iter) {
    // Random (sender, value) arrivals with repeated senders; small pools
    // and few senders make count ties common.
    std::vector<std::pair<PartyId, SbaValue>> arrivals(gen() % 12);
    for (auto& [from, v] : arrivals) {
      from = static_cast<PartyId>(gen() % 8);
      v = pool[gen() % pool.size()];
    }
    // Naive reference: first value per sender, then the maximum count with
    // ties towards the sba_value_less-smaller value.
    std::map<PartyId, SbaValue> first;
    for (const auto& [from, v] : arrivals) first.emplace(from, v);
    SbaValue best;
    int best_count = 0;
    for (const SbaValue& candidate : pool) {
      int count = 0;
      for (const auto& [from, v] : first) count += v == candidate ? 1 : 0;
      if (count > best_count ||
          (count > 0 && count == best_count &&
           sba_value_less(candidate, best))) {
        best = candidate;
        best_count = count;
      }
    }
    SbaPhaseTally tally;
    for (const auto& [from, v] : arrivals) {
      const Words payload = sba_payload(0, v);
      tally.add(from, *decode_sba_message(payload, 0));
    }
    const auto [value, count] = tally.majority();
    EXPECT_EQ(count, best_count);
    EXPECT_EQ(value, best);
  }
}

/// Four-party synchronous Π_SBA (ts = 1) with party 3 corrupt and silent;
/// tests inject party 3's messages directly.
struct SbaHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Sba*> honest;

  SbaHarness() {
    auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({3}));
    adv->silence(3);
    sim = make_sim({.params = testing::p4_1_0()}, adv);
    for (int i = 0; i < 3; ++i) {
      honest.push_back(&sim->party(i).spawn<Sba>("sba", nullptr));
    }
  }

  /// Delivers `payload` from party 3 to every honest party at time t.
  void inject(Time t, int type, const Words& payload) {
    for (std::size_t i = 0; i < honest.size(); ++i) {
      const Sba* inst = honest[i];
      Message m;
      m.from = 3;
      m.to = static_cast<PartyId>(i);
      m.type = type;
      m.instance_id = inst->instance_id();
      m.instance_name = &sim->instance_name(inst->instance_id());
      m.payload = payload;
      sim->schedule_delivery(t, std::move(m));
    }
  }

  void expect_output(const SbaValue& want) {
    EXPECT_EQ(sim->run(), RunStatus::quiescent);
    for (Sba* inst : honest) {
      ASSERT_TRUE(inst->has_output());
      EXPECT_EQ(inst->output(), want);
    }
  }
};

constexpr int kSbaExchange = 1;
constexpr int kSbaKing = 2;

TEST(SbaProtocol, FirstExchangeMessagePerPhaseAndSenderWins) {
  // Honest inputs {9}, {9}, {5}. Party 3 first says {5}, then {9}: the
  // first wins, so phase 0 ties 2–2 below the n - ts quorum, everyone takes
  // king P0's tie-break {5}, and phase 1 agrees on it. Counting the second
  // message instead would give {9} a quorum of 3 and output {9}.
  SbaHarness h;
  h.inject(1, kSbaExchange, sba_payload(0, Words{5}));
  h.inject(2, kSbaExchange, sba_payload(0, Words{9}));
  h.honest[0]->start(Words{9});
  h.honest[1]->start(Words{9});
  h.honest[2]->start(Words{5});
  h.expect_output(Words{5});
}

TEST(SbaProtocol, KingMessageFromNonKingIsIgnored) {
  // Honest inputs {9}, {5}, {7}: no quorum in phase 0, so everyone adopts
  // the phase-0 king's value. King P0 announces its tie-break {5}; party
  // 3's earlier KING message {9} must not count, since 3 is not the king.
  SbaHarness h;
  h.inject(h.sim->timing().delta + 1, kSbaKing, sba_payload(0, Words{9}));
  h.honest[0]->start(Words{9});
  h.honest[1]->start(Words{5});
  h.honest[2]->start(Words{7});
  h.expect_output(Words{5});
}

// ------------------------------------------------------------------ BA --

struct BaHarness {
  std::unique_ptr<Simulation> sim;
  std::vector<Ba*> instances;

  explicit BaHarness(const SimSpec& spec,
                     std::shared_ptr<Adversary> adv = nullptr)
      : sim(make_sim(spec, std::move(adv))) {
    for (int i = 0; i < sim->n(); ++i) {
      instances.push_back(
          &sim->party(i).spawn<Ba>("ba", /*nominal_start=*/0, nullptr));
    }
  }

  void start_with(const std::vector<bool>& inputs) {
    for (int i = 0; i < sim->n(); ++i) {
      instances[static_cast<std::size_t>(i)]->start(
          inputs[static_cast<std::size_t>(i)]);
    }
  }
};

struct BaCase {
  NetworkKind kind;
  bool ideal;
  bool local_coins;
};

class BaModeTest : public ::testing::TestWithParam<BaCase> {};

TEST_P(BaModeTest, ValidityUnanimousInput) {
  const auto& c = GetParam();
  for (bool bit : {false, true}) {
    BaHarness h({.params = testing::p7_2_1(),
                 .kind = c.kind,
                 .seed = 17,
                 .ideal = c.ideal,
                 .local_coins = c.local_coins});
    h.start_with(std::vector<bool>(7, bit));
    EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
    for (Ba* ba : h.instances) {
      ASSERT_TRUE(ba->has_output());
      EXPECT_EQ(ba->output(), bit);
    }
  }
}

TEST_P(BaModeTest, ConsistencyMixedInput) {
  const auto& c = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    BaHarness h({.params = testing::p7_2_1(),
                 .kind = c.kind,
                 .seed = seed,
                 .ideal = c.ideal,
                 .local_coins = c.local_coins});
    h.start_with({true, false, true, false, true, false, true});
    EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
    ASSERT_TRUE(h.instances[0]->has_output());
    const bool v = h.instances[0]->output();
    for (Ba* ba : h.instances) {
      ASSERT_TRUE(ba->has_output());
      EXPECT_EQ(ba->output(), v);
    }
  }
}

TEST_P(BaModeTest, ConsistencyWithCrashedParties) {
  const auto& c = GetParam();
  // One corrupt silent party (within budget for both networks at (7,2,1)).
  auto adv = std::make_shared<ScriptedAdversary>(PartySet::of({6}));
  adv->silence(6);
  BaHarness h({.params = testing::p7_2_1(),
               .kind = c.kind,
               .seed = 5,
               .ideal = c.ideal,
               .local_coins = c.local_coins},
              adv);
  h.start_with({true, true, false, false, true, false, true});
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  std::optional<bool> v;
  for (int i = 0; i < 6; ++i) {
    Ba* ba = h.instances[static_cast<std::size_t>(i)];
    ASSERT_TRUE(ba->has_output());
    if (!v.has_value()) v = ba->output();
    EXPECT_EQ(ba->output(), *v);
  }
}

TEST_P(BaModeTest, SyncLivenessByTba) {
  const auto& c = GetParam();
  if (c.kind != NetworkKind::synchronous) GTEST_SKIP();
  BaHarness h({.params = testing::p7_2_1(),
               .kind = c.kind,
               .ideal = c.ideal,
               .local_coins = c.local_coins});
  h.start_with(std::vector<bool>(7, true));
  bool all_done_at_tba = true;
  h.sim->schedule(h.sim->timing().t_ba, [&] {
    for (Ba* ba : h.instances) {
      if (!ba->has_output()) all_done_at_tba = false;
    }
  });
  EXPECT_EQ(h.sim->run(), RunStatus::quiescent);
  EXPECT_TRUE(all_done_at_tba);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BaModeTest,
    ::testing::Values(BaCase{NetworkKind::synchronous, false, false},
                      BaCase{NetworkKind::synchronous, true, false},
                      BaCase{NetworkKind::asynchronous, false, false},
                      BaCase{NetworkKind::asynchronous, true, false},
                      BaCase{NetworkKind::synchronous, false, true},
                      BaCase{NetworkKind::asynchronous, false, true}));

}  // namespace
}  // namespace nampc
