#include "sharing/wss.h"

#include <algorithm>

#include "rs/reed_solomon.h"
#include "rs/rs_encode.h"

namespace nampc {

namespace {

constexpr std::uint64_t kTagSync = 0;
constexpr std::uint64_t kTagRestart = 1;
constexpr std::uint64_t kTagContinue = 2;

/// Parses a report-vector broadcast; an empty vector encodes ⊥/malformed.
RVector parse_report(const std::optional<Words>& payload, int n,
                     int num_secrets) {
  if (!payload.has_value()) return {};
  try {
    Reader r(*payload);
    const std::uint64_t count = r.u64();
    if (count != static_cast<std::uint64_t>(n)) return {};
    RVector rv;
    rv.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      rv.push_back(REntry::decode(r, static_cast<std::size_t>(num_secrets)));
    }
    return rv;
  } catch (const DecodeError&) {
    return {};
  }
}

}  // namespace

Wss::Wss(Party& party, std::string key, PartyId dealer, Time nominal_start,
         WssOptions options, OutputFn on_output)
    : ProtocolInstance(party, std::move(key)),
      dealer_(dealer),
      nominal_start_(nominal_start),
      options_(options),
      on_output_(std::move(on_output)),
      dealer_async_graph_(n()) {
  NAMPC_REQUIRE(options_.num_secrets >= 1, "need at least one secret");
  aok_edges_from_.resize(static_cast<std::size_t>(n()));
  if (options_.z.has_value()) {
    // LINT:threshold(wss.z_size)
    NAMPC_REQUIRE(options_.z->size() == ts() - ta(),
                  "Z must have exactly ts-ta parties");
  }
  span_kind("wss");
  span_nominal(nominal_start_);
  // Budget analysis reads this tag to pick T'_WSS (the Z-conditioned bound,
  // ts+1 iterations) over T_WSS for this span — same switch as
  // WssOptions::max_iterations.
  if (options_.z.has_value() || options_.inner_check) phase("z-conditioned");

  // Asynchronous-path AOK broadcasts: AOK_j Acast by P_i, for every (i, j).
  aok_.resize(static_cast<std::size_t>(n()));
  for (int i = 0; i < n(); ++i) {
    aok_[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n()));
    for (int j = 0; j < n(); ++j) {
      if (i == j) continue;
      aok_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          &make_child<Acast>(
              "aok/" + std::to_string(i) + "_" + std::to_string(j), i,
              [this, i, j](const Words&) { on_aok(i, j); });
    }
  }
  if (options_.inner_check) {
    // Protocol 7.1 step 2: the pairwise consistency check runs through one
    // inner Π_WSS instance per party, each sharing that party's row
    // polynomials. Instances persist across outer iterations (the dealer's
    // bivariates never change, so the committed points are identical; see
    // DESIGN.md).
    WssOptions inner_opts;
    inner_opts.num_secrets = options_.num_secrets;
    inner_opts.z = options_.z;
    inner_.resize(static_cast<std::size_t>(n()));
    for (int j = 0; j < n(); ++j) {
      inner_[static_cast<std::size_t>(j)] = &make_child<Wss>(
          "inner" + std::to_string(j), j, nominal_start_ + timing().t_bc,
          inner_opts, [this, j] { on_inner_output(j); });
    }
  }
  // The dealer's action-based (async, A, Qa) announcement.
  async_bcast_ = &make_child<Acast>("asyncq", dealer_, [this](const Words& m) {
    try {
      Reader r(m);
      Graph a = Graph::decode(r);
      const PartySet qa{r.u64()};
      const PartySet u{r.u64()};
      if (a.size() != n()) return;
      std::map<PartyId, std::vector<Polynomial>> u_rows;
      for (int member : u.to_vector()) {
        auto rows = decode_polys(r, static_cast<std::size_t>(num_secrets()),
                                 ts());
        if (static_cast<int>(rows.size()) != num_secrets()) return;
        u_rows.emplace(member, std::move(rows));
      }
      for (auto& [member, rows] : u_rows) {
        if (published_rows_.count(member) == 0) {
          published_rows_.emplace(member, std::move(rows));
          note_revealed(member);
        }
      }
      async_candidate_ = {std::move(a), qa};
      async_u_ = u;
      try_accept_async();
    } catch (const DecodeError&) {
      // Corrupt dealer sent garbage: no asynchronous exit for anyone.
    }
  });
  // Output gate for the asynchronous path (Protocol 6.2 / 7.2 condition).
  at(nominal_start_ + options_.max_iterations(params()) * iteration_length(),
     [this] { try_accept_async(); });

  begin_iteration(nominal_start_);
}

void Wss::start(std::vector<Polynomial> row0s) {
  NAMPC_REQUIRE(i_am_dealer(), "only the dealer starts a Wss");
  NAMPC_REQUIRE(static_cast<int>(row0s.size()) == num_secrets(),
                "row0 count must match num_secrets");
  for (const Polynomial& q : row0s) {
    // LINT:threshold(wss.degree)
    NAMPC_REQUIRE(q.degree() <= ts(), "row0 degree exceeds ts");
  }
  dealer_row0s_ = std::move(row0s);
  {
    Writer w;
    w.seq(dealer_row0s_,
          [](Writer& ww, const Polynomial& q) { q.encode(ww); });
    notify_input(std::move(w).take());
  }
  bivariates_.reserve(dealer_row0s_.size());
  for (const Polynomial& q : dealer_row0s_) {
    bivariates_.push_back(SymBivariate::random_with_row0(q, ts(), rng()));
  }
  // The bivariates never change after this point, so the full row family
  // and the n×n committed-point grid per secret are computed once — every
  // later send/expect against them becomes a table lookup.
  dealer_rows_.reserve(bivariates_.size());
  dealer_points_.resize(bivariates_.size());
  for (std::size_t k = 0; k < bivariates_.size(); ++k) {
    dealer_rows_.push_back(bivariates_[k].rows_for_parties(n()));
    rs_encode_batch(dealer_rows_[k], n(), ts(), dealer_points_[k]);
  }
  // start() may be invoked at (or after) the iteration's nominal start —
  // e.g. an inner VSS instance whose outer layer hands it input exactly at
  // T_BC, or a slow dealer in an asynchronous network. Distribute now.
  if (!iterations_.empty() && now() >= iterations_.back()->start) {
    dealer_start_iteration(*iterations_.back());
  }
}

// -------------------------------------------------------- scaling caches --

Fp Wss::row_point(int k, int j) const {
  return row_points_.at(static_cast<std::size_t>(k),
                        static_cast<std::size_t>(j));
}

std::vector<Polynomial> Wss::dealer_rows_for(int j) const {
  std::vector<Polynomial> rows;
  rows.reserve(dealer_rows_.size());
  for (const auto& family : dealer_rows_) {
    rows.push_back(family[static_cast<std::size_t>(j)]);
  }
  return rows;
}

Fp Wss::dealer_point(int k, int owner, int at) const {
  return dealer_points_[static_cast<std::size_t>(k)].at(
      static_cast<std::size_t>(owner), static_cast<std::size_t>(at));
}

// ------------------------------------------------------------ iterations --

void Wss::begin_iteration(Time start_time) {
  const int index = static_cast<int>(iterations_.size());
  if (index >= options_.max_iterations(params())) return;
  if (index > 0 && my_id() == dealer_) metrics().wss_restarts++;

  auto it_owned = std::make_unique<Iteration>();
  Iteration& it = *it_owned;
  iterations_.push_back(std::move(it_owned));
  it.index = index;
  it.start = start_time;
  it.continue_g = Graph(n());
  it.pending_sync_g = Graph(n());
  it.r_vectors.resize(static_cast<std::size_t>(n()));

  phase("it" + std::to_string(index));

  const std::string pfx = "it" + std::to_string(index) + "/";
  const Time t_bc = timing().t_bc;
  const Time t_ba = timing().t_ba;
  const Time x = options_.check_extra;  // T'_WSS in VSS mode, else 0

  it.pub = &make_child<Bc>(pfx + "pub", dealer_, start_time,
                           [this, &it](const std::optional<Words>& m, BcPhase) {
                             on_pub_broadcast(it, m);
                           });
  it.reports.resize(static_cast<std::size_t>(n()));
  for (int j = 0; j < n(); ++j) {
    it.reports[static_cast<std::size_t>(j)] = &make_child<Bc>(
        pfx + "r" + std::to_string(j), j, start_time + t_bc + x,
        [this, &it](const std::optional<Words>&, BcPhase phase) {
          if (phase == BcPhase::fallback) {
            for (int jj = 0; jj < n(); ++jj) {
              it.r_vectors[static_cast<std::size_t>(jj)] = parse_report(
                  it.reports[static_cast<std::size_t>(jj)]->current_output(),
                  n(), num_secrets());
            }
            retry_pending_accept(it);
          }
        });
  }
  it.dealer_step5 = &make_child<Bc>(
      pfx + "d5", dealer_, start_time + 2 * t_bc + x,
      [this, &it](const std::optional<Words>&, BcPhase phase) {
        if (phase == BcPhase::fallback && it.ba1_done) {
          step_handle_dealer5(it);  // late fallback: retry acceptance
        }
      });
  it.dealer_step8 = &make_child<Bc>(
      pfx + "d8", dealer_, start_time + 4 * t_bc + x + t_ba,
      [this, &it](const std::optional<Words>&, BcPhase phase) {
        if (phase == BcPhase::fallback && it.ba2_done) {
          step_handle_dealer8(it);
        }
      });
  it.ba1 = &make_child<Ba>(pfx + "ba1", start_time + 3 * t_bc + x,
                           [this, &it](bool v) { on_ba1(it, v); });
  it.ba2 = &make_child<Ba>(pfx + "ba2", start_time + 5 * t_bc + x + t_ba,
                           [this, &it](bool v) { on_ba2(it, v); });

  if (i_am_dealer()) {
    at(start_time, [this, &it] { dealer_start_iteration(it); });
    at(start_time + 2 * t_bc + x, [this, &it] { dealer_step5(it); });
    at(start_time + 4 * t_bc + x + t_ba, [this, &it] { dealer_step8(it); });
  }
  if (options_.inner_check) {
    at(start_time + t_bc, [this] { start_inner_if_ready(); });
  }
  at(start_time + t_bc + x, [this, &it] { step_report(it); });
  at(start_time + 3 * t_bc + x, [this, &it] { step_handle_dealer5(it); });
  at(start_time + 5 * t_bc + x + t_ba,
     [this, &it] { step_handle_dealer8(it); });
}

void Wss::schedule_restart(Iteration& it, Time nominal) {
  if (accepted_ || discarded_) return;
  if (it.index + 1 >= options_.max_iterations(params())) return;
  if (static_cast<int>(iterations_.size()) > it.index + 1) return;  // already
  begin_iteration(std::max(now(), nominal));
}

// ---------------------------------------------------------- dealer logic --

void Wss::clamp_dealer_u() {
  // Protocol 6.1 step 1: if |U| > ts - ta keep the first ts - ta parties
  // lexicographically. Once ts - ta rows are public an honest dealer's
  // clique (honest ∪ U) already reaches n - ta, so dropping the excess is
  // safe — and it keeps the asynchronous-path U verifiable.
  // LINT:threshold(wss.u_bound)
  while (dealer_u_.size() > ts() - ta()) {
    dealer_u_.erase(dealer_u_.to_vector().back());
  }
}

void Wss::dealer_start_iteration(Iteration& it) {
  if (dealer_row0s_.empty()) return;  // dealer has no input (never started)
  if (accepted_ || it.dealer_started) return;
  it.dealer_started = true;
  clamp_dealer_u();
  // Send row polynomials to every party.
  for (int j = 0; j < n(); ++j) {
    Writer w;
    encode_polys(w, dealer_rows_for(j));
    send(j, kRow, std::move(w).take());
  }
  // Broadcast (U, rows of U).
  Writer w;
  w.u64(dealer_u_.mask());
  for (int u : dealer_u_.to_vector()) {
    encode_polys(w, dealer_rows_for(u));
  }
  it.pub->start(std::move(w).take());
}

void Wss::dealer_step5(Iteration& it) {
  if (dealer_row0s_.empty() || accepted_) return;
  // Regular-mode report outputs are available now (their Π_BC started at
  // S + T_BC); parse them before building W and the consistency graph.
  for (int j = 0; j < n(); ++j) {
    it.r_vectors[static_cast<std::size_t>(j)] = parse_report(
        it.reports[static_cast<std::size_t>(j)]->current_output(), n(),
        num_secrets());
  }
  // Grow W from the report broadcasts (only within Z when conditioned).
  PartySet w_set;
  const PartySet z = options_.z.value_or(PartySet::full(n()));
  for (int i = 0; i < n(); ++i) {
    if (dealer_u_.contains(i)) continue;
    bool accuse = false;
    const auto& rv = it.r_vectors[static_cast<std::size_t>(i)];
    if (rv.empty()) {
      accuse = true;  // ⊥ / missing / malformed report
    } else {
      int nr_count = 0;
      for (int j = 0; j < n(); ++j) {
        const REntry& e = rv[static_cast<std::size_t>(j)];
        if (e.tag == REntry::Tag::nr) ++nr_count;
        if (e.tag == REntry::Tag::vals) {
          for (int k = 0; k < num_secrets(); ++k) {
            if (e.vals[static_cast<std::size_t>(k)] != dealer_point(k, i, j)) {
              accuse = true;
            }
          }
        }
      }
      // LINT:threshold(wss.nr_accuse)
      if (nr_count > ts()) accuse = true;
    }
    if (accuse && z.contains(i)) w_set.insert(i);
  }

  const Graph g = build_report_graph(it, false);
  NAMPC_PLOG(trace) << "dealer step5 it=" << it.index << " W=" << w_set.str()
                    << " U=" << dealer_u_.str();

  // Already a clique of size n - ta?
  // LINT:threshold(wss.clique_quorum)
  if (const auto big = find_clique_including(g, dealer_u_, n() - ta())) {
    NAMPC_PLOG(trace) << "dealer step5 SYNC qa=" << big->str();
    Writer w;
    w.u64(kTagSync);
    g.encode(w);
    w.u64(big->mask());
    it.dealer_step5->start(std::move(w).take());
    return;
  }
  if (!w_set.empty()) {
    dealer_u_ = dealer_u_.union_with(w_set);
    clamp_dealer_u();
    Writer w;
    w.u64(kTagRestart);
    w.u64(dealer_u_.mask());
    it.dealer_step5->start(std::move(w).take());
    return;
  }
  // Find a clique of size n - ts + |U| including U; when Z-conditioned the
  // prospective V = Z \ U must stay outside it; always avoid blacklisted
  // stallers from previous runs.
  PartySet exclude = dealer_blacklist_;
  PartySet v;
  if (z_conditioned()) {
    v = options_.z->minus(dealer_u_);
    exclude = exclude.union_with(v);
  }
  // LINT:threshold(wss.continue_quorum)
  const int target = n() - ts() + dealer_u_.size();
  auto q = find_clique_including(g, dealer_u_, target, exclude);
  NAMPC_PLOG(trace) << "dealer step5 continue q="
                    << (q ? q->str() : std::string("none"));
  if (!q.has_value()) return;  // rely on the asynchronous path
  // Trim to exactly `target` (keep U) so enough parties remain outside for V.
  while (q->size() > target) {
    for (int cand : q->to_vector()) {
      if (!dealer_u_.contains(cand)) {
        q->erase(cand);
        break;
      }
    }
  }
  if (!z_conditioned()) {
    // V: lexicographically-first ts-ta-|U| parties outside Q ∪ U.
    // LINT:threshold(wss.v_size)
    const int v_size = (ts() - ta()) - dealer_u_.size();
    for (int cand = 0; cand < n() && v.size() < v_size; ++cand) {
      if (!q->contains(cand) && !dealer_u_.contains(cand)) v.insert(cand);
    }
  }
  Writer w;
  w.u64(kTagContinue);
  w.u64(q->mask());
  g.encode(w);
  w.u64(v.mask());
  it.dealer_step5->start(std::move(w).take());
}

void Wss::dealer_step8(Iteration& it) {
  if (dealer_row0s_.empty() || accepted_) return;
  // Only applicable when step 5 was 'continue'.
  if (!it.continue_q.has_value() || !it.continue_v.has_value()) return;
  const PartySet q = *it.continue_q;
  const PartySet v = *it.continue_v;
  const PartySet z = options_.z.value_or(PartySet::full(n()));

  PartySet w_set;
  PartySet stallers;
  const Graph& g = it.continue_g;
  for (int j : v.to_vector()) {
    for (int k = 0; k < n(); ++k) {
      if (k == j || g.has_edge(j, k)) continue;
      // Both sides of the unresolved pair spoke; check each speaker.
      for (const auto& [speaker, about] :
           {std::pair<int, int>{j, k}, std::pair<int, int>{k, j}}) {
        const auto bc_it = it.conflict_bcs.find({speaker, about});
        bool ok = false;
        if (bc_it != it.conflict_bcs.end()) {
          const auto& out = bc_it->second->regular_output();
          if (out.has_value()) {
            try {
              Reader r(*out);
              if (r.boolean()) {
                const FpVec vals = decode_values(r, num_secrets());
                ok = static_cast<int>(vals.size()) == num_secrets();
                for (int s = 0; ok && s < num_secrets(); ++s) {
                  const Fp expect = dealer_point(s, speaker, about);
                  if (vals[static_cast<std::size_t>(s)] != expect) ok = false;
                }
              }
            } catch (const DecodeError&) {
            }
          }
        }
        if (!ok) {
          if (z.contains(speaker)) {
            w_set.insert(speaker);
          } else {
            stallers.insert(speaker);
          }
        }
      }
    }
  }

  Writer w;
  if (!w_set.empty()) {
    dealer_u_ = dealer_u_.union_with(w_set);
    clamp_dealer_u();
    w.u64(kTagRestart);
    w.u64(dealer_u_.mask());
  } else if (stallers.empty() &&
             q.union_with(v).union_with(dealer_u_).size() >=
                 n() - ta()) {  // LINT:threshold(wss.clique_quorum)
    // All conflicts resolved: Qa = Q ∪ V (∪ U).
    const PartySet qa = q.union_with(v).union_with(dealer_u_);
    const Graph g2 = build_report_graph(it, true);
    w.u64(kTagSync);
    g2.encode(w);
    w.u64(qa.mask());
  } else {
    // (restart, {φ}): silent cliquemates outside Z stall the expansion; the
    // dealer excludes them from the next clique (§7 discussion).
    dealer_blacklist_ = dealer_blacklist_.union_with(stallers);
    w.u64(kTagRestart);
    w.u64(dealer_u_.mask());
  }
  it.dealer_step8->start(std::move(w).take());
}

void Wss::dealer_check_async() {
  if (!i_am_dealer() || dealer_row0s_.empty() || dealer_async_sent_) return;
  NAMPC_PLOG(trace) << "dealer_check_async";
  // Build the AOK graph A with the dealer's current U.
  Graph a(n());
  for (int i = 0; i < n(); ++i) {
    for (int j = i + 1; j < n(); ++j) {
      const bool iu = dealer_u_.contains(i);
      const bool ju = dealer_u_.contains(j);
      bool edge = false;
      if (iu && ju) {
        edge = true;
      } else if (ju) {
        edge = aok_edges_from_[i].contains(j);
      } else if (iu) {
        edge = aok_edges_from_[j].contains(i);
      } else {
        edge = aok_edges_from_[i].contains(j) && aok_edges_from_[j].contains(i);
      }
      if (edge) a.add_edge(i, j);
    }
  }
  dealer_async_graph_ = a;
  // Protocol 6.1 step 6 uses the Star algorithm as a fast detector; the
  // binding object parties verify is an (n - ta)-clique (Protocol 6.2), so
  // the dealer announces exactly that. Preference: a clique containing U,
  // else any clique (a U member whose row never reached the others has no
  // AOK edges and simply stays outside).
  //
  // Observable behaviour is clique-first: the star fallback requires
  // star->f to itself be an (n - ta)-clique containing U, and the exact
  // Bron-Kerbosch search already finds one whenever it exists — so the star
  // only needs computing (and only matters as the paper's fast detector)
  // when the clique search comes up empty.
  //
  // Degree gate: an (n - ta)-clique needs n - ta vertices of degree at
  // least n - ta - 1. Early AOK trickle fails this cheaply, skipping the
  // exponential clique searches (and the star) entirely.
  int rich = 0;
  for (int i = 0; i < n(); ++i) {
    // LINT:threshold(wss.degree_gate)
    if (a.neighbors(i).size() >= n() - ta() - 1) ++rich;
  }
  if (rich < n() - ta()) {  // LINT:threshold(wss.clique_quorum)
    NAMPC_PLOG(trace) << "dealer async: degree gate (" << rich << ")";
    return;
  }
  // LINT:threshold(wss.clique_quorum)
  auto qa = find_clique_including(a, dealer_u_, n() - ta());
  std::optional<StarResult> star;
  if (!qa.has_value()) {
    // The AOK graph for a fixed U only ever gains edges; the incremental
    // finder repairs its complement matching per arrival instead of
    // rebuilding. A U change invalidates the edge semantics — reload.
    if (!dealer_star_loaded_ || !(dealer_star_u_ == dealer_u_)) {
      dealer_star_.load(a, ta());
      dealer_star_u_ = dealer_u_;
      dealer_star_loaded_ = true;
    } else {
      dealer_star_.sync_to(a);
    }
    star = dealer_star_.find();
  }
  if (!qa.has_value() && star.has_value() && star->extended &&
      a.is_clique(star->f) &&
      star->f.size() >= n() - ta() &&  // LINT:threshold(wss.clique_quorum)
      dealer_u_.subset_of(star->f)) {
    qa = star->f;
  }
  if (!qa.has_value()) {
    const PartySet best = maximum_clique(a);
    // LINT:threshold(wss.clique_quorum)
    if (best.size() >= n() - ta()) qa = best;
  }
  if (!qa.has_value()) {
    NAMPC_PLOG(trace) << "dealer async: no clique yet";
    return;
  }
  const PartySet u_in_qa = dealer_u_.intersect(*qa);
  dealer_async_sent_ = true;
  NAMPC_PLOG(trace) << "dealer async sends qa=" << qa->str();
  Writer w;
  a.encode(w);
  w.u64(qa->mask());
  w.u64(u_in_qa.mask());
  // The announcement is self-contained: it carries the public rows of U so
  // that parties which never entered the iteration that published them can
  // still verify and reconstruct ("P_i obtains points of parties in U from
  // the dealer's broadcast", Protocol 6.2).
  for (int u : u_in_qa.to_vector()) {
    encode_polys(w, dealer_rows_for(u));
  }
  async_bcast_->start(std::move(w).take());
}

// ----------------------------------------------------------- party logic --

void Wss::on_message(const Message& msg) {
  if (msg.type == kRow) {
    if (msg.from != dealer_ || have_rows_) return;
    Reader r(msg.payload);
    auto rows = decode_polys(r, static_cast<std::size_t>(num_secrets()), ts());
    if (static_cast<int>(rows.size()) != num_secrets()) return;
    rows_ = std::move(rows);
    have_rows_ = true;
    rows_time_ = now();
    // Rows never change once accepted: batch-encode them over all n party
    // points now (one Vandermonde product) so the per-peer evaluations in
    // the point exchange, reports, AOKs and reconstruction are lookups.
    rs_encode_batch(rows_, n(), ts(), row_points_);
    step_send_points();
    for (int j = 0; j < n(); ++j) maybe_send_aok(j);
  } else if (msg.type == kPoint) {
    if (peer_points_.count(msg.from) != 0) return;
    Reader r(msg.payload);
    FpVec vals = decode_values(r, static_cast<std::size_t>(num_secrets()));
    if (static_cast<int>(vals.size()) != num_secrets()) return;
    peer_points_.emplace(msg.from, std::move(vals));
    maybe_send_aok(msg.from);
    if (accepted_ && reconstruct_armed_) try_reconstruct();
  }
}

std::optional<FpVec> Wss::check_point_from(int j) const {
  if (options_.inner_check) {
    const Wss* inner = inner_[static_cast<std::size_t>(j)];
    if (inner->outcome() != WssOutcome::rows) return std::nullopt;
    FpVec vals;
    vals.reserve(static_cast<std::size_t>(num_secrets()));
    for (int k = 0; k < num_secrets(); ++k) vals.push_back(inner->share(k));
    return vals;
  }
  const auto p = peer_points_.find(j);
  if (p == peer_points_.end()) return std::nullopt;
  return p->second;
}

void Wss::start_inner_if_ready() {
  if (!options_.inner_check || inner_started_ || !have_rows_) return;
  if (now() < nominal_start_ + timing().t_bc) return;  // step-2 time gate
  inner_started_ = true;
  inner_[static_cast<std::size_t>(my_id())]->start(rows_);
}

void Wss::on_inner_output(int j) {
  maybe_send_aok(j);
  if (accepted_ && reconstruct_armed_) try_reconstruct();
}

void Wss::step_send_points() {
  if (points_sent_ || !have_rows_) return;
  if (options_.inner_check) {
    start_inner_if_ready();
    return;
  }
  points_sent_ = true;
  for (int j = 0; j < n(); ++j) {
    Writer w;
    FpVec vals;
    vals.reserve(static_cast<std::size_t>(num_secrets()));
    for (int k = 0; k < num_secrets(); ++k) {
      vals.push_back(row_point(k, j));
    }
    encode_values(w, vals);
    send(j, kPoint, std::move(w).take());
  }
}

void Wss::on_pub_broadcast(Iteration& it, const std::optional<Words>& payload) {
  if (!payload.has_value()) return;
  try {
    Reader r(*payload);
    const PartySet u{r.u64()};
    if (!u.subset_of(PartySet::full(n()))) return;
    if (z_conditioned()) {
      if (!u.subset_of(*options_.z)) {
        discarded_ = true;  // Protocol condition: U ⊄ Z discards the dealer
        return;
      }
      // LINT:threshold(wss.u_bound)
    } else if (u.size() > ts() - ta()) {
      return;  // invalid; treated as ⊥
    }
    std::map<PartyId, std::vector<Polynomial>> pub;
    for (int member : u.to_vector()) {
      auto rows = decode_polys(r, static_cast<std::size_t>(num_secrets()), ts());
      if (static_cast<int>(rows.size()) != num_secrets()) return;
      pub.emplace(member, std::move(rows));
    }
    // Pairwise symmetry among the published rows (step 3 condition (d)).
    for (const auto& [a, rows_a] : pub) {
      for (const auto& [b, rows_b] : pub) {
        for (int k = 0; k < num_secrets(); ++k) {
          if (rows_a[static_cast<std::size_t>(k)].eval(eval_point(b)) !=
              rows_b[static_cast<std::size_t>(k)].eval(eval_point(a))) {
            return;
          }
        }
      }
    }
    it.u = u;
    it.pub_valid = true;
    for (auto& [member, rows] : pub) {
      published_rows_[member] = std::move(rows);
      note_revealed(member);
    }
    u_known_ = u_known_.union_with(u);
    for (int member : u.to_vector()) maybe_send_aok(member);
    if (i_am_dealer()) dealer_check_async();
    try_accept_async();
  } catch (const DecodeError&) {
    // invalid broadcast: pub_valid stays false
  }
}

void Wss::step_report(Iteration& it) {
  if (accepted_) return;
  Writer w;
  RVector rv(static_cast<std::size_t>(n()));
  const bool rows_ok = have_rows_ && rows_time_ <= it.start + timing().delta;
  it.rows_by_delta = rows_ok;
  if (rows_ok && it.pub_valid) {
    for (int j = 0; j < n(); ++j) {
      REntry& e = rv[static_cast<std::size_t>(j)];
      FpVec mine;
      for (int k = 0; k < num_secrets(); ++k) {
        mine.push_back(row_point(k, j));
      }
      if (it.u.contains(j)) {
        e.tag = REntry::Tag::vals;
        e.vals = std::move(mine);
      } else if (j == my_id()) {
        e.tag = REntry::Tag::ok;
      } else {
        const auto p = check_point_from(j);
        if (!p.has_value()) {
          e.tag = REntry::Tag::nr;
        } else if (*p != mine) {
          e.tag = REntry::Tag::vals;
          e.vals = std::move(mine);
        } else {
          e.tag = REntry::Tag::ok;
        }
      }
    }
  }
  if (Log::enabled_for("wss", LogLevel::trace)) {
    std::string tags;
    for (const REntry& e : rv) {
      tags += e.tag == REntry::Tag::ok ? 'O' : (e.tag == REntry::Tag::nr ? 'N' : 'V');
    }
    NAMPC_PLOG(trace) << "report it=" << it.index << " rows_ok="
                      << it.rows_by_delta << " pub=" << it.pub_valid
                      << " tags=" << tags;
  }
  // rows/pub missing: the all-NR vector (conditions (a)-(d) of step 3).
  w.u64(rv.size());
  for (const REntry& e : rv) e.encode(w);
  it.reports[static_cast<std::size_t>(my_id())]->start(std::move(w).take());
}

Graph Wss::build_report_graph(const Iteration& it,
                              bool with_conflict_edges) const {
  Graph g(n());
  const PartySet u = it.u;
  auto entry = [&](int i, int j) -> const REntry* {
    const auto& rv = it.r_vectors[static_cast<std::size_t>(i)];
    if (rv.empty()) return nullptr;
    return &rv[static_cast<std::size_t>(j)];
  };
  for (int i = 0; i < n(); ++i) {
    for (int j = i + 1; j < n(); ++j) {
      const bool iu = u.contains(i);
      const bool ju = u.contains(j);
      bool edge = false;
      if (iu && ju) {
        edge = true;
      } else if (iu || ju) {
        const int member = iu ? i : j;
        const int other = iu ? j : i;
        const REntry* e = entry(other, member);
        const auto pub = published_rows_.find(member);
        if (e != nullptr && e->tag == REntry::Tag::vals &&
            pub != published_rows_.end()) {
          edge = true;
          for (int k = 0; k < num_secrets(); ++k) {
            if (e->vals[static_cast<std::size_t>(k)] !=
                pub->second[static_cast<std::size_t>(k)].eval(
                    eval_point(other))) {
              edge = false;
            }
          }
        }
      } else {
        const REntry* eij = entry(i, j);
        const REntry* eji = entry(j, i);
        edge = eij != nullptr && eji != nullptr &&
               eij->tag == REntry::Tag::ok && eji->tag == REntry::Tag::ok;
      }
      if (edge) g.add_edge(i, j);
    }
  }
  if (with_conflict_edges) {
    // Conflict-resolution broadcasts add edges for pairs whose two values match.
    for (const auto& [key_pair, bc] : it.conflict_bcs) {
      const auto& [speaker, about] = key_pair;
      if (speaker > about) continue;  // handle each unordered pair once
      const auto other_it = it.conflict_bcs.find({about, speaker});
      if (other_it == it.conflict_bcs.end()) continue;
      const auto& o1 = bc->current_output();
      const auto& o2 = other_it->second->current_output();
      if (!o1.has_value() || !o2.has_value()) continue;
      try {
        Reader r1(*o1);
        Reader r2(*o2);
        if (!r1.boolean() || !r2.boolean()) continue;
        const FpVec v1 = decode_values(r1, static_cast<std::size_t>(num_secrets()));
        const FpVec v2 = decode_values(r2, static_cast<std::size_t>(num_secrets()));
        if (v1.size() == v2.size() && v1 == v2 &&
            static_cast<int>(v1.size()) == num_secrets() &&
            !g.has_edge(speaker, about)) {
          g.add_edge(speaker, about);
        }
      } catch (const DecodeError&) {
      }
    }
  }
  return g;
}

bool Wss::verify_sync_qa(Iteration& it, const Graph& g_payload, PartySet qa,
                         bool with_conflict_edges) {
  (void)g_payload;  // the binding check is against the locally built graph
  if (!it.pub_valid) return false;
  // LINT:threshold(wss.clique_quorum)
  if (qa.size() < n() - ta()) return false;
  if (!it.u.subset_of(qa)) return false;
  const Graph gi = build_report_graph(it, with_conflict_edges);
  return gi.is_clique(qa);
}

void Wss::step_handle_dealer5(Iteration& it) {
  NAMPC_PLOG(trace) << "handle_d5 it=" << it.index << " out="
                    << it.dealer_step5->current_output().has_value();
  if (accepted_ || discarded_) return;
  // Parse all report vectors as visible now (regular outputs by 2T_BC).
  for (int j = 0; j < n(); ++j) {
    it.r_vectors[static_cast<std::size_t>(j)] = parse_report(
        it.reports[static_cast<std::size_t>(j)]->current_output(), n(),
        num_secrets());
  }
  const auto& out = it.dealer_step5->current_output();
  bool b = false;
  if (out.has_value()) {
    try {
      Reader r(*out);
      const std::uint64_t tag = r.u64();
      if (tag == kTagSync) {
        Graph g = Graph::decode(r);
        const PartySet qa{r.u64()};
        it.pending_sync_qa = qa;  // candidate; may verify later via fallback
        it.pending_sync_g = std::move(g);
        b = verify_sync_qa(it, it.pending_sync_g, qa, false);
      } else if (tag == kTagRestart) {
        const PartySet u{r.u64()};
        if (z_conditioned() && !u.subset_of(*options_.z)) {
          discarded_ = true;
        }
      } else if (tag == kTagContinue) {
        const PartySet q{r.u64()};
        Graph g = Graph::decode(r);
        const PartySet v{r.u64()};
        // Validate Q, G, V (step 7c).
        const Graph gi = build_report_graph(it, false);
        const bool q_ok =
            it.pub_valid &&
            q.size() >= n() - ts() + it.u.size() &&  // LINT:threshold(wss.continue_quorum)
            it.u.subset_of(q) && gi.is_clique(q);
        const bool v_ok =
            v.size() ==
                (ts() - ta()) - it.u.size() &&  // LINT:threshold(wss.v_size)
            v.intersect(q.union_with(it.u)).empty() &&
            (!z_conditioned() || v.subset_of(*options_.z));
        if (z_conditioned() && !v.subset_of(*options_.z)) discarded_ = true;
        if (q_ok && v_ok) {
          it.continue_q = q;
          it.continue_v = v;
          it.continue_g = std::move(gi);
        }
      }
    } catch (const DecodeError&) {
    }
  }
  if (!it.ba1_done) {
    NAMPC_PLOG(trace) << "ba1 input=" << b;
    // First (timed) pass: join Π_BA with the verification verdict.
    it.ba1->start(b);
    return;
  }
  // Re-entered via fallback after the BA concluded.
  if (it.ba1_value) {
    retry_pending_accept(it);
    return;
  }
  // BA said 0: a late (restart, U) still triggers the rerun (needed in the
  // asynchronous network, where the regular-mode output may have been ⊥).
  if (out.has_value() && !discarded_) {
    try {
      Reader r(*out);
      if (r.u64() == kTagRestart) {
        schedule_restart(it, it.start + 3 * timing().t_bc +
                                 options_.check_extra + timing().t_ba);
      }
    } catch (const DecodeError&) {
    }
  }
}

void Wss::retry_pending_accept(Iteration& it) {
  if (accepted_ || discarded_) return;
  const bool ba_said_yes =
      (it.ba1_done && it.ba1_value) || (it.ba2_done && it.ba2_value);
  if (!ba_said_yes || !it.pending_sync_qa.has_value()) return;
  // Conflict-resolution edges only ever add consistency-certified pairs, so
  // verifying with them included is sound at either decision point.
  if (verify_sync_qa(it, it.pending_sync_g, *it.pending_sync_qa, true)) {
    accept_qa(*it.pending_sync_qa, it.u, it.index, true);
  }
}

void Wss::on_ba1(Iteration& it, bool v) {
  it.ba1_done = true;
  it.ba1_value = v;
  if (accepted_ || discarded_) return;
  const Time nominal =
      it.start + 3 * timing().t_bc + options_.check_extra + timing().t_ba;
  if (v) {
    retry_pending_accept(it);
    // If verification is still failing, fallback updates will retry.
    return;
  }
  const auto& out = it.dealer_step5->current_output();
  if (out.has_value()) {
    try {
      Reader r(*out);
      const std::uint64_t tag = r.u64();
      if (tag == kTagRestart) {
        schedule_restart(it, nominal);
        return;
      }
    } catch (const DecodeError&) {
    }
  }
  if (it.continue_q.has_value()) {
    at(std::max(now(), nominal), [this, &it] { start_conflict_broadcasts(it); });
  }
  // Otherwise: ⊥ / invalid — wait for the asynchronous exit.
}

void Wss::start_conflict_broadcasts(Iteration& it) {
  if (it.conflicts_started || accepted_ || discarded_) return;
  if (!it.continue_q.has_value() || !it.continue_v.has_value()) return;
  it.conflicts_started = true;
  const Time nominal =
      it.start + 3 * timing().t_bc + options_.check_extra + timing().t_ba;
  const Graph& g = it.continue_g;
  for (int j : it.continue_v->to_vector()) {
    for (int k = 0; k < n(); ++k) {
      if (k == j || g.has_edge(j, k)) continue;
      for (const auto& [speaker, about] :
           {std::pair<int, int>{j, k}, std::pair<int, int>{k, j}}) {
        if (it.conflict_bcs.count({speaker, about}) != 0) continue;
        Bc* bc = &make_child<Bc>(
            "it" + std::to_string(it.index) + "/cr" + std::to_string(speaker) +
                "_" + std::to_string(about),
            speaker, nominal,
            [this, &it](const std::optional<Words>&, BcPhase phase) {
              if (phase == BcPhase::fallback) retry_pending_accept(it);
            });
        it.conflict_bcs.emplace(std::make_pair(speaker, about), bc);
        if (speaker == my_id()) {
          Writer w;
          const bool have = have_rows_ && it.rows_by_delta;
          w.boolean(have);
          FpVec vals;
          if (have) {
            for (int s = 0; s < num_secrets(); ++s) {
              vals.push_back(row_point(s, about));
            }
          }
          encode_values(w, vals);
          bc->start(std::move(w).take());
          if (it.continue_v->contains(my_id())) note_revealed(my_id());
        }
      }
    }
  }
  // The conflict phase reveals the rows of V members (points against every
  // unresolved partner) — record for the privacy audit.
  for (int member : it.continue_v->to_vector()) note_revealed(member);
}

void Wss::note_revealed(int member) {
  if (revealed_.contains(member)) return;
  revealed_.insert(member);
  // Count each logical reveal once globally: only the revealed party's own
  // instance copy records it (instance keys are identical across parties),
  // and only when that party is honest — corrupt rows are free information.
  if (member == my_id() && !party().corrupt()) {
    sim().note_honest_reveal(key(), dealer_, member);
  }
}

void Wss::step_handle_dealer8(Iteration& it) {
  if (accepted_ || discarded_) return;
  const auto& out = it.dealer_step8->current_output();
  bool b = false;
  if (out.has_value()) {
    try {
      Reader r(*out);
      const std::uint64_t tag = r.u64();
      if (tag == kTagSync) {
        Graph g = Graph::decode(r);
        const PartySet qa{r.u64()};
        it.pending_sync_qa = qa;
        it.pending_sync_g = std::move(g);
        b = verify_sync_qa(it, it.pending_sync_g, qa, true);
      } else if (tag == kTagRestart) {
        const PartySet u{r.u64()};
        if (z_conditioned() && !u.subset_of(*options_.z)) {
          discarded_ = true;
        }
      }
    } catch (const DecodeError&) {
    }
  }
  if (!it.ba2_done) {
    it.ba2->start(b);
    return;
  }
  if (it.ba2_value) {
    retry_pending_accept(it);
    return;
  }
  if (out.has_value() && !discarded_) {
    try {
      Reader r(*out);
      if (r.u64() == kTagRestart) {
        schedule_restart(it, it.start + iteration_length());
      }
    } catch (const DecodeError&) {
    }
  }
}

void Wss::on_ba2(Iteration& it, bool v) {
  it.ba2_done = true;
  it.ba2_value = v;
  if (accepted_ || discarded_) return;
  const Time nominal = it.start + iteration_length();
  if (v) {
    retry_pending_accept(it);
    return;
  }
  const auto& out = it.dealer_step8->current_output();
  if (out.has_value()) {
    try {
      Reader r(*out);
      if (r.u64() == kTagRestart) {
        schedule_restart(it, nominal);
        return;
      }
    } catch (const DecodeError&) {
    }
  }
  // ⊥ or rejected sync: wait for the asynchronous exit.
}

// ----------------------------------------------------- asynchronous path --

void Wss::maybe_send_aok(int j) {
  NAMPC_PLOG(trace) << "maybe_aok j=" << j << " have_rows=" << have_rows_;
  if (!have_rows_ || j == my_id() || aok_sent_.contains(j)) return;
  FpVec mine;
  for (int k = 0; k < num_secrets(); ++k) {
    mine.push_back(row_point(k, j));
  }
  bool consistent = false;
  if (u_known_.contains(j)) {
    const auto pub = published_rows_.find(j);
    if (pub != published_rows_.end()) {
      consistent = true;
      for (int k = 0; k < num_secrets(); ++k) {
        if (pub->second[static_cast<std::size_t>(k)].eval(eval_point(my_id())) !=
            mine[static_cast<std::size_t>(k)]) {
          consistent = false;
        }
      }
    }
  } else {
    const auto p = check_point_from(j);
    consistent = p.has_value() && *p == mine;
  }
  if (!consistent) return;
  aok_sent_.insert(j);
  aok_[static_cast<std::size_t>(my_id())][static_cast<std::size_t>(j)]->start(
      Words{});
}

void Wss::on_aok(int i, int j) {
  aok_edges_from_[i].insert(j);
  if (i_am_dealer()) dealer_check_async();
  try_accept_async();
}

void Wss::try_accept_async() {
  NAMPC_PLOG(trace) << "try_accept_async accepted=" << accepted_
                   << " cand=" << async_candidate_.has_value();
  if (accepted_ || discarded_ || !async_candidate_.has_value()) return;
  const Time gate =
      nominal_start_ + options_.max_iterations(params()) * iteration_length();
  if (now() < gate) return;  // the gate timer will retry
  const PartySet qa = async_candidate_->second;
  const PartySet u = async_u_;
  NAMPC_PLOG(trace) << "async qa=" << qa.str() << " u=" << u.str()
                    << " gate passed";
  // LINT:threshold(wss.clique_quorum)
  if (qa.size() < n() - ta() || !u.subset_of(qa)) {
    NAMPC_PLOG(trace) << "qa size/u check failed";
    return;
  }
  if (z_conditioned() ? !u.subset_of(*options_.z)
                      : u.size() > ts() - ta()) {  // LINT:threshold(wss.u_bound)
    return;
  }
  // All of U's rows must be public.
  for (int member : u.to_vector()) {
    if (published_rows_.count(member) == 0) return;
  }
  // Build my AOK graph A_i with the candidate's U and check the clique.
  Graph ai(n());
  for (int i = 0; i < n(); ++i) {
    for (int j = i + 1; j < n(); ++j) {
      const bool iu = u.contains(i);
      const bool ju = u.contains(j);
      bool edge = false;
      if (iu && ju) {
        edge = true;
      } else if (ju) {
        edge = aok_edges_from_[i].contains(j);
      } else if (iu) {
        edge = aok_edges_from_[j].contains(i);
      } else {
        edge = aok_edges_from_[i].contains(j) && aok_edges_from_[j].contains(i);
      }
      if (edge) ai.add_edge(i, j);
    }
  }
  if (!ai.is_clique(qa)) {
    NAMPC_PLOG(trace) << "qa not clique in A_i yet";
    return;  // keep updating A_i as AOKs arrive
  }
  NAMPC_PLOG(trace) << "ACCEPT async qa=" << qa.str();
  accept_qa(qa, u, -1, false);
}

// ------------------------------------------------------- output (6.2) ----

void Wss::accept_qa(PartySet qa, PartySet u, int iteration_index,
                    bool via_sync) {
  NAMPC_PLOG(trace) << "ACCEPT qa=" << qa.str() << " sync=" << via_sync;
  if (accepted_ || discarded_) return;
  phase(via_sync ? "accept_sync" : "accept_async");
  accepted_ = true;
  accepted_qa_ = qa;
  accepted_u_ = u;
  accepted_iteration_ = iteration_index;
  accepted_via_sync_ = via_sync;
  accept_time_ = now();

  const bool in_qa = qa.contains(my_id());
  if (in_qa && (have_rows_ || published_rows_.count(my_id()) != 0)) {
    std::vector<Polynomial> mine =
        have_rows_ ? rows_ : published_rows_.at(my_id());
    if (options_.inner_check) {
      // Protocol 7.2 step 1: clique members output immediately.
      decide_output(WssOutcome::rows, std::move(mine));
      return;
    }
    // Note: the pairwise exchange (step 2) already delivered this party's
    // points to everyone, so the 6.2 re-send to parties outside Qa is
    // subsumed; see wss.h header comment.
    after(3 * timing().delta, [this, mine = std::move(mine)]() mutable {
      decide_output(WssOutcome::rows, std::move(mine));
    });
    return;
  }
  // Outside the clique (or inside without rows): reconstruct from the
  // clique's points. Protocol 6.2 prescribes a 3Δ settling wait before the
  // Table-1 schedule; Protocol 7.2's interpolation needs none.
  const Time wait = options_.inner_check ? 0 : 3 * timing().delta;
  after(wait, [this] {
    reconstruct_armed_ = true;
    try_reconstruct();
  });
}

void Wss::try_reconstruct() {
  if (!reconstruct_armed_ || outcome_ != WssOutcome::none) return;
  if (options_.inner_check) {
    // Protocol 7.2 step 2: every available inner-WSS output from a clique
    // member is a correct point of my row (its inner instance was endorsed
    // by >= ts+1 honest clique members), so plain interpolation over ts+1
    // of them suffices; the zero-error decode cross-checks all of them.
    std::vector<std::vector<RsPoint>> pts(
        static_cast<std::size_t>(num_secrets()));
    int count = 0;
    for (int j : accepted_qa_.to_vector()) {
      if (j == my_id()) continue;
      if (accepted_u_.contains(j)) {
        const auto pub = published_rows_.find(j);
        if (pub == published_rows_.end()) continue;
        ++count;
        for (int k = 0; k < num_secrets(); ++k) {
          pts[static_cast<std::size_t>(k)].push_back(
              {eval_point(j), pub->second[static_cast<std::size_t>(k)].eval(
                                  eval_point(my_id()))});
        }
        continue;
      }
      const auto p = check_point_from(j);
      if (!p.has_value()) continue;
      ++count;
      for (int k = 0; k < num_secrets(); ++k) {
        pts[static_cast<std::size_t>(k)].push_back(
            {eval_point(j), (*p)[static_cast<std::size_t>(k)]});
      }
    }
    // LINT:threshold(vss.inner_quorum)
    if (count < ts() + 1) return;  // wait for more inner outputs
    std::vector<Polynomial> decoded;
    for (int k = 0; k < num_secrets(); ++k) {
      metrics().rs_decodes++;
      const auto res =
          rs_decode(pts[static_cast<std::size_t>(k)], ts(), /*e=*/0);
      if (res.status != RsStatus::ok) return;  // inconsistent: wait
      decoded.push_back(res.poly);
    }
    decide_output(WssOutcome::rows, std::move(decoded));
    return;
  }
  // Assemble points: published rows for U, pairwise points for Qa \ U.
  std::vector<std::vector<RsPoint>> pts(
      static_cast<std::size_t>(num_secrets()));
  std::vector<PartyId> senders;
  for (int u : accepted_u_.to_vector()) {
    const auto pub = published_rows_.find(u);
    if (pub == published_rows_.end()) continue;
    senders.push_back(u);
    for (int k = 0; k < num_secrets(); ++k) {
      pts[static_cast<std::size_t>(k)].push_back(
          {eval_point(u),
           pub->second[static_cast<std::size_t>(k)].eval(eval_point(my_id()))});
    }
  }
  for (int j : accepted_qa_.minus(accepted_u_).to_vector()) {
    if (j == my_id()) continue;
    const auto p = peer_points_.find(j);
    if (p == peer_points_.end()) continue;
    senders.push_back(j);
    for (int k = 0; k < num_secrets(); ++k) {
      pts[static_cast<std::size_t>(k)].push_back(
          {eval_point(j), p->second[static_cast<std::size_t>(k)]});
    }
  }
  const int m = static_cast<int>(senders.size());
  // LINT:threshold(rs.schedule_min)
  if (m < ts() + ta() + 1) return;  // wait for more points
  // LINT:threshold(rs.schedule_min)
  const int x = m - (ts() + ta() + 1);

  std::vector<Polynomial> decoded;
  bool all_ok = true;
  for (int k = 0; k < num_secrets(); ++k) {
    metrics().rs_decodes++;
    const auto res = rs_decode_scheduled(pts[static_cast<std::size_t>(k)],
                                         ts(), ta());
    if (res.result.status != RsStatus::ok) {
      all_ok = false;
      break;
    }
    decoded.push_back(res.result.poly);
  }
  if (all_ok) {
    decide_output(WssOutcome::rows, std::move(decoded));
    return;
  }
  // Fallback: a corrupt dealer may have published bad rows for U, burning
  // error budget beyond ta. Qa \ U alone contains >= n - ts - ta >= ts+ta+1
  // honest parties (see DESIGN.md), so retry on the non-U points.
  const int m_no_u = m - accepted_u_.size();
  // LINT:threshold(rs.schedule_min)
  if (m_no_u >= ts() + ta() + 1) {
    std::vector<Polynomial> decoded2;
    bool ok2 = true;
    for (int k = 0; k < num_secrets(); ++k) {
      std::vector<RsPoint> sub;
      for (std::size_t idx = 0; idx < senders.size(); ++idx) {
        if (accepted_u_.contains(senders[idx])) continue;
        sub.push_back(pts[static_cast<std::size_t>(k)][idx]);
      }
      metrics().rs_decodes++;
      const auto res = rs_decode_scheduled(sub, ts(), ta());
      if (res.result.status != RsStatus::ok) {
        ok2 = false;
        break;
      }
      decoded2.push_back(res.result.poly);
    }
    if (ok2) {
      decide_output(WssOutcome::rows, std::move(decoded2));
      return;
    }
  }
  // LINT:threshold(rs.correct_detect_split)
  if (x <= ta()) return;  // Cor 3.3 regime: wait for slow honest points

  // Cor 3.4 regime and decoding failed => more than ta errors => the
  // network is synchronous (Protocol 6.2, final bullet).
  if (!accepted_via_sync_) {
    // An honest dealer in a synchronous network would have exited via the
    // sync path: dealer must be corrupt.
    decide_output(WssOutcome::bot, {});
    return;
  }
  const Iteration& it = *iterations_[static_cast<std::size_t>(
      std::max(accepted_iteration_, 0))];
  bool ok = have_rows_ && it.rows_by_delta;
  if (ok) {
    for (int j : accepted_qa_.to_vector()) {
      if (j == my_id() || accepted_u_.contains(j)) continue;
      const auto& rv = it.r_vectors[static_cast<std::size_t>(j)];
      const REntry* e =
          rv.empty() ? nullptr : &rv[static_cast<std::size_t>(my_id())];
      FpVec mine;
      for (int k = 0; k < num_secrets(); ++k) {
        mine.push_back(row_point(k, j));
      }
      // (b) a clique member accused me with a value different from our true
      // common point: the dealer admitted an inconsistent party — ⊥.
      if (e != nullptr && e->tag == REntry::Tag::vals && e->vals != mine) {
        ok = false;
        break;
      }
      // (c) points from non-identified members must match my row.
      const auto p = peer_points_.find(j);
      const bool identified_corrupt =
          e == nullptr || e->tag == REntry::Tag::nr ||
          (e->tag == REntry::Tag::vals && e->vals == mine);
      if (p != peer_points_.end() && p->second != mine && !identified_corrupt) {
        ok = false;
        break;
      }
    }
  }
  if (ok) {
    decide_output(WssOutcome::rows, rows_);
  } else {
    decide_output(WssOutcome::bot, {});
  }
}

void Wss::decide_output(WssOutcome outcome, std::vector<Polynomial> rows) {
  if (outcome_ != WssOutcome::none) return;
  NAMPC_ASSERT(outcome != WssOutcome::none, "cannot decide 'none'");
  outcome_ = outcome;
  output_rows_ = std::move(rows);
  output_time_ = now();
  phase(outcome == WssOutcome::rows ? "output_rows" : "output_bot");
  span_done();
  {
    Writer w;
    w.u64(static_cast<std::uint64_t>(outcome_));
    w.u64(static_cast<std::uint64_t>(dealer_));
    w.seq(output_rows_,
          [](Writer& ww, const Polynomial& f) { f.encode(ww); });
    notify_output(std::move(w).take());
  }
  if (on_output_) on_output_();
}

}  // namespace nampc
