#include "obs/analysis.h"

#include <algorithm>
#include <ostream>

#include "util/json.h"
#include "util/json_read.h"

namespace nampc::obs {

namespace {

constexpr const char* kSchema = "nampc-trace/2";

/// The phase tag Wss applies when it runs Z-conditioned (ts+1 iterations),
/// holding the span to T'_WSS instead of T_WSS.
constexpr const char* kZConditionedPhase = "z-conditioned";

bool has_phase(const TraceSpan& s, const char* name) {
  for (const auto& [phase, t] : s.phases) {
    (void)t;
    if (phase == name) return true;
  }
  return false;
}

}  // namespace

TraceData collect_trace(const Tracer& tracer, const Simulation& sim,
                        RunStatus status) {
  TraceData data;
  data.info.params = sim.params();
  data.info.network = sim.kind();
  data.info.delta = sim.config().delta;
  data.info.seed = sim.config().seed;
  data.info.status = to_string(status);
  data.info.end_time = sim.now();
  data.spans = tracer.spans();
  data.flows = tracer.flows();
  data.dropped_flows = tracer.dropped_flows();
  return data;
}

void write_trace(std::ostream& os, const TraceData& data) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kSchema);
  w.key("config").begin_object();
  w.kv("n", data.info.params.n);
  w.kv("ts", data.info.params.ts);
  w.kv("ta", data.info.params.ta);
  w.kv("network",
       data.info.network == NetworkKind::synchronous ? "sync" : "async");
  w.kv("delta", static_cast<std::int64_t>(data.info.delta));
  w.kv("seed", data.info.seed);
  w.end_object();
  w.kv("status", data.info.status);
  w.kv("end_time", static_cast<std::int64_t>(data.info.end_time));
  w.kv("dropped_flows", data.dropped_flows);

  w.key("spans").begin_array();
  for (const TraceSpan& s : data.spans) {
    w.begin_object();
    w.kv("party", s.party).kv("key", s.key).kv("kind", s.kind);
    w.key("kinds").begin_array();
    for (const std::string& k : s.kinds) w.value(k);
    w.end_array();
    w.kv("begin", static_cast<std::int64_t>(s.begin));
    w.kv("nominal", static_cast<std::int64_t>(s.nominal));
    w.kv("end", static_cast<std::int64_t>(s.end));
    w.kv("done", static_cast<std::int64_t>(s.done));
    w.kv("parent", s.parent);
    w.key("phases").begin_array();
    for (const auto& [name, t] : s.phases) {
      w.begin_object();
      w.kv("name", name).kv("t", static_cast<std::int64_t>(t));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("flows").begin_array();
  for (const TraceFlow& f : data.flows) {
    w.begin_object();
    w.kv("from", f.from).kv("to", f.to).kv("words", f.words);
    w.kv("send", static_cast<std::int64_t>(f.send));
    w.kv("arrival", static_cast<std::int64_t>(f.arrival));
    w.kv("key", f.key);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool load_trace(const std::string& text, TraceData& out, std::string& error) {
  JsonValue root;
  if (!json_parse(text, root, error)) return false;
  if (!root.is_object()) {
    error = "trace: top level is not an object";
    return false;
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->text != kSchema) {
    error = "trace: unknown schema '" +
            (schema != nullptr ? schema->text : std::string("<missing>")) +
            "' (expected " + std::string(kSchema) + ")";
    return false;
  }
  try {
    const JsonValue& cfg = root.at("config");
    out.info.params.n = static_cast<int>(cfg.at("n").i64());
    out.info.params.ts = static_cast<int>(cfg.at("ts").i64());
    out.info.params.ta = static_cast<int>(cfg.at("ta").i64());
    out.info.network = cfg.at("network").text == "async"
                           ? NetworkKind::asynchronous
                           : NetworkKind::synchronous;
    out.info.delta = cfg.at("delta").i64();
    out.info.seed = cfg.at("seed").u64();
    out.info.status = root.at("status").text;
    out.info.end_time = root.at("end_time").i64();
    out.dropped_flows = root.at("dropped_flows").u64();

    out.spans.clear();
    for (const JsonValue& js : root.at("spans").items) {
      TraceSpan s;
      s.party = static_cast<int>(js.at("party").i64());
      s.key = js.at("key").text;
      s.kind = js.at("kind").text;
      for (const JsonValue& k : js.at("kinds").items) s.kinds.push_back(k.text);
      s.begin = js.at("begin").i64();
      s.nominal = js.at("nominal").i64();
      s.end = js.at("end").i64();
      s.done = js.at("done").i64();
      s.parent = static_cast<int>(js.at("parent").i64());
      for (const JsonValue& jp : js.at("phases").items) {
        s.phases.emplace_back(jp.at("name").text, jp.at("t").i64());
      }
      out.spans.push_back(std::move(s));
    }

    out.flows.clear();
    for (const JsonValue& jf : root.at("flows").items) {
      TraceFlow f;
      f.from = static_cast<int>(jf.at("from").i64());
      f.to = static_cast<int>(jf.at("to").i64());
      f.words = jf.at("words").u64();
      f.send = jf.at("send").i64();
      f.arrival = jf.at("arrival").i64();
      f.key = jf.at("key").text;
      out.flows.push_back(std::move(f));
    }
  } catch (const std::exception& e) {
    error = std::string("trace: ") + e.what();
    return false;
  }
  return true;
}

CriticalPath critical_path(const TraceData& data, int span_index) {
  CriticalPath cp;
  if (span_index < 0 ||
      span_index >= static_cast<int>(data.spans.size())) {
    return cp;
  }
  const TraceSpan& span = data.spans[static_cast<std::size_t>(span_index)];
  if (span.done < 0) return cp;
  cp.span = span_index;
  cp.end = span.done;

  // Per receiving party, flow indices sorted by arrival (then recording
  // order, so the latest-recorded delivery wins ties deterministically).
  std::vector<std::vector<std::size_t>> by_to;
  for (std::size_t i = 0; i < data.flows.size(); ++i) {
    const TraceFlow& f = data.flows[i];
    if (f.to < 0) continue;
    if (f.to >= static_cast<int>(by_to.size())) {
      by_to.resize(static_cast<std::size_t>(f.to) + 1);
    }
    by_to[static_cast<std::size_t>(f.to)].push_back(i);
  }
  for (auto& v : by_to) {
    std::stable_sort(v.begin(), v.end(), [&](std::size_t a, std::size_t b) {
      return data.flows[a].arrival < data.flows[b].arrival;
    });
  }

  int p = span.party;
  Time t = span.done;
  // Walk backwards: the latest delivery at (p, <= t) with a strictly
  // earlier send is the message whose arrival gated this point (a send at
  // exactly t — including a same-tick self-delivery — cannot have caused
  // it). Each hop strictly decreases t, so the walk terminates.
  for (std::size_t guard = 0; guard <= data.flows.size(); ++guard) {
    const TraceFlow* best = nullptr;
    if (p >= 0 && p < static_cast<int>(by_to.size())) {
      const auto& inbound = by_to[static_cast<std::size_t>(p)];
      // Binary search for arrival <= t, then scan left for send < t.
      auto it = std::upper_bound(
          inbound.begin(), inbound.end(), t,
          [&](Time value, std::size_t idx) {
            return value < data.flows[idx].arrival;
          });
      while (it != inbound.begin()) {
        --it;
        if (data.flows[*it].send < t) {
          best = &data.flows[*it];
          break;
        }
      }
    }
    if (best == nullptr) break;
    cp.hops.push_back({best->from, best->to, best->send, best->arrival,
                       best->words, best->key});
    cp.total_words += best->words;
    cp.network_time += best->arrival - best->send;
    t = best->send;
    p = best->from;
  }
  std::reverse(cp.hops.begin(), cp.hops.end());
  cp.start = cp.hops.empty() ? cp.end : cp.hops.front().send;
  cp.local_time = (cp.end - cp.start) - cp.network_time;
  return cp;
}

int find_done_span(const TraceData& data, const std::string& key) {
  int best = -1;
  for (std::size_t i = 0; i < data.spans.size(); ++i) {
    const TraceSpan& s = data.spans[i];
    if (s.done < 0) continue;
    if (!key.empty() && s.key != key) continue;
    if (best < 0 || s.done > data.spans[static_cast<std::size_t>(best)].done) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::map<std::string, LatencyStats> kind_breakdown(const TraceData& data) {
  return latency_by_kind(data.spans);
}

std::vector<BudgetRow> check_budgets(const TraceData& data) {
  const Timing tm = Timing::derive(data.info.params, data.info.delta);
  const bool sync = data.info.network == NetworkKind::synchronous;

  // The kinds the paper gives closed-form bounds for. "wss" splits into
  // plain and Z-conditioned rows because the two run different iteration
  // counts (Theorem 6.3 vs the §6 T'_WSS variant).
  struct Budget {
    const char* kind;
    Time bound;
  };
  const Budget budgets[] = {
      {"bc", tm.t_bc},    {"ba", tm.t_ba},   {"wss", tm.t_wss},
      {"wss_z", tm.t_wss_z}, {"vss", tm.t_vss}, {"vts", tm.t_vts},
      {"acs", tm.t_acs},
  };

  std::vector<BudgetRow> rows;
  for (const Budget& b : budgets) {
    BudgetRow row;
    row.kind = b.kind;
    row.bound = b.bound;
    const bool z_row = row.kind == "wss_z";
    const std::string tag = z_row ? "wss" : row.kind;
    for (const TraceSpan& s : data.spans) {
      if (s.done < 0) continue;
      if (std::find(s.kinds.begin(), s.kinds.end(), tag) == s.kinds.end()) {
        continue;
      }
      if (tag == "wss") {
        // A Vss span is also tagged "wss" (it is-a Wss) but answers to
        // T_VSS on its own row, not to the WSS bounds.
        if (std::find(s.kinds.begin(), s.kinds.end(), "vss") !=
            s.kinds.end()) {
          continue;
        }
        if (has_phase(s, kZConditionedPhase) != z_row) continue;
      }
      row.done++;
      const Time latency = s.done - span_start(s);
      if (latency > row.observed_max) row.observed_max = latency;
    }
    if (row.done == 0) continue;
    row.ratio = row.bound > 0 ? static_cast<double>(row.observed_max) /
                                    static_cast<double>(row.bound)
                              : 0.0;
    row.within = row.observed_max <= row.bound;
    row.gated = sync;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<KindDiff> diff_traces(const TraceData& a, const TraceData& b) {
  const auto sa = kind_breakdown(a);
  const auto sb = kind_breakdown(b);
  std::map<std::string, KindDiff> merged;
  for (const auto& [kind, st] : sa) {
    KindDiff& d = merged[kind];
    d.kind = kind;
    d.count_a = st.count;
    d.max_a = st.max;
  }
  for (const auto& [kind, st] : sb) {
    KindDiff& d = merged[kind];
    d.kind = kind;
    d.count_b = st.count;
    d.max_b = st.max;
  }
  std::vector<KindDiff> out;
  for (auto& [kind, d] : merged) {
    if (d.count_a != d.count_b || d.max_a != d.max_b) {
      out.push_back(std::move(d));
    }
  }
  return out;
}

}  // namespace nampc::obs
