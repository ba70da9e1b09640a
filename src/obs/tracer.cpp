#include "obs/tracer.h"

#include "util/assert.h"
#include "util/json.h"

namespace nampc::obs {

int Tracer::find_open(int party, const std::string& key) const {
  const auto it = open_.find({party, key});
  return it == open_.end() ? -1 : it->second;
}

void Tracer::open_span(int party, const std::string& key, Time now) {
  TraceSpan span;
  span.party = party;
  span.key = key;
  span.begin = now;
  // Parent: the nearest open ancestor by key prefix at the same party.
  // Instance keys are '/'-joined, so strip segments until one matches.
  std::string prefix = key;
  while (span.parent < 0) {
    const auto slash = prefix.rfind('/');
    if (slash == std::string::npos) break;
    prefix.resize(slash);
    span.parent = find_open(party, prefix);
  }
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_[{party, key}] = index;
}

void Tracer::close_span(int party, const std::string& key, Time now) {
  const auto it = open_.find({party, key});
  if (it == open_.end()) return;
  spans_[static_cast<std::size_t>(it->second)].end = now;
  open_.erase(it);
}

void Tracer::set_kind(int party, const std::string& key,
                      const std::string& kind) {
  const int index = find_open(party, key);
  if (index >= 0) {
    TraceSpan& span = spans_[static_cast<std::size_t>(index)];
    span.kind = kind;
    span.kinds.push_back(kind);
  }
}

void Tracer::set_nominal(int party, const std::string& key, Time t) {
  const int index = find_open(party, key);
  if (index >= 0) spans_[static_cast<std::size_t>(index)].nominal = t;
}

void Tracer::phase(int party, const std::string& key, const std::string& name,
                   Time now) {
  const int index = find_open(party, key);
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].phases.emplace_back(name, now);
  }
}

void Tracer::mark_done(int party, const std::string& key, Time now) {
  const int index = find_open(party, key);
  if (index >= 0) {
    TraceSpan& span = spans_[static_cast<std::size_t>(index)];
    if (span.done < 0) span.done = now;
  }
}

void Tracer::on_send(int party, const std::string& key, std::uint64_t words) {
  const int index = find_open(party, key);
  if (index >= 0) {
    TraceSpan& span = spans_[static_cast<std::size_t>(index)];
    span.messages_sent++;
    span.words_sent += words;
  }
}

void Tracer::on_flow(int from, int to, std::uint64_t words, Time send,
                     Time arrival, const std::string& key) {
  if (!options_.record_flows) return;
  if (flows_.size() >= options_.max_flows) {
    dropped_flows_++;
    return;
  }
  flows_.push_back(TraceFlow{from, to, words, send, arrival, key});
}

void Tracer::on_schedule(Time t, int klass) {
  (void)t;
  scheduled_by_klass_[klass]++;
}

std::vector<Tracer::Aggregate> Tracer::aggregate_subtrees() const {
  std::vector<Aggregate> agg(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    agg[i].messages = spans_[i].messages_sent;
    agg[i].words = spans_[i].words_sent;
  }
  // Children always have a larger index than their parent (spans are
  // appended at registration, parents register first), so one reverse
  // sweep propagates whole subtrees.
  for (std::size_t i = spans_.size(); i-- > 0;) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      NAMPC_ASSERT(static_cast<std::size_t>(parent) < i,
                   "span parent must precede child");
      agg[static_cast<std::size_t>(parent)].messages += agg[i].messages;
      agg[static_cast<std::size_t>(parent)].words += agg[i].words;
    }
  }
  return agg;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<Aggregate> agg = aggregate_subtrees();
  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Process metadata: one "process" per party.
  std::map<int, bool> parties;
  for (const TraceSpan& s : spans_) parties[s.party] = true;
  for (const auto& [party, unused] : parties) {
    (void)unused;
    w.begin_object();
    w.kv("ph", "M").kv("name", "process_name").kv("pid", party).kv("tid", 0);
    w.key("args").begin_object();
    w.kv("name", "P" + std::to_string(party));
    w.end_object();
    w.end_object();
  }

  Time trace_end = 0;
  for (const TraceSpan& s : spans_) {
    if (s.end > trace_end) trace_end = s.end;
    for (const auto& [name, t] : s.phases) {
      (void)name;
      if (t > trace_end) trace_end = t;
    }
  }

  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    const Time end = s.end >= 0 ? s.end : trace_end;
    w.begin_object();
    w.kv("ph", "X");
    w.kv("name", s.kind.empty() ? s.key : s.kind);
    w.kv("cat", s.kind.empty() ? "proto" : s.kind);
    w.kv("pid", s.party).kv("tid", 0);
    w.kv("ts", static_cast<std::int64_t>(s.begin));
    w.kv("dur", static_cast<std::int64_t>(end - s.begin));
    w.key("args").begin_object();
    w.kv("key", s.key);
    if (s.done >= 0) w.kv("done", static_cast<std::int64_t>(s.done));
    w.kv("messages", s.messages_sent).kv("words", s.words_sent);
    w.kv("subtree_messages", agg[i].messages).kv("subtree_words", agg[i].words);
    w.end_object();
    w.end_object();
    for (const auto& [name, t] : s.phases) {
      w.begin_object();
      w.kv("ph", "i");
      w.kv("s", "t");
      w.kv("name", (s.kind.empty() ? std::string("proto") : s.kind) + ":" +
                       name);
      w.kv("cat", "phase");
      w.kv("pid", s.party).kv("tid", 0);
      w.kv("ts", static_cast<std::int64_t>(t));
      w.key("args").begin_object();
      w.kv("key", s.key);
      w.end_object();
      w.end_object();
    }
  }

  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const TraceFlow& f = flows_[i];
    w.begin_object();
    w.kv("ph", "s").kv("id", static_cast<std::uint64_t>(i));
    w.kv("name", "msg").kv("cat", "net");
    w.kv("pid", f.from).kv("tid", 0);
    w.kv("ts", static_cast<std::int64_t>(f.send));
    w.key("args").begin_object();
    w.kv("key", f.key);
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "f").kv("bp", "e").kv("id", static_cast<std::uint64_t>(i));
    w.kv("name", "msg").kv("cat", "net");
    w.kv("pid", f.to).kv("tid", 0);
    w.kv("ts", static_cast<std::int64_t>(f.arrival));
    w.end_object();
  }

  w.end_array();
  if (dropped_flows_ > 0) w.kv("droppedFlows", dropped_flows_);
  w.end_object();
  os << '\n';
}

}  // namespace nampc::obs
