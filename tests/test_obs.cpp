// Observability layer tests: tracer spans vs registry kind tags, Chrome-trace and
// run-report JSON validity, same-seed determinism, structured-log sinks,
// ring-buffer forensics and the quiescence privacy audit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mpc/mpc.h"
#include "obs/analysis.h"
#include "obs/monitor.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "sharing/wss.h"
#include "sim_helpers.h"

namespace nampc {
namespace {

using testing::make_sim;
using testing::SimSpec;

// ------------------------------------------------------------------------
// Minimal JSON parser — validation only. The library itself is write-only
// (util/json.h), so tests bring their own reader.

struct JsonValue {
  enum class Type { null, boolean, number, string, array, object };
  Type type = Type::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  [[nodiscard]] const JsonValue& at(const std::string& k) const {
    static const JsonValue missing;
    const auto it = obj.find(k);
    return it == obj.end() ? missing : it->second;
  }
  [[nodiscard]] bool has(const std::string& k) const {
    return obj.count(k) > 0;
  }
  [[nodiscard]] std::int64_t as_int() const {
    return static_cast<std::int64_t>(num);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* word, JsonValue& v, JsonValue::Type t, bool b) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    v.type = t;
    v.b = b;
    return true;
  }
  bool string_token(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char c = s_[pos_ + 1];
        switch (c) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 5 >= s_.size()) return false;
            out += '?';  // tests never check escaped content
            pos_ += 4;
            break;
          default: return false;
        }
        pos_ += 2;
      } else {
        out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool value(JsonValue& v) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == 'n') return lit("null", v, JsonValue::Type::null, false);
    if (c == 't') return lit("true", v, JsonValue::Type::boolean, true);
    if (c == 'f') return lit("false", v, JsonValue::Type::boolean, false);
    if (c == '"') {
      v.type = JsonValue::Type::string;
      return string_token(v.str);
    }
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::object;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        skip_ws();
        std::string key;
        if (!string_token(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        JsonValue member;
        if (!value(member)) return false;
        v.obj.emplace(std::move(key), std::move(member));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::array;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        JsonValue elem;
        if (!value(elem)) return false;
        v.arr.push_back(std::move(elem));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    // number
    const std::size_t start = pos_;
    if (s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    v.type = JsonValue::Type::number;
    v.num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool parse_json(const std::string& text, JsonValue& out) {
  return JsonParser(text).parse(out);
}

// ------------------------------------------------------------------------
// Restores the global Log configuration after a test body mutated it.

struct LogStateGuard {
  LogLevel level = Log::level();
  std::map<std::string, LogLevel> modules = Log::module_levels();
  ~LogStateGuard() {
    Log::level() = level;
    Log::module_levels() = modules;
    Log::set_sink(Log::text_sink(std::cerr));
    Log::set_ring(0);
  }
};

/// Spans tagged with `kind` (a Vss span counts under "wss" and "vss").
std::uint64_t spans_tagged(const obs::Tracer& tracer, const std::string& kind) {
  std::uint64_t count = 0;
  for (const obs::TraceSpan& span : tracer.spans()) {
    for (const std::string& k : span.kinds) count += k == kind ? 1 : 0;
  }
  return count;
}

// Full MPC run with a tracer attached; shared by several tests.
struct TracedRun {
  Circuit circuit;
  obs::Tracer tracer;  // must outlive the Simulation
  std::unique_ptr<Simulation> sim;
  RunStatus status = RunStatus::quiescent;
  std::string trace_json;
  std::string report_json;

  explicit TracedRun(std::uint64_t seed) {
    const int n = 4;
    std::vector<int> in;
    for (int i = 0; i < n; ++i) in.push_back(circuit.input(i));
    int acc = in[0];
    for (int i = 1; i < n; ++i) acc = circuit.add(acc, in[static_cast<std::size_t>(i)]);
    circuit.mark_output(circuit.mul(acc, in[0]));

    sim = make_sim({.params = {4, 1, 0}, .seed = seed});
    sim->set_tracer(&tracer);
    for (int i = 0; i < n; ++i) {
      sim->party(i).spawn<Mpc>("mpc", circuit,
                               FpVec{Fp(static_cast<std::uint64_t>(i + 1))},
                               nullptr);
    }
    status = sim->run();

    std::ostringstream t;
    tracer.write_chrome_trace(t);
    trace_json = t.str();
    std::ostringstream r;
    obs::write_run_report(r, *sim, status, &tracer);
    report_json = r.str();
  }
};

// ------------------------------------------------------------------------

TEST(Obs, TraceSpanKindsMatchMetricsCounters) {
  TracedRun run(/*seed=*/21);
  ASSERT_EQ(run.status, RunStatus::quiescent);
  const obs::MetricsRegistry& reg = run.sim->metrics_registry();
  EXPECT_GT(reg.tagged_copies("bc"), 0u);
  EXPECT_GT(reg.tagged_copies("wss"), 0u);
  EXPECT_GT(reg.tagged_copies("vss"), 0u);
  EXPECT_EQ(spans_tagged(run.tracer, "bc"), reg.tagged_copies("bc"));
  EXPECT_EQ(spans_tagged(run.tracer, "wss"), reg.tagged_copies("wss"));
  EXPECT_EQ(spans_tagged(run.tracer, "vss"), reg.tagged_copies("vss"));
  EXPECT_EQ(spans_tagged(run.tracer, "mpc"), 4u);
}

TEST(Obs, ChromeTraceParsesAndCoversAllParties) {
  TracedRun run(/*seed=*/22);
  JsonValue trace;
  ASSERT_TRUE(parse_json(run.trace_json, trace)) << run.trace_json.substr(0, 200);
  ASSERT_TRUE(trace.has("traceEvents"));
  const auto& events = trace.at("traceEvents").arr;
  ASSERT_FALSE(events.empty());
  std::map<std::string, int> by_ph;
  std::map<int, int> spans_by_party;
  for (const JsonValue& e : events) {
    by_ph[e.at("ph").str]++;
    if (e.at("ph").str == "X") {
      spans_by_party[static_cast<int>(e.at("pid").num)]++;
      EXPECT_GE(e.at("dur").num, 0.0);
    }
  }
  EXPECT_GT(by_ph["X"], 0);   // duration spans
  EXPECT_GT(by_ph["M"], 0);   // process-name metadata
  EXPECT_GT(by_ph["s"], 0);   // flow starts (message sends)
  EXPECT_EQ(by_ph["s"], by_ph["f"]);
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(spans_by_party[p], 0) << "party " << p << " has no spans";
  }
}

TEST(Obs, RunReportParsesAndMirrorsMetrics) {
  TracedRun run(/*seed=*/23);
  JsonValue report;
  ASSERT_TRUE(parse_json(run.report_json, report))
      << run.report_json.substr(0, 200);
  EXPECT_EQ(report.at("schema").str, "nampc-run-report/4");
  EXPECT_EQ(report.at("status").str, "quiescent");
  EXPECT_EQ(report.at("config").at("n").as_int(), 4);
  EXPECT_EQ(report.at("config").at("seed").as_int(), 23);

  const Metrics& m = run.sim->metrics();
  const auto& metrics = report.at("metrics");
  EXPECT_EQ(metrics.at("messages_sent").as_int(),
            static_cast<std::int64_t>(m.messages_sent));
  EXPECT_EQ(metrics.at("events_processed").as_int(),
            static_cast<std::int64_t>(m.events_processed));

  // Acceptance check: per-primitive span counts and the report's instance
  // counts both equal the registry's kind tags.
  const obs::MetricsRegistry& reg = run.sim->metrics_registry();
  const auto& prim = report.at("primitives");
  ASSERT_TRUE(prim.has("bc"));
  ASSERT_TRUE(prim.has("wss"));
  ASSERT_TRUE(prim.has("vss"));
  for (const char* kind : {"bc", "wss", "vss"}) {
    EXPECT_EQ(prim.at(kind).at("count").as_int(),
              static_cast<std::int64_t>(reg.tagged_copies(kind)))
        << kind;
    EXPECT_EQ(metrics.at(std::string(kind) + "_instances").as_int(),
              static_cast<std::int64_t>(reg.tagged_copies(kind)))
        << kind;
  }
  // Completed primitives report latency percentiles in virtual time.
  EXPECT_GE(prim.at("bc").at("latency").at("p50").num, 0.0);
}

TEST(Obs, SameSeedRunsAreBitIdentical) {
  TracedRun a(/*seed=*/31);
  TracedRun b(/*seed=*/31);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.sim->metrics().messages_sent, b.sim->metrics().messages_sent);
  EXPECT_EQ(a.sim->metrics().events_processed,
            b.sim->metrics().events_processed);
  // A different seed must still parse but may differ.
  TracedRun c(/*seed=*/32);
  JsonValue v;
  EXPECT_TRUE(parse_json(c.trace_json, v));
}

TEST(Obs, SubtreeAggregationIsMonotone) {
  TracedRun run(/*seed=*/24);
  const auto agg = run.tracer.aggregate_subtrees();
  const auto& spans = run.tracer.spans();
  ASSERT_EQ(agg.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Subtree totals include the span's own counts...
    EXPECT_GE(agg[i].messages, spans[i].messages_sent);
    EXPECT_GE(agg[i].words, spans[i].words_sent);
    // ...and roll up into the parent.
    if (spans[i].parent >= 0) {
      EXPECT_GE(agg[static_cast<std::size_t>(spans[i].parent)].messages,
                agg[i].messages);
    }
  }
}

TEST(Obs, RingBufferDumpFiresOnEventLimit) {
  LogStateGuard guard;
  Log::set_ring(64, LogLevel::trace);

  Simulation::Config cfg;
  cfg.params = {4, 1, 0};
  cfg.seed = 5;
  cfg.max_events = 200;  // trip mid-protocol
  auto sim = std::make_unique<Simulation>(cfg, std::make_shared<Adversary>());
  WssOptions opts;
  std::vector<Wss*> inst;
  for (int i = 0; i < 4; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("w", 0, 0, opts, nullptr));
  }
  Rng rng(5);
  inst[0]->start({Polynomial::random_with_constant(Fp(7), 1, rng)});

  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  const RunStatus status = sim->run();
  std::cerr.rdbuf(old);

  EXPECT_EQ(status, RunStatus::event_limit);
  EXPECT_NE(captured.str().find("event limit"), std::string::npos)
      << captured.str();
  EXPECT_NE(captured.str().find("log events"), std::string::npos)
      << "expected a ring dump, got: " << captured.str();
}

TEST(Obs, AssertionFailureDumpsRing) {
  LogStateGuard guard;
  Log::set_ring(8, LogLevel::trace);
  NAMPC_LOG(trace) << "breadcrumb before the failure";

  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  EXPECT_THROW(NAMPC_ASSERT(1 == 2, "forced failure"), InvariantError);
  std::cerr.rdbuf(old);
  EXPECT_NE(captured.str().find("breadcrumb before the failure"),
            std::string::npos)
      << captured.str();
}

TEST(Obs, PrivacyAuditFailsLoudlyAtQuiescence) {
  auto sim = make_sim({.params = {4, 1, 0}});
  sim->note_honest_reveal("wss", /*dealer=*/0, /*member=*/1);
  sim->note_honest_reveal("wss", /*dealer=*/0, /*member=*/2);  // ts = 1
  EXPECT_THROW((void)sim->run(), InvariantError);

  // An in-bound count passes.
  auto ok = make_sim({.params = {4, 1, 0}});
  ok->note_honest_reveal("wss", /*dealer=*/0, /*member=*/1);
  EXPECT_EQ(ok->run(), RunStatus::quiescent);
}

TEST(Obs, PrivacyAuditHoldsOnRealRuns) {
  // The audit runs inside Simulation::run() for every test in the suite;
  // this test additionally checks the recorded per-dealer maxima directly.
  TracedRun run(/*seed=*/25);
  ASSERT_EQ(run.status, RunStatus::quiescent);
  for (const auto& [dealer, worst] : run.sim->worst_honest_reveals()) {
    EXPECT_LE(worst, 1u) << "dealer " << dealer;  // ts = 1 in TracedRun
  }
  for (const auto& [key, entry] : run.sim->honest_reveals()) {
    EXPECT_LE(entry.honest.size(), 1) << key;
  }
}

TEST(Obs, JsonLinesSinkEmitsParseableRecords) {
  LogStateGuard guard;
  std::ostringstream out;
  Log::use_json_sink(out);
  Log::level() = LogLevel::trace;

  auto sim = make_sim({.params = {4, 1, 0}, .seed = 9});
  WssOptions opts;
  std::vector<Wss*> inst;
  for (int i = 0; i < 4; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("w", 0, 0, opts, nullptr));
  }
  Rng rng(9);
  inst[0]->start({Polynomial::random_with_constant(Fp(3), 1, rng)});
  EXPECT_EQ(sim->run(), RunStatus::quiescent);

  std::istringstream lines(out.str());
  std::string line;
  int records = 0;
  int with_context = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue v;
    ASSERT_TRUE(parse_json(line, v)) << line;
    EXPECT_TRUE(v.has("level"));
    EXPECT_TRUE(v.has("msg"));
    ++records;
    if (v.has("t") && v.has("party") && v.has("module")) ++with_context;
  }
  EXPECT_GT(records, 0);
  EXPECT_GT(with_context, 0) << "NAMPC_PLOG context fields missing";
}

TEST(Obs, ModuleLevelFiltersOverrideGlobalLevel) {
  LogStateGuard guard;
  Log::level() = LogLevel::error;
  Log::set_module_level("wss", LogLevel::trace);
  EXPECT_TRUE(Log::enabled_for("wss", LogLevel::trace));
  EXPECT_FALSE(Log::enabled_for("bc", LogLevel::trace));
  EXPECT_TRUE(Log::enabled_for("bc", LogLevel::error));

  Log::set_module_level("wss", LogLevel::off);
  EXPECT_FALSE(Log::enabled_for("wss", LogLevel::error));
}

TEST(Obs, TracerDisabledIsInert) {
  // No tracer attached: the hook sites are null-checked, the run behaves
  // identically in metrics to a traced run with the same seed.
  TracedRun traced(/*seed=*/41);

  Circuit c = traced.circuit;
  auto sim = make_sim({.params = {4, 1, 0}, .seed = 41});
  for (int i = 0; i < 4; ++i) {
    sim->party(i).spawn<Mpc>("mpc", c,
                             FpVec{Fp(static_cast<std::uint64_t>(i + 1))},
                             nullptr);
  }
  EXPECT_EQ(sim->run(), RunStatus::quiescent);
  EXPECT_EQ(sim->metrics().messages_sent, traced.sim->metrics().messages_sent);
  EXPECT_EQ(sim->metrics().events_processed,
            traced.sim->metrics().events_processed);
}

// ------------------------------------------------------------------------
// Trace analysis (obs/analysis.h): JSON round-trip, critical-path causality,
// budget checking and trace diffing over a real traced run.

TEST(ObsAnalysis, TraceRoundTripsThroughJson) {
  TracedRun run(/*seed=*/41);
  const obs::TraceData data =
      obs::collect_trace(run.tracer, *run.sim, run.status);
  std::ostringstream os;
  obs::write_trace(os, data);

  obs::TraceData back;
  std::string error;
  ASSERT_TRUE(obs::load_trace(os.str(), back, error)) << error;
  EXPECT_EQ(back.info.params.n, data.info.params.n);
  EXPECT_EQ(back.info.seed, data.info.seed);
  EXPECT_EQ(back.info.status, "quiescent");
  ASSERT_EQ(back.spans.size(), data.spans.size());
  ASSERT_EQ(back.flows.size(), data.flows.size());
  for (std::size_t i = 0; i < data.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].key, data.spans[i].key);
    EXPECT_EQ(back.spans[i].done, data.spans[i].done);
    EXPECT_EQ(back.spans[i].nominal, data.spans[i].nominal);
    EXPECT_EQ(back.spans[i].kinds, data.spans[i].kinds);
  }
  // A garbage document and a wrong schema both fail cleanly.
  obs::TraceData junk;
  EXPECT_FALSE(obs::load_trace("{not json", junk, error));
  EXPECT_FALSE(obs::load_trace("{\"schema\":\"nampc-trace/999\"}", junk, error));
}

TEST(ObsAnalysis, CriticalPathIsCausalAndEndsAtSpanDone) {
  TracedRun run(/*seed=*/42);
  const obs::TraceData data =
      obs::collect_trace(run.tracer, *run.sim, run.status);
  const int idx = obs::find_done_span(data, "mpc");
  ASSERT_GE(idx, 0);
  const obs::TraceSpan& span = data.spans[static_cast<std::size_t>(idx)];
  const obs::CriticalPath cp = obs::critical_path(data, idx);
  ASSERT_FALSE(cp.hops.empty());
  // The chain ends where the span delivered, at the span's own party.
  EXPECT_EQ(cp.end, span.done);
  EXPECT_EQ(cp.hops.back().to, span.party);
  // Hops are causally ordered: each send happens at or after the previous
  // delivery (at the same party), and every hop takes positive time.
  for (std::size_t i = 0; i < cp.hops.size(); ++i) {
    EXPECT_GE(cp.hops[i].arrival, cp.hops[i].send);
    if (i > 0) {
      EXPECT_EQ(cp.hops[i].from, cp.hops[i - 1].to);
      EXPECT_GE(cp.hops[i].send, cp.hops[i - 1].arrival);
    }
  }
  EXPECT_EQ(cp.start, cp.hops.front().send);
  EXPECT_EQ(cp.local_time + cp.network_time, cp.end - cp.start);
}

TEST(ObsAnalysis, BudgetsHoldOnHonestSyncRun) {
  TracedRun run(/*seed=*/43);
  const obs::TraceData data =
      obs::collect_trace(run.tracer, *run.sim, run.status);
  const std::vector<obs::BudgetRow> rows = obs::check_budgets(data);
  ASSERT_FALSE(rows.empty());
  for (const obs::BudgetRow& row : rows) {
    EXPECT_TRUE(row.gated);  // synchronous trace: bounds are binding
    EXPECT_TRUE(row.within) << row.kind << ": observed " << row.observed_max
                            << " > bound " << row.bound;
    EXPECT_GT(row.done, 0u);
  }
}

TEST(ObsAnalysis, DiffOfIdenticalTracesIsEmpty) {
  TracedRun a(/*seed=*/44);
  TracedRun b(/*seed=*/44);
  const obs::TraceData da = obs::collect_trace(a.tracer, *a.sim, a.status);
  const obs::TraceData db = obs::collect_trace(b.tracer, *b.sim, b.status);
  EXPECT_TRUE(obs::diff_traces(da, db).empty());
  // A different seed shifts message timings, which the diff surfaces.
  TracedRun c(/*seed=*/45);
  const obs::TraceData dc = obs::collect_trace(c.tracer, *c.sim, c.status);
  const auto drift = obs::diff_traces(da, dc);
  for (const obs::KindDiff& d : drift) {
    EXPECT_EQ(d.count_a, d.count_b) << d.kind;  // same protocol structure
  }
}

TEST(ObsAnalysis, RunReportCarriesMonitorVerdict) {
  obs::MonitorEngine monitors;
  obs::install_standard_monitors(monitors);
  auto sim = make_sim({.params = {4, 1, 0}, .seed = 46});
  sim->set_monitors(&monitors);
  std::vector<Wss*> inst;
  WssOptions opts;
  for (int i = 0; i < 4; ++i) {
    inst.push_back(&sim->party(i).spawn<Wss>("w", 0, 0, opts, nullptr));
  }
  Rng rng(46);
  inst[0]->start({Polynomial::random_with_constant(Fp(3), 1, rng)});
  const RunStatus status = sim->run();
  ASSERT_EQ(status, RunStatus::quiescent);

  std::ostringstream os;
  obs::write_run_report(os, *sim, status, nullptr);
  JsonValue report;
  ASSERT_TRUE(parse_json(os.str(), report)) << os.str().substr(0, 200);
  ASSERT_TRUE(report.has("monitors"));
  const JsonValue& mon = report.at("monitors");
  EXPECT_TRUE(mon.at("ok").b);
  EXPECT_GT(mon.at("events").as_int(), 0);
  EXPECT_EQ(mon.at("attached").as_int(), 7);
  EXPECT_TRUE(mon.at("violations").arr.empty());
}

}  // namespace
}  // namespace nampc
