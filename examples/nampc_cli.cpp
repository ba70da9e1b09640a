// nampc_cli — drive any protocol of the stack from the command line.
//
//   nampc_cli <protocol> [options]
//
//   protocols:  wss | vss | vts | ba | acs | mpc
//   options:
//     --n N --ts T --ta T        parameters (default 7 2 1; checked
//                                against Theorem 1.1)
//     --async                    asynchronous network (default: sync)
//     --seed S                   simulation seed (default 1)
//     --delta D                  synchronous bound Δ (default 10)
//     --ideal                    ideal-functionality SBA/ABA gadgets
//     --adversary silent|garble  corrupt the last budget-many parties
//     --secrets L                batch width for wss/vss (default 1)
//
//   transport backends (wss | vss | mpc):
//     --backend des|threaded     des (default) = the deterministic
//                                simulator; threaded = one OS thread per
//                                party over real mailboxes (honest-only,
//                                asynchronous, wall-clock timing)
//     --tick-us N                threaded: wall microseconds per virtual
//                                tick (default 100)
//     --record-schedule FILE     threaded: export the captured delivery
//                                schedule ("nampc-schedule/1" JSON)
//     --replay-schedule FILE     des: re-run under the recorded delays via
//                                ReplayAdversary (params/network/seed come
//                                from the file); composes with --trace,
//                                --rawtrace, --report, --metrics — the
//                                record -> replay triage workflow
//
//   observability:
//     --trace FILE               write a Chrome trace_event / Perfetto
//                                JSON trace of the run (virtual time)
//     --rawtrace FILE            write an analysable trace (schema
//                                nampc-trace/1) for the nampc_trace CLI
//     --report FILE              write a machine-readable run report
//                                (schema nampc-run-report/4); "-" = stdout
//     --metrics FILE             write the cost-attribution metrics dump
//                                (schema nampc-metrics/1 JSONL, read by
//                                nampc_prof); "-" = stdout
//     --metrics-dvt N            virtual-time sampling interval for the
//                                metrics series (default: Δ)
//     --max-events M             override the event-limit safety valve
//                                (diagnosis runs; default 200M)
//     --log-level LVL            off|error|info|debug|trace (default error)
//     --log-json                 emit logs as JSON lines on stderr
//     --log-ring N               keep the last N log events (trace level)
//                                and dump them on invariant failure
//
// Every run attaches the standard invariant monitors (acast/bc/agreement/
// sharing/acs/mpc/privacy); violations are printed and fail the run.
//
// Prints per-party outcomes, timing vs the paper's T_* bound, and the
// run's message/event metrics. Exit code 0 iff all protocol guarantees
// held in the run.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "adversary/replay.h"
#include "core/nampc.h"
#include "net/schedule.h"
#include "net/threaded.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/report.h"
#include "obs/tracer.h"

using namespace nampc;

namespace {

struct Options {
  std::string protocol = "wss";
  ProtocolParams params{7, 2, 1};
  NetworkKind kind = NetworkKind::synchronous;
  std::uint64_t seed = 1;
  Time delta = 10;
  bool ideal = false;
  std::string adversary = "none";
  int secrets = 1;
  std::string backend = "des";
  std::int64_t tick_us = 100;
  std::string record_file;
  std::string replay_file;
  RecordedSchedule replay_schedule;  // loaded in main() when replaying
  std::string trace_file;
  std::string rawtrace_file;
  std::string report_file;
  std::string metrics_file;
  Time metrics_dvt = 0;           // 0 = default to delta
  std::uint64_t max_events = 0;   // 0 = keep the Config default
  std::string log_level;
  bool log_json = false;
  int log_ring = 0;
};

bool parse_log_level(const std::string& s, LogLevel& out) {
  if (s == "off") out = LogLevel::off;
  else if (s == "error") out = LogLevel::error;
  else if (s == "info") out = LogLevel::info;
  else if (s == "debug") out = LogLevel::debug;
  else if (s == "trace") out = LogLevel::trace;
  else return false;
  return true;
}

bool parse(int argc, char** argv, Options& o) {
  if (argc < 2) return false;
  o.protocol = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](int& out) {
      if (i + 1 >= argc) return false;
      out = std::atoi(argv[++i]);
      return true;
    };
    int v = 0;
    if (a == "--n" && next(v)) o.params.n = v;
    else if (a == "--ts" && next(v)) o.params.ts = v;
    else if (a == "--ta" && next(v)) o.params.ta = v;
    else if (a == "--seed" && next(v)) o.seed = static_cast<std::uint64_t>(v);
    else if (a == "--delta" && next(v)) o.delta = v;
    else if (a == "--secrets" && next(v)) o.secrets = v;
    else if (a == "--async") o.kind = NetworkKind::asynchronous;
    else if (a == "--ideal") o.ideal = true;
    else if (a == "--adversary" && i + 1 < argc) o.adversary = argv[++i];
    else if (a == "--backend" && i + 1 < argc) o.backend = argv[++i];
    else if (a == "--tick-us" && next(v)) o.tick_us = v;
    else if (a == "--record-schedule" && i + 1 < argc) o.record_file = argv[++i];
    else if (a == "--replay-schedule" && i + 1 < argc) o.replay_file = argv[++i];
    else if (a == "--trace" && i + 1 < argc) o.trace_file = argv[++i];
    else if (a == "--rawtrace" && i + 1 < argc) o.rawtrace_file = argv[++i];
    else if (a == "--report" && i + 1 < argc) o.report_file = argv[++i];
    else if (a == "--metrics" && i + 1 < argc) o.metrics_file = argv[++i];
    else if (a == "--metrics-dvt" && next(v)) o.metrics_dvt = v;
    else if (a == "--max-events" && i + 1 < argc) {
      o.max_events = std::strtoull(argv[++i], nullptr, 10);
    }
    else if (a == "--log-level" && i + 1 < argc) o.log_level = argv[++i];
    else if (a == "--log-json") o.log_json = true;
    else if (a == "--log-ring" && next(v)) o.log_ring = v;
    else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  return true;
}

std::shared_ptr<ScriptedAdversary> build_adversary(const Options& o) {
  auto adv = std::make_shared<ScriptedAdversary>();
  if (o.adversary == "none") return adv;
  const int budget =
      o.kind == NetworkKind::synchronous ? o.params.ts : o.params.ta;
  PartySet corrupt;
  for (int i = 0; i < budget; ++i) corrupt.insert(o.params.n - 1 - i);
  adv = std::make_shared<ScriptedAdversary>(corrupt);
  for (int id : corrupt.to_vector()) {
    if (o.adversary == "silent") adv->silence(id);
    else adv->garble_on(id, "");
  }
  std::cout << "adversary: " << o.adversary << " on " << corrupt.str()
            << "\n";
  return adv;
}

/// The threaded real-concurrency backend: honest-only wss/vss/mpc, wall
/// clock timing, optional "nampc-schedule/1" capture for later DES replay.
int run_threaded_cli(const Options& o) {
  if (o.protocol != "wss" && o.protocol != "vss" && o.protocol != "mpc") {
    std::cerr << "--backend threaded supports wss|vss|mpc\n";
    return 2;
  }
  if (o.adversary != "none" || o.ideal) {
    std::cerr << "--backend threaded is honest-only with full primitives "
                 "(adversary hooks and ideal gadgets live on the DES side)\n";
    return 2;
  }
  ThreadedConfig cfg;
  cfg.params = o.params;
  cfg.seed = o.seed;
  cfg.delta = o.delta;
  cfg.tick_us = o.tick_us;
  cfg.record_schedule = !o.record_file.empty();
  if (o.max_events > 0) cfg.max_events = o.max_events;
  if (o.kind == NetworkKind::synchronous) {
    std::cout << "note: threaded backend runs asynchronous (a real network "
                 "gives no delta guarantee)\n";
  }

  const int n = o.params.n;
  Rng rng(o.seed ^ 0xc11);
  std::vector<Polynomial> qs;
  for (int k = 0; k < o.secrets; ++k) {
    qs.push_back(Polynomial::random_with_constant(
        Fp(static_cast<std::uint64_t>(1000 + k)), o.params.ts, rng));
  }
  PartySet z;
  for (int i = 0; i < o.params.ts - o.params.ta; ++i) z.insert(n - 1 - i);
  Circuit c;
  std::map<int, FpVec> inputs;
  if (o.protocol == "mpc") {
    std::vector<int> in;
    for (int i = 0; i < n; ++i) in.push_back(c.input(i));
    int acc = in[0];
    for (int i = 1; i < n; ++i) {
      acc = c.add(acc, in[static_cast<std::size_t>(i)]);
    }
    c.mark_output(c.mul(acc, in[0]));
    for (int i = 0; i < n; ++i) {
      inputs[i] = {Fp(static_cast<std::uint64_t>(i + 1))};
    }
  }

  std::cout << "protocol=" << o.protocol << " n=" << n << " ts="
            << o.params.ts << " ta=" << o.params.ta
            << " backend=threaded tick_us=" << o.tick_us << " seed=" << o.seed
            << "\n";

  std::vector<Wss*> sharing(static_cast<std::size_t>(n), nullptr);
  std::vector<Mpc*> mpc(static_cast<std::size_t>(n), nullptr);
  const ThreadedResult res = run_threaded(
      cfg, [&](Simulation& sim, PartyId id) -> std::function<bool()> {
        if (o.protocol == "mpc") {
          Mpc& m = sim.party(id).spawn<Mpc>("p", c, inputs[id], nullptr);
          mpc[static_cast<std::size_t>(id)] = &m;
          return [&m] { return m.has_output(); };
        }
        Wss* w = nullptr;
        if (o.protocol == "vss") {
          w = &sim.party(id).spawn<Vss>("p", 0, 0, o.secrets, z, nullptr);
        } else {
          WssOptions opts;
          opts.num_secrets = o.secrets;
          w = &sim.party(id).spawn<Wss>("p", 0, 0, opts, nullptr);
        }
        sharing[static_cast<std::size_t>(id)] = w;
        if (id == 0) w->start(qs);
        return [w] { return w->has_output(); };
      });

  bool ok = res.completed;
  if (!res.completed) std::cout << "watchdog fired (run incomplete)\n";
  if (o.protocol == "mpc") {
    for (int i = 0; i < n; ++i) {
      Mpc* m = mpc[static_cast<std::size_t>(i)];
      if (m == nullptr || !m->has_output()) {
        std::cout << "P" << i << ": no output\n";
        ok = false;
        continue;
      }
      const bool agrees = m->output() == mpc[0]->output();
      ok = ok && agrees;
      std::cout << "P" << i << ": output " << m->output()[0]
                << (agrees ? "" : " (DISAGREES)") << " t=" << m->output_time()
                << "\n";
    }
  } else {
    for (int i = 0; i < n; ++i) {
      Wss* w = sharing[static_cast<std::size_t>(i)];
      if (w == nullptr || w->outcome() != WssOutcome::rows) {
        std::cout << "P" << i << ": no output\n";
        ok = false;
        continue;
      }
      const bool right = w->share(0) == qs[0].eval(eval_point(i));
      ok = ok && right;
      std::cout << "P" << i << ": share ok=" << (right ? "yes" : "NO")
                << " t=" << w->output_time() << "\n";
    }
  }

  std::cout << "metrics: wire_messages=" << res.wire_messages
            << " events=" << res.events << " wall_ms=" << res.wall_ms << "\n";
  std::cout << "monitors: events=" << res.monitor_events
            << " violations=" << res.violations.size() << "\n";
  for (const obs::Violation& v : res.violations) {
    std::cout << "  VIOLATION [" << v.monitor << "] " << v.kind << " "
              << v.key << " parties=" << v.parties.str() << " t=" << v.time
              << ": " << v.detail << "\n";
  }
  ok = ok && res.violations.empty();

  if (!o.record_file.empty()) {
    std::ofstream out(o.record_file);
    if (!out) {
      std::cerr << "cannot open schedule file: " << o.record_file << "\n";
      return 2;
    }
    write_schedule(out, res.schedule);
    std::cout << "schedule: " << o.record_file << " ("
              << res.schedule.records.size() << " records)\n";
  }

  std::cout << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

int run(const Options& o) {
  if (!feasible(o.params.n, o.params.ts, o.params.ta)) {
    std::cerr << "infeasible parameters: need n > 2*max(ts,ta)+max(2ta,ts) "
              << "(minimum n = " << min_parties(o.params.ts, o.params.ta)
              << ")\n";
    return 2;
  }
  if (o.backend == "threaded") return run_threaded_cli(o);
  if (o.backend != "des") {
    std::cerr << "unknown backend: " << o.backend << "\n";
    return 2;
  }
  Simulation::Config cfg;
  cfg.params = o.params;
  cfg.kind = o.kind;
  cfg.seed = o.seed;
  cfg.delta = o.delta;
  cfg.ideal_primitives = o.ideal;
  if (o.max_events > 0) cfg.max_events = o.max_events;
  if (!o.log_level.empty() && !parse_log_level(o.log_level, Log::level())) {
    std::cerr << "unknown log level: " << o.log_level << "\n";
    return 2;
  }
  if (o.log_json) Log::use_json_sink(std::cerr);
  if (o.log_ring > 0) {
    Log::set_ring(static_cast<std::size_t>(o.log_ring), LogLevel::trace);
  }

  std::shared_ptr<Adversary> adv;
  std::shared_ptr<ReplayAdversary> replay;
  PartySet corrupt;
  if (!o.replay_file.empty()) {
    replay = std::make_shared<ReplayAdversary>(o.replay_schedule);
    adv = replay;
    std::cout << "replaying " << o.replay_file << " ("
              << o.replay_schedule.records.size() << " recorded deliveries, "
              << "backend=" << o.replay_schedule.backend << ")\n";
  } else {
    auto scripted = build_adversary(o);
    corrupt = scripted->corrupt_set();
    adv = scripted;
  }
  // Tracer and monitors must outlive the Simulation: spans close in
  // instance dtors.
  obs::Tracer tracer;
  obs::MonitorEngine monitors;
  obs::install_standard_monitors(monitors);
  const bool want_obs = !o.trace_file.empty() || !o.rawtrace_file.empty() ||
                        !o.report_file.empty();
  Simulation sim(cfg, adv);
  if (want_obs) sim.set_tracer(&tracer);
  sim.set_monitors(&monitors);
  if (!o.metrics_file.empty()) {
    sim.metrics_registry().set_sample_interval(
        o.metrics_dvt > 0 ? o.metrics_dvt : o.delta);
  }
  const Timing& tm = sim.timing();
  Rng rng(o.seed ^ 0xc11);
  const int n = o.params.n;
  bool ok = true;
  RunStatus status = RunStatus::quiescent;
  auto run_sim = [&] {
    status = sim.run();
    return status == RunStatus::quiescent;
  };

  std::cout << "protocol=" << o.protocol << " n=" << n << " ts="
            << o.params.ts << " ta=" << o.params.ta << " network="
            << (o.kind == NetworkKind::synchronous ? "sync" : "async")
            << " seed=" << o.seed << "\n";

  if (o.protocol == "wss" || o.protocol == "vss") {
    std::vector<Wss*> inst;
    const PartySet z = corrupt.empty()
                           ? PartySet{((1ull << (o.params.ts - o.params.ta)) -
                                       1ull)
                                      << (n - (o.params.ts - o.params.ta))}
                           : corrupt;
    for (int i = 0; i < n; ++i) {
      if (o.protocol == "vss") {
        PartySet zz = z;
        while (zz.size() > o.params.ts - o.params.ta) {
          zz.erase(zz.to_vector().back());
        }
        inst.push_back(
            &sim.party(i).spawn<Vss>("p", 0, 0, o.secrets, zz, nullptr));
      } else {
        WssOptions opts;
        opts.num_secrets = o.secrets;
        inst.push_back(&sim.party(i).spawn<Wss>("p", 0, 0, opts, nullptr));
      }
    }
    std::vector<Polynomial> qs;
    for (int k = 0; k < o.secrets; ++k) {
      qs.push_back(Polynomial::random_with_constant(
          Fp(static_cast<std::uint64_t>(1000 + k)), o.params.ts, rng));
    }
    inst[0]->start(qs);
    ok = run_sim();
    const Time bound = o.protocol == "vss" ? tm.t_vss : tm.t_wss;
    for (int i = 0; i < n; ++i) {
      if (corrupt.contains(i)) continue;
      Wss* w = inst[static_cast<std::size_t>(i)];
      std::cout << "P" << i << ": ";
      if (w->outcome() == WssOutcome::rows) {
        const bool right = w->share(0) == qs[0].eval(eval_point(i));
        ok = ok && right;
        std::cout << "share ok=" << (right ? "yes" : "NO") << " t="
                  << w->output_time() << (o.kind == NetworkKind::synchronous
                                              ? (w->output_time() <= bound
                                                     ? " (<=bound)"
                                                     : " (OVER bound)")
                                              : "")
                  << " revealed=" << w->revealed_parties().str() << "\n";
      } else {
        ok = false;
        std::cout << "no output\n";
      }
    }
  } else if (o.protocol == "vts") {
    std::vector<Vts*> inst;
    PartySet z = corrupt;
    while (z.size() > o.params.ts - o.params.ta) z.erase(z.to_vector().back());
    while (z.size() < o.params.ts - o.params.ta) {
      for (int i = n - 1; i >= 0 && z.size() < o.params.ts - o.params.ta; --i) {
        if (!z.contains(i)) z.insert(i);
      }
    }
    for (int i = 0; i < n; ++i) {
      inst.push_back(
          &sim.party(i).spawn<Vts>("p", 0, 0, o.secrets, z, nullptr));
    }
    inst[0]->start();
    ok = run_sim();
    int holders = 0;
    for (int i = 0; i < n; ++i) {
      if (corrupt.contains(i)) continue;
      Vts* v = inst[static_cast<std::size_t>(i)];
      std::cout << "P" << i << ": "
                << (v->outcome() == VtsOutcome::triples
                        ? "triples"
                        : (v->outcome() == VtsOutcome::discarded ? "discarded"
                                                                 : "none"))
                << " t=" << v->output_time() << "\n";
      if (v->outcome() == VtsOutcome::triples) ++holders;
    }
    ok = ok && holders >= n - o.params.ts;
  } else if (o.protocol == "ba") {
    std::vector<Ba*> inst;
    for (int i = 0; i < n; ++i) {
      inst.push_back(&sim.party(i).spawn<Ba>("p", 0, nullptr));
    }
    for (int i = 0; i < n; ++i) {
      inst[static_cast<std::size_t>(i)]->start(i % 2 == 0);
    }
    ok = run_sim();
    std::optional<bool> agreed;
    for (int i = 0; i < n; ++i) {
      if (corrupt.contains(i)) continue;
      Ba* b = inst[static_cast<std::size_t>(i)];
      if (!b->has_output()) {
        ok = false;
        continue;
      }
      if (!agreed.has_value()) agreed = b->output();
      if (*agreed != b->output()) ok = false;
    }
    std::cout << "decision: " << (agreed.value_or(false) ? 1 : 0)
              << " agreement=" << (ok ? "yes" : "NO") << "\n";
  } else if (o.protocol == "acs") {
    std::vector<Acs*> inst;
    for (int i = 0; i < n; ++i) {
      inst.push_back(&sim.party(i).spawn<Acs>("p", 0, nullptr));
    }
    for (int i = 0; i < n; ++i) {
      if (corrupt.contains(i)) continue;
      for (int j = 0; j < n; ++j) {
        if (!corrupt.contains(j)) inst[static_cast<std::size_t>(i)]->mark(j);
      }
    }
    ok = run_sim();
    std::optional<PartySet> com;
    for (int i = 0; i < n; ++i) {
      if (corrupt.contains(i)) continue;
      Acs* a = inst[static_cast<std::size_t>(i)];
      if (!a->has_output()) {
        ok = false;
        continue;
      }
      if (!com.has_value()) com = a->output();
      if (*com != a->output()) ok = false;
    }
    std::cout << "Com = " << com.value_or(PartySet{}).str()
              << " agreement=" << (ok ? "yes" : "NO") << "\n";
  } else if (o.protocol == "mpc") {
    Circuit c;
    std::vector<int> in;
    for (int i = 0; i < n; ++i) in.push_back(c.input(i));
    int acc = in[0];
    for (int i = 1; i < n; ++i) acc = c.add(acc, in[static_cast<std::size_t>(i)]);
    c.mark_output(c.mul(acc, in[0]));
    std::vector<Mpc*> inst;
    std::map<int, FpVec> inputs;
    for (int i = 0; i < n; ++i) {
      inputs[i] = {Fp(static_cast<std::uint64_t>(i + 1))};
      inst.push_back(&sim.party(i).spawn<Mpc>("p", c, inputs[i], nullptr));
    }
    ok = run_sim();
    std::map<int, FpVec> eff = inputs;
    for (int id : corrupt.to_vector()) {
      if (o.adversary == "silent") eff[id] = {Fp(0)};
    }
    const FpVec want = c.eval_plain(eff);
    for (int i = 0; i < n; ++i) {
      if (corrupt.contains(i)) continue;
      Mpc* m = inst[static_cast<std::size_t>(i)];
      if (!m->has_output()) {
        std::cout << "P" << i << ": no output\n";
        ok = false;
        continue;
      }
      const bool right = m->output() == want;
      if (o.adversary == "garble") {
        // Garbling during sharing may legitimately exclude the corrupt
        // dealer's input; only agreement is required then.
        std::cout << "P" << i << ": output " << m->output()[0] << " t="
                  << m->output_time() << "\n";
      } else {
        ok = ok && right;
        std::cout << "P" << i << ": output " << m->output()[0]
                  << (right ? " (correct)" : " (WRONG)") << " t="
                  << m->output_time() << "\n";
      }
    }
  } else {
    std::cerr << "unknown protocol: " << o.protocol << "\n";
    return 2;
  }

  std::cout << "metrics: messages=" << sim.metrics().messages_sent
            << " words=" << sim.metrics().words_sent
            << " events=" << sim.metrics().events_processed
            << " rs_decodes=" << sim.metrics().rs_decodes << "\n";

  if (replay != nullptr) {
    std::cout << "replay: matched=" << replay->matched()
              << " missed=" << replay->missed()
              << " (missed deliveries fall back to the model default)\n";
  }
  std::cout << "monitors: events=" << monitors.events_seen()
            << " violations=" << monitors.violations().size() << "\n";
  for (const obs::Violation& v : monitors.violations()) {
    std::cout << "  VIOLATION [" << v.monitor << "] " << v.kind << " "
              << v.key << " parties=" << v.parties.str() << " t=" << v.time
              << ": " << v.detail << "\n";
  }
  ok = ok && monitors.ok();

  if (!o.trace_file.empty()) {
    std::ofstream out(o.trace_file);
    if (!out) {
      std::cerr << "cannot open trace file: " << o.trace_file << "\n";
      return 2;
    }
    tracer.write_chrome_trace(out);
    std::cout << "trace: " << o.trace_file << " (" << tracer.spans().size()
              << " spans, " << tracer.flows().size() << " flows)\n";
  }
  if (!o.rawtrace_file.empty()) {
    std::ofstream out(o.rawtrace_file);
    if (!out) {
      std::cerr << "cannot open rawtrace file: " << o.rawtrace_file << "\n";
      return 2;
    }
    obs::write_trace(out, obs::collect_trace(tracer, sim, status));
    std::cout << "rawtrace: " << o.rawtrace_file << "\n";
  }
  if (!o.report_file.empty()) {
    if (o.report_file == "-") {
      obs::write_run_report(std::cout, sim, status, &tracer);
    } else {
      std::ofstream out(o.report_file);
      if (!out) {
        std::cerr << "cannot open report file: " << o.report_file << "\n";
        return 2;
      }
      obs::write_run_report(out, sim, status, &tracer);
      std::cout << "report: " << o.report_file << "\n";
    }
  }
  if (!o.metrics_file.empty()) {
    if (o.metrics_file == "-") {
      obs::write_metrics_jsonl(std::cout, sim);
    } else {
      std::ofstream out(o.metrics_file);
      if (!out) {
        std::cerr << "cannot open metrics file: " << o.metrics_file << "\n";
        return 2;
      }
      obs::write_metrics_jsonl(out, sim);
      std::cout << "metrics dump: " << o.metrics_file << " ("
                << sim.metrics_registry().samples().size() << " samples)\n";
    }
  }

  std::cout << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr
        << "usage: nampc_cli <wss|vss|vts|ba|acs|mpc> [--n N --ts T --ta T] "
           "[--async] [--seed S] [--delta D] [--ideal] "
           "[--adversary silent|garble] [--secrets L] "
           "[--backend des|threaded] [--tick-us N] "
           "[--record-schedule FILE] [--replay-schedule FILE] "
           "[--trace FILE] [--rawtrace FILE] [--report FILE|-] "
           "[--metrics FILE|-] [--metrics-dvt N] [--max-events M] "
           "[--log-level LVL] [--log-json] [--log-ring N]\n";
    return 2;
  }
  if (!o.replay_file.empty()) {
    if (o.backend != "des") {
      std::cerr << "--replay-schedule replays on the DES backend\n";
      return 2;
    }
    if (o.adversary != "none") {
      std::cerr << "--replay-schedule replaces the adversary\n";
      return 2;
    }
    std::ifstream in(o.replay_file);
    if (!in) {
      std::cerr << "cannot open schedule file: " << o.replay_file << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!read_schedule(text.str(), o.replay_schedule, error)) {
      std::cerr << "bad schedule file: " << error << "\n";
      return 2;
    }
    // The run context comes from the recording; flags must not diverge
    // from what the schedule was captured under.
    o.params = o.replay_schedule.params;
    o.kind = o.replay_schedule.kind;
    o.seed = o.replay_schedule.seed;
  }
  try {
    return run(o);
  } catch (const InvariantError& e) {
    std::cerr << "invariant error: " << e.what() << "\n";
    return 2;
  }
}
