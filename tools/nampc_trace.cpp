// nampc_trace: offline analysis of "nampc-trace/2" files (produced by
// `nampc_cli --rawtrace FILE` or obs::write_trace).
//
//   nampc_trace TRACE.json                  summary + per-kind table +
//                                           critical path + budget table
//   nampc_trace TRACE.json --critical-path [KEY]
//                                           full hop-by-hop chain for KEY
//                                           (default: latest-done span)
//   nampc_trace TRACE.json --check-budgets  exit 1 if a gated kind exceeds
//                                           its formula bound
//   nampc_trace TRACE.json --diff B.json    per-kind count/latency drift
//                                           between traces (per-kind word
//                                           drift: nampc_prof --diff)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/analysis.h"

namespace {

using namespace nampc;
using namespace nampc::obs;

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool load(const std::string& path, TraceData& data) {
  std::string text;
  std::string error;
  if (!read_file(path, text, error) || !load_trace(text, data, error)) {
    std::cerr << "nampc_trace: " << error << '\n';
    return false;
  }
  return true;
}

void print_summary(const TraceData& d) {
  const TraceInfo& i = d.info;
  std::printf("trace: n=%d ts=%d ta=%d network=%s delta=%lld seed=%llu\n",
              i.params.n, i.params.ts, i.params.ta,
              i.network == NetworkKind::synchronous ? "sync" : "async",
              static_cast<long long>(i.delta),
              static_cast<unsigned long long>(i.seed));
  std::printf("status=%s end_time=%lld spans=%zu flows=%zu dropped_flows=%llu\n",
              i.status.c_str(), static_cast<long long>(i.end_time),
              d.spans.size(), d.flows.size(),
              static_cast<unsigned long long>(d.dropped_flows));
}

void print_kinds(const TraceData& d) {
  std::printf("\n%-10s %7s %7s %8s %8s %8s %8s\n", "kind", "count", "done",
              "p50", "p90", "p99", "max");
  for (const auto& [kind, st] : kind_breakdown(d)) {
    std::printf("%-10s %7llu %7llu %8lld %8lld %8lld %8lld\n", kind.c_str(),
                static_cast<unsigned long long>(st.count),
                static_cast<unsigned long long>(st.done),
                static_cast<long long>(st.p50), static_cast<long long>(st.p90),
                static_cast<long long>(st.p99), static_cast<long long>(st.max));
  }
}

/// Prints the chain in causal order. `full` also prints every hop;
/// otherwise only the endpoints and totals.
void print_critical_path(const TraceData& d, const std::string& key,
                         bool full) {
  const int idx = find_done_span(d, key);
  if (idx < 0) {
    if (key.empty()) {
      std::printf("\ncritical path: no span delivered output\n");
    } else {
      std::printf("\ncritical path: no delivered span with key %s\n",
                  key.c_str());
    }
    return;
  }
  const TraceSpan& s = d.spans[static_cast<std::size_t>(idx)];
  const CriticalPath cp = critical_path(d, idx);
  std::printf("\ncritical path of %s (kind=%s, party=P%d, done=%lld):\n",
              s.key.c_str(), s.kind.c_str(), s.party,
              static_cast<long long>(s.done));
  std::printf("  start=%lld end=%lld hops=%zu total_words=%llu "
              "network_time=%lld local_time=%lld\n",
              static_cast<long long>(cp.start),
              static_cast<long long>(cp.end), cp.hops.size(),
              static_cast<unsigned long long>(cp.total_words),
              static_cast<long long>(cp.network_time),
              static_cast<long long>(cp.local_time));
  if (!full) return;
  Time prev_arrival = -1;
  for (const CriticalHop& h : cp.hops) {
    const Time wait = prev_arrival >= 0 ? h.send - prev_arrival : 0;
    std::printf("  P%d @%-6lld -> P%d @%-6lld  %5llu words  %-24s", h.from,
                static_cast<long long>(h.send), h.to,
                static_cast<long long>(h.arrival),
                static_cast<unsigned long long>(h.words), h.key.c_str());
    if (wait > 0) std::printf("  (+%lld local)", static_cast<long long>(wait));
    std::printf("\n");
    prev_arrival = h.arrival;
  }
  std::printf("  => output at P%d, t=%lld\n", s.party,
              static_cast<long long>(cp.end));
}

/// Returns false when a gated row exceeds its bound.
bool print_budgets(const TraceData& d) {
  const auto rows = check_budgets(d);
  if (rows.empty()) {
    std::printf("\nbudgets: no bounded primitive delivered output\n");
    return true;
  }
  std::printf("\n%-8s %6s %10s %10s %7s %7s %s\n", "kind", "done", "observed",
              "bound", "ratio", "gated", "verdict");
  bool ok = true;
  for (const BudgetRow& r : rows) {
    const bool fail = r.gated && !r.within;
    if (fail) ok = false;
    std::printf("%-8s %6llu %10lld %10lld %7.3f %7s %s\n", r.kind.c_str(),
                static_cast<unsigned long long>(r.done),
                static_cast<long long>(r.observed_max),
                static_cast<long long>(r.bound), r.ratio,
                r.gated ? "yes" : "no",
                r.within ? "ok" : (r.gated ? "OVER BUDGET" : "over (info)"));
  }
  return ok;
}

int run_diff(const TraceData& a, const std::string& path_b) {
  TraceData b;
  if (!load(path_b, b)) return 2;
  const auto diffs = diff_traces(a, b);
  if (diffs.empty()) {
    std::printf("no per-kind differences\n");
    return 0;
  }
  std::printf("%-10s %9s %9s %10s %10s\n", "kind", "count_a", "count_b",
              "max_a", "max_b");
  for (const KindDiff& kd : diffs) {
    std::printf("%-10s %9llu %9llu %10lld %10lld\n", kd.kind.c_str(),
                static_cast<unsigned long long>(kd.count_a),
                static_cast<unsigned long long>(kd.count_b),
                static_cast<long long>(kd.max_a),
                static_cast<long long>(kd.max_b));
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage: nampc_trace TRACE.json [--critical-path [KEY] | "
         "--check-budgets | --diff OTHER.json]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  TraceData data;
  if (!load(argv[1], data)) return 2;

  if (argc == 2) {
    print_summary(data);
    print_kinds(data);
    print_critical_path(data, "", /*full=*/false);
    print_budgets(data);
    return 0;
  }

  const std::string mode = argv[2];
  if (mode == "--critical-path") {
    const std::string key = argc > 3 ? argv[3] : "";
    print_summary(data);
    print_critical_path(data, key, /*full=*/true);
    return 0;
  }
  if (mode == "--check-budgets") {
    print_summary(data);
    const bool ok = print_budgets(data);
    if (!ok) std::printf("\nbudget check FAILED\n");
    return ok ? 0 : 1;
  }
  if (mode == "--diff") {
    if (argc < 4) return usage();
    return run_diff(data, argv[3]);
  }
  return usage();
}
