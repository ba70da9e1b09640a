// Offline analysis over recorded traces: causal critical paths, per-kind
// breakdowns, and observed-vs-formula budget checks.
//
// A trace (schema "nampc-trace/2") is the tracer's spans and flows plus the
// run configuration header needed to re-derive the paper's Timing formulas,
// so a saved JSON file is self-contained: the nampc_trace CLI can explain
// why a primitive finished when it did and check T_BC/T_BA/T_WSS/T_VSS/
// T_VTS budgets without the binary that produced it. A trace holds time
// only; per-kind and per-instance cost lives in the "nampc-metrics/1" dump,
// read by nampc_prof.
//
// Critical path semantics: starting from (span.party, span.done), repeatedly
// follow the latest-arriving message that could causally precede the current
// point (arrival <= t, strictly earlier send), hopping to its sender at its
// send time. The resulting chain is the sequence of deliveries that
// determined the span's `done` time — its last hop arrives at the output
// party, and the chain's end equals span.done by construction. Gaps between
// a hop's arrival and the next hop's send are local computation / timer
// waits at the party.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "net/simulation.h"
#include "obs/report.h"
#include "obs/tracer.h"

namespace nampc::obs {

/// Run-configuration header of a saved trace (enough to re-derive Timing).
struct TraceInfo {
  ProtocolParams params;
  NetworkKind network = NetworkKind::synchronous;
  Time delta = 10;
  std::uint64_t seed = 0;
  std::string status;  ///< RunStatus to_string
  Time end_time = 0;   ///< virtual time the run stopped
};

/// A self-contained recorded run: header + spans + flows.
struct TraceData {
  TraceInfo info;
  std::vector<TraceSpan> spans;
  std::vector<TraceFlow> flows;
  std::uint64_t dropped_flows = 0;
};

/// Snapshots an attached tracer after Simulation::run.
[[nodiscard]] TraceData collect_trace(const Tracer& tracer,
                                      const Simulation& sim, RunStatus status);

/// Writes the "nampc-trace/2" JSON.
void write_trace(std::ostream& os, const TraceData& data);

/// Parses a "nampc-trace/2" JSON document; false (with `error` set) on
/// malformed input or an unknown schema.
bool load_trace(const std::string& text, TraceData& out, std::string& error);

/// One message delivery on a critical path, in causal order.
struct CriticalHop {
  int from = -1;
  int to = -1;
  Time send = 0;
  Time arrival = 0;
  std::uint64_t words = 0;
  std::string key;  ///< instance key the message was addressed to
};

/// The causal chain that determined one span's `done` time.
struct CriticalPath {
  int span = -1;        ///< index into TraceData::spans; -1 if none
  Time start = 0;       ///< send time of the first hop (== end if no hops)
  Time end = -1;        ///< == spans[span].done
  std::vector<CriticalHop> hops;
  std::uint64_t total_words = 0;
  Time network_time = 0;  ///< sum of hop (arrival - send)
  Time local_time = 0;    ///< end - start - network_time (computation/timers)
};

/// Critical path of spans[span_index]; span = -1 when it never delivered.
[[nodiscard]] CriticalPath critical_path(const TraceData& data,
                                         int span_index);

/// Index of the span matching `key` (any party; latest done wins), or the
/// latest-done span overall when `key` is empty. -1 when nothing delivered.
[[nodiscard]] int find_done_span(const TraceData& data, const std::string& key);

/// Per-kind count and latency statistics over a trace's spans (the same
/// nearest-rank percentiles as the run report's "primitives" section).
[[nodiscard]] std::map<std::string, LatencyStats> kind_breakdown(
    const TraceData& data);

/// One observed-vs-formula row of the budget check.
struct BudgetRow {
  std::string kind;
  std::uint64_t done = 0;     ///< spans measured (delivered output)
  Time observed_max = -1;     ///< max (done - span_start) over those spans
  Time bound = -1;            ///< the paper's formula; -1 = no formula
  double ratio = 0.0;         ///< observed_max / bound (0 when no formula)
  bool within = true;         ///< every span within its per-span bound
  bool gated = false;         ///< counts toward --check-budgets failure
};

/// Observed-vs-formula ratios for the kinds the paper bounds (bc, ba, wss,
/// vss, vts, acs). A wss span tagged with the "z-conditioned" phase is
/// held to T'_WSS instead of T_WSS. Rows are gated (failures make
/// check_budgets callers exit non-zero) only for synchronous traces —
/// asynchronous runs have no per-primitive time bounds, only eventual
/// delivery.
[[nodiscard]] std::vector<BudgetRow> check_budgets(const TraceData& data);

/// Per-kind drift between two traces, for regression triage.
struct KindDiff {
  std::string kind;
  std::uint64_t count_a = 0, count_b = 0;
  Time max_a = -1, max_b = -1;  ///< max latency
};

/// Kinds present in either trace with any count or max-latency change.
[[nodiscard]] std::vector<KindDiff> diff_traces(const TraceData& a,
                                                const TraceData& b);

}  // namespace nampc::obs
