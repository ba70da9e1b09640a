// Shared pieces of the nampc_bench tables: the text/JSON table, the
// RunContext each table fills, the monitor plumbing that attaches the
// invariant-monitor catalogue to every benchmark simulation (schema
// "nampc-bench/2" reports carry the aggregate monitor verdict), and the
// parameter ladder and wall-clock helpers of the scaling and transport
// tables.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/simulation.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "util/json.h"
#include "util/thread_safety.h"

namespace nampc::bench {

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Cells>
  void row(Cells&&... cells) {
    std::vector<std::string> r;
    (r.push_back(to_cell(std::forward<Cells>(cells))), ...);
    rows_.push_back(std::move(r));
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) widths[c] = std::max(widths[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      os << "| ";
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << std::setw(static_cast<int>(widths[c])) << std::left
           << (c < r.size() ? r[c] : "") << " | ";
      }
      os << "\n";
    };
    print_row(headers_);
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "|";
    }
    os << "\n";
    for (const auto& r : rows_) print_row(r);
  }

  /// Emits the table as {"headers": [...], "rows": [{header: cell}...]}.
  /// Cells stay strings: they are already formatted for the text table and
  /// string cells keep the trajectory diff-stable across formatting tweaks.
  void write_json(JsonWriter& j) const {
    j.begin_object();
    j.key("headers").begin_array();
    for (const auto& h : headers_) j.value(h);
    j.end_array();
    j.key("rows").begin_array();
    for (const auto& r : rows_) {
      j.begin_object();
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        j.kv(headers_[c], c < r.size() ? r[c] : std::string());
      }
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }

 private:
  template <typename T>
  static std::string to_cell(T&& v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Aggregate monitor verdict across every simulation a table ran.
/// Atomic because grid cells fan out through the sweep engine's worker
/// threads; each MonitoredRun folds its counts in on destruction.
struct MonitorTally {
  NAMPC_LOCK_FREE("summed into from concurrent sweep workers, read at exit")
  std::atomic<std::uint64_t> events{0};
  NAMPC_LOCK_FREE("summed into from concurrent sweep workers, read at exit")
  std::atomic<std::uint64_t> violations{0};
};

/// RAII: attaches a fresh standard-catalogue MonitorEngine to `sim` for the
/// lifetime of one benchmark cell, then detaches and folds the counts into
/// the shared tally. Violations also print to stderr via the engine's own
/// logging, so a red invariant is visible even in table output.
///
/// Metrics emission: with NAMPC_METRICS_DIR set in the environment, every
/// monitored benchmark cell writes a cost-attribution dump (schema
/// "nampc-metrics/1", sampled every Δ of virtual time) on destruction.
/// A non-empty `metrics_label` names the file $NAMPC_METRICS_DIR/
/// PROF_<label>.jsonl (how the committed PROF_*.jsonl trajectories are
/// regenerated); with no label the name is derived from the cell's config
/// and final event count, so regenerators that predate labelling still
/// emit distinct files. Cells write to distinct paths, so the emission is
/// safe under the sweep engine's worker threads (which must not touch
/// stdout/stderr).
class MonitoredRun {
 public:
  explicit MonitoredRun(Simulation& sim, MonitorTally& tally,
                        std::string metrics_label = {})
      : sim_(sim), tally_(tally), metrics_label_(std::move(metrics_label)) {
    obs::install_standard_monitors(engine_);
    sim_.set_monitors(&engine_);
    if (metrics_dir() != nullptr) {
      sim_.metrics_registry().set_sample_interval(sim_.config().delta);
    }
  }
  MonitoredRun(const MonitoredRun&) = delete;
  MonitoredRun& operator=(const MonitoredRun&) = delete;
  ~MonitoredRun() {
    sim_.set_monitors(nullptr);
    tally_.events += engine_.events_seen();
    tally_.violations += engine_.violations().size();
    if (const char* dir = metrics_dir()) {
      std::string label = metrics_label_;
      if (label.empty()) {
        const Simulation::Config& cfg = sim_.config();
        std::ostringstream auto_label;
        auto_label << "auto_n" << cfg.params.n << "_"
                   << (cfg.kind == NetworkKind::synchronous ? "sync" : "async")
                   << "_seed" << cfg.seed << "_e"
                   << sim_.metrics().events_processed;
        label = auto_label.str();
      }
      const std::string path = std::string(dir) + "/PROF_" + label + ".jsonl";
      std::ofstream out(path);
      if (out) obs::write_metrics_jsonl(out, sim_);
    }
  }

  [[nodiscard]] const obs::MonitorEngine& engine() const { return engine_; }

 private:
  [[nodiscard]] static const char* metrics_dir() {
    const char* d = std::getenv("NAMPC_METRICS_DIR");
    return (d != nullptr && d[0] != '\0') ? d : nullptr;
  }

  obs::MonitorEngine engine_;
  Simulation& sim_;
  MonitorTally& tally_;
  std::string metrics_label_;
};

/// Machine-readable mirror of a regenerator's text output (schema
/// "nampc-bench/2"). Collect every printed table under its banner title,
/// then save() writes BENCH_<name>.json into $NAMPC_BENCH_JSON_DIR (default:
/// current directory) — these files are committed as a perf trajectory.
/// v2 adds the "monitors" section: how many protocol events the invariant
/// monitors observed across the regenerator's simulations and how many
/// violations they recorded (0 on a healthy run; analytic regenerators that
/// run no simulations report 0 events).
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }

  void add(const std::string& title, const Table& table) {
    sections_.emplace_back(title, table);
  }

  [[nodiscard]] bool empty() const { return sections_.empty(); }

  void set_monitors(const MonitorTally& tally) {
    monitor_events_ = tally.events.load();
    monitor_violations_ = tally.violations.load();
  }

  void write(std::ostream& os) const {
    JsonWriter j(os);
    j.begin_object();
    j.kv("schema", "nampc-bench/2");
    j.kv("name", name_);
    j.key("notes").begin_object();
    for (const auto& [k, v] : notes_) j.kv(k, v);
    j.end_object();
    j.key("monitors").begin_object();
    j.kv("events", monitor_events_);
    j.kv("violations", monitor_violations_);
    j.end_object();
    j.key("sections").begin_array();
    for (const auto& [title, table] : sections_) {
      j.begin_object();
      j.kv("title", title);
      j.key("table");
      table.write_json(j);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    os << "\n";
  }

  /// False when the file cannot be opened or written (reported on stderr).
  [[nodiscard]] bool save() const {
    const char* dir = std::getenv("NAMPC_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir && *dir ? dir : ".") + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (out) write(out);
    if (!out.flush()) {
      std::cerr << "BENCH json: cannot write " << path << "\n";
      return false;
    }
    std::cout << "\n[wrote " << path << "]\n";
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, Table>> sections_;
  std::uint64_t monitor_events_ = 0;
  std::uint64_t monitor_violations_ = 0;
};

/// What the nampc_bench driver hands each table: the report it fills, the
/// tally its monitored simulations fold into, and the sweep job count. The
/// driver saves the report afterwards, if the table added any section.
struct RunContext {
  RunContext(std::string name, int jobs_)
      : report(std::move(name)), jobs(jobs_) {}

  /// Banner, text table and report section in one step.
  void section(const std::string& title, const Table& table) {
    banner(title);
    table.print();
    report.add(title, table);
  }

  BenchReport report;
  MonitorTally monitors;
  int jobs;
};

/// The nampc_bench tables (DESIGN.md experiment index), one function per
/// table file, each named after its report. The return value is the exit
/// code: non-zero means a broken bound or a failed gate.
int table_rs_schedule(RunContext& ctx);
int table_feasibility(RunContext& ctx);
int table_lowerbound(RunContext& ctx);
int table_primitives(RunContext& ctx);
int table_wss(RunContext& ctx);
int table_vss(RunContext& ctx);
int table_vts(RunContext& ctx);
int table_mpc_e2e(RunContext& ctx);
int table_ablation(RunContext& ctx);
int table_scaling(RunContext& ctx);
int table_transport(RunContext& ctx);
/// The CI smoke gates: pass/fail only, no report sections.
int scaling_smoke(RunContext& ctx);
int transport_smoke(RunContext& ctx);

/// Widest feasible (ts, ta) ladder with ta ~ ts/2: ts = (n-1)/3 keeps
/// n > 2ts + max(2ta, ts) = 3ts tight (n=64 -> (21,10), n=128 -> (42,21)).
inline ProtocolParams params_for(int n) {
  const int ts = (n - 1) / 3;
  return ProtocolParams{n, ts, ts / 2};
}

inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

inline std::string fixed2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

}  // namespace nampc::bench
