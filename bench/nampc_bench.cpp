// nampc_bench — the one driver for the experiment tables (DESIGN.md
// experiment index) and the two CI smoke gates.
//
// Usage: nampc_bench <table> [--jobs N]
//
// Runs one table and prints it. If the table added report sections, the
// driver then writes BENCH_<table>.json into $NAMPC_BENCH_JSON_DIR (default:
// the current directory); the smoke gates add none, so they write nothing.
// The exit code is the table's own: non-zero means a broken bound
// (feasibility, lowerbound) or a failed gate (scaling_smoke,
// transport_smoke). An unknown or missing table name, or a BENCH json that
// cannot be written, exits 2.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "util/sweep.h"

namespace {

using nampc::bench::RunContext;

struct Entry {
  const char* name;
  int (*run)(RunContext&);
};

constexpr Entry kTables[] = {
    {"rs_schedule", &nampc::bench::table_rs_schedule},
    {"feasibility", &nampc::bench::table_feasibility},
    {"lowerbound", &nampc::bench::table_lowerbound},
    {"primitives", &nampc::bench::table_primitives},
    {"wss", &nampc::bench::table_wss},
    {"vss", &nampc::bench::table_vss},
    {"vts", &nampc::bench::table_vts},
    {"mpc_e2e", &nampc::bench::table_mpc_e2e},
    {"ablation", &nampc::bench::table_ablation},
    {"scaling", &nampc::bench::table_scaling},
    {"transport", &nampc::bench::table_transport},
    {"scaling_smoke", &nampc::bench::scaling_smoke},
    {"transport_smoke", &nampc::bench::transport_smoke},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  for (const Entry& e : kTables) {
    if (name != e.name) continue;
    RunContext ctx(name, nampc::sweep_cli_jobs(argc, argv));
    const int rc = e.run(ctx);
    if (!ctx.report.empty()) {
      ctx.report.set_monitors(ctx.monitors);
      if (!ctx.report.save()) return 2;
    }
    return rc;
  }
  std::cerr << "usage: nampc_bench <table> [--jobs N]\ntables:";
  for (const Entry& e : kTables) std::cerr << " " << e.name;
  std::cerr << "\n";
  return 2;
}
