// Experiments E2 + E9 — the feasibility frontier of Theorem 1.1.
//
// Regenerates, as tables:
//  * the minimal n for each (ts, ta) under the paper's tight bound
//    n > 2·max(ts,ta) + max(2ta,ts), versus the prior bound n > 3ts + ta of
//    [Appan-Chandramouli-Choudhury PODC'22] — including the "parties saved"
//    column the abstract claims;
//  * the regime trichotomy (pure-async 4ta+1, mixed 2ts+2ta+1, sync 3ts+1);
//  * for a fixed n, the maximal tolerable ts per ta (the resilience
//    frontier a deployment actually reads off).
//
// The per-ts boundary-exactness checks are independent, so they run through
// the sweep engine (--jobs / NAMPC_JOBS); rendering stays on the main
// thread in ts order.
#include <iostream>

#include "bench_util.h"
#include "core/bounds.h"
#include "util/sweep.h"

using namespace nampc;

namespace {

const char* regime_name(ResiliencyRegime r) {
  switch (r) {
    case ResiliencyRegime::pure_async: return "n>4ta (async)";
    case ResiliencyRegime::mixed: return "n>2ts+2ta (NEW)";
    case ResiliencyRegime::sync_limited: return "n>3ts (sync)";
  }
  return "?";
}

/// Boundary exactness for every ta at one ts: minimal n is feasible and
/// n-1 is not. One sweep job per ts.
struct BoundaryRow {
  int ts = 0;
  int ta = 0;
  int n = 0;
  bool feasible_n = false;
  bool feasible_n_minus_1 = false;
  [[nodiscard]] bool exact() const { return feasible_n && !feasible_n_minus_1; }
};

std::vector<BoundaryRow> boundary_rows(int ts) {
  std::vector<BoundaryRow> rows;
  for (int ta = 0; ta <= ts; ++ta) {
    BoundaryRow r;
    r.ts = ts;
    r.ta = ta;
    r.n = min_parties(ts, ta);
    r.feasible_n = feasible(r.n, ts, ta);
    r.feasible_n_minus_1 = feasible(r.n - 1, ts, ta);
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

int bench::table_feasibility(RunContext& ctx) {
  std::cout << "E2/E9: feasibility frontier of Theorem 1.1 vs prior work.\n";

  bench::Table t({"ts", "ta", "regime", "min n (paper)", "min n (prior)",
                  "parties saved"});
  for (int ts = 1; ts <= 8; ++ts) {
    for (int ta = 0; ta <= ts; ++ta) {
      t.row(ts, ta, regime_name(regime(ts, ta)), min_parties(ts, ta),
            min_parties_prior(ts, ta),
            min_parties_prior(ts, ta) - min_parties(ts, ta));
    }
  }
  ctx.section("Minimal n per (ts, ta): this paper vs n > 3ts + ta [ACC'22]",
              t);

  bench::Table f({"n", "ta=0", "ta=1", "ta=2", "ta=3"});
  for (int n = 4; n <= 21; ++n) {
    auto cell = [n](int ta) {
      const int ts = max_ts(n, ta);
      return ts < ta ? std::string("-") : std::to_string(ts);
    };
    f.row(n, cell(0), cell(1), cell(2), cell(3));
  }
  ctx.section("Resilience frontier: max ts tolerable at fixed n", f);

  const std::vector<std::vector<BoundaryRow>> checked = sweep_run(
      ctx.jobs, 10,
      [](std::size_t i) { return boundary_rows(static_cast<int>(i) + 1); });
  bench::Table b({"ts", "ta", "n = min", "feasible(n)", "feasible(n-1)"});
  bool all_exact = true;
  for (const auto& rows : checked) {
    for (const BoundaryRow& r : rows) {
      all_exact = all_exact && r.exact();
      if (r.ta == 0 || r.ta == r.ts || 2 * r.ta == r.ts ||
          2 * r.ta == r.ts + 1) {
        b.row(r.ts, r.ta, r.n, r.feasible_n ? "yes" : "NO",
              r.feasible_n_minus_1 ? "YES(!)" : "no");
      }
    }
  }
  ctx.section("Boundary exactness check (n = min is feasible, n-1 is not)",
              b);
  ctx.report.note("all_boundaries_exact", all_exact ? "yes" : "no");
  std::cout << (all_exact ? "\nall boundaries exact.\n"
                          : "\nBOUNDARY VIOLATION FOUND\n");
  return all_exact ? 0 : 1;
}
