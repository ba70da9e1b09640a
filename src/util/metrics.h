// Run totals collected by the simulator and the protocol stack.
//
// Benchmarks and tests read these counters to report message/byte
// complexity. The struct is owned by the Simulation's MetricsRegistry
// (obs/metrics.h), which writes the network totals; protocol code bumps
// the protocol counters through Simulation::metrics(). Per-kind instance
// counts live in MetricsRegistry::kind_tags(), and the privacy ledger next
// to Simulation::audit_privacy.
#pragma once

#include <cstdint>

namespace nampc {

/// Mutable counters shared by one simulation run.
struct Metrics {
  std::uint64_t messages_sent = 0;       ///< point-to-point sends
  std::uint64_t words_sent = 0;          ///< total payload words
  std::uint64_t events_processed = 0;    ///< DES events executed
  std::uint64_t aba_rounds = 0;
  std::uint64_t wss_restarts = 0;
  std::uint64_t beaver_mults = 0;
  std::uint64_t rs_decodes = 0;

  // Allocation-behaviour counters for the scaling engine (BENCH_scaling):
  std::uint64_t payload_pool_hits = 0;   ///< send_all messages reusing a buffer
  std::uint64_t payload_pool_misses = 0; ///< send_all buffers allocated
  std::uint64_t peak_queue_depth = 0;    ///< max in-flight DES events
};

}  // namespace nampc
