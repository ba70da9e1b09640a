// Deterministic cost-attribution profiler (the PR-8 observability layer).
//
// A MetricsRegistry is owned by every Simulation and is the single
// accounting path for run-level cost counters: every DES event, message,
// payload word and payload-pool action is attributed to the interned
// instance id that owns it (net/message.h), to the party that performed it,
// and — via the span_kind tags — to its primitive kind. The registry owns
// the run totals (util/metrics.h `Metrics`, read as Simulation::metrics())
// and the per-kind instance counts (kind_tags()); nothing else keeps them.
//
// Determinism contract: all state is derived from the DES event sequence
// (no wall clock, no pointers, no unordered containers), iteration orders
// are dense-id or sorted-map orders, and JSONL emission contains integers
// only — so a metrics dump is byte-identical across re-runs and across
// sweep-engine --jobs counts (submission-order merge, util/sweep.h).
//
// Three consumers sit on top:
//   * the virtual-time series sampler: snapshots cumulative totals and the
//     per-kind breakdown every Δvt of virtual time (set_sample_interval),
//     emitted as "sample" lines of the "nampc-metrics/1" JSONL schema;
//   * the event-valve flight recorder: a ring of the last N dispatched
//     events plus, on RunStatus::event_limit, the top-k instances by event
//     count and the pending-queue composition — the actionable record of
//     what a tripped 200M-event safety valve was actually doing;
//   * tools/nampc_prof: offline summary / --top / --series / --diff over
//     dumps, and the per-primitive "measured_cost" section of run reports
//     (schema nampc-run-report/4) cross-referenced against the paper's
//     complexity terms (docs/PAPER_MAP.md, "Measured-cost fields").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "net/time.h"
#include "util/metrics.h"

namespace nampc {
class Simulation;
enum class RunStatus;
}  // namespace nampc

namespace nampc::obs {

/// What one label cell cost. Used for per-instance rows (dimension:
/// interned instance id), per-kind aggregates, and series samples.
struct InstanceCost {
  std::uint64_t events = 0;    ///< dispatched DES events owned by the cell
  std::uint64_t timers = 0;    ///< subset of events: scheduled closures
  std::uint64_t messages = 0;  ///< point-to-point sends
  std::uint64_t words = 0;     ///< payload words across those sends
  std::uint64_t pool_hits = 0;    ///< send_all message reusing a buffer
  std::uint64_t pool_misses = 0;  ///< send_all payload buffer allocated
};

/// Per-party totals (dimension: the party that executed/sent).
struct PartyCost {
  std::uint64_t events = 0;    ///< events executed at this party
  std::uint64_t messages = 0;  ///< messages sent by this party
  std::uint64_t words = 0;
};

/// One virtual-time series point: cumulative totals as of strictly before
/// `vt` (events at exactly `vt` land in the next sample), plus the per-kind
/// cumulative breakdown indexed by kind id at sample time.
struct MetricsSample {
  Time vt = 0;
  std::uint64_t events = 0;
  std::uint64_t timers = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::vector<InstanceCost> kinds;
};

/// One dispatched event in the flight-recorder ring.
struct RingEvent {
  Time vt = 0;
  std::uint32_t instance = kNoInstance;
  std::int32_t party = -1;  ///< delivery: recipient; timer: scheduling party
  bool delivery = false;
  std::int32_t tag = 0;  ///< delivery: message type; timer: event klass
  std::uint32_t words = 0;
};

/// The flight ring in dispatch order (oldest first), read in place: a
/// per-step reader (perfbench's traced loop takes back() after every
/// event) costs no copy of the ring.
class RingView {
 public:
  RingView(const std::vector<RingEvent>& ring, std::size_t next,
           std::size_t fill)
      : ring_(ring), first_(fill < ring.size() ? 0 : next), size_(fill) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const RingEvent& operator[](std::size_t i) const {
    return ring_[(first_ + i) % ring_.size()];
  }
  [[nodiscard]] const RingEvent& back() const { return (*this)[size_ - 1]; }
  /// Copies the events out, oldest first (the flight record keeps them).
  operator std::vector<RingEvent>() const {
    std::vector<RingEvent> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  const std::vector<RingEvent>& ring_;
  std::size_t first_;
  std::size_t size_;
};

/// Snapshot taken when the event-limit safety valve trips: who generated
/// the events, what is still queued, and the final dispatches verbatim.
struct FlightRecord {
  Time tripped_at = 0;
  std::uint64_t max_events = 0;
  struct Top {
    std::uint32_t id = kNoInstance;
    std::string key;
    std::string kind;
    InstanceCost cost;
  };
  std::vector<Top> top;  ///< top instances by event count, descending
  std::uint64_t queue_depth = 0;
  std::map<int, std::uint64_t> queue_by_klass;
  /// Pending deliveries per primitive kind (sorted by kind name).
  std::vector<std::pair<std::string, std::uint64_t>> queue_by_kind;
  Time queue_horizon = 0;  ///< farthest pending event time
  std::vector<RingEvent> ring;  ///< oldest → newest
};

/// Pending-queue composition, computed by the Simulation at trip time (the
/// registry cannot walk the priority queue itself).
struct QueueStats {
  std::uint64_t depth = 0;
  std::map<int, std::uint64_t> by_klass;
  std::map<std::uint32_t, std::uint64_t> deliveries_by_instance;
  Time horizon = 0;
};

/// Dimensional metrics registry. One per Simulation, always attached; the
/// hot-path hooks below are plain array increments (grow-on-demand dense
/// indexing by interned instance id — no hashing, no string keys).
class MetricsRegistry {
 public:
  using MetricId = std::uint32_t;
  enum class InstrumentType { counter, gauge, histogram };

  /// Power-of-two histogram buckets: bucket i counts values v with
  /// bit_width(v) == i, i.e. bucket 0 is v == 0 and bucket i covers
  /// [2^(i-1), 2^i). 65 buckets always (uint64 range).
  static constexpr std::size_t kHistBuckets = 65;

  /// A registry for a run of `n` parties (sizes the party dimension).
  explicit MetricsRegistry(int n)
      : party_rows_(static_cast<std::size_t>(n < 0 ? 0 : n)) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ------------------------------------------------------- hot-path hooks
  // Called by the Simulation only; each is a handful of increments.

  /// An event left the queue and is about to execute.
  void on_dispatch(std::uint32_t instance, PartyId party, bool delivery,
                   std::int32_t tag, Time vt, std::uint64_t words) {
    totals_.events_processed++;
    InstanceCost& row = instance_row(instance);
    row.events++;
    const std::size_t k = kind_index(instance);
    kind_rows_[k].events++;
    if (!delivery) {
      row.timers++;
      kind_rows_[k].timers++;
      timers_total_++;
    }
    if (party >= 0 && static_cast<std::size_t>(party) < party_rows_.size()) {
      party_rows_[static_cast<std::size_t>(party)].events++;
    }
    if (!ring_.empty()) {
      ring_[ring_next_] = RingEvent{vt, instance, party, delivery, tag,
                                    static_cast<std::uint32_t>(words)};
      ring_next_ = (ring_next_ + 1) % ring_.size();
      if (ring_fill_ < ring_.size()) ring_fill_++;
    }
  }

  /// A message entered the network (Simulation::post_message).
  void on_send(std::uint32_t instance, PartyId from, std::uint64_t words) {
    totals_.messages_sent++;
    totals_.words_sent += words;
    InstanceCost& row = instance_row(instance);
    row.messages++;
    row.words += words;
    const std::size_t k = kind_index(instance);
    kind_rows_[k].messages++;
    kind_rows_[k].words += words;
    if (from >= 0 && static_cast<std::size_t>(from) < party_rows_.size()) {
      PartyCost& p = party_rows_[static_cast<std::size_t>(from)];
      p.messages++;
      p.words += words;
    }
    payload_hist_[bucket_of(words)]++;
  }

  /// A send_all message with a non-empty body reused the broadcast's
  /// shared buffer (hit) or was the one that allocated it (miss).
  void on_pool(std::uint32_t instance, bool hit) {
    InstanceCost& row = instance_row(instance);
    const std::size_t k = kind_index(instance);
    if (hit) {
      totals_.payload_pool_hits++;
      row.pool_hits++;
      kind_rows_[k].pool_hits++;
    } else {
      totals_.payload_pool_misses++;
      row.pool_misses++;
      kind_rows_[k].pool_misses++;
    }
  }

  /// The DES queue grew to `depth` in-flight events.
  void on_queue_depth(std::uint64_t depth) {
    if (depth > totals_.peak_queue_depth) totals_.peak_queue_depth = depth;
    queue_hist_[bucket_of(depth)]++;
  }

  /// Tags an instance with its primitive kind (ProtocolInstance::span_kind).
  /// A derived protocol re-tags its base (Vss over Wss): the latest tag
  /// wins for attribution — tags land in the constructor, before any event
  /// is dispatched to the instance. Each call also counts one party-copy
  /// under the kind (kind_tags): the run's only per-kind instance count.
  void tag_instance(std::uint32_t instance, std::string_view kind) {
    const std::size_t k = kind_id(kind);
    kind_tags_[k]++;
    const std::size_t idx = instance_index(instance);
    if (idx >= instance_kind_.size()) instance_kind_.resize(idx + 1, 0);
    instance_kind_[idx] = static_cast<std::uint16_t>(k);
  }

  /// Advances the sampler to the moment just before an event at `t` runs:
  /// emits one cumulative sample per Δvt boundary in (last, t]. A no-op
  /// (one branch) unless set_sample_interval enabled the series.
  void advance_time(Time t) {
    if (sample_dvt_ > 0 && t >= next_sample_) sample_up_to(t);
  }

  /// Closes the series at quiescence: one final sample on the first Δvt
  /// boundary past `now`, so the series always ends at the run totals.
  void finish(Time now);

  // --------------------------------------------- named generic instruments
  // For protocol-specific accounting beyond the built-in dimensions.
  // Counters may carry the instance dimension; gauges and histograms are
  // global (sparse per-instance cells live in a sorted map — cold path).

  MetricId counter(std::string_view name) {
    return instrument(name, InstrumentType::counter);
  }
  MetricId gauge(std::string_view name) {
    return instrument(name, InstrumentType::gauge);
  }
  MetricId histogram(std::string_view name) {
    return instrument(name, InstrumentType::histogram);
  }

  void add(MetricId id, std::uint64_t by = 1) {
    instruments_[id].value += by;
  }
  void add(MetricId id, std::uint32_t instance, std::uint64_t by) {
    Instrument& ins = instruments_[id];
    ins.value += by;
    ins.per_instance[instance] += by;
  }
  void gauge_set(MetricId id, std::uint64_t v) { instruments_[id].value = v; }
  void gauge_max(MetricId id, std::uint64_t v) {
    if (v > instruments_[id].value) instruments_[id].value = v;
  }
  void observe(MetricId id, std::uint64_t v) {
    Instrument& ins = instruments_[id];
    if (ins.buckets.empty()) ins.buckets.assign(kHistBuckets, 0);
    ins.buckets[bucket_of(v)]++;
    ins.value++;  // histogram value = observation count
  }

  // -------------------------------------------------------- configuration

  /// Enables the virtual-time series sampler (dvt <= 0 disables).
  void set_sample_interval(Time dvt) {
    sample_dvt_ = dvt;
    next_sample_ = dvt > 0 ? dvt : 0;
  }
  [[nodiscard]] Time sample_interval() const { return sample_dvt_; }

  /// Resizes the flight-recorder ring (0 disables; default 256 events).
  void set_flight_ring(std::size_t size) {
    ring_.assign(size, RingEvent{});
    ring_next_ = 0;
    ring_fill_ = 0;
  }

  /// Captures the flight record at an event-limit trip. `key_of` resolves
  /// interned instance ids to their key text (the Simulation's interner).
  void record_valve_trip(
      Time now, std::uint64_t max_events, const QueueStats& queue,
      const std::function<const std::string&(std::uint32_t)>& key_of);

  // -------------------------------------------------------------- queries

  /// Per-instance rows; index 0 is the unattributed cell (kNoInstance),
  /// index id+1 is interned instance `id`. May be shorter than the
  /// interner's count when trailing instances never cost anything.
  [[nodiscard]] const std::vector<InstanceCost>& instance_rows() const {
    return instance_rows_;
  }
  [[nodiscard]] const std::vector<PartyCost>& party_rows() const {
    return party_rows_;
  }
  /// Kind id for interned instance id (0 = untagged).
  [[nodiscard]] std::size_t kind_index(std::uint32_t instance) const {
    const std::size_t idx = instance_index(instance);
    return idx < instance_kind_.size() ? instance_kind_[idx] : 0;
  }
  [[nodiscard]] const std::vector<std::string>& kind_names() const {
    return kind_names_;
  }
  [[nodiscard]] const std::vector<InstanceCost>& kind_rows() const {
    return kind_rows_;
  }
  /// Party-copies tagged per kind id. Layered kinds count under every
  /// tag they carry: a Vss (which is-a Wss) counts under "wss" and "vss".
  [[nodiscard]] const std::vector<std::uint64_t>& kind_tags() const {
    return kind_tags_;
  }
  /// kind_tags() of the kind named `kind` (0 when never tagged).
  [[nodiscard]] std::uint64_t tagged_copies(std::string_view kind) const {
    const auto it = kind_ids_.find(kind);
    return it == kind_ids_.end() ? 0 : kind_tags_[it->second];
  }
  [[nodiscard]] const std::vector<MetricsSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint64_t dropped_samples() const {
    return dropped_samples_;
  }
  [[nodiscard]] const std::optional<FlightRecord>& flight() const {
    return flight_;
  }
  /// The flight ring in dispatch order (oldest first); empty when disabled.
  [[nodiscard]] RingView ring_in_order() const {
    return RingView(ring_, ring_next_, ring_fill_);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& queue_depth_hist() const {
    return queue_hist_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& payload_words_hist() const {
    return payload_hist_;
  }
  /// The run totals (Simulation::metrics()).
  [[nodiscard]] Metrics& totals() { return totals_; }
  [[nodiscard]] const Metrics& totals() const { return totals_; }
  /// Total timer (non-delivery) events dispatched.
  [[nodiscard]] std::uint64_t timers_total() const { return timers_total_; }

  struct Instrument {
    std::string name;
    InstrumentType type = InstrumentType::counter;
    std::uint64_t value = 0;
    std::vector<std::uint64_t> buckets;  // histograms only
    std::map<std::uint32_t, std::uint64_t> per_instance;
  };
  [[nodiscard]] const std::vector<Instrument>& instruments() const {
    return instruments_;
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }

 private:
  static constexpr std::size_t kDefaultRing = 256;
  static constexpr std::size_t kMaxSamples = 1u << 16;

  [[nodiscard]] static std::size_t instance_index(std::uint32_t instance) {
    return instance == kNoInstance ? 0
                                   : static_cast<std::size_t>(instance) + 1;
  }
  InstanceCost& instance_row(std::uint32_t instance) {
    const std::size_t idx = instance_index(instance);
    if (idx >= instance_rows_.size()) {
      instance_rows_.resize(idx + 1, InstanceCost{});
    }
    return instance_rows_[idx];
  }
  std::size_t kind_id(std::string_view kind);
  MetricId instrument(std::string_view name, InstrumentType type);
  void sample_up_to(Time t);

  Metrics totals_;
  std::uint64_t timers_total_ = 0;

  std::vector<InstanceCost> instance_rows_;  // [0] = unattributed
  std::vector<std::uint16_t> instance_kind_;
  std::vector<PartyCost> party_rows_;
  std::vector<std::string> kind_names_{""};  // kind id 0 = untagged
  std::map<std::string, std::size_t, std::less<>> kind_ids_;
  std::vector<InstanceCost> kind_rows_{InstanceCost{}};
  std::vector<std::uint64_t> kind_tags_{0};

  std::vector<std::uint64_t> queue_hist_ =
      std::vector<std::uint64_t>(kHistBuckets, 0);
  std::vector<std::uint64_t> payload_hist_ =
      std::vector<std::uint64_t>(kHistBuckets, 0);

  std::vector<Instrument> instruments_;
  std::map<std::string, MetricId, std::less<>> instrument_ids_;

  Time sample_dvt_ = 0;
  Time next_sample_ = 0;
  std::vector<MetricsSample> samples_;
  std::uint64_t dropped_samples_ = 0;

  std::vector<RingEvent> ring_ = std::vector<RingEvent>(kDefaultRing);
  std::size_t ring_next_ = 0;
  std::size_t ring_fill_ = 0;
  std::optional<FlightRecord> flight_;
};

/// The paper's per-primitive complexity term for a span kind, or nullptr.
/// Cross-referenced by docs/PAPER_MAP.md ("Measured-cost fields") and the
/// "measured_cost" section of run reports.
struct PaperCostTerm {
  const char* term;    ///< asymptotic cost in the paper's parameters
  const char* source;  ///< paper object the term comes from
};
[[nodiscard]] const PaperCostTerm* paper_cost_term(std::string_view kind);

/// Writes the full "nampc-metrics/1" JSONL dump for a finished (or valve-
/// tripped) simulation: header line, series samples, per-party / per-
/// instance / per-kind attribution rows, named instruments, histograms,
/// and the closing totals line. Byte-deterministic for a given run.
void write_metrics_jsonl(std::ostream& os, const Simulation& sim);

/// Writes the "nampc-flight/1" JSON flight record; returns false (writing
/// nothing) when the valve never tripped.
bool write_flight_record(std::ostream& os, const Simulation& sim);

/// Renders the human-readable flight-record summary appended to the
/// event-limit stderr dump (top instances + queue composition).
void render_flight_summary(std::ostream& os, const FlightRecord& record);

}  // namespace nampc::obs
