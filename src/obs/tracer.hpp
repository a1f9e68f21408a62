// Request-scoped wire tracing and an always-on flight recorder.
//
// A TraceContext is a 128-bit client-generated identity (trace id +
// parent span id) that rides protocol v3 job payloads end to end.  Every
// layer that touches the request — client call, server connection,
// service queue wait, epoch fusion, fabric epoch — records a host-clock
// span tagged with the trace id on its own track of a shared Tracer, so
// one Chrome/Perfetto export shows the request crossing the whole stack.
// These tracks are host time (trace_clock_ns), deliberately separate
// from the simulated-clock tile tracks in fabric timelines.
//
// The flight recorder is a fixed-size lock-free ring of compact events
// (enqueue, lease, batch-attach, chaos fire, retry, deadline check):
// ~one atomic RMW per event on the hot path.  When a job ends
// abnormally (deadline exceeded, crash-resume, error) or lands in
// the slowest-p99 reservoir, the ring is snapshotted into an
// AnomalyRecord and annotated into the trace — tail-latency exemplars for free.  docs/OBSERVABILITY.md has
// the Perfetto walkthrough.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "obs/span.hpp"

namespace cgra::obs {

/// Host-clock nanoseconds since a process-wide epoch (first use).  All
/// layers stamp trace spans with this clock so merged exports line up.
[[nodiscard]] Nanoseconds trace_clock_ns() noexcept;

/// Propagated 128-bit trace identity.  trace_id == 0 means "untraced";
/// such requests cost one branch per instrumentation point.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

// Track ("tid") assignments inside a Tracer's timeline.  Distinct from
// the fabric timeline tracks (span.hpp): a Tracer owns its own
// SpanTimeline, so the numbering spaces never collide.
inline constexpr int kTraceTrackClient = 0;      ///< Client call spans.
inline constexpr int kTraceTrackConnection = 1;  ///< Server connection.
inline constexpr int kTraceTrackQueue = 2;       ///< Service queue wait.
inline constexpr int kTraceTrackFusion = 3;      ///< Epoch-fusion batches.
inline constexpr int kTraceTrackFabric = 4;      ///< Fabric epoch compute.
inline constexpr int kTraceTrackAnomaly = 5;     ///< Flight-recorder dumps.

/// Compact event kinds recorded by the flight ring.
enum class FlightEventKind : std::uint8_t {
  kEnqueue = 0,        ///< Job admitted to a queue (arg = depth).
  kDequeue = 1,        ///< Job claimed by a worker.
  kLease = 2,          ///< Fabric lease acquired (code = rows<<8|cols).
  kBatchAttach = 3,    ///< Job fused into a batch (arg = batch size).
  kChaosFire = 4,      ///< Chaos rule fired (code = hook, arg = action).
  kRetry = 5,          ///< Retry / re-lease / requeue (arg = attempt).
  kDeadlineCheck = 6,  ///< Deadline evaluated (code: 0 ok, 1 expired).
  kComplete = 7,       ///< Job finished (code = StatusCode).
  kAnomaly = 8,        ///< Anomaly noted (code = AnomalyReason).
};

[[nodiscard]] const char* flight_event_kind_name(FlightEventKind kind);

/// One decoded flight-recorder event.
struct FlightEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t t_ns = 0;  ///< trace_clock_ns at record time.
  FlightEventKind kind = FlightEventKind::kEnqueue;
  std::uint16_t code = 0;
  std::uint32_t arg = 0;
};

/// Why a job's flight events were dumped.
enum class AnomalyReason : std::uint8_t {
  kDeadlineExceeded = 0,
  kCrashResume = 1,
  // 2 was the client circuit breaker's; the values are kept stable.
  kError = 3,
  kSlowTail = 4,  ///< Landed in the slowest-p99 reservoir.
};

[[nodiscard]] const char* anomaly_reason_name(AnomalyReason reason);

/// One dumped anomaly: the reason plus the ring events that mention the
/// trace (and any chaos firings in the window), oldest first.
struct AnomalyRecord {
  std::uint64_t trace_id = 0;
  AnomalyReason reason = AnomalyReason::kError;
  std::uint64_t t_ns = 0;
  std::string detail;
  std::vector<FlightEvent> events;
};

/// Fixed-size lock-free ring of flight events.  Writers pay one relaxed
/// fetch_add plus plain (relaxed) field stores; a per-slot sequence word
/// lets snapshot() discard slots that were mid-overwrite, so concurrent
/// readers never see torn events.
class FlightRing {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit FlightRing(std::size_t capacity = 1024);

  void record(std::uint64_t trace_id, FlightEventKind kind, std::uint16_t code,
              std::uint32_t arg, Nanoseconds t_ns) noexcept {
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[i & mask_];
    s.seq.store(0, std::memory_order_release);  // mark in-flight
    s.trace_id.store(trace_id, std::memory_order_relaxed);
    s.t_ns.store(t_ns <= 0.0 ? 0 : static_cast<std::uint64_t>(t_ns),
                 std::memory_order_relaxed);
    s.packed.store((static_cast<std::uint64_t>(kind) << 56) |
                       (static_cast<std::uint64_t>(code) << 40) |
                       static_cast<std::uint64_t>(arg),
                   std::memory_order_relaxed);
    s.seq.store(i + 1, std::memory_order_release);
  }

  /// Committed events still resident, oldest first.  Slots being
  /// overwritten during the scan are skipped, not mis-read.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Total events ever recorded / overwritten before being snapshotted.
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 = empty/in-flight, else i+1.
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> packed{0};  ///< kind<<56 | code<<40 | arg.
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> next_{0};
};

struct TracerOptions {
  std::size_t ring_capacity = 1024;  ///< Flight-ring slots.
  std::size_t max_anomalies = 32;    ///< Retained AnomalyRecords (FIFO).
  std::size_t tail_window = 256;     ///< Completions in the p99 reservoir.
  std::uint64_t seed = 0x7261636572ULL;  ///< For make_context ids.
};

/// Thread-safe owner of one trace timeline + flight ring.  Shared by
/// Server/Service/Client instrumentation via raw pointer (the owner —
/// e.g. serve_demo or a test rig — must outlive them).
class Tracer {
 public:
  explicit Tracer(TracerOptions opt = {});

  /// New client-generated trace identity (deterministic per seed).
  [[nodiscard]] TraceContext make_context();

  /// Record a completed host-clock span tagged with the trace id.
  void span(int track, std::string name, const TraceContext& ctx,
            Nanoseconds start_ns, Nanoseconds dur_ns,
            std::vector<SpanArg> extra_args = {});

  /// Record an instant marker tagged with the trace id.
  void instant(int track, std::string name, const TraceContext& ctx,
               Nanoseconds at_ns, std::vector<SpanArg> extra_args = {});

  /// Hot path: one flight-ring event.
  void event(const TraceContext& ctx, FlightEventKind kind,
             std::uint16_t code = 0, std::uint32_t arg = 0) noexcept {
    ring_.record(ctx.trace_id, kind, code, arg, trace_clock_ns());
  }

  /// Feed the slowest-p99 reservoir; a completion slower than the
  /// current p99 of the window dumps the ring as a kSlowTail anomaly.
  void note_complete(const TraceContext& ctx, Nanoseconds dur_ns);

  /// Dump the flight ring for this trace as an AnomalyRecord and
  /// annotate the anomaly track with the reconstructed event sequence.
  void note_anomaly(const TraceContext& ctx, AnomalyReason reason,
                    std::string detail);

  // --- readout ---

  [[nodiscard]] std::vector<AnomalyRecord> anomalies() const;
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return ring_.recorded();
  }
  [[nodiscard]] std::uint64_t events_dropped() const noexcept {
    return ring_.dropped();
  }

  /// Chrome trace-event JSON of every span recorded (and merged) so far.
  [[nodiscard]] std::string to_chrome_json(
      const std::string& process_name = "cgra.trace") const;

  /// Append spans parsed from another tracer's export (trace merging:
  /// the client pulls the server dump and grafts it into its timeline).
  void merge_spans(const std::vector<Span>& spans);

  /// Lower-case hex (16 digits) of a trace id — the span "trace" arg.
  [[nodiscard]] static std::string trace_hex(std::uint64_t id);

 private:
  void annotate_anomaly_locked(const AnomalyRecord& rec);

  TracerOptions opt_;
  FlightRing ring_;
  mutable std::mutex mu_;
  SpanTimeline timeline_;
  std::deque<AnomalyRecord> anomalies_;
  std::deque<Nanoseconds> window_;  ///< Recent completion durations.
  std::uint64_t id_state_;          ///< SplitMix64 state for contexts.
};

}  // namespace cgra::obs
