#include "obs/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace cgra::obs {
namespace {

/// SplitMix64 step on explicit state (common/prng.hpp hides its state).
std::uint64_t mix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Nanoseconds trace_clock_ns() noexcept {
  // One process-wide epoch so spans from different objects (client,
  // server, service) land on a common axis in the merged export.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<Nanoseconds>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kEnqueue:
      return "enqueue";
    case FlightEventKind::kDequeue:
      return "dequeue";
    case FlightEventKind::kLease:
      return "lease";
    case FlightEventKind::kBatchAttach:
      return "batch-attach";
    case FlightEventKind::kChaosFire:
      return "chaos-fire";
    case FlightEventKind::kRetry:
      return "retry";
    case FlightEventKind::kDeadlineCheck:
      return "deadline-check";
    case FlightEventKind::kComplete:
      return "complete";
    case FlightEventKind::kAnomaly:
      return "anomaly";
  }
  return "unknown";
}

const char* anomaly_reason_name(AnomalyReason reason) {
  switch (reason) {
    case AnomalyReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case AnomalyReason::kCrashResume:
      return "crash-resume";
    case AnomalyReason::kError:
      return "error";
    case AnomalyReason::kSlowTail:
      return "slow-tail";
  }
  return "unknown";
}

FlightRing::FlightRing(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

std::vector<FlightEvent> FlightRing::snapshot() const {
  struct Keyed {
    std::uint64_t seq;
    FlightEvent ev;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(slots_.size());
  for (const Slot& s : slots_) {
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq == 0) continue;  // Empty or mid-overwrite.
    FlightEvent ev;
    ev.trace_id = s.trace_id.load(std::memory_order_relaxed);
    ev.t_ns = s.t_ns.load(std::memory_order_relaxed);
    const std::uint64_t packed = s.packed.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != seq) continue;  // Torn.
    ev.kind = static_cast<FlightEventKind>((packed >> 56) & 0xFF);
    ev.code = static_cast<std::uint16_t>((packed >> 40) & 0xFFFF);
    ev.arg = static_cast<std::uint32_t>(packed & 0xFFFFFFFFULL);
    keyed.push_back({seq, ev});
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const Keyed& a, const Keyed& b) { return a.seq < b.seq; });
  std::vector<FlightEvent> out;
  out.reserve(keyed.size());
  for (Keyed& k : keyed) out.push_back(k.ev);
  return out;
}

std::uint64_t FlightRing::recorded() const noexcept {
  return next_.load(std::memory_order_relaxed);
}

std::uint64_t FlightRing::dropped() const noexcept {
  const std::uint64_t total = recorded();
  return total > slots_.size() ? total - slots_.size() : 0;
}

Tracer::Tracer(TracerOptions opt)
    : opt_(opt), ring_(opt.ring_capacity), id_state_(opt.seed) {
  timeline_.set_track_name(kTraceTrackClient, "client");
  timeline_.set_track_name(kTraceTrackConnection, "server connection");
  timeline_.set_track_name(kTraceTrackQueue, "service queue");
  timeline_.set_track_name(kTraceTrackFusion, "epoch fusion");
  timeline_.set_track_name(kTraceTrackFabric, "fabric epoch");
  timeline_.set_track_name(kTraceTrackAnomaly, "flight recorder");
}

TraceContext Tracer::make_context() {
  std::lock_guard<std::mutex> lock(mu_);
  TraceContext ctx;
  do {
    ctx.trace_id = mix64(&id_state_);
  } while (ctx.trace_id == 0);
  ctx.parent_span_id = mix64(&id_state_);
  return ctx;
}

std::string Tracer::trace_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

void Tracer::span(int track, std::string name, const TraceContext& ctx,
                  Nanoseconds start_ns, Nanoseconds dur_ns,
                  std::vector<SpanArg> extra_args) {
  if (!ctx.valid()) return;
  std::vector<SpanArg> args;
  args.reserve(extra_args.size() + 2);
  args.push_back({"trace", trace_hex(ctx.trace_id), false});
  if (ctx.parent_span_id != 0) {
    args.push_back({"parent", trace_hex(ctx.parent_span_id), false});
  }
  for (SpanArg& a : extra_args) args.push_back(std::move(a));
  std::lock_guard<std::mutex> lock(mu_);
  timeline_.complete(std::move(name), "trace", track, start_ns, dur_ns,
                     std::move(args));
}

void Tracer::instant(int track, std::string name, const TraceContext& ctx,
                     Nanoseconds at_ns, std::vector<SpanArg> extra_args) {
  if (!ctx.valid()) return;
  std::vector<SpanArg> args;
  args.reserve(extra_args.size() + 1);
  args.push_back({"trace", trace_hex(ctx.trace_id), false});
  for (SpanArg& a : extra_args) args.push_back(std::move(a));
  std::lock_guard<std::mutex> lock(mu_);
  timeline_.instant(std::move(name), "trace", track, at_ns, std::move(args));
}

void Tracer::note_complete(const TraceContext& ctx, Nanoseconds dur_ns) {
  if (!ctx.valid()) return;
  bool slow = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_.push_back(dur_ns);
    while (window_.size() > opt_.tail_window) window_.pop_front();
    // Only flag once the reservoir has enough history to call a p99,
    // and only strictly-slower-than-p99 so uniform workloads stay quiet.
    if (window_.size() >= 64) {
      std::vector<Nanoseconds> sorted(window_.begin(), window_.end());
      const std::size_t idx = (sorted.size() * 99) / 100;
      std::nth_element(sorted.begin(),
                       sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                       sorted.end());
      slow = dur_ns > sorted[idx];
    }
  }
  event(ctx, FlightEventKind::kComplete, 0,
        static_cast<std::uint32_t>(dur_ns / 1e6));
  if (slow) {
    char detail[64];
    std::snprintf(detail, sizeof detail, "p99 exemplar: %.3f ms",
                  dur_ns / 1e6);
    note_anomaly(ctx, AnomalyReason::kSlowTail, detail);
  }
}

void Tracer::note_anomaly(const TraceContext& ctx, AnomalyReason reason,
                          std::string detail) {
  if (!ctx.valid()) return;
  event(ctx, FlightEventKind::kAnomaly,
        static_cast<std::uint16_t>(reason), 0);
  AnomalyRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.reason = reason;
  rec.t_ns = static_cast<std::uint64_t>(trace_clock_ns());
  rec.detail = std::move(detail);
  // Snapshot outside the lock (the ring is lock-free); keep this trace's
  // events plus any chaos firings that landed in the same window.
  std::vector<FlightEvent> all = ring_.snapshot();
  for (const FlightEvent& ev : all) {
    if (ev.trace_id == ctx.trace_id ||
        ev.kind == FlightEventKind::kChaosFire) {
      rec.events.push_back(ev);
    }
  }
  constexpr std::size_t kMaxDumpEvents = 64;
  if (rec.events.size() > kMaxDumpEvents) {
    rec.events.erase(rec.events.begin(),
                     rec.events.end() - kMaxDumpEvents);
  }
  std::lock_guard<std::mutex> lock(mu_);
  annotate_anomaly_locked(rec);
  anomalies_.push_back(std::move(rec));
  while (anomalies_.size() > opt_.max_anomalies) anomalies_.pop_front();
}

void Tracer::annotate_anomaly_locked(const AnomalyRecord& rec) {
  std::vector<SpanArg> args;
  args.push_back({"trace", trace_hex(rec.trace_id), false});
  args.push_back({"detail", rec.detail, false});
  args.push_back({"events", std::to_string(rec.events.size()), true});
  timeline_.instant(std::string("anomaly: ") + anomaly_reason_name(rec.reason),
                    "flight", kTraceTrackAnomaly,
                    static_cast<Nanoseconds>(rec.t_ns), std::move(args));
  for (const FlightEvent& ev : rec.events) {
    std::vector<SpanArg> ev_args;
    ev_args.push_back({"trace", trace_hex(ev.trace_id), false});
    ev_args.push_back({"code", std::to_string(ev.code), true});
    ev_args.push_back({"arg", std::to_string(ev.arg), true});
    timeline_.instant(flight_event_kind_name(ev.kind), "flight",
                      kTraceTrackAnomaly, static_cast<Nanoseconds>(ev.t_ns),
                      std::move(ev_args));
  }
}

std::vector<AnomalyRecord> Tracer::anomalies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<AnomalyRecord>(anomalies_.begin(), anomalies_.end());
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_.spans().size();
}

std::string Tracer::to_chrome_json(const std::string& process_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_.to_chrome_json(process_name);
}

void Tracer::merge_spans(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans) {
    if (s.instant) {
      timeline_.instant(s.name, s.category, s.track, s.start_ns, s.args);
    } else {
      timeline_.complete(s.name, s.category, s.track, s.start_ns, s.dur_ns,
                         s.args);
    }
  }
}

}  // namespace cgra::obs
