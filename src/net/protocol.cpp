#include "net/protocol.hpp"

#include <algorithm>
#include <concepts>
#include <cstdarg>
#include <cstdio>
#include <type_traits>
#include <utility>

namespace cgra::net {

namespace {

// --- primitive writer / reader ------------------------------------------
//
// Writer and Reader share one method set, so each payload's field list is
// written once, as a template over either (the `io` functions below).
// Writer takes values and Reader takes references; a payload passed to a
// Writer is deduced `const`.  Every bound lives here: Reader rejects an
// element count, string or blob past its cap, and Writer clamps to the
// same cap, so a frame the encoder writes always decodes.

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Truncated to kMaxStringBytes.
  void str(std::string_view s) {
    s = s.substr(0, kMaxStringBytes);
    u32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  /// Truncated to `max` bytes.
  void blob(const std::vector<std::uint8_t>& b, std::uint32_t max) {
    const std::uint32_t n = count(b.size(), max);
    out_->insert(out_->end(), b.begin(), b.begin() + n);
  }
  /// Writes min(n, max) and returns it.
  std::uint32_t count(std::size_t n, std::uint32_t max) {
    const auto clamped =
        static_cast<std::uint32_t>(std::min<std::size_t>(n, max));
    u32(clamped);
    return clamped;
  }
  template <class E>
  void enumeration(E e, E /*max_value*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  /// A count, then the first min(size, max) elements.
  template <class V>
  void list(const V& v, std::uint32_t max, const char* /*what*/) {
    const std::uint32_t n = count(v.size(), max);
    for (std::uint32_t i = 0; i < n; ++i) io(*this, v[i]);
  }

 private:
  std::vector<std::uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return status_.ok(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

  void u8(std::uint8_t& v) { v = static_cast<std::uint8_t>(le<1>("u8")); }
  void u16(std::uint16_t& v) {
    v = static_cast<std::uint16_t>(le<2>("u16"));
  }
  void u32(std::uint32_t& v) { v = static_cast<std::uint32_t>(le<4>("u32")); }
  void u64(std::uint64_t& v) { v = le<8>("u64"); }
  void i32(std::int32_t& v) { v = static_cast<std::int32_t>(le<4>("i32")); }
  void i64(std::int64_t& v) { v = static_cast<std::int64_t>(le<8>("i64")); }
  void f64(double& v) {
    const std::uint64_t bits = le<8>("f64");
    std::memcpy(&v, &bits, sizeof v);
  }
  void boolean(bool& v) { v = le<1>("bool") != 0; }
  void str(std::string& s) {
    const auto body = sized(kMaxStringBytes, "string");
    s.assign(body.begin(), body.end());
  }
  void blob(std::vector<std::uint8_t>& b, std::uint32_t max) {
    const auto body = sized(max, "blob");
    b.assign(body.begin(), body.end());
  }
  /// Element count with an explicit cap; 0 on any violation.
  std::uint32_t count(std::uint32_t max, const char* what) {
    std::uint32_t n = 0;
    u32(n);
    if (n > max) {
      fail("%s count %u exceeds the bound %u", what, n, max);
      return 0;
    }
    return n;
  }
  /// One byte naming a value of `E` in [0, max_value].  An error frame
  /// never carries kOk, so StatusCode also rejects 0.
  template <class E>
  void enumeration(E& e, E max_value, const char* what) {
    std::uint8_t raw = 0;
    u8(raw);
    if (!ok()) return;
    if (raw > static_cast<std::uint8_t>(max_value) ||
        (std::is_same_v<E, StatusCode> && raw == 0)) {
      fail("%s %u", what, raw);
      return;
    }
    e = static_cast<E>(raw);
  }
  /// A count of at most `max`, then that many elements.
  template <class V>
  void list(V& v, std::uint32_t max, const char* what) {
    const std::uint32_t n = count(max, what);
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      io(*this, v.emplace_back());
    }
  }

  [[gnu::format(printf, 2, 3)]] void fail(const char* fmt, ...);

 private:
  bool need(std::size_t n, const char* what) {
    if (!status_.ok()) return false;
    if (bytes_.size() - pos_ < n) {
      status_ = Status::errorf("truncated payload reading %s", what);
      return false;
    }
    return true;
  }
  /// A u32 length of at most `max`, then that many bytes.
  std::span<const std::uint8_t> sized(std::uint32_t max, const char* what) {
    std::uint32_t n = 0;
    u32(n);
    if (!ok()) return {};
    if (n > max) {
      fail("%s length %u exceeds the %u-byte bound", what, n, max);
      return {};
    }
    if (!need(n, what)) return {};
    pos_ += n;
    return bytes_.subspan(pos_ - n, n);
  }
  /// Little-endian unsigned of N bytes; 0 once the payload is short.
  template <std::size_t N>
  std::uint64_t le(const char* what) {
    if (!need(N, what)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += N;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  Status status_;
};

void Reader::fail(const char* fmt, ...) {
  if (!status_.ok()) return;
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  status_ = Status::error(buf);
}

/// Finish a frame: fill in the header for `type` around the payload that
/// was written after kHeaderSize placeholder bytes.
std::vector<std::uint8_t> seal(MsgType type, std::vector<std::uint8_t> buf) {
  FrameHeader header;
  header.type = type;
  header.payload_len = static_cast<std::uint32_t>(buf.size() - kHeaderSize);
  encode_header(header, buf.data());
  return buf;
}

std::vector<std::uint8_t> begin_frame() {
  return std::vector<std::uint8_t>(kHeaderSize, 0);
}

// --- payload field lists -------------------------------------------------
//
// One `io` per payload: `Io` is Writer or Reader, and `T` is the payload
// type, const when writing.

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// JPEG blocks and quantisation tables alike.
template <class Io, Is<std::array<int, 64>> T>
void io(Io& s, T& values) {
  for (auto& v : values) s.i32(v);
}

template <class Io, Is<fft::Cplx> T>
void io(Io& s, T& c) {
  // The standard lets a std::complex<double> be accessed as double[2]
  // {re, im} through exactly this reinterpret_cast.
  using Parts = std::conditional_t<std::is_const_v<T>, const double[2],
                                   double[2]>;
  auto& parts = reinterpret_cast<Parts&>(c);
  s.f64(parts[0]);
  s.f64(parts[1]);
}

template <class Io, Is<std::vector<fft::Cplx>> T>
void io(Io& s, T& samples) {
  s.list(samples, kMaxFftPoints, "complex sample");
}

template <class Io, Is<faults::FaultEvent> T>
void io(Io& s, T& e) {
  s.enumeration(e.action, faults::FaultAction::kKillTile,
                "unknown fault action");
  s.i32(e.tile);
  s.i64(e.cycle);
  s.i32(e.addr);
  s.i32(e.bit);
  s.i32(e.count);
}

template <class Io, Is<faults::FaultPlan> T>
void io(Io& s, T& plan) {
  s.u64(plan.seed);
  s.list(plan.events, kMaxFaultEvents, "fault event");
}

template <class Io, Is<mapping::CostParams> T>
void io(Io& s, T& p) {
  s.f64(p.icap.bytes_per_sec);
  s.i32(p.imem_words);
  s.i32(p.dmem_words);
  s.boolean(p.allow_pinning);
}

template <class Io, Is<faults::RecoveryPolicy> T>
void io(Io& s, T& p) {
  s.boolean(p.verify_readback);
  s.f64(p.verify_cost_factor);
  s.i32(p.max_icap_retries);
  s.f64(p.icap_retry_backoff_ns);
  s.f64(p.icap_backoff_factor);
  s.i32(p.max_retries_per_checkpoint);
  s.boolean(p.scrub_imem);
  s.boolean(p.allow_rebalance);
  s.i32(p.max_rebalances);
  s.enumeration(p.rebalance_algo, mapping::RebalanceAlgorithm::kOpt,
                "unknown rebalance algorithm");
  io(s, p.cost_params);
  s.f64(p.watchdog.margin);
  s.i64(p.watchdog.min_budget_cycles);
}

// A ProcessNetwork is built through add_process/add_edge, which validate,
// so it keeps a hand-written pair.
void io(Writer& w, const procnet::ProcessNetwork& net) {
  const std::uint32_t procs = w.count(net.processes().size(), kMaxProcesses);
  for (std::uint32_t i = 0; i < procs; ++i) {
    const procnet::Process& p = net.processes()[i];
    w.str(p.name);
    w.i32(p.insts);
    w.i32(p.data1);
    w.i32(p.data2);
    w.i32(p.data3);
    w.i64(p.runtime_cycles);
    w.i32(p.invocations_per_item);
    w.boolean(p.replicable);
  }
  const std::uint32_t edges = w.count(net.edges().size(), kMaxEdges);
  for (std::uint32_t i = 0; i < edges; ++i) {
    const procnet::Edge& e = net.edges()[i];
    w.i32(e.from);
    w.i32(e.to);
    w.i32(e.words);
  }
}

void io(Reader& r, procnet::ProcessNetwork& net) {
  net = procnet::ProcessNetwork{};
  const std::uint32_t procs = r.count(kMaxProcesses, "process");
  for (std::uint32_t i = 0; i < procs && r.ok(); ++i) {
    procnet::Process p;
    r.str(p.name);
    r.i32(p.insts);
    r.i32(p.data1);
    r.i32(p.data2);
    r.i32(p.data3);
    r.i64(p.runtime_cycles);
    r.i32(p.invocations_per_item);
    r.boolean(p.replicable);
    if (r.ok()) net.add_process(std::move(p));
  }
  const std::uint32_t edges = r.count(kMaxEdges, "edge");
  for (std::uint32_t i = 0; i < edges && r.ok(); ++i) {
    int from = 0;
    int to = 0;
    int words = 0;
    r.i32(from);
    r.i32(to);
    r.i32(words);
    if (r.ok() && !net.add_edge(from, to, words)) {
      r.fail("invalid edge %d -> %d", from, to);
    }
  }
}

template <class Io, Is<JobFrameOptions> T>
void io(Io& s, T& o) {
  s.u32(o.deadline_ms);
  s.u64(o.idempotency_id);
  s.u64(o.trace.trace_id);
  s.u64(o.trace.parent_span_id);
}

template <class Io, Is<service::JpegBlockRequest> T>
void io(Io& s, T& r) {
  io(s, r.raw);
  io(s, r.quant);
  s.i32(r.rows);
  s.i32(r.cols);
  io(s, r.plan);
  io(s, r.policy);
}

template <class Io, Is<service::JpegImageRequest> T>
void io(Io& s, T& r) {
  s.i32(r.quality);
  s.i32(r.image.width);
  s.i32(r.image.height);
  s.blob(r.image.pixels, kMaxPayload / 2);
}

template <class Io, Is<service::FftRequest> T>
void io(Io& s, T& r) {
  s.i32(r.n);
  s.i32(r.m);
  s.i32(r.cols);
  io(s, r.input);
}

template <class Io, Is<service::DseSweepRequest> T>
void io(Io& s, T& r) {
  s.i32(r.max_tiles);
  s.enumeration(r.algorithm, mapping::RebalanceAlgorithm::kOpt,
                "unknown rebalance algorithm");
  io(s, r.params);
  io(s, r.net);
}

template <class Io, Is<service::JpegBlockJobResult> T>
void io(Io& s, T& p) {
  io(s, p.zigzagged);
  s.i64(p.cycles);
  s.f64(p.reconfig_ns);
  s.boolean(p.recovered);
}

template <class Io, Is<service::JpegImageJobResult> T>
void io(Io& s, T& p) {
  s.i64(p.fabric_cycles);
  s.blob(p.jfif, kMaxPayload / 2);
}

template <class Io, Is<service::FftJobResult> T>
void io(Io& s, T& p) {
  s.i32(p.epochs);
  s.f64(p.timeline.epoch_compute_ns);
  s.f64(p.timeline.reconfig_ns);
  io(s, p.output);
}

template <class Io, Is<DseWirePoint> T>
void io(Io& s, T& pt) {
  s.i32(pt.tiles);
  s.f64(pt.ii_ns);
  s.f64(pt.items_per_sec);
  s.f64(pt.avg_utilization);
  s.boolean(pt.needs_reconfig);
}

template <class Io, Is<std::vector<DseWirePoint>> T>
void io(Io& s, T& points) {
  s.list(points, kMaxSweepPoints, "sweep point");
}

/// The wire summary of a sweep; the Binding stays server-side.
void io(Writer& w, const service::DseSweepJobResult& p) {
  std::vector<DseWirePoint> points;
  for (const auto& pt : p.points) {
    points.push_back({pt.tiles, pt.eval.ii_ns, pt.eval.items_per_sec,
                      pt.eval.avg_utilization, pt.eval.needs_reconfig});
  }
  io(w, points);
}

template <class Io, Is<obs::MetricSample> T>
void io(Io& s, T& m) {
  s.str(m.name);
  s.boolean(m.is_counter);
  s.f64(m.value);
}

template <class Io, Is<std::vector<obs::MetricSample>> T>
void io(Io& s, T& samples) {
  s.list(samples, kMaxStatsSamples, "stats sample");
}

template <class Io, Is<TraceDumpInfo> T>
void io(Io& s, T& d) {
  s.u32(d.anomalies);
  s.u32(d.spans);
  s.u64(d.events_recorded);
  s.u64(d.events_dropped);
  s.blob(d.trace_json, kMaxTraceBytes);
}

/// kCancel carries the target id; kCancelResult adds whether it was
/// cancelled.
template <class Io, class Id>
void cancel_io(Io& s, Id& target) {
  s.u64(target);
}

template <class Io, class Id, class Flag>
void cancel_io(Io& s, Id& target, Flag& cancelled) {
  cancel_io(s, target);
  s.boolean(cancelled);
}

template <class Io, class Code, class Text>
void error_io(Io& s, Code& code, Text& message) {
  s.enumeration(code, StatusCode::kUnknownOutcome,
                "invalid error status code");
  s.str(message);
}

Status finish(const Reader& r) {
  if (!r.ok()) return r.status();
  if (!r.exhausted()) {
    return Status::error("trailing bytes after payload");
  }
  return Status();
}

/// A frame of `type` whose payload is the request id, then whatever
/// `fields` writes.
template <class Fields>
std::vector<std::uint8_t> make_frame(MsgType type, std::uint64_t request_id,
                                     Fields&& fields) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  fields(w);
  return seal(type, std::move(buf));
}

std::vector<std::uint8_t> control_frame(MsgType type,
                                        std::uint64_t request_id) {
  return make_frame(type, request_id, [](Writer&) {});
}

/// The typed reply frame carrying `result`'s payload, which must be a `P`.
template <class P>
Status reply_frame(MsgType type, std::uint64_t request_id,
                   const service::JobResult& result,
                   std::vector<std::uint8_t>* out) {
  const auto* p = std::get_if<P>(&result.payload);
  if (p == nullptr) return Status::error("payload/type mismatch");
  *out = make_frame(type, request_id, [&](Writer& w) { io(w, *p); });
  return Status();
}

}  // namespace

// --- header --------------------------------------------------------------

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kJpegBlock: return "jpeg.block";
    case MsgType::kJpegImage: return "jpeg.image";
    case MsgType::kFft: return "fft";
    case MsgType::kDseSweep: return "dse.sweep";
    case MsgType::kStats: return "stats";
    case MsgType::kCancel: return "cancel";
    case MsgType::kTraceDump: return "trace.dump";
    case MsgType::kPong: return "pong";
    case MsgType::kJpegBlockResult: return "jpeg.block.result";
    case MsgType::kJpegImageResult: return "jpeg.image.result";
    case MsgType::kFftResult: return "fft.result";
    case MsgType::kDseSweepResult: return "dse.sweep.result";
    case MsgType::kStatsResult: return "stats.result";
    case MsgType::kCancelResult: return "cancel.result";
    case MsgType::kError: return "error";
    case MsgType::kTraceDumpResult: return "trace.dump.result";
  }
  return "?";
}

bool msg_type_is_request(MsgType type) noexcept {
  switch (type) {
    case MsgType::kPing:
    case MsgType::kJpegBlock:
    case MsgType::kJpegImage:
    case MsgType::kFft:
    case MsgType::kDseSweep:
    case MsgType::kStats:
    case MsgType::kCancel:
    case MsgType::kTraceDump:
      return true;
    default:
      return false;
  }
}

bool msg_type_is_job(MsgType type) noexcept {
  switch (type) {
    case MsgType::kJpegBlock:
    case MsgType::kJpegImage:
    case MsgType::kFft:
    case MsgType::kDseSweep:
      return true;
    default:
      return false;
  }
}

void encode_header(const FrameHeader& header, std::uint8_t out[kHeaderSize]) {
  const std::uint32_t magic = kMagic;
  std::memcpy(out, &magic, 4);  // little-endian on every supported target
  out[4] = kVersion;
  out[5] = static_cast<std::uint8_t>(header.type);
  out[6] = 0;
  out[7] = 0;
  const std::uint32_t len = header.payload_len;
  out[8] = static_cast<std::uint8_t>(len);
  out[9] = static_cast<std::uint8_t>(len >> 8);
  out[10] = static_cast<std::uint8_t>(len >> 16);
  out[11] = static_cast<std::uint8_t>(len >> 24);
}

Status decode_header(std::span<const std::uint8_t> bytes, FrameHeader* out) {
  if (bytes.size() < kHeaderSize) {
    return Status::errorf("short frame header: %zu of %zu bytes",
                          bytes.size(), kHeaderSize);
  }
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kMagic) {
    return Status::errorf("bad frame magic 0x%08x", magic);
  }
  if (bytes[4] != kVersion) {
    return Status::errorf("unsupported protocol version %u (speaking %u)",
                          bytes[4], kVersion);
  }
  const std::uint8_t raw_type = bytes[5];
  const auto type = static_cast<MsgType>(raw_type);
  if (msg_type_name(type) == std::string_view("?")) {
    return Status::errorf("unknown message type %u", raw_type);
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    return Status::error("nonzero reserved header bytes");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(bytes[8]) |
                            (static_cast<std::uint32_t>(bytes[9]) << 8) |
                            (static_cast<std::uint32_t>(bytes[10]) << 16) |
                            (static_cast<std::uint32_t>(bytes[11]) << 24);
  if (len > kMaxPayload) {
    return Status::errorf("payload length %u exceeds the %u-byte bound", len,
                          kMaxPayload);
  }
  out->type = type;
  out->payload_len = len;
  return Status();
}

// --- control-frame encoders ----------------------------------------------

std::vector<std::uint8_t> encode_ping(std::uint64_t request_id) {
  return control_frame(MsgType::kPing, request_id);
}

std::vector<std::uint8_t> encode_stats(std::uint64_t request_id) {
  return control_frame(MsgType::kStats, request_id);
}

std::vector<std::uint8_t> encode_trace_dump(std::uint64_t request_id) {
  return control_frame(MsgType::kTraceDump, request_id);
}

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id) {
  return control_frame(MsgType::kPong, request_id);
}

std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id,
                                        std::uint64_t target_id) {
  return make_frame(MsgType::kCancel, request_id,
                    [&](Writer& w) { cancel_io(w, target_id); });
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       std::string_view message,
                                       StatusCode code) {
  const StatusCode wire = code == StatusCode::kOk ? StatusCode::kError : code;
  return make_frame(MsgType::kError, request_id,
                    [&](Writer& w) { error_io(w, wire, message); });
}

std::vector<std::uint8_t> encode_cancel_result(std::uint64_t request_id,
                                               std::uint64_t target_id,
                                               bool cancelled) {
  return make_frame(MsgType::kCancelResult, request_id,
                    [&](Writer& w) { cancel_io(w, target_id, cancelled); });
}

std::vector<std::uint8_t> encode_stats_result(
    std::uint64_t request_id, const std::vector<obs::MetricSample>& samples) {
  return make_frame(MsgType::kStatsResult, request_id,
                    [&](Writer& w) { io(w, samples); });
}

std::vector<std::uint8_t> encode_trace_dump_result(std::uint64_t request_id,
                                                   const TraceDumpInfo& info) {
  return make_frame(MsgType::kTraceDumpResult, request_id,
                    [&](Writer& w) { io(w, info); });
}

// --- job request encoder -------------------------------------------------

Status encode_job_request(std::uint64_t request_id,
                          const service::JobRequest& job,
                          std::vector<std::uint8_t>* out,
                          const JobFrameOptions& options) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  io(w, options);
  MsgType type;
  switch (job.index()) {
    case 0: {
      type = MsgType::kJpegBlock;
      const auto& r = std::get<service::JpegBlockRequest>(job);
      if (r.plan.events.size() > kMaxFaultEvents) {
        return Status::errorf("fault plan has %zu events (bound %u)",
                              r.plan.events.size(), kMaxFaultEvents);
      }
      io(w, r);
      break;
    }
    case 1: {
      type = MsgType::kJpegImage;
      const auto& r = std::get<service::JpegImageRequest>(job);
      if (r.image.pixels.size() > kMaxPayload / 2) {
        return Status::errorf("image payload %zu bytes exceeds the bound %u",
                              r.image.pixels.size(), kMaxPayload / 2);
      }
      io(w, r);
      break;
    }
    case 2: {
      type = MsgType::kFft;
      const auto& r = std::get<service::FftRequest>(job);
      if (r.input.size() > kMaxFftPoints) {
        return Status::errorf("FFT input has %zu points (bound %u)",
                              r.input.size(), kMaxFftPoints);
      }
      io(w, r);
      break;
    }
    case 3: {
      type = MsgType::kDseSweep;
      const auto& r = std::get<service::DseSweepRequest>(job);
      const auto& procs = r.net.processes();
      if (procs.size() > kMaxProcesses || r.net.edges().size() > kMaxEdges ||
          std::any_of(procs.begin(), procs.end(), [](const auto& p) {
            return p.name.size() > kMaxStringBytes;
          })) {
        return Status::error("process network exceeds protocol bounds");
      }
      io(w, r);
      break;
    }
    default:
      // Mapper jobs are in-process only for now: the wire protocol has no
      // frame for them, and silently encoding a different job kind would be
      // far worse than refusing.
      return Status::error("job kind has no wire encoding");
  }
  if (buf.size() - kHeaderSize > kMaxPayload) {
    return Status::errorf("encoded request is %zu bytes (bound %u)",
                          buf.size() - kHeaderSize, kMaxPayload);
  }
  *out = seal(type, std::move(buf));
  return Status();
}

// --- job result encoder --------------------------------------------------

Status encode_job_result(const Request& request,
                         const service::JobResult& result,
                         std::vector<std::uint8_t>* out) {
  if (!result.status.ok()) {
    *out = encode_error(request.request_id, result.status.message(),
                        result.status.code());
    return Status();
  }
  const std::uint64_t id = request.request_id;
  switch (request.type) {
    case MsgType::kJpegBlock:
      return reply_frame<service::JpegBlockJobResult>(
          MsgType::kJpegBlockResult, id, result, out);
    case MsgType::kJpegImage: {
      const auto* p =
          std::get_if<service::JpegImageJobResult>(&result.payload);
      if (p != nullptr && p->jfif.size() > kMaxPayload / 2) {
        return Status::errorf("JFIF stream %zu bytes exceeds the bound %u",
                              p->jfif.size(), kMaxPayload / 2);
      }
      return reply_frame<service::JpegImageJobResult>(
          MsgType::kJpegImageResult, id, result, out);
    }
    case MsgType::kFft:
      return reply_frame<service::FftJobResult>(MsgType::kFftResult, id,
                                                result, out);
    case MsgType::kDseSweep:
      return reply_frame<service::DseSweepJobResult>(
          MsgType::kDseSweepResult, id, result, out);
    default:
      return Status::errorf("request type %s has no job result",
                            msg_type_name(request.type));
  }
}

// --- request decoder -----------------------------------------------------

Status decode_request(const Frame& frame, Request* out) {
  if (!msg_type_is_request(frame.header.type)) {
    return Status::errorf("%s is not a request frame",
                          msg_type_name(frame.header.type));
  }
  Reader r(frame.payload);
  out->type = frame.header.type;
  r.u64(out->request_id);
  out->options = JobFrameOptions{};
  out->cancel_target = 0;
  if (msg_type_is_job(frame.header.type)) io(r, out->options);
  switch (frame.header.type) {
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kTraceDump:
      break;
    case MsgType::kCancel:
      cancel_io(r, out->cancel_target);
      break;
    case MsgType::kJpegBlock:
      io(r, out->job.emplace<service::JpegBlockRequest>());
      break;
    case MsgType::kJpegImage:
      io(r, out->job.emplace<service::JpegImageRequest>());
      break;
    case MsgType::kFft:
      io(r, out->job.emplace<service::FftRequest>());
      break;
    case MsgType::kDseSweep:
      io(r, out->job.emplace<service::DseSweepRequest>());
      break;
    default:
      return Status::errorf("unhandled request type %s",
                            msg_type_name(frame.header.type));
  }
  return finish(r);
}

// --- response decoder ----------------------------------------------------

Status decode_response(const Frame& frame, Response* out) {
  if (msg_type_is_request(frame.header.type)) {
    return Status::errorf("%s is not a response frame",
                          msg_type_name(frame.header.type));
  }
  Reader r(frame.payload);
  out->type = frame.header.type;
  r.u64(out->request_id);
  out->result = service::JobResult{Status(), {}};
  out->dse_points.clear();
  out->stats.clear();
  out->cancel_target = 0;
  out->cancelled = false;
  out->trace_dump = TraceDumpInfo{};
  switch (frame.header.type) {
    case MsgType::kPong:
      break;
    case MsgType::kError: {
      StatusCode code = StatusCode::kError;
      std::string message;
      error_io(r, code, message);
      out->result.status = Status::coded(code, std::move(message));
      break;
    }
    case MsgType::kCancelResult:
      cancel_io(r, out->cancel_target, out->cancelled);
      break;
    case MsgType::kTraceDumpResult:
      io(r, out->trace_dump);
      break;
    case MsgType::kStatsResult:
      io(r, out->stats);
      break;
    case MsgType::kJpegBlockResult:
      io(r, out->result.payload.emplace<service::JpegBlockJobResult>());
      break;
    case MsgType::kJpegImageResult:
      io(r, out->result.payload.emplace<service::JpegImageJobResult>());
      break;
    case MsgType::kFftResult:
      io(r, out->result.payload.emplace<service::FftJobResult>());
      break;
    case MsgType::kDseSweepResult:
      io(r, out->dse_points);
      break;
    default:
      return Status::errorf("unhandled response type %s",
                            msg_type_name(frame.header.type));
  }
  return finish(r);
}

}  // namespace cgra::net
