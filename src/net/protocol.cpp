#include "net/protocol.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace cgra::net {

namespace {

// --- primitive writer / reader ------------------------------------------

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
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out_->insert(out_->end(), b.begin(), b.end());
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

  std::uint8_t u8() {
    if (!need(1, "u8")) return 0;
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok()) return {};
    if (n > kMaxStringBytes) {
      fail("string length %u exceeds the %u-byte bound", n, kMaxStringBytes);
      return {};
    }
    if (!need(n, "string body")) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> blob(std::uint32_t max_bytes) {
    const std::uint32_t n = u32();
    if (!ok()) return {};
    if (n > max_bytes) {
      fail("blob length %u exceeds the %u-byte bound", n, max_bytes);
      return {};
    }
    if (!need(n, "blob body")) return {};
    std::vector<std::uint8_t> b(bytes_.begin() + static_cast<long>(pos_),
                                bytes_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return b;
  }
  /// Element count with an explicit cap; 0 on any violation.
  std::uint32_t count(std::uint32_t max, const char* what) {
    const std::uint32_t n = u32();
    if (!ok()) return 0;
    if (n > max) {
      fail("%s count %u exceeds the bound %u", what, n, max);
      return 0;
    }
    return n;
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

// --- nested struct codecs ------------------------------------------------

void write_block(Writer& w, const jpeg::IntBlock& block) {
  for (const int v : block) w.i32(v);
}

jpeg::IntBlock read_block(Reader& r) {
  jpeg::IntBlock block{};
  for (auto& v : block) v = r.i32();
  return block;
}

void write_quant(Writer& w, const std::array<int, 64>& quant) {
  for (const int v : quant) w.i32(v);
}

std::array<int, 64> read_quant(Reader& r) {
  std::array<int, 64> quant{};
  for (auto& v : quant) v = r.i32();
  return quant;
}

void write_fault_plan(Writer& w, const faults::FaultPlan& plan) {
  w.u64(plan.seed);
  w.u32(static_cast<std::uint32_t>(plan.events.size()));
  for (const auto& e : plan.events) {
    w.u8(static_cast<std::uint8_t>(e.action));
    w.i32(e.tile);
    w.i64(e.cycle);
    w.i32(e.addr);
    w.i32(e.bit);
    w.i32(e.count);
  }
}

faults::FaultPlan read_fault_plan(Reader& r) {
  faults::FaultPlan plan;
  plan.seed = r.u64();
  const std::uint32_t n = r.count(kMaxFaultEvents, "fault event");
  plan.events.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    faults::FaultEvent e;
    const std::uint8_t action = r.u8();
    if (action > static_cast<std::uint8_t>(faults::FaultAction::kKillTile)) {
      r.fail("unknown fault action %u", action);
      break;
    }
    e.action = static_cast<faults::FaultAction>(action);
    e.tile = r.i32();
    e.cycle = r.i64();
    e.addr = r.i32();
    e.bit = r.i32();
    e.count = r.i32();
    plan.events.push_back(e);
  }
  return plan;
}

void write_cost_params(Writer& w, const mapping::CostParams& p) {
  w.f64(p.icap.bytes_per_sec);
  w.i32(p.imem_words);
  w.i32(p.dmem_words);
  w.boolean(p.allow_pinning);
}

mapping::CostParams read_cost_params(Reader& r) {
  mapping::CostParams p;
  p.icap.bytes_per_sec = r.f64();
  p.imem_words = r.i32();
  p.dmem_words = r.i32();
  p.allow_pinning = r.boolean();
  return p;
}

void write_policy(Writer& w, const faults::RecoveryPolicy& p) {
  w.boolean(p.verify_readback);
  w.f64(p.verify_cost_factor);
  w.i32(p.max_icap_retries);
  w.f64(p.icap_retry_backoff_ns);
  w.f64(p.icap_backoff_factor);
  w.i32(p.max_retries_per_checkpoint);
  w.boolean(p.scrub_imem);
  w.boolean(p.allow_rebalance);
  w.i32(p.max_rebalances);
  w.u8(static_cast<std::uint8_t>(p.rebalance_algo));
  write_cost_params(w, p.cost_params);
  w.f64(p.watchdog.margin);
  w.i64(p.watchdog.min_budget_cycles);
}

faults::RecoveryPolicy read_policy(Reader& r) {
  faults::RecoveryPolicy p;
  p.verify_readback = r.boolean();
  p.verify_cost_factor = r.f64();
  p.max_icap_retries = r.i32();
  p.icap_retry_backoff_ns = r.f64();
  p.icap_backoff_factor = r.f64();
  p.max_retries_per_checkpoint = r.i32();
  p.scrub_imem = r.boolean();
  p.allow_rebalance = r.boolean();
  p.max_rebalances = r.i32();
  const std::uint8_t algo = r.u8();
  if (algo > static_cast<std::uint8_t>(mapping::RebalanceAlgorithm::kOpt)) {
    r.fail("unknown rebalance algorithm %u", algo);
    return p;
  }
  p.rebalance_algo = static_cast<mapping::RebalanceAlgorithm>(algo);
  p.cost_params = read_cost_params(r);
  p.watchdog.margin = r.f64();
  p.watchdog.min_budget_cycles = r.i64();
  return p;
}

void write_cplx_vec(Writer& w, const std::vector<fft::Cplx>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& c : v) {
    w.f64(c.real());
    w.f64(c.imag());
  }
}

std::vector<fft::Cplx> read_cplx_vec(Reader& r) {
  const std::uint32_t n = r.count(kMaxFftPoints, "complex sample");
  std::vector<fft::Cplx> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const double re = r.f64();
    const double im = r.f64();
    v.emplace_back(re, im);
  }
  return v;
}

void write_network(Writer& w, const procnet::ProcessNetwork& net) {
  w.u32(static_cast<std::uint32_t>(net.processes().size()));
  for (const auto& p : net.processes()) {
    w.str(p.name);
    w.i32(p.insts);
    w.i32(p.data1);
    w.i32(p.data2);
    w.i32(p.data3);
    w.i64(p.runtime_cycles);
    w.i32(p.invocations_per_item);
    w.boolean(p.replicable);
  }
  w.u32(static_cast<std::uint32_t>(net.edges().size()));
  for (const auto& e : net.edges()) {
    w.i32(e.from);
    w.i32(e.to);
    w.i32(e.words);
  }
}

procnet::ProcessNetwork read_network(Reader& r) {
  procnet::ProcessNetwork net;
  const std::uint32_t procs = r.count(kMaxProcesses, "process");
  for (std::uint32_t i = 0; i < procs && r.ok(); ++i) {
    procnet::Process p;
    p.name = r.str();
    p.insts = r.i32();
    p.data1 = r.i32();
    p.data2 = r.i32();
    p.data3 = r.i32();
    p.runtime_cycles = r.i64();
    p.invocations_per_item = r.i32();
    p.replicable = r.boolean();
    if (r.ok()) net.add_process(std::move(p));
  }
  const std::uint32_t edges = r.count(kMaxEdges, "edge");
  for (std::uint32_t i = 0; i < edges && r.ok(); ++i) {
    const int from = r.i32();
    const int to = r.i32();
    const int words = r.i32();
    if (r.ok() && !net.add_edge(from, to, words)) {
      r.fail("invalid edge %d -> %d", from, to);
    }
  }
  return net;
}

Status finish(const Reader& r) {
  if (!r.ok()) return r.status();
  if (!r.exhausted()) {
    return Status::error("trailing bytes after payload");
  }
  return Status();
}

std::vector<std::uint8_t> control_frame(MsgType type,
                                        std::uint64_t request_id) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  return seal(type, std::move(buf));
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
    case MsgType::kHealth: return "health";
    case MsgType::kTraceDump: return "trace.dump";
    case MsgType::kPong: return "pong";
    case MsgType::kJpegBlockResult: return "jpeg.block.result";
    case MsgType::kJpegImageResult: return "jpeg.image.result";
    case MsgType::kFftResult: return "fft.result";
    case MsgType::kDseSweepResult: return "dse.sweep.result";
    case MsgType::kStatsResult: return "stats.result";
    case MsgType::kCancelResult: return "cancel.result";
    case MsgType::kError: return "error";
    case MsgType::kHealthResult: return "health.result";
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
    case MsgType::kHealth:
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

std::vector<std::uint8_t> encode_health(std::uint64_t request_id) {
  return control_frame(MsgType::kHealth, request_id);
}

std::vector<std::uint8_t> encode_trace_dump(std::uint64_t request_id) {
  return control_frame(MsgType::kTraceDump, request_id);
}

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id) {
  return control_frame(MsgType::kPong, request_id);
}

std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id,
                                        std::uint64_t target_id) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  w.u64(target_id);
  return seal(MsgType::kCancel, std::move(buf));
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       std::string_view message,
                                       StatusCode code) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(code == StatusCode::kOk ? StatusCode::kError
                                                         : code));
  w.str(message.substr(0, kMaxStringBytes));
  return seal(MsgType::kError, std::move(buf));
}

std::vector<std::uint8_t> encode_health_result(std::uint64_t request_id,
                                               const HealthInfo& health) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  w.boolean(health.accepting);
  w.u32(health.queue_depth);
  w.u32(health.queue_capacity);
  w.u32(health.workers);
  w.u32(health.connections);
  return seal(MsgType::kHealthResult, std::move(buf));
}

std::vector<std::uint8_t> encode_cancel_result(std::uint64_t request_id,
                                               std::uint64_t target_id,
                                               bool cancelled) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  w.u64(target_id);
  w.boolean(cancelled);
  return seal(MsgType::kCancelResult, std::move(buf));
}

std::vector<std::uint8_t> encode_stats_result(
    std::uint64_t request_id, const std::vector<obs::MetricSample>& samples) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  const std::uint32_t n = static_cast<std::uint32_t>(
      std::min<std::size_t>(samples.size(), kMaxStatsSamples));
  w.u32(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    w.str(std::string_view(samples[i].name).substr(0, kMaxStringBytes));
    w.boolean(samples[i].is_counter);
    w.f64(samples[i].value);
  }
  return seal(MsgType::kStatsResult, std::move(buf));
}

std::vector<std::uint8_t> encode_trace_dump_result(std::uint64_t request_id,
                                                   const TraceDumpInfo& info) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  w.u32(info.anomalies);
  w.u32(info.spans);
  w.u64(info.events_recorded);
  w.u64(info.events_dropped);
  if (info.trace_json.size() > kMaxTraceBytes) {
    std::vector<std::uint8_t> truncated(
        info.trace_json.begin(),
        info.trace_json.begin() + static_cast<long>(kMaxTraceBytes));
    w.bytes(truncated);
  } else {
    w.bytes(info.trace_json);
  }
  return seal(MsgType::kTraceDumpResult, std::move(buf));
}

// --- job request encoder -------------------------------------------------

Status encode_job_request(std::uint64_t request_id,
                          const service::JobRequest& job,
                          std::vector<std::uint8_t>* out,
                          const JobFrameOptions& options) {
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request_id);
  w.u32(options.deadline_ms);
  w.u64(options.idempotency_id);
  w.u64(options.trace.trace_id);
  w.u64(options.trace.parent_span_id);
  MsgType type;
  switch (job.index()) {
    case 0: {
      type = MsgType::kJpegBlock;
      const auto& r = std::get<service::JpegBlockRequest>(job);
      if (r.plan.events.size() > kMaxFaultEvents) {
        return Status::errorf("fault plan has %zu events (bound %u)",
                              r.plan.events.size(), kMaxFaultEvents);
      }
      write_block(w, r.raw);
      write_quant(w, r.quant);
      w.i32(r.rows);
      w.i32(r.cols);
      write_fault_plan(w, r.plan);
      write_policy(w, r.policy);
      break;
    }
    case 1: {
      type = MsgType::kJpegImage;
      const auto& r = std::get<service::JpegImageRequest>(job);
      if (r.image.pixels.size() > kMaxPayload / 2) {
        return Status::errorf("image payload %zu bytes exceeds the bound %u",
                              r.image.pixels.size(), kMaxPayload / 2);
      }
      w.i32(r.quality);
      w.i32(r.image.width);
      w.i32(r.image.height);
      w.bytes(r.image.pixels);
      break;
    }
    case 2: {
      type = MsgType::kFft;
      const auto& r = std::get<service::FftRequest>(job);
      if (r.input.size() > kMaxFftPoints) {
        return Status::errorf("FFT input has %zu points (bound %u)",
                              r.input.size(), kMaxFftPoints);
      }
      w.i32(r.n);
      w.i32(r.m);
      w.i32(r.cols);
      write_cplx_vec(w, r.input);
      break;
    }
    case 3: {
      type = MsgType::kDseSweep;
      const auto& r = std::get<service::DseSweepRequest>(job);
      if (r.net.processes().size() > kMaxProcesses ||
          r.net.edges().size() > kMaxEdges) {
        return Status::error("process network exceeds protocol bounds");
      }
      w.i32(r.max_tiles);
      w.u8(static_cast<std::uint8_t>(r.algorithm));
      write_cost_params(w, r.params);
      write_network(w, r.net);
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
  auto buf = begin_frame();
  Writer w(&buf);
  w.u64(request.request_id);
  switch (request.type) {
    case MsgType::kJpegBlock: {
      const auto* p = std::get_if<service::JpegBlockJobResult>(&result.payload);
      if (p == nullptr) return Status::error("payload/type mismatch");
      write_block(w, p->zigzagged);
      w.i64(p->cycles);
      w.f64(p->reconfig_ns);
      w.boolean(p->recovered);
      *out = seal(MsgType::kJpegBlockResult, std::move(buf));
      return Status();
    }
    case MsgType::kJpegImage: {
      const auto* p = std::get_if<service::JpegImageJobResult>(&result.payload);
      if (p == nullptr) return Status::error("payload/type mismatch");
      if (p->jfif.size() > kMaxPayload / 2) {
        return Status::errorf("JFIF stream %zu bytes exceeds the bound %u",
                              p->jfif.size(), kMaxPayload / 2);
      }
      w.i64(p->fabric_cycles);
      w.bytes(p->jfif);
      *out = seal(MsgType::kJpegImageResult, std::move(buf));
      return Status();
    }
    case MsgType::kFft: {
      const auto* p = std::get_if<service::FftJobResult>(&result.payload);
      if (p == nullptr) return Status::error("payload/type mismatch");
      w.i32(p->epochs);
      w.f64(p->timeline.epoch_compute_ns);
      w.f64(p->timeline.reconfig_ns);
      write_cplx_vec(w, p->output);
      *out = seal(MsgType::kFftResult, std::move(buf));
      return Status();
    }
    case MsgType::kDseSweep: {
      const auto* p = std::get_if<service::DseSweepJobResult>(&result.payload);
      if (p == nullptr) return Status::error("payload/type mismatch");
      const std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::size_t>(p->points.size(), kMaxSweepPoints));
      w.u32(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto& pt = p->points[i];
        w.i32(pt.tiles);
        w.f64(pt.eval.ii_ns);
        w.f64(pt.eval.items_per_sec);
        w.f64(pt.eval.avg_utilization);
        w.boolean(pt.eval.needs_reconfig);
      }
      *out = seal(MsgType::kDseSweepResult, std::move(buf));
      return Status();
    }
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
  out->request_id = r.u64();
  out->options = JobFrameOptions{};
  out->cancel_target = 0;
  if (msg_type_is_job(frame.header.type)) {
    out->options.deadline_ms = r.u32();
    out->options.idempotency_id = r.u64();
    out->options.trace.trace_id = r.u64();
    out->options.trace.parent_span_id = r.u64();
  }
  switch (frame.header.type) {
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kHealth:
    case MsgType::kTraceDump:
      break;
    case MsgType::kCancel:
      out->cancel_target = r.u64();
      break;
    case MsgType::kJpegBlock: {
      service::JpegBlockRequest req;
      req.raw = read_block(r);
      req.quant = read_quant(r);
      req.rows = r.i32();
      req.cols = r.i32();
      req.plan = read_fault_plan(r);
      req.policy = read_policy(r);
      out->job = std::move(req);
      break;
    }
    case MsgType::kJpegImage: {
      service::JpegImageRequest req;
      req.quality = r.i32();
      req.image.width = r.i32();
      req.image.height = r.i32();
      req.image.pixels = r.blob(kMaxPayload / 2);
      out->job = std::move(req);
      break;
    }
    case MsgType::kFft: {
      service::FftRequest req;
      req.n = r.i32();
      req.m = r.i32();
      req.cols = r.i32();
      req.input = read_cplx_vec(r);
      out->job = std::move(req);
      break;
    }
    case MsgType::kDseSweep: {
      service::DseSweepRequest req;
      req.max_tiles = r.i32();
      const std::uint8_t algo = r.u8();
      if (algo > static_cast<std::uint8_t>(mapping::RebalanceAlgorithm::kOpt)) {
        return Status::errorf("unknown rebalance algorithm %u", algo);
      }
      req.algorithm = static_cast<mapping::RebalanceAlgorithm>(algo);
      req.params = read_cost_params(r);
      req.net = read_network(r);
      out->job = std::move(req);
      break;
    }
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
  out->request_id = r.u64();
  out->result = service::JobResult{};
  out->dse_points.clear();
  out->stats.clear();
  out->cancel_target = 0;
  out->cancelled = false;
  out->health = HealthInfo{};
  out->trace_dump = TraceDumpInfo{};
  switch (frame.header.type) {
    case MsgType::kPong:
      out->result.status = Status();
      break;
    case MsgType::kHealthResult:
      out->health.accepting = r.boolean();
      out->health.queue_depth = r.u32();
      out->health.queue_capacity = r.u32();
      out->health.workers = r.u32();
      out->health.connections = r.u32();
      out->result.status = Status();
      break;
    case MsgType::kError: {
      const std::uint8_t raw_code = r.u8();
      if (raw_code > static_cast<std::uint8_t>(StatusCode::kUnknownOutcome) ||
          raw_code == static_cast<std::uint8_t>(StatusCode::kOk)) {
        return Status::errorf("invalid error status code %u", raw_code);
      }
      const std::string message = r.str();
      if (r.ok()) {
        out->result.status =
            Status::coded(static_cast<StatusCode>(raw_code), message);
      }
      break;
    }
    case MsgType::kCancelResult:
      out->cancel_target = r.u64();
      out->cancelled = r.boolean();
      out->result.status = Status();
      break;
    case MsgType::kTraceDumpResult:
      out->trace_dump.anomalies = r.u32();
      out->trace_dump.spans = r.u32();
      out->trace_dump.events_recorded = r.u64();
      out->trace_dump.events_dropped = r.u64();
      out->trace_dump.trace_json = r.blob(kMaxTraceBytes);
      out->result.status = Status();
      break;
    case MsgType::kStatsResult: {
      const std::uint32_t n = r.count(kMaxStatsSamples, "stats sample");
      out->stats.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        obs::MetricSample s;
        s.name = r.str();
        s.is_counter = r.boolean();
        s.value = r.f64();
        out->stats.push_back(std::move(s));
      }
      out->result.status = Status();
      break;
    }
    case MsgType::kJpegBlockResult: {
      service::JpegBlockJobResult p;
      p.zigzagged = read_block(r);
      p.cycles = r.i64();
      p.reconfig_ns = r.f64();
      p.recovered = r.boolean();
      out->result.status = Status();
      out->result.payload = std::move(p);
      break;
    }
    case MsgType::kJpegImageResult: {
      service::JpegImageJobResult p;
      p.fabric_cycles = r.i64();
      p.jfif = r.blob(kMaxPayload / 2);
      out->result.status = Status();
      out->result.payload = std::move(p);
      break;
    }
    case MsgType::kFftResult: {
      service::FftJobResult p;
      p.epochs = r.i32();
      p.timeline.epoch_compute_ns = r.f64();
      p.timeline.reconfig_ns = r.f64();
      p.output = read_cplx_vec(r);
      out->result.status = Status();
      out->result.payload = std::move(p);
      break;
    }
    case MsgType::kDseSweepResult: {
      const std::uint32_t n = r.count(kMaxSweepPoints, "sweep point");
      out->dse_points.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        DseWirePoint pt;
        pt.tiles = r.i32();
        pt.ii_ns = r.f64();
        pt.items_per_sec = r.f64();
        pt.avg_utilization = r.f64();
        pt.needs_reconfig = r.boolean();
        out->dse_points.push_back(pt);
      }
      out->result.status = Status();
      break;
    }
    default:
      return Status::errorf("unhandled response type %s",
                            msg_type_name(frame.header.type));
  }
  return finish(r);
}

}  // namespace cgra::net
