// Wire protocol for the TCP serving layer (docs/ARCHITECTURE.md,
// "Network layer").
//
// Frames are length-prefixed binary, little-endian, versioned:
//
//   offset  size  field
//   0       4     magic 0x43475241 ("CGRA" read as bytes A R G C)
//   4       1     protocol version (kVersion)
//   5       1     message type (MsgType)
//   6       2     reserved, must be zero
//   8       4     payload length in bytes (<= kMaxPayload)
//   12      ...   payload
//
// Every payload begins with a u64 request id chosen by the client and
// echoed verbatim in the matching response, so a connection can pipeline
// requests and still pair replies (replies arrive in request order).
//
// Job request payloads carry, right after the request id, a u32 deadline
// (milliseconds the client is willing to wait; 0 = none), a u64
// idempotency id (0 = none) and a 128-bit trace context (u64 trace id +
// u64 parent span id, client-generated, zero = untraced).  kError
// payloads lead with a StatusCode byte so clients can distinguish
// "unavailable, retry later" from "deadline exceeded" without string
// matching.  kTraceDump / kTraceDumpResult frames pull the server's
// merged trace JSON and flight-recorder anomaly summary live
// (docs/OBSERVABILITY.md, "Wire tracing").  Decoders accept kVersion only;
// a frame of any other version is rejected like a bad magic.
//
// Request payloads mirror cgra::service::JobRequest — JPEG block (plain
// or resilient, fault plan and recovery policy travel in the frame),
// whole image, FFT and DSE sweep — plus ping, stats and cancel control
// frames.  Responses carry the service::JobResult payloads; failed jobs
// come back as kError frames with the Status message.  The DSE response
// is the sweep *summary* (tiles, II, throughput, utilisation per budget
// point — the paper's Fig. 16/17 numbers); the Binding structure stays
// server-side.
//
// Each payload's field list is written once, as a template over the
// encoder and the decoder (protocol.cpp), so no field can be encoded
// without being decoded.  Decoding is defensive: every read is
// bounds-checked against the payload, element counts are capped (kMax*
// limits below) so a hostile length field cannot drive an allocation, and
// any violation returns a Status error naming the offending field.
// Malformed *framing* (bad magic/version/oversized length) is
// unrecoverable for the stream; the server closes the connection.
// Malformed *payloads* inside a valid frame are answered with kError and
// the stream continues.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "service/job.hpp"

namespace cgra::net {

inline constexpr std::uint32_t kMagic = 0x43475241u;
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kHeaderSize = 12;
/// Hard bound on a frame payload; frames claiming more are rejected
/// before any allocation happens.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;

// Decoder element-count caps (all well above anything the apps produce).
inline constexpr std::uint32_t kMaxFftPoints = 1u << 20;
inline constexpr std::uint32_t kMaxFaultEvents = 1u << 16;
inline constexpr std::uint32_t kMaxProcesses = 4096;
inline constexpr std::uint32_t kMaxEdges = 1u << 16;
inline constexpr std::uint32_t kMaxSweepPoints = 4096;
inline constexpr std::uint32_t kMaxStatsSamples = 1u << 16;
inline constexpr std::uint32_t kMaxStringBytes = 4096;
/// Bound on the trace JSON blob in kTraceDumpResult (exceeds
/// kMaxStringBytes by design — traces are big).
inline constexpr std::uint32_t kMaxTraceBytes = kMaxPayload / 2;

/// Frame types.  Requests are 1..63, responses 65..127; the response for
/// request type T is T + kResponseOffset (control frames included).
enum class MsgType : std::uint8_t {
  kPing = 1,
  kJpegBlock = 2,
  kJpegImage = 3,
  kFft = 4,
  kDseSweep = 5,
  kStats = 6,
  kCancel = 7,
  // 8 is skipped so the response slot 72 stays kError's; 9 and 73 were a
  // retired readiness frame and its reply.
  kTraceDump = 10,

  kPong = 65,
  kJpegBlockResult = 66,
  kJpegImageResult = 67,
  kFftResult = 68,
  kDseSweepResult = 69,
  kStatsResult = 70,
  kCancelResult = 71,
  kError = 72,
  kTraceDumpResult = 74,
};

inline constexpr std::uint8_t kResponseOffset = 64;

[[nodiscard]] const char* msg_type_name(MsgType type) noexcept;
[[nodiscard]] bool msg_type_is_request(MsgType type) noexcept;
/// True for request types that enqueue a service job (not ping/stats/
/// cancel) — the ones the per-connection in-flight cap counts.
[[nodiscard]] bool msg_type_is_job(MsgType type) noexcept;

/// Decoded frame header (the version byte is always kVersion).
struct FrameHeader {
  MsgType type = MsgType::kPing;
  std::uint32_t payload_len = 0;
};

/// Render the 12 header bytes.
void encode_header(const FrameHeader& header, std::uint8_t out[kHeaderSize]);

/// Parse and validate 12 header bytes (magic, version, known type,
/// payload bound).  A failure here means the byte stream is desynced.
[[nodiscard]] Status decode_header(std::span<const std::uint8_t> bytes,
                                   FrameHeader* out);

/// One full frame (header + payload) as read off a socket.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// --- request / response value types -------------------------------------

/// Per-request robustness + tracing fields carried on job frames.
struct JobFrameOptions {
  std::uint32_t deadline_ms = 0;     ///< 0 = no deadline.
  std::uint64_t idempotency_id = 0;  ///< 0 = not idempotent (never retried
                                     ///< after the frame may have been sent).
  obs::TraceContext trace;           ///< Propagated trace identity
                                     ///< (trace_id 0 = untraced).
};

/// Server-side view of any request frame.
struct Request {
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  JobFrameOptions options;          ///< Valid iff msg_type_is_job(type).
  service::JobRequest job;          ///< Valid iff msg_type_is_job(type).
  std::uint64_t cancel_target = 0;  ///< Valid for kCancel.
};

/// One budget point of a DSE sweep reply (the wire summary of
/// mapping::SweepPoint).
struct DseWirePoint {
  int tiles = 0;
  double ii_ns = 0.0;
  double items_per_sec = 0.0;
  double avg_utilization = 0.0;
  bool needs_reconfig = false;
};

/// kTraceDumpResult payload: the server's flight-recorder counters plus
/// its merged trace as Chrome trace-event JSON (UTF-8 bytes).
struct TraceDumpInfo {
  std::uint32_t anomalies = 0;          ///< Retained AnomalyRecords.
  std::uint32_t spans = 0;              ///< Spans in the dumped timeline.
  std::uint64_t events_recorded = 0;    ///< Flight events ever recorded.
  std::uint64_t events_dropped = 0;     ///< Overwritten before dumping.
  std::vector<std::uint8_t> trace_json; ///< <= kMaxTraceBytes.
};

/// Client-side view of any response frame.  For job responses `result`
/// carries the same payload types service::Service::wait() returns (the
/// DSE payload is summarised into `dse_points`); kError frames decode to
/// an error `result.status` with an empty payload.
struct Response {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  service::JobResult result;
  std::vector<DseWirePoint> dse_points;       ///< kDseSweepResult.
  std::vector<obs::MetricSample> stats;       ///< kStatsResult.
  std::uint64_t cancel_target = 0;            ///< kCancelResult.
  bool cancelled = false;                     ///< kCancelResult.
  TraceDumpInfo trace_dump;                   ///< kTraceDumpResult.
};

// --- encoding ------------------------------------------------------------

/// Control frames (fixed small payloads, cannot fail).
[[nodiscard]] std::vector<std::uint8_t> encode_ping(std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_stats(std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_cancel(
    std::uint64_t request_id, std::uint64_t target_id);
[[nodiscard]] std::vector<std::uint8_t> encode_trace_dump(
    std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_pong(std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_error(
    std::uint64_t request_id, std::string_view message,
    StatusCode code = StatusCode::kError);
[[nodiscard]] std::vector<std::uint8_t> encode_cancel_result(
    std::uint64_t request_id, std::uint64_t target_id, bool cancelled);
/// Keeps the first kMaxStatsSamples samples, each name cut to
/// kMaxStringBytes (error messages are cut the same way).
[[nodiscard]] std::vector<std::uint8_t> encode_stats_result(
    std::uint64_t request_id, const std::vector<obs::MetricSample>& samples);
/// The trace JSON is truncated to kMaxTraceBytes (at which point it no
/// longer parses — dump earlier / cap the tracer rather than rely on it).
[[nodiscard]] std::vector<std::uint8_t> encode_trace_dump_result(
    std::uint64_t request_id, const TraceDumpInfo& info);

/// Encode a job request; fails when the request exceeds protocol bounds
/// (e.g. an image larger than kMaxPayload).
[[nodiscard]] Status encode_job_request(std::uint64_t request_id,
                                        const service::JobRequest& job,
                                        std::vector<std::uint8_t>* out,
                                        const JobFrameOptions& options = {});

/// Encode a finished job's result as the response frame for `request`
/// (ok results become the typed result frame, failures become kError).
[[nodiscard]] Status encode_job_result(const Request& request,
                                       const service::JobResult& result,
                                       std::vector<std::uint8_t>* out);

// --- decoding ------------------------------------------------------------

/// Parse a request frame (server side).
[[nodiscard]] Status decode_request(const Frame& frame, Request* out);

/// Parse a response frame (client side).
[[nodiscard]] Status decode_response(const Frame& frame, Response* out);

}  // namespace cgra::net
