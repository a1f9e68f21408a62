// Network-layer tests: protocol round-trips and malformed-frame
// rejection, server echo of service results bit-identical to in-process
// calls, backpressure error replies under saturation, cancel over the
// wire, client timeout/retry, and graceful drain-then-shutdown with
// requests in flight.  This binary runs under ThreadSanitizer in CI
// (label `net` in the tsan preset) — keep every cross-thread interaction
// inside the net/service APIs or properly synchronised.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "cgra/net.hpp"
#include "golden_frames.hpp"
#include "service/artifact_cache.hpp"
// Internal socket helpers (not part of the facade): the malformed-frame
// tests drive the server with hand-rolled byte streams.
#include "net/socket_util.hpp"

namespace cgra::net {
namespace {

jpeg::IntBlock test_block(int seed) {
  jpeg::IntBlock raw{};
  for (int i = 0; i < 64; ++i) {
    raw[static_cast<std::size_t>(i)] = ((seed + 1) * 37 + i * 13) % 256;
  }
  return raw;
}

service::JobRequest block_request(int seed) {
  service::JpegBlockRequest req;
  req.raw = test_block(seed);
  req.quant = jpeg::scaled_quant(75);
  return service::JobRequest{req};
}

service::JobRequest fft_request(int n, int seed) {
  service::FftRequest req;
  req.n = n;
  req.m = 8;
  req.input.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    req.input[static_cast<std::size_t>(i)] = {
        std::cos(0.1 * (i + seed)) / n, std::sin(0.07 * i - seed) / n};
  }
  return service::JobRequest{req};
}

/// A request the worker chews on for a while — used to hold the single
/// worker busy so saturation behind it is deterministic.
service::JobRequest heavy_request() {
  service::JpegImageRequest req;
  req.image = jpeg::synthetic_image(96, 96, 1);
  req.quality = 50;
  return service::JobRequest{req};
}

/// Server + service + connected client, wired on an ephemeral port.
struct Rig {
  explicit Rig(service::ServiceOptions sopt = {.workers = 2},
               ServerOptions nopt = {})
      : svc(sopt), server(&svc, nopt) {
    const auto s = server.start();
    EXPECT_TRUE(s.ok()) << s.message();
  }
  [[nodiscard]] Client client(int request_timeout_ms = 30000) {
    ClientOptions copt;
    copt.port = server.port();
    copt.request_timeout_ms = request_timeout_ms;
    return Client(copt);
  }
  service::Service svc;
  Server server;
};

// --- protocol ------------------------------------------------------------

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader header;
  header.type = MsgType::kFft;
  header.payload_len = 1234;
  std::uint8_t bytes[kHeaderSize];
  encode_header(header, bytes);
  FrameHeader parsed;
  ASSERT_TRUE(decode_header(bytes, &parsed).ok());
  EXPECT_EQ(parsed.type, MsgType::kFft);
  EXPECT_EQ(parsed.payload_len, 1234u);
}

TEST(Protocol, HeaderRejectsBadMagicVersionTypeAndLength) {
  FrameHeader header;
  header.payload_len = 8;
  std::uint8_t good[kHeaderSize];
  encode_header(header, good);
  FrameHeader out;

  std::uint8_t bad[kHeaderSize];
  std::memcpy(bad, good, kHeaderSize);
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(decode_header(bad, &out).ok());

  std::memcpy(bad, good, kHeaderSize);
  bad[4] = kVersion + 1;  // version
  EXPECT_FALSE(decode_header(bad, &out).ok());
  bad[4] = 2;  // the retired v2 dialect
  const Status v2 = decode_header(bad, &out);
  EXPECT_FALSE(v2.ok());
  EXPECT_NE(v2.message().find("unsupported protocol version"),
            std::string::npos);

  std::memcpy(bad, good, kHeaderSize);
  bad[5] = 0;  // unknown type
  EXPECT_FALSE(decode_header(bad, &out).ok());
  for (const int retired : {9, 73}) {  // the deleted health pair
    bad[5] = static_cast<std::uint8_t>(retired);
    const Status s = decode_header(bad, &out);
    EXPECT_FALSE(s.ok()) << retired;
    EXPECT_NE(s.message().find("unknown message type"), std::string::npos)
        << s.message();
  }

  std::memcpy(bad, good, kHeaderSize);
  bad[11] = 0xFF;  // payload length > kMaxPayload
  EXPECT_FALSE(decode_header(bad, &out).ok());

  EXPECT_FALSE(decode_header(std::span(good, kHeaderSize - 1), &out).ok());
}

TEST(Protocol, JobRequestRoundTripsAllKinds) {
  // JPEG block with a fault plan + non-default policy.
  service::JpegBlockRequest block;
  block.raw = test_block(3);
  block.quant = jpeg::scaled_quant(40);
  block.rows = 2;
  block.cols = 7;
  block.plan.seed = 77;
  block.plan.flip_dmem_bit(100, 3).kill_tile(500, 5).corrupt_icap(2, 4);
  block.policy.max_icap_retries = 7;
  block.policy.watchdog.margin = 8.0;
  block.policy.rebalance_algo = mapping::RebalanceAlgorithm::kTwo;

  service::JpegImageRequest image;
  image.image = jpeg::synthetic_image(24, 16, 5);
  image.quality = 80;

  service::DseSweepRequest dse;
  dse.net = jpeg::jpeg_split_pipeline();
  dse.max_tiles = 6;
  dse.algorithm = mapping::RebalanceAlgorithm::kOpt;
  dse.params.allow_pinning = false;

  const std::vector<service::JobRequest> requests = {
      service::JobRequest{block}, service::JobRequest{image},
      fft_request(32, 1), service::JobRequest{dse}};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_job_request(42 + i, requests[i], &bytes).ok());
    Frame frame;
    ASSERT_TRUE(decode_header(bytes, &frame.header).ok());
    frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
    Request req;
    ASSERT_TRUE(decode_request(frame, &req).ok()) << i;
    EXPECT_EQ(req.request_id, 42 + i);
    EXPECT_EQ(req.job.index(), requests[i].index());
  }

  // Spot-check the deep fields survived.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(
      encode_job_request(7, service::JobRequest{block}, &bytes).ok());
  Frame frame;
  ASSERT_TRUE(decode_header(bytes, &frame.header).ok());
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
  Request req;
  ASSERT_TRUE(decode_request(frame, &req).ok());
  const auto& rb = std::get<service::JpegBlockRequest>(req.job);
  EXPECT_EQ(rb.raw, block.raw);
  EXPECT_EQ(rb.quant, block.quant);
  ASSERT_EQ(rb.plan.events.size(), block.plan.events.size());
  EXPECT_EQ(rb.plan.seed, 77u);
  EXPECT_EQ(rb.plan.events[1].action, faults::FaultAction::kKillTile);
  EXPECT_EQ(rb.policy.max_icap_retries, 7);
  EXPECT_EQ(rb.policy.rebalance_algo, mapping::RebalanceAlgorithm::kTwo);
  EXPECT_DOUBLE_EQ(rb.policy.watchdog.margin, 8.0);
}

TEST(Protocol, DecodeRejectsTruncatedAndOversizedPayloads) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_job_request(1, fft_request(32, 0), &bytes).ok());
  Frame frame;
  ASSERT_TRUE(decode_header(bytes, &frame.header).ok());

  // Truncated: drop the last 8 bytes of the payload.
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end() - 8);
  frame.header.payload_len = static_cast<std::uint32_t>(frame.payload.size());
  Request req;
  EXPECT_FALSE(decode_request(frame, &req).ok());

  // Trailing garbage after a valid body.
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
  frame.payload.push_back(0);
  EXPECT_FALSE(decode_request(frame, &req).ok());

  // Oversized element count: claim 2^30 FFT points.
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
  // request id + job options (deadline, idempotency id, trace ctx) + n,m,cols
  const std::size_t count_at = 8 + 28 + 12;
  frame.payload[count_at + 3] = 0x40;
  const Status s = decode_request(frame, &req);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("bound"), std::string::npos) << s.message();
}

TEST(Protocol, ResponseRoundTrip) {
  service::JobResult result;
  result.status = Status();
  service::FftJobResult payload;
  payload.epochs = 5;
  payload.timeline.epoch_compute_ns = 123.5;
  payload.timeline.reconfig_ns = 67.25;
  payload.output = {{0.5, -0.25}, {1.0, 2.0}};
  result.payload = payload;
  Request req;
  req.type = MsgType::kFft;
  req.request_id = 99;
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_job_result(req, result, &bytes).ok());
  Frame frame;
  ASSERT_TRUE(decode_header(bytes, &frame.header).ok());
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
  Response resp;
  ASSERT_TRUE(decode_response(frame, &resp).ok());
  EXPECT_EQ(resp.type, MsgType::kFftResult);
  EXPECT_EQ(resp.request_id, 99u);
  const auto& p = std::get<service::FftJobResult>(resp.result.payload);
  EXPECT_EQ(p.output, payload.output);
  EXPECT_EQ(p.epochs, 5);
  EXPECT_DOUBLE_EQ(p.timeline.reconfig_ns, 67.25);

  // A failed job encodes as a kError frame carrying the message.
  result.status = Status::error("it broke");
  ASSERT_TRUE(encode_job_result(req, result, &bytes).ok());
  ASSERT_TRUE(decode_header(bytes, &frame.header).ok());
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
  ASSERT_TRUE(decode_response(frame, &resp).ok());
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_FALSE(resp.result.ok());
  EXPECT_EQ(resp.result.status.message(), "it broke");
}

// --- trace context ---------------------------------------------------------

TEST(Protocol, V3JobFrameCarriesTraceContext) {
  JobFrameOptions wire;
  wire.deadline_ms = 1500;
  wire.idempotency_id = 0xABCD;
  wire.trace = {0x1122334455667788ULL, 0x99AABBCCDDEEFF00ULL};
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_job_request(9, fft_request(32, 0), &bytes, wire).ok());
  EXPECT_EQ(bytes[4], kVersion);
  // Trace id occupies frame bytes 32..39 (LE), parent span id 40..47.
  EXPECT_EQ(bytes[32], 0x88);
  EXPECT_EQ(bytes[39], 0x11);
  EXPECT_EQ(bytes[40], 0x00);
  EXPECT_EQ(bytes[47], 0x99);
  Frame frame;
  ASSERT_TRUE(decode_header(bytes, &frame.header).ok());
  frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
  Request req;
  ASSERT_TRUE(decode_request(frame, &req).ok());
  EXPECT_EQ(req.options.trace.trace_id, wire.trace.trace_id);
  EXPECT_EQ(req.options.trace.parent_span_id, wire.trace.parent_span_id);
  EXPECT_EQ(req.options.deadline_ms, 1500u);
  EXPECT_EQ(req.options.idempotency_id, 0xABCDu);
}

TEST(Protocol, TraceDumpRoundTrip) {
  const auto reqb = encode_trace_dump(5);
  Frame frame;
  ASSERT_TRUE(decode_header(reqb, &frame.header).ok());
  frame.payload.assign(reqb.begin() + kHeaderSize, reqb.end());
  Request req;
  ASSERT_TRUE(decode_request(frame, &req).ok());
  EXPECT_EQ(req.type, MsgType::kTraceDump);
  EXPECT_EQ(req.request_id, 5u);

  TraceDumpInfo info;
  info.anomalies = 3;
  info.spans = 17;
  info.events_recorded = 1000;
  info.events_dropped = 24;
  const std::string json = "{\"traceEvents\":[]}";
  info.trace_json.assign(json.begin(), json.end());
  const auto respb = encode_trace_dump_result(5, info);
  ASSERT_TRUE(decode_header(respb, &frame.header).ok());
  frame.payload.assign(respb.begin() + kHeaderSize, respb.end());
  Response resp;
  ASSERT_TRUE(decode_response(frame, &resp).ok());
  EXPECT_EQ(resp.type, MsgType::kTraceDumpResult);
  EXPECT_EQ(resp.request_id, 5u);
  EXPECT_EQ(resp.trace_dump.anomalies, 3u);
  EXPECT_EQ(resp.trace_dump.spans, 17u);
  EXPECT_EQ(resp.trace_dump.events_recorded, 1000u);
  EXPECT_EQ(resp.trace_dump.events_dropped, 24u);
  EXPECT_EQ(resp.trace_dump.trace_json, info.trace_json);
}

// --- golden frames ---------------------------------------------------------

TEST(Protocol, GoldenFramesAreByteIdentical) {
  // Length and FNV-1a-64 digest of each golden frame, recorded when the
  // corpus was introduced: any codec change that moves a v3 byte fails.
  struct Pin {
    MsgType type;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {MsgType::kPing, 20, 0xc0c70827718748d9ULL},
      {MsgType::kJpegBlock, 728, 0xc8284aeecd7c17dbULL},
      {MsgType::kJpegImage, 79, 0x79bbdc2dc34783b1ULL},
      {MsgType::kFft, 192, 0xc73b4e4955545919ULL},
      {MsgType::kDseSweep, 228, 0x603bf31d88a3c7fcULL},
      {MsgType::kStats, 20, 0x1eb3ed2767417cfbULL},
      {MsgType::kCancel, 28, 0x46cf75de5beb53b2ULL},
      {MsgType::kTraceDump, 20, 0x1953a1049a436809ULL},
      {MsgType::kPong, 20, 0xded1962dd57feaf5ULL},
      {MsgType::kJpegBlockResult, 293, 0x28b6ad4ec7782f24ULL},
      {MsgType::kJpegImageResult, 40, 0xa820ed316a869656ULL},
      {MsgType::kFftResult, 92, 0x1248910afd0ab339ULL},
      {MsgType::kDseSweepResult, 82, 0x6a142e18c19923ebULL},
      {MsgType::kStatsResult, 81, 0x693431dfe0c45bd5ULL},
      {MsgType::kCancelResult, 29, 0x95ef1ab282b723e6ULL},
      {MsgType::kError, 48, 0xf931e5f81187818cULL},
      {MsgType::kTraceDumpResult, 78, 0xdd610ab38c21f122ULL},
  };
  const auto frames = golden::frames();
  ASSERT_EQ(frames.size(), std::size(pins));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& bytes = frames[i];
    FrameHeader header;
    ASSERT_TRUE(decode_header(bytes, &header).ok()) << i;
    const std::uint64_t digest = service::fnv1a(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    EXPECT_EQ(header.type, pins[i].type) << i;
    EXPECT_EQ(bytes.size(), pins[i].size) << msg_type_name(header.type);
    EXPECT_EQ(digest, pins[i].digest) << msg_type_name(header.type);

    // Each frame also decodes on its own side of the protocol.
    Frame frame;
    frame.header = header;
    frame.payload.assign(bytes.begin() + kHeaderSize, bytes.end());
    if (msg_type_is_request(header.type)) {
      Request req;
      const Status s = decode_request(frame, &req);
      EXPECT_TRUE(s.ok()) << msg_type_name(header.type) << ": "
                          << s.message();
      if (msg_type_is_job(header.type)) {
        std::vector<std::uint8_t> again;
        ASSERT_TRUE(
            encode_job_request(req.request_id, req.job, &again, req.options)
                .ok());
        EXPECT_EQ(again, bytes) << msg_type_name(header.type);
      }
    } else {
      Response resp;
      const Status s = decode_response(frame, &resp);
      EXPECT_TRUE(s.ok()) << msg_type_name(header.type) << ": "
                          << s.message();
    }
  }
}

// --- server echo ---------------------------------------------------------

TEST(NetServer, BlockAndFftBitIdenticalToInProcess) {
  Rig rig;
  auto client = rig.client();
  for (int seed = 0; seed < 3; ++seed) {
    const auto breq = block_request(seed);
    Response remote;
    ASSERT_TRUE(client.call(breq, &remote).ok());
    ASSERT_TRUE(remote.result.ok()) << remote.result.status.message();
    const auto direct = rig.svc.wait(rig.svc.submit(breq).handle);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(
        std::get<service::JpegBlockJobResult>(remote.result.payload).zigzagged,
        std::get<service::JpegBlockJobResult>(direct.payload).zigzagged);

    const auto freq = fft_request(32, seed);
    ASSERT_TRUE(client.call(freq, &remote).ok());
    ASSERT_TRUE(remote.result.ok()) << remote.result.status.message();
    const auto fdirect = rig.svc.wait(rig.svc.submit(freq).handle);
    ASSERT_TRUE(fdirect.ok());
    // Doubles compared with ==: the wire carries exact bit patterns.
    EXPECT_EQ(std::get<service::FftJobResult>(remote.result.payload).output,
              std::get<service::FftJobResult>(fdirect.payload).output);
  }
}

TEST(NetServer, ImageReplyIsByteIdenticalJfif) {
  Rig rig;
  auto client = rig.client();
  service::JpegImageRequest req;
  req.image = jpeg::synthetic_image(32, 24, 3);
  req.quality = 70;
  Response resp;
  ASSERT_TRUE(client.call(service::JobRequest{req}, &resp).ok());
  ASSERT_TRUE(resp.result.ok());
  EXPECT_EQ(std::get<service::JpegImageJobResult>(resp.result.payload).jfif,
            jpeg::encode_image(req.image, req.quality));
}

TEST(NetServer, MalformedPayloadGetsErrorReplyAndStreamSurvives) {
  Rig rig;
  auto client = rig.client();
  ASSERT_TRUE(client.ping().ok());

  // Hand-roll a valid frame whose FFT body claims an oversized count.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_job_request(5, fft_request(32, 0), &bytes).ok());
  bytes[kHeaderSize + 8 + 28 + 12 + 3] = 0x40;  // input count |= 2^30
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_TRUE(write_all(fd, bytes).ok());
  Frame reply;
  Status err;
  ASSERT_EQ(read_frame(fd, 10000, nullptr, &reply, &err),
            ReadOutcome::kFrame);
  Response resp;
  ASSERT_TRUE(decode_response(reply, &resp).ok());
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.request_id, 5u);

  // Same socket still serves well-formed requests afterwards.
  ASSERT_TRUE(write_all(fd, encode_ping(6)).ok());
  ASSERT_EQ(read_frame(fd, 10000, nullptr, &reply, &err),
            ReadOutcome::kFrame);
  ASSERT_TRUE(decode_response(reply, &resp).ok());
  EXPECT_EQ(resp.type, MsgType::kPong);
  ::close(fd);
}

TEST(NetServer, BadMagicClosesConnection) {
  Rig rig;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  std::vector<std::uint8_t> garbage(kHeaderSize, 0xAB);
  ASSERT_TRUE(write_all(fd, garbage).ok());
  Frame reply;
  Status err;
  EXPECT_EQ(read_frame(fd, 10000, nullptr, &reply, &err),
            ReadOutcome::kClosed);
  ::close(fd);
}

// --- backpressure --------------------------------------------------------

TEST(NetServer, ServiceSaturationSurfacesAsErrorReply) {
  // One worker, queue of 1: occupy the worker with a heavy job, fill the
  // queue behind it, and the network request must bounce with the
  // service's saturation Status instead of being dropped.
  Rig rig({.workers = 1, .queue_capacity = 1});
  auto client = rig.client();
  ASSERT_TRUE(client.ping().ok());  // connection up before saturating

  auto heavy = rig.svc.submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());
  // Wait until the worker has dequeued the heavy job so the queue slot
  // is free for the filler (submit/dequeue race otherwise).
  while (rig.svc.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto filler = rig.svc.submit(block_request(0));
  ASSERT_TRUE(filler.accepted());

  Response resp;
  ASSERT_TRUE(client.call(block_request(1), &resp).ok());
  EXPECT_EQ(resp.type, MsgType::kError);
  EXPECT_NE(resp.result.status.message().find("saturated"),
            std::string::npos)
      << resp.result.status.message();
  EXPECT_GE(rig.server.counter("net.backpressure.service"), 1);

  (void)rig.svc.wait(heavy.handle);
  (void)rig.svc.wait(filler.handle);
}

TEST(NetServer, ConnectionInflightCapSurfacesAsErrorReply) {
  // In-flight cap of 1 on the connection: while one job waits behind a
  // heavy in-process job, a second pipelined request must bounce.
  Rig rig({.workers = 1, .queue_capacity = 64},
          {.max_inflight_per_connection = 1});
  auto client = rig.client();
  ASSERT_TRUE(client.ping().ok());

  auto heavy = rig.svc.submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());

  std::uint64_t id1 = 0;
  std::uint64_t id2 = 0;
  ASSERT_TRUE(client.send(block_request(0), &id1).ok());
  ASSERT_TRUE(client.send(block_request(1), &id2).ok());

  // Replies arrive in request order: job 1 (after the heavy job clears),
  // then the cap rejection for job 2.
  Response first;
  ASSERT_TRUE(client.receive(&first).ok());
  EXPECT_EQ(first.request_id, id1);
  EXPECT_TRUE(first.result.ok());
  Response second;
  ASSERT_TRUE(client.receive(&second).ok());
  EXPECT_EQ(second.request_id, id2);
  EXPECT_EQ(second.type, MsgType::kError);
  EXPECT_NE(second.result.status.message().find("in-flight"),
            std::string::npos);
  EXPECT_GE(rig.server.counter("net.backpressure.connection"), 1);

  (void)rig.svc.wait(heavy.handle);
}

TEST(NetServer, SlowReaderIsShedWithoutStallingPeers) {
  // One shard so the slow reader and the healthy peer share an event
  // loop: shedding must be per-connection, not per-shard.
  Rig rig({.workers = 2}, {.shards = 1, .write_backlog_limit = 64 * 1024});

  // The slow reader: a tiny receive window, pipelined pings, and it
  // never reads a byte back.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;  // before connect(), so the window stays small
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  auto peer = rig.client();
  ASSERT_TRUE(peer.ping().ok());

  // Pong replies pile up once the kernel buffers fill; the cap must trip
  // well before this many bursts (the bound only makes a regression fail
  // instead of hang).
  std::vector<std::uint8_t> burst;
  for (std::uint64_t i = 1; i <= 4096; ++i) {
    const auto ping = encode_ping(i);
    burst.insert(burst.end(), ping.begin(), ping.end());
  }
  for (int i = 0;
       i < 512 && rig.server.counter("net.conn_closed.write_backlog") == 0;
       ++i) {
    if (!write_all(fd, burst).ok()) break;  // server already shed us
    // The shard keeps serving its other connection the whole time.
    ASSERT_TRUE(peer.ping().ok());
  }
  for (int i = 0;
       i < 5000 && rig.server.counter("net.conn_closed.write_backlog") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rig.server.counter("net.conn_closed.write_backlog"), 1);
  EXPECT_TRUE(peer.ping().ok());
  ::close(fd);
}

// --- cancel + stats ------------------------------------------------------

TEST(NetServer, CancelQueuedJobOverTheWire) {
  Rig rig({.workers = 1, .queue_capacity = 64});
  auto client = rig.client();
  ASSERT_TRUE(client.ping().ok());

  auto heavy = rig.svc.submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());
  while (rig.svc.queue_depth() > 0) {  // worker busy on the heavy job
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Pipeline the job and its cancel: replies are strictly in request
  // order, so the (cancelled) job reply lands first, then the ack.
  std::uint64_t id = 0;
  ASSERT_TRUE(client.send(block_request(0), &id).ok());
  std::uint64_t cancel_id = 0;
  ASSERT_TRUE(client.send_cancel(id, &cancel_id).ok());

  Response job_reply;
  ASSERT_TRUE(client.receive(&job_reply).ok());
  EXPECT_EQ(job_reply.request_id, id);
  Response ack;
  ASSERT_TRUE(client.receive(&ack).ok());
  EXPECT_EQ(ack.request_id, cancel_id);
  ASSERT_EQ(ack.type, MsgType::kCancelResult);
  // Cancel races the worker: it may have started the block after the
  // heavy job.  Either way the ack and the job reply must agree.
  if (ack.cancelled) {
    EXPECT_EQ(job_reply.type, MsgType::kError);
    EXPECT_NE(job_reply.result.status.message().find("cancel"),
              std::string::npos);
  } else {
    EXPECT_TRUE(job_reply.result.ok());
  }
  // Blocking cancel of an unknown id (connection idle now): false, not
  // an error.
  bool cancelled = true;
  ASSERT_TRUE(client.cancel(987654, &cancelled).ok());
  EXPECT_FALSE(cancelled);
  (void)rig.svc.wait(heavy.handle);
}

TEST(NetServer, StatsMergeServiceAndNetCounters) {
  Rig rig;
  auto client = rig.client();
  Response resp;
  ASSERT_TRUE(client.call(block_request(0), &resp).ok());
  std::vector<obs::MetricSample> stats;
  ASSERT_TRUE(client.stats(&stats).ok());
  bool saw_service = false;
  bool saw_net = false;
  bool saw_latency = false;
  for (const auto& s : stats) {
    if (s.name == "service.jobs.completed" && s.value >= 1) {
      saw_service = true;
    }
    if (s.name == "net.requests" && s.value >= 1) saw_net = true;
    // The served request was timed into its type's latency histogram.
    if (s.name == "net.latency_ms.jpeg.block.count" && s.value >= 1) {
      saw_latency = true;
    }
  }
  EXPECT_TRUE(saw_service);
  EXPECT_TRUE(saw_net);
  EXPECT_TRUE(saw_latency);

  // The latency histograms surface as percentile gauges in the stats.
  bool saw_p99 = false;
  for (const auto& s : stats) {
    if (s.name == "net.latency_ms.jpeg.block.p99" && s.value > 0.0) {
      saw_p99 = true;
    }
  }
  EXPECT_TRUE(saw_p99);
}

TEST(NetServer, StatsFramesWhileJobsRun) {
  // kStats frames read the service and server registries on one
  // connection while pipelined JPEG-block jobs over three quant tables run
  // on another.  The shards, workers, cache and pool all update those
  // registries concurrently (the tsan preset runs this).  Once idle, the
  // totals are exact.
  constexpr int kJobs = 240;
  constexpr int kWindow = 16;
  const std::array quants = {jpeg::scaled_quant(50), jpeg::scaled_quant(75),
                             jpeg::scaled_quant(90)};
  Rig rig(service::ServiceOptions{.workers = 2});
  std::atomic<bool> done{false};
  std::int64_t stats_frames = 0;
  std::int64_t stats_failures = 0;
  std::thread reader([&] {
    auto stats_client = rig.client();
    std::vector<obs::MetricSample> stats;
    while (!done.load()) {
      if (stats_client.stats(&stats).ok()) {
        ++stats_frames;
      } else {
        ++stats_failures;
      }
    }
  });
  auto client = rig.client();
  int ok = 0;
  for (int base = 0; base < kJobs; base += kWindow) {
    for (int i = base; i < base + kWindow; ++i) {
      service::JpegBlockRequest req;
      req.raw = test_block(i);
      req.quant = quants[static_cast<std::size_t>(i) % quants.size()];
      std::uint64_t id = 0;
      EXPECT_TRUE(client.send(service::JobRequest{req}, &id).ok());
    }
    for (int i = base; i < base + kWindow; ++i) {
      Response resp;
      if (client.receive(&resp).ok() && resp.result.ok()) ++ok;
    }
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(ok, kJobs);
  EXPECT_GT(stats_frames, 0);
  EXPECT_EQ(stats_failures, 0);

  EXPECT_EQ(rig.svc.counter("service.jobs.submitted"), kJobs);
  EXPECT_EQ(rig.svc.counter("service.jobs.completed"), kJobs);
  // One pipeline-artifact lookup per JPEG-block batch.
  EXPECT_EQ(rig.svc.counter("cache.hit") + rig.svc.counter("cache.miss"),
            rig.svc.counter("service.batches"));
  EXPECT_EQ(rig.server.counter("net.requests"), kJobs + stats_frames);
  EXPECT_EQ(rig.server.counter("net.replies"), kJobs + stats_frames);
}

// --- wire tracing ---------------------------------------------------------

TEST(NetServer, EndToEndTraceSharesOneTraceIdAcrossLayers) {
  // One tracer behind server + service, a second in the client; after a
  // traced call, the merged export must show the SAME trace id on spans
  // from at least four layers (client, connection, queue, fusion/fabric).
  obs::Tracer server_tracer;
  service::ServiceOptions sopt;
  sopt.workers = 2;
  sopt.tracer = &server_tracer;
  service::Service svc(sopt);
  ServerOptions nopt;
  nopt.tracer = &server_tracer;
  Server server(&svc, nopt);
  ASSERT_TRUE(server.start().ok());

  obs::Tracer client_tracer;
  ClientOptions copt;
  copt.port = server.port();
  copt.tracer = &client_tracer;
  Client client(copt);

  CallOptions call;
  call.trace = client_tracer.make_context();
  call.deadline_ms = 30000;
  Response resp;
  ASSERT_TRUE(client.call(block_request(1), &resp, call).ok());
  ASSERT_TRUE(resp.result.ok()) << resp.result.status.message();

  TraceDumpInfo dump;
  ASSERT_TRUE(client.trace_dump(&dump).ok());
  EXPECT_GT(dump.spans, 0u);
  EXPECT_GT(dump.events_recorded, 0u);
  const std::string server_json(dump.trace_json.begin(),
                                dump.trace_json.end());
  std::vector<obs::Span> server_spans;
  ASSERT_TRUE(obs::parse_chrome_trace(server_json, &server_spans).ok());
  client_tracer.merge_spans(server_spans);

  const std::string merged = client_tracer.to_chrome_json("test");
  ASSERT_TRUE(obs::validate_chrome_trace(merged).ok());
  std::vector<obs::Span> all;
  ASSERT_TRUE(obs::parse_chrome_trace(merged, &all).ok());
  const std::string hex = obs::Tracer::trace_hex(call.trace.trace_id);
  std::set<int> layers;
  for (const auto& s : all) {
    for (const auto& a : s.args) {
      if (a.key == "trace" && a.value == hex) layers.insert(s.track);
    }
  }
  EXPECT_GE(layers.size(), 4u);
  server.stop();
}

// --- client timeout / retry ----------------------------------------------

TEST(NetClient, ConnectRetriesUntilServerAppears) {
  // Reserve a port, start the real server on it only after a delay; the
  // client's connect-retry schedule must ride over the refused attempts.
  service::Service svc(service::ServiceOptions{.workers = 1});
  Server server(&svc);
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();

  ClientOptions copt;
  copt.port = port;
  copt.max_retries = 8;
  copt.retry_backoff_ms = 25;
  Client client(copt);

  server.stop();  // now the port refuses connections
  std::thread restarter;
  service::Service svc2(service::ServiceOptions{.workers = 1});
  Server server2(&svc2, ServerOptions{.port = port});
  restarter = std::thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(server2.start().ok());
  });
  EXPECT_TRUE(client.ping().ok());
  EXPECT_GT(client.connect_attempts(), 1);
  restarter.join();
}

TEST(NetClient, RequestTimesOutAgainstBlackHole) {
  // A listener that accepts and never replies: the client must give up
  // after its per-attempt timeout x (1 + retries), not hang.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len);

  ClientOptions copt;
  copt.port = ntohs(bound.sin_port);
  copt.request_timeout_ms = 100;
  copt.max_retries = 1;
  copt.retry_backoff_ms = 10;
  Client client(copt);
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = client.ping();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no reply"), std::string::npos) << s.message();
  EXPECT_GE(elapsed.count(), 200);   // two attempts of >= 100 ms each
  EXPECT_LT(elapsed.count(), 5000);  // but it did give up
  ::close(listener);
}

// --- shutdown ------------------------------------------------------------

TEST(NetServer, GracefulShutdownFlushesInflightReplies) {
  Rig rig({.workers = 1, .queue_capacity = 64});
  auto client = rig.client();
  ASSERT_TRUE(client.ping().ok());

  // Queue several jobs, then stop the server while they are in flight.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t id = 0;
    ASSERT_TRUE(client.send(block_request(i), &id).ok());
    ids.push_back(id);
  }
  // Drain covers requests the server has *received*; wait until all four
  // (plus the ping) crossed before pulling the plug, so none are lost in
  // the socket buffer when the reader stops.
  while (rig.server.counter("net.requests") < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    rig.server.stop();
    stopped.store(true);
  });

  // Every queued reply is still delivered, in order.  (Collect first,
  // assert after the join: an ASSERT return here would leak the thread.)
  std::vector<Response> replies(ids.size());
  std::vector<Status> reads;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    reads.push_back(client.receive(&replies[i]));
  }
  stopper.join();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(reads[i].ok()) << i << ": " << reads[i].message();
    EXPECT_EQ(replies[i].request_id, ids[i]);
    EXPECT_TRUE(replies[i].result.ok())
        << replies[i].result.status.message();
  }
  EXPECT_TRUE(stopped.load());
  EXPECT_FALSE(rig.server.running());

  // And the port no longer accepts work.
  ClientOptions copt;
  copt.port = rig.server.port();
  copt.max_retries = 0;
  copt.connect_timeout_ms = 200;
  Client late(copt);
  EXPECT_FALSE(late.ping().ok());
}

TEST(NetServer, StopIsIdempotentAndDestructorSafe) {
  Rig rig;
  auto client = rig.client();
  ASSERT_TRUE(client.ping().ok());
  rig.server.stop();
  rig.server.stop();  // no-op
}

}  // namespace
}  // namespace cgra::net
