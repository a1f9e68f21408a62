#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "net/socket_util.hpp"

namespace cgra::net {

Client::Client(ClientOptions opt) : opt_(std::move(opt)) {}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::connect_once() {
  close();
  ++connect_attempts_;
  if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kClientConnect);
      d && d.action == chaos::Action::kFail) {
    return Status::errorf("injected connect failure to %s:%u",
                          opt_.host.c_str(), opt_.port);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::errorf("socket failed: %s", std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::errorf("bad host address '%s'", opt_.host.c_str());
  }
  // Non-blocking connect so the timeout is enforceable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) {
    const Status s = Status::errorf("connect to %s:%u failed: %s",
                                    opt_.host.c_str(), opt_.port,
                                    std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (rc < 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int ready = ::poll(&pfd, 1, std::max(1, opt_.connect_timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      return Status::errorf("connect to %s:%u timed out after %d ms",
                            opt_.host.c_str(), opt_.port,
                            opt_.connect_timeout_ms);
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::errorf("connect to %s:%u failed: %s",
                            opt_.host.c_str(), opt_.port,
                            std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  // Nagle off is a latency optimisation, not a correctness requirement:
  // a failure here still leaves a working (slower) connection.
  (void)set_nodelay(fd);
  fd_ = fd;
  return Status();
}

Status Client::connect() {
  Status last;
  int backoff = opt_.retry_backoff_ms;
  for (int attempt = 0; attempt <= opt_.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = static_cast<int>(backoff * opt_.backoff_factor);
    }
    last = connect_once();
    if (last.ok()) return last;
  }
  return last;
}

Status Client::ensure_connected() {
  if (fd_ >= 0) return Status();
  return connect_once();
}

Status Client::read_response(Response* out) {
  Frame frame;
  Status err;
  const ReadOutcome outcome = read_frame(fd_, opt_.request_timeout_ms,
                                         nullptr, &frame, &err);
  switch (outcome) {
    case ReadOutcome::kFrame:
      break;
    case ReadOutcome::kClosed:
      return Status::error("server closed the connection");
    case ReadOutcome::kTimeout:
      return Status::errorf("no reply within %d ms", opt_.request_timeout_ms);
    default:
      return err.ok() ? Status::error("read failed") : err;
  }
  return decode_response(frame, out);
}

Status Client::roundtrip(const std::vector<std::uint8_t>& frame,
                         std::uint64_t request_id, bool idempotent,
                         Response* out) {
  Status last;
  bool maybe_sent = false;  ///< A write was attempted; the server may have
                            ///< received (and started executing) the request.
  int backoff = opt_.retry_backoff_ms;
  for (int attempt = 0; attempt <= opt_.max_retries; ++attempt) {
    if (attempt > 0) {
      if (maybe_sent && !idempotent) break;  // resend could double-execute
      if (opt_.tracer != nullptr && trace_ctx_.valid()) {
        opt_.tracer->event(trace_ctx_, obs::FlightEventKind::kRetry, 0,
                           static_cast<std::uint32_t>(attempt));
      }
      // A failed attempt leaves the stream in an unknown state (a reply
      // may be half-delivered), so retries always reconnect first.
      close();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = static_cast<int>(backoff * opt_.backoff_factor);
    }
    last = ensure_connected();
    if (!last.ok()) continue;
    const std::vector<std::uint8_t>* to_send = &frame;
    std::vector<std::uint8_t> mutated;
    if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kClientFrame)) {
      if (d.action == chaos::Action::kDelay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(d.a));
      } else {
        mutated = frame;
        if (chaos::mutate_frame(d, &mutated)) to_send = &mutated;
      }
    }
    maybe_sent = true;
    last = write_all(fd_, *to_send);
    if (!last.ok()) continue;
    if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kClientRecv);
        d && d.action == chaos::Action::kReset) {
      close();
      last = Status::error("injected receive reset");
      continue;
    }
    last = read_response(out);
    if (!last.ok()) continue;
    if (out->request_id != request_id) {
      // In-order protocol: a mismatched id means the stream is desynced
      // (e.g. a stale reply after a timeout).  Resync by reconnecting.
      last = Status::errorf("reply id %llu does not match request %llu",
                            static_cast<unsigned long long>(out->request_id),
                            static_cast<unsigned long long>(request_id));
      continue;
    }
    return Status();
  }
  close();
  if (maybe_sent && !idempotent) {
    return Status::unknown_outcome(
        "request may have been executed (no idempotency id, so not "
        "retried): " +
        last.message());
  }
  return last;
}

Status Client::ping() {
  const std::uint64_t id = next_id_++;
  Response resp;
  const Status s = roundtrip(encode_ping(id), id, /*idempotent=*/true, &resp);
  if (!s.ok()) return s;
  if (resp.type != MsgType::kPong) {
    return Status::errorf("expected pong, got %s", msg_type_name(resp.type));
  }
  return Status();
}

Status Client::call(const service::JobRequest& job, Response* out,
                    const CallOptions& options) {
  const std::uint64_t id = next_id_++;
  obs::TraceContext ctx = options.trace;
  if (!ctx.valid() && opt_.tracer != nullptr) {
    ctx = opt_.tracer->make_context();
  }
  std::vector<std::uint8_t> frame;
  JobFrameOptions wire;
  wire.deadline_ms = options.deadline_ms;
  wire.idempotency_id = options.idempotency_id;
  wire.trace = ctx;
  const Status enc = encode_job_request(id, job, &frame, wire);
  if (!enc.ok()) return enc;
  const Nanoseconds t0 = obs::trace_clock_ns();
  trace_ctx_ = ctx;
  const Status s = roundtrip(frame, id, options.idempotency_id != 0, out);
  trace_ctx_ = obs::TraceContext{};
  if (opt_.tracer != nullptr && ctx.valid()) {
    opt_.tracer->span(obs::kTraceTrackClient,
                      "call req " + std::to_string(id), ctx, t0,
                      obs::trace_clock_ns() - t0,
                      {{"status", status_code_name(s.code()), false}});
  }
  return s;
}

Status Client::stats(std::vector<obs::MetricSample>* out) {
  const std::uint64_t id = next_id_++;
  Response resp;
  const Status s = roundtrip(encode_stats(id), id, /*idempotent=*/true, &resp);
  if (!s.ok()) return s;
  if (resp.type != MsgType::kStatsResult) {
    return Status::errorf("expected stats result, got %s",
                          msg_type_name(resp.type));
  }
  *out = std::move(resp.stats);
  return Status();
}

Status Client::trace_dump(TraceDumpInfo* out) {
  const std::uint64_t id = next_id_++;
  Response resp;
  const Status s =
      roundtrip(encode_trace_dump(id), id, /*idempotent=*/true, &resp);
  if (!s.ok()) return s;
  if (resp.type != MsgType::kTraceDumpResult) {
    return Status::errorf("expected trace dump result, got %s",
                          msg_type_name(resp.type));
  }
  *out = std::move(resp.trace_dump);
  return Status();
}

Status Client::cancel(std::uint64_t target_id, bool* cancelled) {
  const std::uint64_t id = next_id_++;
  Response resp;
  // Cancelling twice acks the same way, so post-send retries are safe.
  const Status s = roundtrip(encode_cancel(id, target_id), id,
                             /*idempotent=*/true, &resp);
  if (!s.ok()) return s;
  if (resp.type != MsgType::kCancelResult) {
    return Status::errorf("expected cancel result, got %s",
                          msg_type_name(resp.type));
  }
  *cancelled = resp.cancelled;
  return Status();
}

Status Client::send(const service::JobRequest& job, std::uint64_t* request_id,
                    const CallOptions& options) {
  const Status conn = ensure_connected();
  if (!conn.ok()) return conn;
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  JobFrameOptions wire;
  wire.deadline_ms = options.deadline_ms;
  wire.idempotency_id = options.idempotency_id;
  wire.trace = options.trace;
  const Status enc = encode_job_request(id, job, &frame, wire);
  if (!enc.ok()) return enc;
  if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kClientFrame)) {
    if (d.action == chaos::Action::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(d.a));
    } else {
      chaos::mutate_frame(d, &frame);
    }
  }
  const Status sent = write_all(fd_, frame);
  if (!sent.ok()) {
    close();
    return sent;
  }
  *request_id = id;
  return Status();
}

Status Client::send_cancel(std::uint64_t target_id,
                           std::uint64_t* request_id) {
  const Status conn = ensure_connected();
  if (!conn.ok()) return conn;
  const std::uint64_t id = next_id_++;
  const Status sent = write_all(fd_, encode_cancel(id, target_id));
  if (!sent.ok()) {
    close();
    return sent;
  }
  *request_id = id;
  return Status();
}

Status Client::receive(Response* out) {
  if (fd_ < 0) return Status::error("not connected");
  const Status s = read_response(out);
  if (!s.ok()) close();
  return s;
}

}  // namespace cgra::net
