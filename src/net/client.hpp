// cgra::net::Client — blocking TCP client for the serving layer.
//
// One connection, requests paired to replies by the echoed request id.
// call() is the simple path: send one job, block for its reply.  The
// send()/receive() pair exposes pipelining (many requests in flight on
// one connection, replies in request order) for load generators.
//
// Transient transport failures — connect refused/reset while the server
// restarts, a broken pipe, a reply timeout — are retried with
// exponential backoff after reconnecting.  Retry safety is explicit
// about WHEN the failure happened: before the request bytes were
// written, any request retries; after they may have been sent, only
// requests carrying an idempotency id (the server deduplicates them) are
// resent — anything else returns kUnknownOutcome, because a blind resend
// could double-execute it.  Protocol-level errors (kError replies,
// malformed responses) are never retried.
//
// Not thread-safe: one Client per thread (see bench_net_throughput).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/status.hpp"
#include "net/protocol.hpp"

namespace cgra::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 2000;
  /// Reply wait bound per attempt; <= 0 waits forever.
  int request_timeout_ms = 30000;
  /// Transport retries after the first attempt (0 = fail fast).
  int max_retries = 3;
  int retry_backoff_ms = 50;     ///< First backoff; doubles per retry.
  double backoff_factor = 2.0;
  /// Chaos injector for the client-side hooks (kClientConnect,
  /// kClientFrame, kClientRecv); not owned, must outlive the client.
  chaos::ChaosInjector* chaos = nullptr;
  /// Wire tracer: call() generates a propagated trace context per
  /// request (when CallOptions::trace is unset), records a client span
  /// around the round-trip, and logs retry flight events.  Not owned,
  /// must outlive the client; null = untraced.
  obs::Tracer* tracer = nullptr;
};

/// Per-call robustness options (wire fields of job frames).
struct CallOptions {
  /// Milliseconds the caller will wait; propagated end to end and
  /// enforced by the server at queue admission and epoch boundaries.
  std::uint32_t deadline_ms = 0;
  /// Non-zero marks the request idempotent: the server deduplicates
  /// repeats of the same id, so post-send retries are safe.
  std::uint64_t idempotency_id = 0;
  /// Explicit trace identity to propagate.  Invalid (the default) lets
  /// call() mint one from ClientOptions::tracer.
  obs::TraceContext trace;
};

class Client {
 public:
  explicit Client(ClientOptions opt);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect now (otherwise the first request connects lazily).  Applies
  /// the retry policy.
  [[nodiscard]] Status connect();
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Round-trip a ping.
  [[nodiscard]] Status ping();

  /// Submit one job and block for its result (with transport retries —
  /// post-send retries only when `options.idempotency_id` is set; a
  /// possibly-sent non-idempotent request fails with kUnknownOutcome).
  [[nodiscard]] Status call(const service::JobRequest& job, Response* out,
                            const CallOptions& options = {});

  /// Fetch the server's merged stats samples (service.* + net.*).
  [[nodiscard]] Status stats(std::vector<obs::MetricSample>* out);

  /// Pull the server tracer's live dump: anomaly/span/event counts plus
  /// the full Chrome trace JSON (merge it locally with
  /// obs::parse_chrome_trace + Tracer::merge_spans).
  [[nodiscard]] Status trace_dump(TraceDumpInfo* out);

  /// Ask the server to cancel a job by its request id; `cancelled`
  /// reports whether it was still cancellable.  Blocking: replies are
  /// strictly in request order, so only use this when no other requests
  /// are in flight on this connection (pipelined callers use
  /// send_cancel() and pair the ack via receive()).
  [[nodiscard]] Status cancel(std::uint64_t target_id, bool* cancelled);

  // --- pipelining (no retries: callers manage the stream) ---

  /// Fire a job request without waiting; returns the assigned id.
  [[nodiscard]] Status send(const service::JobRequest& job,
                            std::uint64_t* request_id,
                            const CallOptions& options = {});
  /// Fire a cancel for `target_id` without waiting; the kCancelResult
  /// ack arrives via receive() behind any earlier in-flight replies.
  [[nodiscard]] Status send_cancel(std::uint64_t target_id,
                                   std::uint64_t* request_id);
  /// Read the next in-order reply.
  [[nodiscard]] Status receive(Response* out);

  /// Connect attempts made so far (tests assert the retry schedule).
  [[nodiscard]] int connect_attempts() const noexcept {
    return connect_attempts_;
  }

 private:
  [[nodiscard]] Status connect_once();
  [[nodiscard]] Status ensure_connected();
  /// Send `frame` and wait for the reply matching `request_id`, applying
  /// the retry policy on transport failures.  `idempotent` gates
  /// post-send retries (see the file comment).
  [[nodiscard]] Status roundtrip(const std::vector<std::uint8_t>& frame,
                                 std::uint64_t request_id, bool idempotent,
                                 Response* out);
  [[nodiscard]] Status read_response(Response* out);

  const ClientOptions opt_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  /// Trace identity of the call in flight; roundtrip() tags its retry
  /// flight events with it (invalid between calls).
  obs::TraceContext trace_ctx_;
  int connect_attempts_ = 0;
};

}  // namespace cgra::net
