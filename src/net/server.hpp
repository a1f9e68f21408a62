// cgra::net::Server — the TCP front-end over cgra::service::Service.
//
// Event-driven reactor: one acceptor thread plus N epoll event-loop
// shards (ServerOptions::shards; hardware_concurrency by default).  A
// connection is pinned to a shard at accept and all of its state is
// owned by that shard's thread — no per-connection locks, no
// thread-per-connection.  Each shard runs:
//
//   accept inbox -> epoll_wait (edge-triggered) -> bounded per-wakeup
//   frame processing -> reply pump -> write flush -> idle sweep
//
// Framing is non-blocking and incremental: bytes accumulate in a
// per-connection read buffer, complete frames are decoded and handled
// inline (control frames answered immediately, job frames submitted to
// the service).  Replies are delivered strictly in request order
// (HTTP/1.1-style pipelining, paired by order AND the echoed request
// id): each connection keeps a pending-reply deque whose front is the
// next reply owed; job results are collected via Service completion
// hooks, which wake the owning shard through an eventfd — no thread
// ever blocks on a job.  Outbound frames land in a per-connection write
// queue flushed with sendmsg/iovec write coalescing; EAGAIN arms
// EPOLLOUT and the flush resumes on writability.  Per-wakeup work is
// bounded (a frame budget per connection per round) so one busy or slow
// client cannot starve its shard.
//
// Backpressure is surfaced, never silently dropped:
//   * in-flight cap / service saturation  -> kError reply, stream lives;
//   * token-bucket admission control (ServerOptions::admission_rate)
//     sheds job frames with kUnavailable replies (net.admission.shed);
//   * a slow READER whose unsent replies exceed write_backlog_limit is
//     closed (net.conn_closed.write_backlog) instead of holding shard
//     memory hostage.
// Malformed framing (bad magic/version/oversized length) desyncs the
// byte stream, so those close the connection; malformed payloads inside
// valid frames get kError replies.
//
// Robustness: job frames carry a deadline (propagated to the service as
// an absolute submit deadline) and an idempotency id.
// Ids deduplicate retries server-side — a repeat of an id the server
// has seen attaches to the ORIGINAL job's handle instead of submitting
// again, so a client retrying after an ambiguous failure can never
// double-execute work.  kHealth frames answer a readiness snapshot
// without touching the job queue.
//
// Every connection close is attributed to a structured reason
// (net.conn_closed.{peer_eof,idle_timeout,malformed,write_error,chaos,
// write_backlog,drain}, first cause wins) alongside the
// net.connections.closed total.  Chaos hooks (kAccept, kServerRead,
// kServerWrite, kServerFrame) are compiled into the accept/frame/reply
// paths; they cost one null test when ServerOptions::chaos is unset.
//
// Shutdown is drain-then-close: stop() closes the listener, half-closes
// every connection for reading, flushes all pending replies (in-flight
// jobs complete via their hooks), then closes.  The Service must
// outlive the Server.  Loopback-only by default.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "service/service.hpp"

namespace cgra::net {

enum class MsgType : std::uint8_t;  // protocol.hpp
struct Frame;                       // protocol.hpp

/// Why a connection closed; the FIRST cause observed wins (e.g. a chaos
/// reset that later surfaces as a write error still counts as chaos).
enum class CloseReason : std::uint8_t {
  kPeerEof = 0,    ///< Client closed its side cleanly.
  kIdleTimeout,    ///< No frame started within idle_timeout_ms.
  kMalformed,      ///< Framing desync (bad magic/version/length).
  kWriteError,     ///< Reply delivery failed (peer gone mid-write).
  kChaos,          ///< An injected fault tore the connection down.
  kWriteBacklog,   ///< Unsent replies exceeded write_backlog_limit.
  kDrain,          ///< Server-initiated shutdown drain.
};

inline constexpr int kCloseReasonCount =
    static_cast<int>(CloseReason::kDrain) + 1;

[[nodiscard]] const char* close_reason_name(CloseReason reason) noexcept;

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = pick an ephemeral port (see port()).
  bool loopback_only = true;           ///< Bind 127.0.0.1, not 0.0.0.0.
  int max_connections = 64;            ///< Accepted sockets beyond it close.
  int max_inflight_per_connection = 32;  ///< Job frames awaiting replies.
  /// Close a connection idle (no frame started) for this long; <= 0 waits
  /// forever.
  int idle_timeout_ms = 60000;
  /// Distinct idempotency ids remembered for reply deduplication (FIFO
  /// eviction).  Retries of a remembered id reuse the original job's
  /// result instead of executing again.
  int reply_cache_capacity = 1024;
  /// Chaos injector for the server-side hooks (kAccept, kServerRead,
  /// kServerWrite, kServerFrame); not owned, must outlive the server.
  chaos::ChaosInjector* chaos = nullptr;
  /// Wire tracer recording connection spans, flight events and the
  /// kTraceDump payload.  Share one tracer between the Server and its
  /// Service so a request's spans land in one timeline.  Not owned; must
  /// outlive the server.  Null: the server creates a private tracer, so
  /// kTraceDump always answers.
  obs::Tracer* tracer = nullptr;
  /// Epoll event-loop shards; 0 = hardware_concurrency (>= 1).
  int shards = 0;
  /// Per-connection bound on queued-but-unsent reply bytes.  Checked
  /// BEFORE each new reply is queued, so a single oversized reply always
  /// goes out — but a reader that has not drained earlier replies past
  /// the limit is closed (kWriteBacklog) rather than growing the queue
  /// without bound.
  std::size_t write_backlog_limit = 4u << 20;
  /// Token-bucket admission control over job frames: sustained
  /// requests/s (0 disables) with `admission_burst` of headroom.  Shed
  /// requests are answered kUnavailable — never silently dropped.
  double admission_rate = 0.0;
  int admission_burst = 64;
};

class Server {
 public:
  /// `service` must outlive the server.
  explicit Server(service::Service* service, ServerOptions opt = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, start the shard loops and the acceptor.  Fails on
  /// bind/listen errors (e.g. port in use).
  [[nodiscard]] Status start();

  /// Graceful drain-then-shutdown; idempotent, called by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return started_ && !stopping_.load(std::memory_order_relaxed);
  }

  /// The bound port (resolves option port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Server-side counters (net.*).  The samples include count and
  /// p50/p90/p99 gauges derived from the per-request-type latency
  /// histograms (net.latency_ms.<type>.count, .p50 ...).  Both are
  /// callable from any thread while the server runs.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  [[nodiscard]] std::vector<obs::MetricSample> metrics_samples() const;

  /// The tracer answering kTraceDump (the option's, or the private one).
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  struct Connection;
  struct Shard;

  void accept_loop();
  void shard_loop(const std::shared_ptr<Shard>& shard);

  /// Poke a shard's eventfd so its epoll_wait returns promptly.
  static void wake_shard(Shard* shard);
  void push_ready(Shard* shard, const std::shared_ptr<Connection>& conn);

  /// Half-close for reading and, once pending replies and the write
  /// queue drain, close.  Keeps the old reader-exits-writer-flushes
  /// semantics: queued replies are still delivered.
  void begin_drain(const std::shared_ptr<Shard>& shard,
                   const std::shared_ptr<Connection>& conn);
  void close_conn(const std::shared_ptr<Shard>& shard,
                  const std::shared_ptr<Connection>& conn);

  /// Drain readable bytes / buffered frames under the per-wakeup budget.
  /// Returns true when work remains (keep the connection scheduled).
  bool pump_reads(const std::shared_ptr<Shard>& shard,
                  const std::shared_ptr<Connection>& conn);
  /// Handle one decoded frame; false when the connection was torn down.
  bool handle_frame(const std::shared_ptr<Shard>& shard,
                    const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  /// Deliver in-order replies from the pending deque while results are
  /// available; closes a draining connection once everything flushed.
  void pump_replies(const std::shared_ptr<Shard>& shard,
                    const std::shared_ptr<Connection>& conn);
  /// Chaos hooks + write-queue append + flush for one encoded reply.
  /// False when the connection was torn down.
  bool send_reply(const std::shared_ptr<Shard>& shard,
                  const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> bytes);
  /// Flush the write queue with sendmsg/iovec coalescing; arms EPOLLOUT
  /// on EAGAIN.  False when the connection was torn down.
  bool flush_writes(const std::shared_ptr<Shard>& shard,
                    const std::shared_ptr<Connection>& conn);
  void update_epoll(Shard* shard, Connection* conn);

  /// Token-bucket admission: true when the job frame may proceed.
  bool admission_allow();

  /// Record why `conn` is going down (first cause wins).
  void note_close(Connection* conn, CloseReason reason);
  /// Count one closed connection under its recorded reason.
  void count_close(Connection* conn);

  /// Reply-dedup lookup: the handle of the job originally submitted for
  /// `idempotency_id`, or null when unseen.
  [[nodiscard]] service::JobHandle cached_reply(std::uint64_t idempotency_id);
  void remember_reply(std::uint64_t idempotency_id,
                      const service::JobHandle& handle);

  [[nodiscard]] Nanoseconds now_ns() const;

  /// Latency histogram for a job request type (null handle otherwise).
  [[nodiscard]] obs::HistogramHandle latency_histogram(MsgType type) const;

  service::Service* const service_;
  const ServerOptions opt_;
  std::unique_ptr<obs::Tracer> own_tracer_;  ///< When no tracer was given.
  obs::Tracer* tracer_ = nullptr;            ///< Never null after ctor.
  const std::chrono::steady_clock::time_point epoch_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;

  std::vector<std::shared_ptr<Shard>> shards_;
  std::atomic<std::size_t> next_shard_{0};  ///< Round-robin pin cursor.
  std::atomic<int> open_conns_{0};

  /// Token-bucket state for admission control (shards contend briefly).
  std::mutex admission_mu_;
  double admission_tokens_ = 0.0;
  std::chrono::steady_clock::time_point admission_refill_;

  /// Idempotency id -> original job handle, FIFO-evicted at
  /// reply_cache_capacity.  Guarded by cache_mu_.
  std::mutex cache_mu_;
  std::unordered_map<std::uint64_t, service::JobHandle> reply_cache_;
  std::deque<std::uint64_t> reply_cache_order_;

  /// Registered in the constructor and start(), before any shard or
  /// acceptor thread runs; updated lock-free from all of them.
  obs::MetricsRegistry metrics_;
  obs::CounterHandle accepted_;
  obs::CounterHandle refused_;
  obs::CounterHandle closed_;
  std::array<obs::CounterHandle, kCloseReasonCount> closed_reason_;
  obs::CounterHandle requests_;
  obs::CounterHandle replies_;
  obs::CounterHandle errors_;
  obs::CounterHandle malformed_;
  obs::CounterHandle conn_backpressure_;
  obs::CounterHandle service_backpressure_;
  obs::CounterHandle idempotent_hits_;
  obs::CounterHandle deadline_submits_;
  obs::CounterHandle admission_shed_;
  obs::CounterHandle bytes_in_;
  obs::CounterHandle bytes_out_;
  /// Per-request-type latency histograms, indexed by job MsgType -
  /// kJpegBlock (jpeg.block, jpeg.image, fft, dse.sweep).
  std::array<obs::HistogramHandle, 4> latency_ms_{};
};

}  // namespace cgra::net
