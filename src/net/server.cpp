#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/protocol.hpp"
#include "net/socket_util.hpp"

namespace cgra::net {

namespace {

/// Frames handled per connection per shard round: bounds the time one
/// busy pipelined client can hold the shard before its peers get a turn.
constexpr int kFrameBudget = 16;

/// recv() chunk size for the incremental read buffer.
constexpr std::size_t kReadChunk = 64 * 1024;

/// iovec entries per sendmsg: coalesces up to this many queued replies
/// into one syscall.
constexpr std::size_t kMaxIov = 16;

/// Shard idle sweep cadence and epoll timeout when no work is ready.
constexpr int kSweepSliceMs = 20;

/// Once a frame header arrived, the rest must follow within this budget
/// (matches the blocking reader's body timeout).
constexpr auto kBodyTimeout = std::chrono::milliseconds(10000);

/// Shutdown drain bound: a peer that will not take its replies cannot
/// hold stop() hostage past this.
constexpr auto kDrainTimeout = std::chrono::milliseconds(10000);

}  // namespace

const char* close_reason_name(CloseReason reason) noexcept {
  switch (reason) {
    case CloseReason::kPeerEof: return "peer_eof";
    case CloseReason::kIdleTimeout: return "idle_timeout";
    case CloseReason::kMalformed: return "malformed";
    case CloseReason::kWriteError: return "write_error";
    case CloseReason::kChaos: return "chaos";
    case CloseReason::kWriteBacklog: return "write_backlog";
    case CloseReason::kDrain: return "drain";
  }
  return "?";
}

/// Per-connection state.  Everything here is owned by the connection's
/// shard thread — no mutex.  Other threads only ever see the connection
/// through the shard's locked inbox/completions vectors.
struct Server::Connection {
  int fd = -1;

  // Incremental framing: bytes accumulate in rbuf, rpos marks how far
  // complete frames have been consumed.
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;

  bool read_ready = false;   ///< Edge-triggered readability latch.
  bool write_ready = false;  ///< EPOLLOUT observed, flush pending.
  bool want_write = false;   ///< EPOLLOUT armed in the epoll set.
  bool in_ready = false;     ///< Already queued on the shard ready list.
  bool draining = false;     ///< Read side closed; flushing replies.
  bool closed = false;

  std::chrono::steady_clock::time_point last_rx;  ///< Last byte received.

  /// One reply slot, delivered strictly in request order.  Control and
  /// error replies are pre-encoded (`ready`); job replies wait for
  /// Service::try_result when their turn comes (completion hooks wake
  /// the shard, so nothing blocks).
  struct Pending {
    std::vector<std::uint8_t> ready;
    service::JobHandle handle;
    MsgType request_type = MsgType::kPing;
    std::uint64_t request_id = 0;
    Nanoseconds start_ns = 0;
    obs::TraceContext trace;          ///< Propagated trace identity.
    Nanoseconds trace_start_ns = 0;   ///< Frame arrival, trace clock.
  };
  std::deque<Pending> pending;
  std::unordered_map<std::uint64_t, service::JobHandle> active;
  int inflight = 0;

  // Write coalescing queue: encoded frames awaiting the socket.
  std::deque<std::vector<std::uint8_t>> wq;
  std::size_t wq_front_off = 0;  ///< Sent bytes of wq.front().
  std::size_t wq_bytes = 0;      ///< Total unsent bytes across wq.

  int close_reason = -1;  ///< First CloseReason observed; -1 = none yet.
};

/// One epoll event loop.  `mu` guards only the cross-thread mailboxes
/// (inbox from the acceptor, completions from service worker threads);
/// everything else is shard-thread-only.
struct Server::Shard {
  int epfd = -1;
  int wake_fd = -1;  ///< eventfd; data.ptr == nullptr marks it in events.
  std::thread thread;
  obs::GaugeHandle conn_gauge;

  std::mutex mu;
  std::vector<std::shared_ptr<Connection>> inbox;
  std::vector<std::shared_ptr<Connection>> completions;

  // Shard-thread-only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::deque<std::shared_ptr<Connection>> ready;

  ~Shard() {
    if (epfd >= 0) ::close(epfd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

void Server::note_close(Connection* conn, CloseReason reason) {
  if (conn->close_reason < 0) conn->close_reason = static_cast<int>(reason);
}

void Server::count_close(Connection* conn) {
  // A connection with no recorded cause went down in the shutdown drain.
  if (conn->close_reason < 0) {
    conn->close_reason = static_cast<int>(CloseReason::kDrain);
  }
  metrics_.add(closed_);
  metrics_.add(closed_reason_[static_cast<std::size_t>(conn->close_reason)]);
}

service::JobHandle Server::cached_reply(std::uint64_t idempotency_id) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  const auto it = reply_cache_.find(idempotency_id);
  return it == reply_cache_.end() ? nullptr : it->second;
}

void Server::remember_reply(std::uint64_t idempotency_id,
                            const service::JobHandle& handle) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!reply_cache_.emplace(idempotency_id, handle).second) return;
  reply_cache_order_.push_back(idempotency_id);
  while (reply_cache_order_.size() >
         static_cast<std::size_t>(std::max(1, opt_.reply_cache_capacity))) {
    reply_cache_.erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
}

Server::Server(service::Service* service, ServerOptions opt)
    : service_(service),
      opt_([&] {
        ServerOptions o = opt;
        o.max_connections = std::max(1, o.max_connections);
        o.max_inflight_per_connection =
            std::max(1, o.max_inflight_per_connection);
        o.write_backlog_limit = std::max<std::size_t>(o.write_backlog_limit, 1);
        o.admission_burst = std::max(1, o.admission_burst);
        return o;
      }()),
      epoch_(std::chrono::steady_clock::now()) {
  if (opt_.tracer != nullptr) {
    tracer_ = opt_.tracer;
  } else {
    own_tracer_ = std::make_unique<obs::Tracer>();
    tracer_ = own_tracer_.get();
  }
  if (opt_.chaos != nullptr) opt_.chaos->attach_tracer(tracer_);
  admission_tokens_ = static_cast<double>(opt_.admission_burst);
  admission_refill_ = std::chrono::steady_clock::now();
  accepted_ = metrics_.counter("net.connections.accepted");
  refused_ = metrics_.counter("net.connections.refused");
  closed_ = metrics_.counter("net.connections.closed");
  for (int r = 0; r < kCloseReasonCount; ++r) {
    closed_reason_[static_cast<std::size_t>(r)] = metrics_.counter(
        std::string("net.conn_closed.") +
        close_reason_name(static_cast<CloseReason>(r)));
  }
  requests_ = metrics_.counter("net.requests");
  replies_ = metrics_.counter("net.replies");
  errors_ = metrics_.counter("net.replies.error");
  malformed_ = metrics_.counter("net.frames.malformed");
  conn_backpressure_ = metrics_.counter("net.backpressure.connection");
  service_backpressure_ = metrics_.counter("net.backpressure.service");
  idempotent_hits_ = metrics_.counter("net.idempotent.hits");
  deadline_submits_ = metrics_.counter("net.deadline.submits");
  admission_shed_ = metrics_.counter("net.admission.shed");
  bytes_in_ = metrics_.counter("net.bytes.in");
  bytes_out_ = metrics_.counter("net.bytes.out");
  const std::vector<double> latency_bounds = {0.1, 0.25, 0.5,  1.0,  2.5,
                                              5.0, 10.0, 25.0, 50.0, 100.0,
                                              250.0, 1000.0};
  const char* const kJobNames[4] = {"jpeg.block", "jpeg.image", "fft",
                                    "dse.sweep"};
  for (std::size_t i = 0; i < latency_ms_.size(); ++i) {
    latency_ms_[i] = metrics_.histogram(
        std::string("net.latency_ms.") + kJobNames[i], latency_bounds);
  }
}

Server::~Server() { stop(); }

Nanoseconds Server::now_ns() const {
  return static_cast<Nanoseconds>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Status Server::start() {
  if (started_) return Status::error("server already started");
  const Status listening =
      listen_tcp(opt_.port, opt_.loopback_only, 4096, &listen_fd_, &port_);
  if (!listening.ok()) {
    listen_fd_ = -1;
    return listening;
  }
  const int nshards =
      opt_.shards > 0
          ? opt_.shards
          : std::max(1u, std::thread::hardware_concurrency());
  shards_.reserve(static_cast<std::size_t>(nshards));
  for (int i = 0; i < nshards; ++i) {
    auto shard = std::make_shared<Shard>();
    shard->epfd = ::epoll_create1(0);
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (shard->epfd < 0 || shard->wake_fd < 0) {
      shards_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::errorf("shard setup failed: %s", std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // marks the wake eventfd in the event batch
    if (::epoll_ctl(shard->epfd, EPOLL_CTL_ADD, shard->wake_fd, &ev) < 0) {
      shards_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::errorf("epoll_ctl(wake) failed: %s",
                            std::strerror(errno));
    }
    shard->conn_gauge = metrics_.gauge("net.shard." + std::to_string(i) +
                                       ".connections");
    shards_.push_back(std::move(shard));
  }
  started_ = true;
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, shard] { shard_loop(shard); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return Status();
}

void Server::stop() {
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    // Stop accepting; shards drain their connections below.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& shard : shards_) wake_shard(shard.get());
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Shards (and their fds) stay alive until destruction: completion
  // hooks for jobs still running in the service hold weak_ptrs and may
  // yet write the eventfd — harmless while it is a real, open eventfd.
}

std::int64_t Server::counter(std::string_view name) const {
  return metrics_.counter_value(name);
}

obs::HistogramHandle Server::latency_histogram(MsgType type) const {
  if (!msg_type_is_job(type)) return {};
  return latency_ms_[static_cast<std::size_t>(type) -
                     static_cast<std::size_t>(MsgType::kJpegBlock)];
}

std::vector<obs::MetricSample> Server::metrics_samples() const {
  auto samples = metrics_.samples();
  // Percentile gauges from the latency histograms: remote stats readers
  // get p50/p90/p99 without shipping the raw buckets over the wire.
  for (const obs::HistogramSnapshot& h : metrics_.histograms()) {
    if (h.total <= 0) continue;
    samples.push_back({h.name + ".count", true,
                       static_cast<double>(h.total)});
    samples.push_back({h.name + ".p50", false, histogram_quantile(h, 0.50)});
    samples.push_back({h.name + ".p90", false, histogram_quantile(h, 0.90)});
    samples.push_back({h.name + ".p99", false, histogram_quantile(h, 0.99)});
  }
  return samples;
}

bool Server::admission_allow() {
  if (opt_.admission_rate <= 0.0) return true;
  std::lock_guard<std::mutex> lock(admission_mu_);
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      std::chrono::duration<double>(now - admission_refill_).count();
  admission_refill_ = now;
  admission_tokens_ =
      std::min(static_cast<double>(opt_.admission_burst),
               admission_tokens_ + dt * opt_.admission_rate);
  if (admission_tokens_ < 1.0) return false;
  admission_tokens_ -= 1.0;
  return true;
}

void Server::wake_shard(Shard* shard) {
  const std::uint64_t one = 1;
  (void)!::write(shard->wake_fd, &one, sizeof one);
}

void Server::push_ready(Shard* shard,
                        const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->in_ready) return;
  conn->in_ready = true;
  shard->ready.push_back(conn);
}

void Server::update_epoll(Shard* shard, Connection* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET |
              (conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = conn;
  (void)::epoll_ctl(shard->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::close_conn(const std::shared_ptr<Shard>& shard,
                        const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  (void)::epoll_ctl(shard->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->pending.clear();
  conn->wq.clear();
  conn->wq_bytes = 0;
  conn->wq_front_off = 0;
  conn->active.clear();
  count_close(conn.get());
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  shard->conns.erase(conn->fd);
  metrics_.set(shard->conn_gauge, static_cast<double>(shard->conns.size()));
}

void Server::begin_drain(const std::shared_ptr<Shard>& shard,
                         const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->draining) return;
  conn->draining = true;
  ::shutdown(conn->fd, SHUT_RD);
  conn->rbuf.clear();
  conn->rpos = 0;
  conn->read_ready = false;
  if (conn->pending.empty() && conn->wq.empty()) close_conn(shard, conn);
}

bool Server::flush_writes(const std::shared_ptr<Shard>& shard,
                          const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return false;
  while (!conn->wq.empty()) {
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t off = conn->wq_front_off;
    for (auto it = conn->wq.begin(); it != conn->wq.end() && niov < kMaxIov;
         ++it) {
      iov[niov].iov_base = it->data() + off;
      iov[niov].iov_len = it->size() - off;
      off = 0;
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    // sendmsg, not writev: the coalesced write still needs MSG_NOSIGNAL.
    const ssize_t sent = ::sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          update_epoll(shard.get(), conn.get());
        }
        return true;  // resume on EPOLLOUT
      }
      note_close(conn.get(), CloseReason::kWriteError);
      close_conn(shard, conn);
      return false;
    }
    std::size_t left = static_cast<std::size_t>(sent);
    conn->wq_bytes -= left;
    while (left > 0) {
      auto& front = conn->wq.front();
      const std::size_t avail = front.size() - conn->wq_front_off;
      if (left >= avail) {
        left -= avail;
        conn->wq.pop_front();
        conn->wq_front_off = 0;
      } else {
        conn->wq_front_off += left;
        left = 0;
      }
    }
  }
  if (conn->want_write) {
    conn->want_write = false;
    update_epoll(shard.get(), conn.get());
  }
  return true;
}

bool Server::send_reply(const std::shared_ptr<Shard>& shard,
                        const std::shared_ptr<Connection>& conn,
                        std::vector<std::uint8_t> bytes) {
  if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kServerFrame)) {
    if (d.action == chaos::Action::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(d.a));
    } else {
      // Corrupt/truncate the outbound reply; the client must detect it
      // (checksum-free protocol: bad magic/length/payload) and resync.
      chaos::mutate_frame(d, &bytes);
    }
  }
  if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kServerWrite)) {
    switch (d.action) {
      case chaos::Action::kReset:
        note_close(conn.get(), CloseReason::kChaos);
        close_conn(shard, conn);
        return false;
      case chaos::Action::kPartialWrite: {
        // Deliver earlier replies plus a prefix of this one, then fail:
        // the client sees a half-frame followed by EOF.
        if (!flush_writes(shard, conn)) return false;
        const auto keep = static_cast<std::size_t>(std::clamp<std::int64_t>(
            d.a, 0, static_cast<std::int64_t>(bytes.size())));
        (void)write_all(conn->fd,
                        std::vector<std::uint8_t>(bytes.begin(),
                                                  bytes.begin() + keep));
        note_close(conn.get(), CloseReason::kChaos);
        close_conn(shard, conn);
        return false;
      }
      case chaos::Action::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(d.a));
        break;
      default:
        break;
    }
  }
  if (conn->wq_bytes > opt_.write_backlog_limit) {
    // Earlier replies are still undrained past the limit: the reader
    // stopped reading.  Shed the whole connection instead of queueing
    // without bound (and stalling shard memory on one peer).  Checked
    // before the append so one oversized reply never trips it alone.
    note_close(conn.get(), CloseReason::kWriteBacklog);
    close_conn(shard, conn);
    return false;
  }
  conn->wq_bytes += bytes.size();
  metrics_.add(replies_);
  metrics_.add(bytes_out_, static_cast<std::int64_t>(bytes.size()));
  conn->wq.push_back(std::move(bytes));
  return flush_writes(shard, conn);
}

void Server::pump_replies(const std::shared_ptr<Shard>& shard,
                          const std::shared_ptr<Connection>& conn) {
  while (!conn->closed && !conn->pending.empty()) {
    Connection::Pending& front = conn->pending.front();
    std::vector<std::uint8_t> bytes;
    if (!front.ready.empty()) {
      bytes = std::move(front.ready);
      conn->pending.pop_front();
    } else {
      service::JobResult result;
      if (!service_->try_result(front.handle, &result)) break;  // not done
      Request req;
      req.type = front.request_type;
      req.request_id = front.request_id;
      const Status enc = encode_job_result(req, result, &bytes);
      if (!enc.ok()) bytes = encode_error(front.request_id, enc.message());
      const Nanoseconds dur = now_ns() - front.start_ns;
      if (!result.status.ok()) metrics_.add(errors_);
      metrics_.observe(latency_histogram(front.request_type), dur / 1e6);
      if (front.trace.valid()) {
        const Nanoseconds tdur =
            obs::trace_clock_ns() - front.trace_start_ns;
        tracer_->span(obs::kTraceTrackConnection,
                      "conn req " + std::to_string(front.request_id),
                      front.trace, front.trace_start_ns, tdur,
                      {{"type", msg_type_name(front.request_type), false}});
        tracer_->note_complete(front.trace, tdur);
      }
      --conn->inflight;
      conn->active.erase(front.request_id);
      conn->pending.pop_front();
    }
    if (!send_reply(shard, conn, std::move(bytes))) return;
  }
  if (conn->draining && !conn->closed && conn->pending.empty() &&
      conn->wq.empty()) {
    close_conn(shard, conn);
  }
}

bool Server::handle_frame(const std::shared_ptr<Shard>& shard,
                          const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kServerRead)) {
    if (d.action == chaos::Action::kDelay) {
      // Read stall: the whole shard pauses, pipelined peers block.
      std::this_thread::sleep_for(std::chrono::milliseconds(d.a));
    } else if (d.action == chaos::Action::kReset) {
      note_close(conn.get(), CloseReason::kChaos);
      close_conn(shard, conn);
      return false;
    }
  }
  const Nanoseconds start = now_ns();
  const Nanoseconds trace_start = obs::trace_clock_ns();
  metrics_.add(requests_);
  metrics_.add(bytes_in_,
               static_cast<std::int64_t>(kHeaderSize + frame.payload.size()));
  const auto queue_ready = [&](std::vector<std::uint8_t> bytes) {
    Connection::Pending p;
    p.ready = std::move(bytes);
    conn->pending.push_back(std::move(p));
  };
  const auto queue_error = [&](std::uint64_t request_id,
                               std::string_view message,
                               StatusCode code = StatusCode::kError) {
    metrics_.add(errors_);
    queue_ready(encode_error(request_id, message, code));
  };
  Request req;
  const Status decoded = decode_request(frame, &req);
  if (!decoded.ok()) {
    // Valid frame, bad payload: recoverable — reply and keep reading.
    queue_error(req.request_id, decoded.message());
    return true;
  }
  switch (req.type) {
    case MsgType::kPing:
      queue_ready(encode_pong(req.request_id));
      break;
    case MsgType::kStats: {
      // The service's counters plus our own net.* set, one flat list.
      auto samples = service_->metrics_samples();
      const auto mine = metrics_samples();
      samples.insert(samples.end(), mine.begin(), mine.end());
      queue_ready(encode_stats_result(req.request_id, samples));
      break;
    }
    case MsgType::kHealth: {
      HealthInfo info;
      info.accepting = running() && service_->accepting();
      info.queue_depth = static_cast<std::uint32_t>(service_->queue_depth());
      info.queue_capacity =
          static_cast<std::uint32_t>(service_->queue_capacity());
      info.workers = static_cast<std::uint32_t>(service_->workers());
      info.connections = static_cast<std::uint32_t>(
          std::max(0, open_conns_.load(std::memory_order_relaxed)));
      queue_ready(encode_health_result(req.request_id, info));
      break;
    }
    case MsgType::kTraceDump: {
      TraceDumpInfo info;
      info.anomalies =
          static_cast<std::uint32_t>(tracer_->anomalies().size());
      info.spans = static_cast<std::uint32_t>(tracer_->span_count());
      info.events_recorded = tracer_->events_recorded();
      info.events_dropped = tracer_->events_dropped();
      const std::string json = tracer_->to_chrome_json("cgra.server");
      info.trace_json.assign(json.begin(), json.end());
      queue_ready(encode_trace_dump_result(req.request_id, info));
      break;
    }
    case MsgType::kCancel: {
      service::JobHandle target;
      const auto it = conn->active.find(req.cancel_target);
      if (it != conn->active.end()) target = it->second;
      const bool cancelled = target != nullptr && service_->cancel(target);
      queue_ready(encode_cancel_result(req.request_id, req.cancel_target,
                                       cancelled));
      break;
    }
    default: {  // job request
      if (conn->inflight >= opt_.max_inflight_per_connection) {
        metrics_.add(conn_backpressure_);
        queue_error(req.request_id,
                    "connection in-flight limit reached; drain replies "
                    "before sending more jobs");
        break;
      }
      // Idempotent retry?  Attach to the ORIGINAL job's handle — the
      // service keeps results for the handle's lifetime, so the retry
      // gets the same bytes without executing anything twice.
      service::JobHandle handle;
      if (req.options.idempotency_id != 0) {
        handle = cached_reply(req.options.idempotency_id);
        if (handle != nullptr) {
          metrics_.add(idempotent_hits_);
        }
      }
      // Admission control: retries of remembered work pass (they cost
      // nothing); fresh submissions spend a token or get shed visibly.
      if (handle == nullptr && !admission_allow()) {
        metrics_.add(admission_shed_);
        if (req.options.trace.valid()) {
          tracer_->note_anomaly(req.options.trace, obs::AnomalyReason::kError,
                                "admission control shed the request");
        }
        queue_error(req.request_id,
                    "admission control: request shed, retry later",
                    StatusCode::kUnavailable);
        break;
      }
      if (handle == nullptr) {
        service::SubmitOptions sopt;
        sopt.trace = req.options.trace;
        if (req.options.deadline_ms > 0) {
          sopt.deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(req.options.deadline_ms);
          if (req.options.trace.valid()) {
            tracer_->event(req.options.trace,
                           obs::FlightEventKind::kDeadlineCheck, 0,
                           req.options.deadline_ms);
          }
          metrics_.add(deadline_submits_);
        }
        auto submit = service_->submit(std::move(req.job), sopt);
        if (!submit.accepted()) {
          metrics_.add(service_backpressure_);
          queue_error(req.request_id, submit.status.message(),
                      submit.status.code());
          break;
        }
        handle = submit.handle;
        if (req.options.idempotency_id != 0) {
          remember_reply(req.options.idempotency_id, handle);
        }
      }
      Connection::Pending p;
      p.handle = handle;
      p.request_type = req.type;
      p.request_id = req.request_id;
      p.start_ns = start;
      p.trace = req.options.trace;
      p.trace_start_ns = trace_start;
      conn->pending.push_back(std::move(p));
      ++conn->inflight;
      conn->active[req.request_id] = handle;
      // Event-driven reply: when the job finishes, hand the connection
      // to its shard's completions mailbox and poke the eventfd.  Weak
      // refs so a hook firing after the connection (or server) is gone
      // degrades to a no-op.
      std::weak_ptr<Shard> ws = shard;
      std::weak_ptr<Connection> wc = conn;
      service_->on_complete(handle, [ws, wc] {
        const auto s = ws.lock();
        const auto c = wc.lock();
        if (s == nullptr || c == nullptr) return;
        {
          std::lock_guard<std::mutex> lock(s->mu);
          s->completions.push_back(c);
        }
        wake_shard(s.get());
      });
      break;
    }
  }
  return !conn->closed;
}

bool Server::pump_reads(const std::shared_ptr<Shard>& shard,
                        const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->draining) return false;
  int frames = 0;
  for (;;) {
    // Extract and handle complete frames under the round budget.
    while (frames < kFrameBudget) {
      const std::size_t avail = conn->rbuf.size() - conn->rpos;
      if (avail < kHeaderSize) break;
      FrameHeader hdr;
      const Status parsed = decode_header(
          std::span<const std::uint8_t>(conn->rbuf.data() + conn->rpos,
                                        kHeaderSize),
          &hdr);
      if (!parsed.ok()) {
        // Framing desync: no reply possible, close (flushing what is
        // already queued).
        note_close(conn.get(), CloseReason::kMalformed);
        metrics_.add(malformed_);
        begin_drain(shard, conn);
        pump_replies(shard, conn);
        return false;
      }
      if (avail < kHeaderSize + hdr.payload_len) break;
      Frame frame;
      frame.header = hdr;
      const auto* body = conn->rbuf.data() + conn->rpos + kHeaderSize;
      frame.payload.assign(body, body + hdr.payload_len);
      conn->rpos += kHeaderSize + hdr.payload_len;
      ++frames;
      if (!handle_frame(shard, conn, frame)) return false;
      if (conn->closed || conn->draining) return false;
    }
    // Compact the consumed prefix.
    if (conn->rpos == conn->rbuf.size()) {
      conn->rbuf.clear();
      conn->rpos = 0;
    } else if (conn->rpos >= kReadChunk) {
      conn->rbuf.erase(conn->rbuf.begin(),
                       conn->rbuf.begin() +
                           static_cast<std::ptrdiff_t>(conn->rpos));
      conn->rpos = 0;
    }
    if (frames >= kFrameBudget) {
      // Budget spent: deliver what we owe and yield to shard peers.
      pump_replies(shard, conn);
      return !conn->closed;
    }
    if (!conn->read_ready) break;
    const std::size_t old_size = conn->rbuf.size();
    conn->rbuf.resize(old_size + kReadChunk);
    const ssize_t n =
        ::recv(conn->fd, conn->rbuf.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      conn->rbuf.resize(old_size + static_cast<std::size_t>(n));
      conn->last_rx = std::chrono::steady_clock::now();
      continue;
    }
    conn->rbuf.resize(old_size);
    if (n == 0) {
      // EOF: clean at a frame boundary, malformed mid-frame.
      if (conn->rbuf.size() - conn->rpos > 0) {
        note_close(conn.get(), CloseReason::kMalformed);
        metrics_.add(malformed_);
      } else {
        note_close(conn.get(), CloseReason::kPeerEof);
      }
      begin_drain(shard, conn);
      pump_replies(shard, conn);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn->read_ready = false;
      break;
    }
    note_close(conn.get(), CloseReason::kMalformed);
    metrics_.add(malformed_);
    begin_drain(shard, conn);
    pump_replies(shard, conn);
    return false;
  }
  pump_replies(shard, conn);
  return false;  // socket drained; epoll will reschedule
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed or broken
    }
    if (const auto d = chaos::decide(opt_.chaos, chaos::Hook::kAccept);
        d && d.action == chaos::Action::kFail) {
      // Injected accept failure: to the client this is indistinguishable
      // from a crash between accept and the first read.
      ::close(fd);
      metrics_.add(refused_);
      continue;
    }
    if (open_conns_.load(std::memory_order_relaxed) >= opt_.max_connections ||
        !set_nonblocking(fd).ok()) {
      ::close(fd);
      metrics_.add(refused_);
      continue;
    }
    (void)set_nodelay(fd);  // latency optimisation; failure is non-fatal
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_rx = std::chrono::steady_clock::now();
    // Count before handing off: a health frame served right away on the
    // shard must already see this connection.
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    metrics_.add(accepted_);
    Shard* shard =
        shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size()]
            .get();
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->inbox.push_back(std::move(conn));
    }
    wake_shard(shard);
  }
}

void Server::shard_loop(const std::shared_ptr<Shard>& shard) {
  std::vector<std::shared_ptr<Connection>> incoming;
  std::vector<std::shared_ptr<Connection>> completed;
  bool drain_started = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  auto last_sweep = std::chrono::steady_clock::now();
  epoll_event events[128];
  for (;;) {
    // 1. Cross-thread mailboxes: new connections, finished jobs.
    incoming.clear();
    completed.clear();
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      incoming.swap(shard->inbox);
      completed.swap(shard->completions);
    }
    for (auto& conn : incoming) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(shard->epfd, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
        ::close(conn->fd);
        conn->closed = true;
        count_close(conn.get());
        open_conns_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      shard->conns.emplace(conn->fd, conn);
      metrics_.set(shard->conn_gauge, static_cast<double>(shard->conns.size()));
      // Bytes may have arrived before registration; probe immediately.
      conn->read_ready = true;
      push_ready(shard.get(), conn);
      if (drain_started) begin_drain(shard, conn);
    }
    for (auto& conn : completed) {
      if (!conn->closed) pump_replies(shard, conn);
    }
    // 2. Shutdown drain: half-close everything once, then wait for the
    // pending replies to flush (bounded by kDrainTimeout).
    if (stopping_.load(std::memory_order_relaxed) && !drain_started) {
      drain_started = true;
      drain_deadline = std::chrono::steady_clock::now() + kDrainTimeout;
      std::vector<std::shared_ptr<Connection>> all;
      all.reserve(shard->conns.size());
      for (const auto& [fd, conn] : shard->conns) all.push_back(conn);
      for (auto& conn : all) {
        begin_drain(shard, conn);
        if (!conn->closed) pump_replies(shard, conn);
      }
    }
    if (drain_started) {
      if (shard->conns.empty()) {
        std::lock_guard<std::mutex> lock(shard->mu);
        if (shard->inbox.empty()) return;
      } else if (std::chrono::steady_clock::now() >= drain_deadline) {
        std::vector<std::shared_ptr<Connection>> rest;
        rest.reserve(shard->conns.size());
        for (const auto& [fd, conn] : shard->conns) rest.push_back(conn);
        for (auto& conn : rest) close_conn(shard, conn);
        continue;
      }
    }
    // 3. Poll: zero timeout while connections still owe budgeted work.
    const int timeout = shard->ready.empty() ? kSweepSliceMs : 0;
    const int n = ::epoll_wait(shard->epfd, events,
                               static_cast<int>(std::size(events)), timeout);
    if (n < 0 && errno != EINTR) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // 4. Dispatch: flags only — nothing is closed or freed here, so the
    // raw pointers in this batch stay valid for the whole loop.
    for (int i = 0; i < std::max(0, n); ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t junk;
        while (::read(shard->wake_fd, &junk, sizeof junk) > 0) {
        }
        continue;
      }
      auto* cp = static_cast<Connection*>(events[i].data.ptr);
      const auto it = shard->conns.find(cp->fd);
      if (it == shard->conns.end()) continue;
      if ((events[i].events &
           (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        cp->read_ready = true;
      }
      if ((events[i].events & EPOLLOUT) != 0) cp->write_ready = true;
      push_ready(shard.get(), it->second);
    }
    // 5. Process one bounded round over the ready list.
    std::size_t rounds = shard->ready.size();
    while (rounds-- > 0 && !shard->ready.empty()) {
      auto conn = shard->ready.front();
      shard->ready.pop_front();
      conn->in_ready = false;
      if (conn->closed) continue;
      if (conn->write_ready) {
        conn->write_ready = false;
        if (!flush_writes(shard, conn)) continue;
        pump_replies(shard, conn);  // may close a drained connection
        if (conn->closed) continue;
      }
      if (pump_reads(shard, conn)) push_ready(shard.get(), conn);
    }
    // 6. Idle / stalled-frame sweep.
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(kSweepSliceMs)) {
      last_sweep = now;
      std::vector<std::pair<std::shared_ptr<Connection>, CloseReason>>
          victims;
      for (const auto& [fd, conn] : shard->conns) {
        if (conn->closed || conn->draining) continue;
        const bool mid_frame = conn->rbuf.size() - conn->rpos > 0;
        if (mid_frame) {
          if (now - conn->last_rx >= kBodyTimeout) {
            victims.emplace_back(conn, CloseReason::kMalformed);
          }
        } else if (opt_.idle_timeout_ms > 0 &&
                   now - conn->last_rx >=
                       std::chrono::milliseconds(opt_.idle_timeout_ms)) {
          victims.emplace_back(conn, CloseReason::kIdleTimeout);
        }
      }
      for (auto& [conn, reason] : victims) {
        note_close(conn.get(), reason);
        if (reason == CloseReason::kMalformed) {
          metrics_.add(malformed_);
        }
        begin_drain(shard, conn);
        if (!conn->closed) pump_replies(shard, conn);
      }
    }
  }
}

}  // namespace cgra::net
