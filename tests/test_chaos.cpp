// Chaos-hardening tests: every Hook in src/chaos/chaos.hpp is exercised
// at least once against the real serving stack, and the robustness
// machinery it targets — deadline propagation, idempotent reply dedup,
// worker crash-resume, lease retry, circuit breaking, structured close
// reasons — is asserted to keep results bit-identical to a calm run.
// Labelled `chaos` in CMake; runs under asan and tsan presets in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cgra/chaos.hpp"
#include "cgra/net.hpp"

namespace cgra::chaos {
namespace {

using net::CallOptions;
using net::Client;
using net::ClientOptions;
using net::HealthInfo;
using net::MsgType;
using net::Server;
using net::ServerOptions;

jpeg::IntBlock test_block(int seed) {
  jpeg::IntBlock raw{};
  for (int i = 0; i < 64; ++i) {
    raw[static_cast<std::size_t>(i)] = ((seed + 1) * 37 + i * 13) % 256;
  }
  return raw;
}

service::JobRequest block_request(int seed, int quality = 75) {
  service::JpegBlockRequest req;
  req.raw = test_block(seed);
  req.quant = jpeg::scaled_quant(quality);
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

/// A request the single worker chews on long enough for a queued
/// deadline to expire behind it.
service::JobRequest heavy_request() {
  service::JpegImageRequest req;
  req.image = jpeg::synthetic_image(96, 96, 1);
  req.quality = 50;
  return service::JobRequest{req};
}

/// Service + server + client factory with chaos injectors threaded
/// through every layer that accepts one.
struct ChaosRig {
  explicit ChaosRig(ChaosInjector* server_chaos = nullptr,
                    ChaosInjector* service_chaos = nullptr,
                    service::ServiceOptions sopt = {.workers = 2},
                    ServerOptions nopt = {})
      : svc([&] {
          sopt.chaos = service_chaos;
          return sopt;
        }()),
        server(&svc, [&] {
          nopt.chaos = server_chaos;
          return nopt;
        }()) {
    const auto s = server.start();
    EXPECT_TRUE(s.ok()) << s.message();
  }
  [[nodiscard]] Client client(ChaosInjector* client_chaos = nullptr,
                              int max_retries = 3) {
    ClientOptions copt;
    copt.port = server.port();
    copt.max_retries = max_retries;
    copt.retry_backoff_ms = 10;
    copt.chaos = client_chaos;
    return Client(copt);
  }
  service::Service svc;
  Server server;
};

/// Poll a service counter until it reaches `target` (bounded): lets a
/// test wait for the server's reader thread to land a submit before
/// asserting on it.
bool wait_counter(const service::Service& svc, const char* name,
                  std::int64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (svc.counter(name) < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// --- plan / injector determinism ----------------------------------------

TEST(ChaosPlan, FiringScheduleIsDeterministic) {
  ChaosPlan plan;
  plan.fail(Hook::kPoolLease, /*first=*/3, /*count=*/2, /*every=*/2);
  ChaosInjector inj(plan);
  std::vector<std::int64_t> fired_at;
  for (std::int64_t n = 1; n <= 10; ++n) {
    if (inj.decide(Hook::kPoolLease)) fired_at.push_back(n);
  }
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{3, 5}));
  EXPECT_EQ(inj.invocations(Hook::kPoolLease), 10);
  EXPECT_EQ(inj.fired(Hook::kPoolLease), 2);
  EXPECT_EQ(inj.fired_total(), 2);

  // Same plan, fresh injector: identical salts draw identical randoms.
  ChaosInjector a(plan);
  ChaosInjector b(plan);
  for (std::int64_t n = 1; n <= 5; ++n) {
    const Decision da = a.decide(Hook::kPoolLease);
    const Decision db = b.decide(Hook::kPoolLease);
    EXPECT_EQ(da.action, db.action);
    EXPECT_EQ(da.salt, db.salt);
  }
}

TEST(ChaosPlan, ConsecutiveFiringWithEveryZero) {
  ChaosPlan plan;
  plan.reset(Hook::kClientRecv, /*first=*/2, /*count=*/3);
  ChaosInjector inj(plan);
  std::vector<std::int64_t> fired_at;
  for (std::int64_t n = 1; n <= 6; ++n) {
    if (inj.decide(Hook::kClientRecv)) fired_at.push_back(n);
  }
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(ChaosPlan, MutateFrameIsSeededAndBounded) {
  std::vector<std::uint8_t> original(32);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i);
  }

  Decision corrupt;
  corrupt.action = Action::kCorruptByte;
  corrupt.a = -1;  // seeded position
  corrupt.salt = 0xABCDEFu;
  auto x = original;
  auto y = original;
  ASSERT_TRUE(mutate_frame(corrupt, &x));
  ASSERT_TRUE(mutate_frame(corrupt, &y));
  EXPECT_EQ(x, y);       // same salt, same mutation
  EXPECT_NE(x, original);

  Decision trunc;
  trunc.action = Action::kTruncate;
  trunc.a = 5;
  auto z = original;
  ASSERT_TRUE(mutate_frame(trunc, &z));
  ASSERT_EQ(z.size(), 5u);
  EXPECT_TRUE(std::equal(z.begin(), z.end(), original.begin()));

  Decision none;
  none.action = Action::kDelay;
  auto w = original;
  EXPECT_FALSE(mutate_frame(none, &w));
  EXPECT_EQ(w, original);
}

// --- socket-level hooks --------------------------------------------------

TEST(ChaosNet, ClientConnectFailureIsRetried) {
  ChaosRig rig;
  ChaosPlan plan;
  plan.fail(Hook::kClientConnect, /*first=*/1);
  ChaosInjector inj(plan);
  auto client = rig.client(&inj);
  const auto s = client.ping();
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(inj.fired(Hook::kClientConnect), 1);
  EXPECT_GE(client.connect_attempts(), 2);
}

TEST(ChaosNet, AcceptFailureRefusesThenRecovers) {
  ChaosPlan plan;
  plan.fail(Hook::kAccept, /*first=*/1);
  ChaosInjector inj(plan);
  ChaosRig rig(&inj);
  auto client = rig.client();
  // First accept is injected away; the client's transport retry opens a
  // second connection which goes through.
  const auto s = client.ping();
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(inj.fired(Hook::kAccept), 1);
  EXPECT_GE(rig.server.counter("net.connections.refused"), 1);
}

TEST(ChaosNet, ServerReadResetClosesWithChaosReason) {
  ChaosPlan plan;
  plan.reset(Hook::kServerRead, /*first=*/2);
  ChaosInjector inj(plan);
  ChaosRig rig(&inj);
  {
    auto client = rig.client();
    // The reader's second pass hits the injected reset and tears the
    // whole connection down — racing the writer, so the first pong may
    // die with it.  Ping is idempotent: transport retry reconnects and
    // both calls come back ok either way.
    EXPECT_TRUE(client.ping().ok());
    EXPECT_TRUE(client.ping().ok());
    EXPECT_GE(client.connect_attempts(), 2);
  }
  rig.server.stop();
  EXPECT_EQ(inj.fired(Hook::kServerRead), 1);
  EXPECT_EQ(rig.server.counter("net.conn_closed.chaos"), 1);
}

TEST(ChaosNet, ClientRecvResetRetriesIdempotently) {
  ChaosRig rig;
  ChaosPlan plan;
  plan.reset(Hook::kClientRecv, /*first=*/1);
  ChaosInjector inj(plan);
  auto client = rig.client(&inj);
  // Ping is idempotent: the injected post-send reset is retried.
  const auto s = client.ping();
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(inj.fired(Hook::kClientRecv), 1);
}

TEST(ChaosNet, ServerWritePartialWriteBreaksConnection) {
  ChaosPlan plan;
  // Deliver 4 bytes of the pong, then fail the write.
  plan.partial_write(/*bytes=*/4, /*first=*/1);
  ChaosInjector inj(plan);
  ChaosRig rig(&inj);
  {
    auto client = rig.client(nullptr, /*max_retries=*/0);
    EXPECT_FALSE(client.ping().ok());
  }
  rig.server.stop();
  EXPECT_EQ(inj.fired(Hook::kServerWrite), 1);
  EXPECT_EQ(rig.server.counter("net.conn_closed.chaos"), 1);
  // A fresh server is unaffected — the partial write poisoned only the
  // one connection.
}

TEST(ChaosNet, ServerFrameCorruptionIsSurvivedByRetry) {
  ChaosPlan plan;
  plan.corrupt_byte(Hook::kServerFrame, /*index=*/0, /*mask=*/0xFF,
                    /*first=*/1);
  ChaosInjector inj(plan);
  ChaosRig rig(&inj);
  auto client = rig.client();
  // The first pong goes out with its magic destroyed; the client rejects
  // it, reconnects, and the retry's reply is clean.
  const auto s = client.ping();
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(inj.fired(Hook::kServerFrame), 1);
}

// --- protocol fuzz (satellite: frame corruption sweeps) ------------------

/// Every single-byte corruption of a job request's header, and a sweep
/// of truncation lengths, must leave the server alive and in-order: the
/// chaotic client fails or recovers, and a follow-up clean request on a
/// fresh connection round-trips correctly.
TEST(ChaosFuzz, CorruptedRequestHeaderNeverKillsServer) {
  ChaosRig rig;
  const auto job = fft_request(32, 1);
  const auto reference = fft::run_fabric_fft(
      fft::make_geometry(32, 8), std::get<service::FftRequest>(job).input);
  ASSERT_TRUE(reference.status.ok());

  for (std::int64_t index = 0;
       index < static_cast<std::int64_t>(net::kHeaderSize); ++index) {
    ChaosPlan plan;
    plan.corrupt_byte(Hook::kClientFrame, index, /*mask=*/0xA5, /*first=*/1);
    ChaosInjector inj(plan);
    ClientOptions copt;
    copt.port = rig.server.port();
    // A corrupted length can leave the server waiting for bytes that
    // never come; a short reply timeout bounds each sweep step.
    copt.request_timeout_ms = 300;
    copt.max_retries = 1;
    copt.retry_backoff_ms = 10;
    copt.chaos = &inj;
    Client chaotic(copt);
    net::Response resp;
    // Either the retry recovers (clean second send) or the call fails;
    // what matters is the server survives and stays coherent.
    (void)chaotic.call(job, &resp);
    EXPECT_EQ(inj.fired(Hook::kClientFrame), 1) << "index " << index;

    auto clean = rig.client();
    net::Response check;
    const auto s = clean.call(job, &check);
    ASSERT_TRUE(s.ok()) << "index " << index << ": " << s.message();
    ASSERT_TRUE(check.result.status.ok()) << check.result.status.message();
    EXPECT_EQ(std::get<service::FftJobResult>(check.result.payload).output,
              reference.output)
        << "index " << index;
  }
}

TEST(ChaosFuzz, TruncatedFramesNeverKillServer) {
  ChaosRig rig;
  const auto job = block_request(7);
  const auto expected = jpeg::encode_block_stages(
      test_block(7), jpeg::scaled_quant(75));

  // A sweep of keep-lengths: mid-header, exactly a header, mid-payload.
  for (const std::int64_t keep : {0, 3, 11, 12, 13, 40}) {
    ChaosPlan plan;
    plan.truncate(Hook::kClientFrame, keep, /*first=*/1);
    ChaosInjector inj(plan);
    {
      // A truncated frame either times out (server waits for the rest)
      // or errors; bound the damage with a short timeout.
      ClientOptions copt;
      copt.port = rig.server.port();
      copt.request_timeout_ms = 200;
      copt.max_retries = 0;
      copt.chaos = &inj;
      Client bounded(copt);
      net::Response resp;
      (void)bounded.call(job, &resp);
      EXPECT_EQ(inj.fired(Hook::kClientFrame), 1) << "keep " << keep;
    }
    auto clean = rig.client();
    net::Response check;
    const auto s = clean.call(job, &check);
    ASSERT_TRUE(s.ok()) << "keep " << keep << ": " << s.message();
    ASSERT_TRUE(check.result.status.ok()) << check.result.status.message();
    EXPECT_EQ(std::get<service::JpegBlockJobResult>(check.result.payload)
                  .zigzagged,
              expected)
        << "keep " << keep;
  }
}

/// v3 job payloads carry the trace context at frame bytes 32..47.  Flip
/// every one of those bytes, and truncate the frame at boundaries that
/// land inside the context: the server must survive each, and a clean
/// follow-up request must still round-trip bit-identically.  (A flipped
/// trace byte is semantically harmless — it only renames the trace — so
/// the chaotic call itself usually succeeds.)
TEST(ChaosFuzz, CorruptedTraceContextNeverKillsServer) {
  ChaosRig rig;
  const auto job = fft_request(32, 2);
  const auto reference = fft::run_fabric_fft(
      fft::make_geometry(32, 8), std::get<service::FftRequest>(job).input);
  ASSERT_TRUE(reference.status.ok());

  for (std::int64_t index = 32; index <= 47; ++index) {
    ChaosPlan plan;
    plan.corrupt_byte(Hook::kClientFrame, index, /*mask=*/0xA5, /*first=*/1);
    ChaosInjector inj(plan);
    ClientOptions copt;
    copt.port = rig.server.port();
    copt.request_timeout_ms = 300;
    copt.max_retries = 1;
    copt.retry_backoff_ms = 10;
    copt.chaos = &inj;
    Client chaotic(copt);
    net::Response resp;
    (void)chaotic.call(job, &resp);
    EXPECT_EQ(inj.fired(Hook::kClientFrame), 1) << "index " << index;

    auto clean = rig.client();
    net::Response check;
    const auto s = clean.call(job, &check);
    ASSERT_TRUE(s.ok()) << "index " << index << ": " << s.message();
    ASSERT_TRUE(check.result.status.ok()) << check.result.status.message();
    EXPECT_EQ(std::get<service::FftJobResult>(check.result.payload).output,
              reference.output)
        << "index " << index;
  }

  // Truncations ending inside (and one byte short of) the context.
  for (const std::int64_t keep : {32, 36, 40, 44, 47}) {
    ChaosPlan plan;
    plan.truncate(Hook::kClientFrame, keep, /*first=*/1);
    ChaosInjector inj(plan);
    {
      ClientOptions copt;
      copt.port = rig.server.port();
      copt.request_timeout_ms = 200;
      copt.max_retries = 0;
      copt.chaos = &inj;
      Client bounded(copt);
      net::Response resp;
      (void)bounded.call(job, &resp);
      EXPECT_EQ(inj.fired(Hook::kClientFrame), 1) << "keep " << keep;
    }
    auto clean = rig.client();
    net::Response check;
    const auto s = clean.call(job, &check);
    ASSERT_TRUE(s.ok()) << "keep " << keep << ": " << s.message();
    ASSERT_TRUE(check.result.status.ok()) << check.result.status.message();
    EXPECT_EQ(std::get<service::FftJobResult>(check.result.payload).output,
              reference.output)
        << "keep " << keep;
  }
}

// --- deadline propagation ------------------------------------------------

TEST(ChaosDeadline, ExpiredDeadlineSurfacesOverTheWire) {
  ChaosRig rig(nullptr, nullptr, {.workers = 1});
  auto blocker = rig.client();
  std::uint64_t blocker_id = 0;
  // Park the single worker on a heavy job, then race a 1 ms deadline
  // against it.
  ASSERT_TRUE(blocker.send(heavy_request(), &blocker_id).ok());
  // Make sure the heavy job reached the queue first.
  ASSERT_TRUE(wait_counter(rig.svc, "service.jobs.submitted", 1));

  auto client = rig.client();
  net::Response resp;
  CallOptions copt;
  copt.deadline_ms = 1;
  const auto s = client.call(fft_request(32, 2), &resp, copt);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(resp.type, MsgType::kError);
  EXPECT_EQ(resp.result.status.code(), StatusCode::kDeadlineExceeded)
      << resp.result.status.message();
  EXPECT_GE(rig.svc.counter("service.jobs.deadline_expired"), 1);
  EXPECT_GE(rig.server.counter("net.deadline.submits"), 1);

  net::Response drain;
  ASSERT_TRUE(blocker.receive(&drain).ok());
}

// --- idempotency / retry safety ------------------------------------------

TEST(ChaosIdempotency, RetryAfterRecvResetDeduplicates) {
  ChaosRig rig;
  ChaosPlan plan;
  plan.reset(Hook::kClientRecv, /*first=*/1);
  ChaosInjector inj(plan);
  // A generous backoff gives the server's reader time to land the first
  // submit before the retry arrives, so the dedup hit is deterministic.
  ClientOptions copt_client;
  copt_client.port = rig.server.port();
  copt_client.retry_backoff_ms = 200;
  copt_client.chaos = &inj;
  Client client(copt_client);

  net::Response resp;
  CallOptions copt;
  copt.idempotency_id = 42;
  const auto s = client.call(block_request(3), &resp, copt);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_TRUE(resp.result.status.ok()) << resp.result.status.message();
  EXPECT_EQ(std::get<service::JpegBlockJobResult>(resp.result.payload)
                .zigzagged,
            jpeg::encode_block_stages(test_block(3), jpeg::scaled_quant(75)));
  // The retry hit the reply cache: one submit, one dedup hit.
  EXPECT_EQ(rig.svc.counter("service.jobs.submitted"), 1);
  EXPECT_EQ(rig.server.counter("net.idempotent.hits"), 1);
}

TEST(ChaosIdempotency, NonIdempotentPostSendFailureIsUnknownOutcome) {
  ChaosRig rig;
  ChaosPlan plan;
  plan.reset(Hook::kClientRecv, /*first=*/1, /*count=*/5);
  ChaosInjector inj(plan);
  auto client = rig.client(&inj);

  net::Response resp;
  const auto s = client.call(block_request(4), &resp);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnknownOutcome) << s.message();
  // No blind resend: the server saw exactly one submit.
  EXPECT_EQ(inj.fired(Hook::kClientRecv), 1);
  ASSERT_TRUE(wait_counter(rig.svc, "service.jobs.submitted", 1));
  EXPECT_EQ(rig.svc.counter("service.jobs.submitted"), 1);
}

// --- circuit breaker ------------------------------------------------------

TEST(ChaosBreaker, OpensFailsFastAndRecloses) {
  ChaosRig rig;
  ChaosPlan plan;
  plan.fail(Hook::kClientConnect, /*first=*/1, /*count=*/2);
  ChaosInjector inj(plan);
  ClientOptions copt;
  copt.port = rig.server.port();
  copt.max_retries = 0;
  copt.breaker_threshold = 2;
  copt.breaker_cooldown_ms = 100;
  copt.chaos = &inj;
  Client client(copt);

  EXPECT_FALSE(client.ping().ok());
  EXPECT_FALSE(client.ping().ok());
  EXPECT_TRUE(client.breaker_open());

  // Open: fails fast without another connect attempt.
  const int attempts = client.connect_attempts();
  const auto fast = client.ping();
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.code(), StatusCode::kUnavailable) << fast.message();
  EXPECT_EQ(client.connect_attempts(), attempts);

  // Cooldown passes; the half-open probe (chaos exhausted) succeeds and
  // closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto probe = client.ping();
  EXPECT_TRUE(probe.ok()) << probe.message();
  EXPECT_FALSE(client.breaker_open());
}

// --- health & close reasons ----------------------------------------------

TEST(ChaosHealth, HealthFrameReportsReadiness) {
  ChaosRig rig(nullptr, nullptr, {.workers = 3, .queue_capacity = 17});
  auto client = rig.client();
  HealthInfo info;
  const auto s = client.health(&info);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_TRUE(info.accepting);
  EXPECT_EQ(info.workers, 3u);
  EXPECT_EQ(info.queue_capacity, 17u);
  EXPECT_GE(info.connections, 1u);
}

TEST(ChaosCloseReasons, PeerEofAndIdleTimeoutAreAttributed) {
  ServerOptions nopt;
  nopt.idle_timeout_ms = 100;
  ChaosRig rig(nullptr, nullptr, {.workers = 1}, nopt);
  {
    auto client = rig.client();
    ASSERT_TRUE(client.ping().ok());
  }  // clean close -> peer_eof
  {
    auto idle = rig.client();
    ASSERT_TRUE(idle.ping().ok());
    // Hold the connection open past the idle timeout without a frame.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  rig.server.stop();
  EXPECT_GE(rig.server.counter("net.conn_closed.peer_eof") +
                rig.server.counter("net.conn_closed.idle_timeout"),
            2);
  EXPECT_GE(rig.server.counter("net.conn_closed.idle_timeout"), 1);
  EXPECT_EQ(rig.server.counter("net.connections.closed"),
            rig.server.counter("net.conn_closed.peer_eof") +
                rig.server.counter("net.conn_closed.idle_timeout") +
                rig.server.counter("net.conn_closed.drain"));
}

// --- service-level hooks --------------------------------------------------

TEST(ChaosService, WorkerCrashResumesJobsOnReplacement) {
  ChaosPlan plan;
  plan.crash_worker(/*first=*/1);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  std::vector<service::JobHandle> jobs;
  for (int i = 0; i < 3; ++i) {
    auto sub = svc.submit(block_request(i));
    ASSERT_TRUE(sub.accepted()) << sub.status.message();
    jobs.push_back(sub.handle);
  }
  for (int i = 0; i < 3; ++i) {
    const auto res = svc.wait(jobs[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(res.ok()) << "job " << i << ": " << res.status.message();
    EXPECT_EQ(std::get<service::JpegBlockJobResult>(res.payload).zigzagged,
              jpeg::encode_block_stages(test_block(i), jpeg::scaled_quant(75)));
  }
  EXPECT_EQ(inj.fired(Hook::kWorkerCrash), 1);
  EXPECT_EQ(svc.counter("service.worker.crashes"), 1);
  EXPECT_EQ(svc.counter("service.jobs.completed"), 3);
}

TEST(ChaosService, PoolLeaseFailureIsRetried) {
  ChaosPlan plan;
  plan.fail(Hook::kPoolLease, /*first=*/1);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  auto sub = svc.submit(block_request(5));
  ASSERT_TRUE(sub.accepted());
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  EXPECT_EQ(std::get<service::JpegBlockJobResult>(res.payload).zigzagged,
            jpeg::encode_block_stages(test_block(5), jpeg::scaled_quant(75)));
  EXPECT_EQ(inj.fired(Hook::kPoolLease), 1);
  EXPECT_EQ(svc.counter("service.lease.retries"), 1);
}

TEST(ChaosService, CachePoisonForcesIdenticalRebuild) {
  ChaosPlan plan;
  // Poison every cache lookup: each batch rebuilds its artifacts.
  plan.fail(Hook::kCachePoison, /*first=*/1, /*count=*/1000);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  auto a = svc.submit(block_request(6));
  ASSERT_TRUE(a.accepted());
  const auto ra = svc.wait(a.handle);
  auto b = svc.submit(block_request(6));
  ASSERT_TRUE(b.accepted());
  const auto rb = svc.wait(b.handle);
  ASSERT_TRUE(ra.ok()) << ra.status.message();
  ASSERT_TRUE(rb.ok()) << rb.status.message();
  EXPECT_EQ(std::get<service::JpegBlockJobResult>(ra.payload).zigzagged,
            std::get<service::JpegBlockJobResult>(rb.payload).zigzagged);
  EXPECT_EQ(std::get<service::JpegBlockJobResult>(ra.payload).zigzagged,
            jpeg::encode_block_stages(test_block(6), jpeg::scaled_quant(75)));
  EXPECT_GE(inj.fired(Hook::kCachePoison), 2);
}

TEST(ChaosService, CachePoisonRebuildsFftPlanIdentically) {
  ChaosPlan plan;
  plan.fail(Hook::kCachePoison, /*first=*/1, /*count=*/1000);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  const auto job = fft_request(64, 21);
  const auto reference = fft::run_fabric_fft(
      fft::make_geometry(64, 8), std::get<service::FftRequest>(job).input);
  ASSERT_TRUE(reference.status.ok());
  for (int i = 0; i < 2; ++i) {
    auto sub = svc.submit(job);
    ASSERT_TRUE(sub.accepted());
    const auto res = svc.wait(sub.handle);
    ASSERT_TRUE(res.ok()) << res.status.message();
    const auto& payload = std::get<service::FftJobResult>(res.payload);
    EXPECT_EQ(payload.output, reference.output);
    EXPECT_EQ(payload.timeline.epoch_cycles, reference.timeline.epoch_cycles);
  }
  // Each batch's plan lookup was poisoned: two compiles, no hit.
  EXPECT_EQ(svc.counter("cache.miss"), 2);
  EXPECT_EQ(svc.counter("cache.hit"), 0);
}

TEST(ChaosService, QueueStallDelaysButCompletes) {
  ChaosPlan plan;
  plan.delay_ms(Hook::kQueueStall, /*ms=*/50, /*first=*/1);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  auto sub = svc.submit(fft_request(32, 9));
  ASSERT_TRUE(sub.accepted());
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  EXPECT_EQ(inj.fired(Hook::kQueueStall), 1);
}

TEST(ChaosService, FabricPoisonOnPlainPathRecoversByRelease) {
  ChaosPlan plan;
  plan.kill_tile(/*tile=*/1, /*cycle=*/0, /*first=*/1);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  auto sub = svc.submit(block_request(8));
  ASSERT_TRUE(sub.accepted());
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  EXPECT_EQ(std::get<service::JpegBlockJobResult>(res.payload).zigzagged,
            jpeg::encode_block_stages(test_block(8), jpeg::scaled_quant(75)));
  EXPECT_EQ(inj.fired(Hook::kFabricPoison), 1);
}

TEST(ChaosService, FabricPoisonMidEpochRebalancesResilientJob) {
  // Satellite: kill a pooled fabric tile mid-epoch through the injector;
  // the RecoveryManager must rebalance onto survivors and the output
  // must stay bit-identical to the host reference.
  ChaosPlan plan;
  plan.kill_tile(/*tile=*/3, /*cycle=*/40, /*first=*/1);
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  const auto quant = jpeg::scaled_quant(50);
  const auto raw = test_block(11);
  service::JpegBlockRequest req;
  req.raw = raw;
  req.quant = quant;
  // A non-empty plan routes the job down the resilient pooled-mesh path;
  // the chaos kill is appended to this per-job plan.
  req.plan.corrupt_icap(0, 1);
  req.policy.max_icap_retries = 3;

  auto sub = svc.submit(service::JobRequest{req});
  ASSERT_TRUE(sub.accepted());
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  const auto& payload = std::get<service::JpegBlockJobResult>(res.payload);
  EXPECT_EQ(payload.zigzagged, jpeg::encode_block_stages(raw, quant));
  EXPECT_TRUE(payload.recovered);
  EXPECT_EQ(inj.fired(Hook::kFabricPoison), 1);
}

TEST(ChaosService, FabricPoisonOnFftPathRecovers) {
  ChaosPlan plan;
  plan.kill_tile(/*tile=*/-1, /*cycle=*/0, /*first=*/1);  // seeded tile
  ChaosInjector inj(plan);
  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.chaos = &inj;
  service::Service svc(sopt);

  const auto job = fft_request(64, 13);
  const auto reference = fft::run_fabric_fft(
      fft::make_geometry(64, 8), std::get<service::FftRequest>(job).input);
  ASSERT_TRUE(reference.status.ok());

  auto sub = svc.submit(job);
  ASSERT_TRUE(sub.accepted());
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  EXPECT_EQ(std::get<service::FftJobResult>(res.payload).output,
            reference.output);
  EXPECT_EQ(inj.fired(Hook::kFabricPoison), 1);
}

// --- metrics wiring -------------------------------------------------------

TEST(ChaosObs, FiredCountersLandInAttachedRegistry) {
  obs::MetricsRegistry metrics;
  ChaosPlan plan;
  plan.fail(Hook::kPoolLease, /*first=*/1, /*count=*/2, /*every=*/1);
  ChaosInjector inj(plan);
  inj.attach_metrics(&metrics);
  (void)inj.decide(Hook::kPoolLease);
  (void)inj.decide(Hook::kPoolLease);
  (void)inj.decide(Hook::kPoolLease);
  EXPECT_EQ(metrics.counter_value("chaos.fired.pool_lease"), 2);
}

}  // namespace
}  // namespace cgra::chaos
