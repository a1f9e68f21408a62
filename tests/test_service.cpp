// Job-service runtime tests: concurrent producers, determinism against
// serial per-request execution, batching, backpressure, cancel and
// deadline paths.  This binary also runs under ThreadSanitizer in CI
// (CGRA_TSAN preset) — keep every cross-thread interaction inside the
// service API or properly synchronised.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "cgra/engine.hpp"
#include "cgra/service.hpp"

namespace cgra::service {
namespace {

jpeg::IntBlock test_block(int seed) {
  jpeg::IntBlock raw{};
  for (int i = 0; i < 64; ++i) {
    raw[static_cast<std::size_t>(i)] = ((seed + 1) * 37 + i * 13) % 256;
  }
  return raw;
}

std::vector<fft::Cplx> test_signal(int n, int seed) {
  std::vector<fft::Cplx> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = {
        std::cos(0.1 * (i + seed)) / n, std::sin(0.07 * i - seed) / n};
  }
  return x;
}

/// A request the worker chews on for a while — used to hold the single
/// worker busy so the queue fills deterministically behind it.
JobRequest heavy_request() {
  JpegImageRequest req;
  req.image = jpeg::synthetic_image(64, 64, 1);
  req.quality = 50;
  return JobRequest{req};
}

TEST(Service, SingleJpegBlockMatchesHostAndFreshFabric) {
  Service svc(ServiceOptions{.workers = 1});
  const auto quant = jpeg::scaled_quant(75);
  const auto raw = test_block(0);

  JpegBlockRequest req;
  req.raw = raw;
  req.quant = quant;
  auto sub = svc.submit(JobRequest{req});
  ASSERT_TRUE(sub.accepted()) << sub.status.message();
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  const auto& payload = std::get<JpegBlockJobResult>(res.payload);

  EXPECT_EQ(payload.zigzagged, jpeg::encode_block_stages(raw, quant));
  const auto fresh = jpeg::encode_block_on_fabric(raw, quant);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(payload.zigzagged, fresh.zigzagged);
  EXPECT_EQ(payload.cycles, fresh.total_cycles);
}

TEST(Service, MixedProducersMatchSerialExecution) {
  // N producer threads race mixed FFT and JPEG jobs into one service;
  // every result must be bit-identical to serial per-request execution.
  constexpr int kProducers = 4;
  constexpr int kJobsEach = 6;
  const auto quant = jpeg::scaled_quant(50);
  const auto g = fft::make_geometry(32, 8);

  Service svc(ServiceOptions{.workers = 3, .queue_capacity = 256});
  std::vector<std::vector<JobHandle>> handles(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int j = 0; j < kJobsEach; ++j) {
        const int seed = p * kJobsEach + j;
        SubmitResult sub;
        if (j % 2 == 0) {
          JpegBlockRequest req;
          req.raw = test_block(seed);
          req.quant = quant;
          sub = svc.submit(JobRequest{req});
        } else {
          FftRequest req;
          req.n = g.n;
          req.m = g.m;
          req.input = test_signal(g.n, seed);
          sub = svc.submit(JobRequest{req});
        }
        ASSERT_TRUE(sub.accepted()) << sub.status.message();
        handles[static_cast<std::size_t>(p)].push_back(sub.handle);
      }
    });
  }
  for (auto& t : producers) t.join();

  for (int p = 0; p < kProducers; ++p) {
    for (int j = 0; j < kJobsEach; ++j) {
      const int seed = p * kJobsEach + j;
      const auto res = svc.wait(handles[static_cast<std::size_t>(p)]
                                       [static_cast<std::size_t>(j)]);
      ASSERT_TRUE(res.ok()) << "p=" << p << " j=" << j << ": "
                            << res.status.message();
      if (j % 2 == 0) {
        const auto& payload = std::get<JpegBlockJobResult>(res.payload);
        EXPECT_EQ(payload.zigzagged,
                  jpeg::encode_block_stages(test_block(seed), quant))
            << "p=" << p << " j=" << j;
      } else {
        const auto serial = fft::run_fabric_fft(g, test_signal(g.n, seed));
        ASSERT_TRUE(serial.ok());
        const auto& payload = std::get<FftJobResult>(res.payload);
        EXPECT_EQ(payload.output, serial.output) << "p=" << p << " j=" << j;
        EXPECT_EQ(payload.timeline.epoch_compute_ns,
                  serial.timeline.epoch_compute_ns)
            << "p=" << p << " j=" << j;
      }
    }
  }
  EXPECT_EQ(svc.counter("service.jobs.completed"),
            kProducers * kJobsEach);
  EXPECT_GT(svc.counter("cache.hit"), 0);
  EXPECT_GT(svc.counter("pool.acquire.reused") +
                svc.counter("pool.acquire.constructed"),
            0);
}

TEST(Service, FftPlanCompiledOncePerGeometry) {
  // One worker, three rounds of same-geometry FFTs: the first batch
  // compiles the plan (the only cache miss), every later batch replays
  // it, and every reply equals the serial per-call run.
  const auto g = fft::make_geometry(64, 8);
  Service svc(ServiceOptions{.workers = 1});
  int seed = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::pair<int, JobHandle>> handles;
    for (int j = 0; j < 2; ++j, ++seed) {
      auto sub = svc.submit(
          JobRequest{FftRequest{g.n, g.m, 2, test_signal(g.n, seed)}});
      ASSERT_TRUE(sub.accepted()) << sub.status.message();
      handles.emplace_back(seed, sub.handle);
    }
    for (const auto& [s, handle] : handles) {
      const auto res = svc.wait(handle);
      ASSERT_TRUE(res.ok()) << res.status.message();
      fft::FabricFftOptions opt;
      opt.cols = 2;
      const auto serial = fft::run_fabric_fft(g, test_signal(g.n, s), opt);
      ASSERT_TRUE(serial.ok());
      const auto& payload = std::get<FftJobResult>(res.payload);
      EXPECT_EQ(payload.output, serial.output) << "job " << s;
      EXPECT_EQ(payload.epochs, serial.epochs) << "job " << s;
      EXPECT_EQ(payload.timeline.epoch_cycles, serial.timeline.epoch_cycles)
          << "job " << s;
      EXPECT_EQ(payload.timeline.reconfig_ns, serial.timeline.reconfig_ns)
          << "job " << s;
    }
  }
  // FFT batches look up nothing but their plan.
  EXPECT_EQ(svc.counter("cache.miss"), 1);
  EXPECT_GE(svc.counter("cache.hit"), 2);
}

TEST(Service, SameKeyJobsBatchBehindBusyWorker) {
  // One worker, held busy by a heavy head job: the same-quant blocks
  // queued behind it must fuse into a single warm batch.
  Service svc(ServiceOptions{.workers = 1, .queue_capacity = 32});
  auto heavy = svc.submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());

  const auto quant = jpeg::scaled_quant(75);
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 5; ++i) {
    JpegBlockRequest req;
    req.raw = test_block(i);
    req.quant = quant;
    auto sub = svc.submit(JobRequest{req});
    ASSERT_TRUE(sub.accepted());
    jobs.push_back(sub.handle);
  }
  ASSERT_TRUE(svc.wait(heavy.handle).ok());
  for (int i = 0; i < 5; ++i) {
    const auto res = svc.wait(jobs[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(res.ok()) << res.status.message();
    const auto& payload = std::get<JpegBlockJobResult>(res.payload);
    EXPECT_EQ(payload.zigzagged,
              jpeg::encode_block_stages(test_block(i), quant));
  }
  // Two batches total: the heavy image, then the five fused blocks.
  EXPECT_EQ(svc.counter("service.batches"), 2);
}

TEST(Service, SaturationRejectsWithStatus) {
  // Capacity 3, one worker pinned on a heavy job: the 4th queued submit
  // must be rejected with a saturation Status, not block or drop.
  Service svc(ServiceOptions{.workers = 1, .queue_capacity = 3});
  auto heavy = svc.submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());
  // The worker may not have dequeued the heavy job yet, so capacity
  // leaves room for at least 2 and at most 3 more accepts.
  const auto quant = jpeg::scaled_quant(75);
  int accepted = 0;
  Status rejection;
  for (int i = 0; i < 8; ++i) {
    JpegBlockRequest req;
    req.raw = test_block(i);
    req.quant = quant;
    auto sub = svc.submit(JobRequest{req});
    if (sub.accepted()) {
      ++accepted;
    } else {
      rejection = sub.status;
      EXPECT_EQ(sub.handle, nullptr);
    }
  }
  EXPECT_LE(accepted, 3);
  ASSERT_FALSE(rejection.ok());
  EXPECT_NE(rejection.message().find("saturated"), std::string::npos)
      << rejection.message();
  EXPECT_GT(svc.counter("service.jobs.rejected"), 0);
}

TEST(Service, CancelRemovesQueuedJobOnly) {
  Service svc(ServiceOptions{.workers = 1, .queue_capacity = 16});
  auto heavy = svc.submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());

  JpegBlockRequest req;
  req.quant = jpeg::scaled_quant(75);
  auto victim = svc.submit(JobRequest{req});
  ASSERT_TRUE(victim.accepted());

  EXPECT_TRUE(svc.cancel(victim.handle));
  EXPECT_FALSE(svc.cancel(victim.handle));  // already cancelled
  const auto res = svc.wait(victim.handle);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.status.message().find("cancelled"), std::string::npos);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(res.payload));

  // A finished job cannot be cancelled.
  ASSERT_TRUE(svc.wait(heavy.handle).ok());
  EXPECT_FALSE(svc.cancel(heavy.handle));
  EXPECT_EQ(svc.counter("service.jobs.cancelled"), 1);
}

TEST(Service, ExpiredDeadlineSkipsExecution) {
  Service svc(ServiceOptions{.workers = 1, .queue_capacity = 16});
  JpegBlockRequest req;
  req.quant = jpeg::scaled_quant(75);
  SubmitOptions late;
  late.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  auto sub = svc.submit(JobRequest{req}, late);
  ASSERT_TRUE(sub.accepted());
  const auto res = svc.wait(sub.handle);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.status.message().find("deadline"), std::string::npos);
  EXPECT_EQ(svc.counter("service.jobs.deadline_expired"), 1);
}

TEST(Service, ResilientBlockRecoversThroughPool) {
  // A per-job fault plan routes through the RecoveryManager on a pooled
  // 2x7 mesh; the output must still match the host reference.
  Service svc(ServiceOptions{.workers = 2});
  const auto quant = jpeg::scaled_quant(50);
  const auto raw = test_block(3);

  JpegBlockRequest req;
  req.raw = raw;
  req.quant = quant;
  req.plan.corrupt_icap(0, 1);  // one corrupted ICAP stream, then clean
  req.policy.max_icap_retries = 3;

  // Two in a row so the second reuses the reset mesh and cached artifacts.
  auto a = svc.submit(JobRequest{req});
  auto b = svc.submit(JobRequest{req});
  const auto ra = svc.wait(a.handle);
  const auto rb = svc.wait(b.handle);
  ASSERT_TRUE(ra.ok()) << ra.status.message();
  ASSERT_TRUE(rb.ok()) << rb.status.message();
  const auto& pa = std::get<JpegBlockJobResult>(ra.payload);
  const auto& pb = std::get<JpegBlockJobResult>(rb.payload);
  EXPECT_EQ(pa.zigzagged, jpeg::encode_block_stages(raw, quant));
  EXPECT_EQ(pb.zigzagged, pa.zigzagged);
}

TEST(Service, DseSweepMatchesDirectSweep) {
  Service svc(ServiceOptions{.workers = 2});
  DseSweepRequest req;
  req.net = jpeg::jpeg_split_pipeline();
  req.max_tiles = 10;
  auto sub = svc.submit(JobRequest{req});
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  const auto& payload = std::get<DseSweepJobResult>(res.payload);
  const auto direct = mapping::sweep(req.net, req.max_tiles, req.algorithm,
                                     req.params);
  ASSERT_EQ(payload.points.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(payload.points[i].eval.ii_ns, direct[i].eval.ii_ns) << i;
  }
}

TEST(Service, MapJobMatchesDirectMapping) {
  Service svc(ServiceOptions{.workers = 2});
  MapJobRequest req;
  req.net = jpeg::jpeg_split_pipeline();
  req.mesh_rows = 4;
  req.mesh_cols = 4;
  req.options.max_tiles = 5;
  auto sub = svc.submit(JobRequest{req});
  const auto res = svc.wait(sub.handle);
  ASSERT_TRUE(res.ok()) << res.status.message();
  const auto& payload = std::get<MapJobResult>(res.payload);
  ASSERT_TRUE(payload.mapped.ok());
  const auto direct =
      mapper::map_network(req.net, req.mesh_rows, req.mesh_cols, req.options);
  EXPECT_EQ(payload.mapped.binding.describe(req.net),
            direct.binding.describe(req.net));
  EXPECT_DOUBLE_EQ(payload.mapped.cost.total_ns(), direct.cost.total_ns());
  EXPECT_EQ(payload.mapped.solver, "exact");
}

TEST(Service, MapJobReportsMapperErrors) {
  Service svc(ServiceOptions{.workers = 1});
  MapJobRequest req;  // empty network: the mapper must refuse, not crash
  auto sub = svc.submit(JobRequest{req});
  const auto res = svc.wait(sub.handle);
  EXPECT_FALSE(res.ok());
}

TEST(Service, ShutdownFailsPendingAndRejectsNew) {
  auto svc = std::make_unique<Service>(
      ServiceOptions{.workers = 1, .queue_capacity = 16});
  auto heavy = svc->submit(heavy_request());
  ASSERT_TRUE(heavy.accepted());
  JpegBlockRequest req;
  req.quant = jpeg::scaled_quant(75);
  auto pending = svc->submit(JobRequest{req});
  ASSERT_TRUE(pending.accepted());

  svc->shutdown();
  auto after = svc->submit(JobRequest{req});
  EXPECT_FALSE(after.accepted());
  EXPECT_EQ(after.handle, nullptr);

  // The queued job either ran before shutdown drained the queue or was
  // failed with a shutdown Status — but it must have completed either way.
  const auto res = svc->wait(pending.handle);
  if (!res.ok()) {
    EXPECT_NE(res.status.message().find("shut down"), std::string::npos);
  }
  svc.reset();  // double-shutdown via the destructor must be safe
}

TEST(Service, InvalidRequestsReportStatusNotCrash) {
  Service svc(ServiceOptions{.workers = 1});
  {
    FftRequest req;
    req.n = 48;  // not a power of two
    req.input.resize(48);
    const auto res = svc.wait(svc.submit(JobRequest{req}).handle);
    EXPECT_FALSE(res.ok());
  }
  {
    FftRequest req;
    req.n = 32;
    req.input.resize(7);  // wrong length
    const auto res = svc.wait(svc.submit(JobRequest{req}).handle);
    EXPECT_FALSE(res.ok());
  }
  {
    JpegImageRequest req;
    req.image.width = 8;
    req.image.height = 8;  // pixels left empty
    const auto res = svc.wait(svc.submit(JobRequest{req}).handle);
    EXPECT_FALSE(res.ok());
  }
  {
    DseSweepRequest req;  // empty network
    const auto res = svc.wait(svc.submit(JobRequest{req}).handle);
    EXPECT_FALSE(res.ok());
  }
}

TEST(Service, MetricsReadableWhileJobsRun) {
  // One thread reads the registry while two workers finish JPEG-block
  // jobs over three quant tables.  The cache and pool count under their
  // own mutexes, so only a registry that is thread-safe on its own keeps
  // this race-free (the tsan preset runs it).  Once idle, the totals are
  // exact.
  constexpr int kJobs = 240;
  const std::array quants = {jpeg::scaled_quant(50), jpeg::scaled_quant(75),
                             jpeg::scaled_quant(90)};
  Service svc(ServiceOptions{.workers = 2, .queue_capacity = kJobs});
  std::atomic<bool> done{false};
  std::int64_t reads = 0;
  std::thread reader([&] {
    while (!done.load()) {
      double sum = 0.0;
      for (const auto& s : svc.metrics_samples()) sum += s.value;
      EXPECT_GE(sum, 0.0);
      EXPECT_GE(svc.counter("cache.hit"), 0);
      ++reads;
    }
  });
  std::vector<JobHandle> handles;
  for (int i = 0; i < kJobs; ++i) {
    JpegBlockRequest req;
    req.raw = test_block(i);
    req.quant = quants[static_cast<std::size_t>(i) % quants.size()];
    auto sub = svc.submit(JobRequest{req});
    EXPECT_TRUE(sub.accepted()) << sub.status.message();
    if (sub.accepted()) handles.push_back(sub.handle);
  }
  for (const auto& h : handles) {
    const auto res = svc.wait(h);
    EXPECT_TRUE(res.ok()) << res.status.message();
  }
  done.store(true);
  reader.join();
  EXPECT_GT(reads, 0);

  EXPECT_EQ(svc.counter("service.jobs.submitted"), kJobs);
  EXPECT_EQ(svc.counter("service.jobs.completed"), kJobs);
  // One pipeline-artifact lookup and one lease per JPEG-block batch.
  const std::int64_t batches = svc.counter("service.batches");
  EXPECT_EQ(svc.counter("cache.hit") + svc.counter("cache.miss"), batches);
  EXPECT_GE(svc.counter("cache.miss"), 3);
  EXPECT_EQ(svc.counter("pool.acquire.reused") +
                svc.counter("pool.acquire.constructed"),
            batches);
}

// The same jobs produce bit-identical payloads on both execution engines
// (the fabrics behind the pool differ only in HOW they step, never in what
// they compute).  The engine is the process default, which a fresh
// service's pooled fabrics resolve on their first run.  Jobs are submitted
// one at a time so each is its own batch.
TEST(Service, ResultsBitIdenticalAcrossEngines) {
  const auto quant = jpeg::scaled_quant(75);
  const engine::EngineKind saved = engine::process_engine();

  std::vector<JpegBlockJobResult> want;
  for (const auto kind :
       {engine::EngineKind::kInterp, engine::EngineKind::kThreaded}) {
    engine::use_process_engine(kind);
    Service svc(ServiceOptions{.workers = 1});
    for (int i = 0; i < 4; ++i) {
      JpegBlockRequest req;
      req.raw = test_block(i);
      req.quant = quant;
      auto sub = svc.submit(JobRequest{req});
      ASSERT_TRUE(sub.accepted()) << sub.status.message();
      const auto res = svc.wait(sub.handle);
      ASSERT_TRUE(res.ok()) << res.status.message();
      const auto& payload = std::get<JpegBlockJobResult>(res.payload);
      if (kind == engine::EngineKind::kInterp) {
        want.push_back(payload);
      } else {
        const auto idx = static_cast<std::size_t>(i);
        EXPECT_EQ(payload.zigzagged, want[idx].zigzagged)
            << "job " << i << " on " << engine::engine_name(kind);
        EXPECT_EQ(payload.cycles, want[idx].cycles)
            << "job " << i << " on " << engine::engine_name(kind);
      }
    }
  }
  engine::use_process_engine(saved);
}

}  // namespace
}  // namespace cgra::service
