// cgra::Service — the asynchronous job-service runtime.
//
// The paper's runtime management system accepts work (JPEG blocks/images,
// FFTs, DSE sweeps) and keeps the reconfigurable fabric busy; this is our
// software analogue.  One Service owns:
//
//   * a bounded FIFO queue with reject-on-saturation backpressure
//     (submit() returns a Status error instead of blocking),
//   * a worker pool executing jobs on pre-warmed fabrics from a
//     FabricPool (reset-and-reuse instead of reconstruction),
//   * a content-addressed ArtifactCache of compiled FFT plans, JPEG
//     pipeline artifacts and placements,
//   * epoch-schedule batching: consecutive queued jobs with the same
//     batch key (same kernel configuration) execute back to back on one
//     configured fabric, paying the ICAP setup once per batch,
//   * observability: queue/cache/pool counters in an obs::MetricsRegistry
//     (fixed memory however many jobs run); traced jobs also record spans
//     on the attached obs::Tracer.
//
// Determinism: each job's result is bit-identical to running the same
// request serially on a fresh fabric — batching and pooling only change
// WHERE the job runs (a reset fabric, a cached artifact), never its
// inputs.  tests/test_service.cpp checks this with racing producers.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "service/artifact_cache.hpp"
#include "service/fabric_pool.hpp"
#include "service/job.hpp"

namespace cgra::service {

/// A reference to a submitted job; share or store freely.
using JobHandle = std::shared_ptr<JobState>;

/// submit() outcome: `status` tells whether the job was accepted; the
/// handle is null exactly when it was not (saturation / shutdown).
struct SubmitResult {
  JobHandle handle;
  Status status = Status();

  [[nodiscard]] bool accepted() const noexcept { return status.ok(); }
};

/// Per-submission options.
struct SubmitOptions {
  /// Give up if a worker has not STARTED the job by then: expired jobs
  /// complete with a "deadline exceeded" Status instead of executing.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Wire-trace identity (zero = untraced).  Traced jobs record
  /// queue-wait / epoch-fusion / fabric-epoch spans and flight events on
  /// the attached ServiceOptions::tracer.
  obs::TraceContext trace;
};

/// Service construction knobs.
struct ServiceOptions {
  int workers = 4;             ///< Worker threads (>= 1).
  int queue_capacity = 64;     ///< Queued (not yet running) jobs bound.
  int max_fabrics_per_shape = 8;  ///< FabricPool bound per mesh shape.
  int batch_limit = 8;         ///< Max jobs fused into one warm batch.
  /// Chaos injector (not owned; must outlive the service).  Wires the
  /// service-level hooks: kWorkerCrash, kPoolLease, kCachePoison,
  /// kQueueStall, kFabricPoison.
  chaos::ChaosInjector* chaos = nullptr;
  /// Wire tracer (not owned; must outlive the service).  Traced jobs
  /// record spans + flight-recorder events here; null disables tracing
  /// at one branch per instrumentation point.
  obs::Tracer* tracer = nullptr;
};

/// The asynchronous job service.  Thread-safe; destruction drains the
/// queue (pending jobs complete with a shutdown Status) and joins the
/// workers.
class Service {
 public:
  explicit Service(ServiceOptions opt = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Enqueue a job.  Returns a null handle with a Status error when the
  /// queue is saturated or the service is shutting down.
  [[nodiscard]] SubmitResult submit(JobRequest request,
                                    SubmitOptions options = {});

  /// Block until the job finishes (done or cancelled) and return its
  /// result.  Cancelled jobs report a "cancelled" Status.
  [[nodiscard]] JobResult wait(const JobHandle& handle) const;

  /// Non-blocking wait(): copy the result into *out and return true iff
  /// the job already finished (done or cancelled).
  [[nodiscard]] bool try_result(const JobHandle& handle,
                                JobResult* out) const;

  /// Register a completion hook: invoked exactly once when the job
  /// reaches kDone/kCancelled — immediately (on this thread) when it
  /// already has, otherwise on the finishing thread, outside the job
  /// lock.  The event-driven reply path in cgra::net uses this instead
  /// of a blocking writer thread per connection.
  void on_complete(const JobHandle& handle, std::function<void()> hook);

  /// Remove a still-queued job.  Returns true iff this call cancelled it
  /// (running or finished jobs are not interrupted — the fabric has no
  /// preemption; that mirrors real partial reconfiguration).
  bool cancel(const JobHandle& handle);

  /// Stop accepting work, fail the still-queued jobs with a shutdown
  /// Status, and join the workers.  Idempotent; the destructor calls it.
  void shutdown();

  /// Queued-but-not-started jobs right now.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Readiness facts the network layer's health frame reports.
  [[nodiscard]] int queue_capacity() const noexcept {
    return opt_.queue_capacity;
  }
  [[nodiscard]] int workers() const noexcept { return opt_.workers; }
  [[nodiscard]] bool accepting() const;

  /// Counter by full metric name (e.g. "cache.hit"); callable from any
  /// thread while jobs run.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;

  /// Snapshot of every counter and gauge (service.*, cache.*, pool.*),
  /// callable from any thread while jobs run — the stats hook the network
  /// layer serves to remote clients.
  [[nodiscard]] std::vector<obs::MetricSample> metrics_samples() const;

 private:
  void worker_loop();
  /// Pop the next runnable job plus every same-batch-key follower (up to
  /// batch_limit).  Empty when shutting down.
  std::vector<JobHandle> next_batch();
  void execute_batch(const std::vector<JobHandle>& batch);
  void finish(const JobHandle& job, JobResult result);

  /// Crash-resume: an injected kWorkerCrash killed this worker after it
  /// claimed `batch`.  Requeue the jobs at the queue front (they were
  /// already admitted — the capacity check does not reapply) and respawn
  /// a replacement worker, unless the service is shutting down.
  void resume_after_crash(const std::vector<JobHandle>& batch);

  /// Epoch-boundary deadline check: finish the job with kDeadlineExceeded
  /// and return true when its deadline has passed.
  bool finish_if_deadline_expired(const JobHandle& job);

  /// Pool acquire with one retry absorbing an injected kPoolLease
  /// failure.  May still return an invalid lease (callers fail the batch
  /// with kUnavailable).  `head` attributes the lease (and any retry) to
  /// the batch head's flight recorder.
  [[nodiscard]] FabricPool::Lease acquire_fabric(int rows, int cols,
                                                 const JobHandle& head);

  /// Record a fabric-epoch span for a traced job: t0 .. now on the trace
  /// clock, on the fabric track.
  void trace_fabric(const JobHandle& job, Nanoseconds t0, const char* what);

  /// Cache lookup routed through the kCachePoison hook (an injected
  /// failure evicts the key first, forcing a rebuild).
  template <typename T, typename Builder>
  std::shared_ptr<const T> cached(const std::string& key, Builder&& build);

  void fail_batch(const std::vector<JobHandle>& batch, const Status& status);

  void run_jpeg_block_batch(const std::vector<JobHandle>& batch);
  void run_jpeg_image_batch(const std::vector<JobHandle>& batch);
  void run_fft_batch(const std::vector<JobHandle>& batch);
  void run_dse_job(const JobHandle& job);
  void run_map_job(const JobHandle& job);

  const ServiceOptions opt_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<JobHandle> queue_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;

  ArtifactCache cache_;
  FabricPool pool_;

  /// Registered in the constructor; shared by the workers, the cache and
  /// the pool, which update it lock-free.
  obs::MetricsRegistry metrics_;
  obs::CounterHandle submitted_;
  obs::CounterHandle rejected_;
  obs::CounterHandle completed_;
  obs::CounterHandle failed_;
  obs::CounterHandle cancelled_;
  obs::CounterHandle expired_;
  obs::CounterHandle batches_;
  obs::CounterHandle crashes_;
  obs::CounterHandle lease_retries_;
  obs::HistogramHandle batch_size_;
  chaos::ChaosInjector* const chaos_;
  obs::Tracer* const tracer_;

  std::vector<std::thread> workers_;
};

}  // namespace cgra::service
