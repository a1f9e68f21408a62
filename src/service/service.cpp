#include "service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "apps/fft/fabric_fft.hpp"
#include "apps/jpeg/fabric_jpeg.hpp"
#include "apps/jpeg/tables.hpp"

namespace cgra::service {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// The batch key: jobs with equal keys run back to back on one configured
/// fabric.  The key therefore pins everything the setup epoch depends on.
std::string batch_key_for(const JobRequest& request, std::uint64_t id) {
  struct Visitor {
    std::uint64_t id;
    std::string operator()(const JpegBlockRequest& r) const {
      const std::string base =
          (r.plan.empty() ? std::string("jpeg.block:q=")
                          : "jpeg.resilient:r=" + std::to_string(r.rows) +
                                ":c=" + std::to_string(r.cols) + ":q=") +
          hex64(fnv1a_values(r.quant));
      return base;
    }
    std::string operator()(const JpegImageRequest& r) const {
      return "jpeg.image:q=" + std::to_string(r.quality);
    }
    std::string operator()(const FftRequest& r) const {
      return "fft:n=" + std::to_string(r.n) + ":m=" + std::to_string(r.m) +
             ":c=" + std::to_string(r.cols);
    }
    std::string operator()(const DseSweepRequest&) const {
      // Sweeps run fabric-free and gain nothing from fusion.
      return "dse:" + std::to_string(id);
    }
    std::string operator()(const MapJobRequest&) const {
      // Mapper jobs run fabric-free too: unique key, no fusion.
      return "map:" + std::to_string(id);
    }
  };
  return std::visit(Visitor{id}, request);
}

const char* job_kind_name(const JobRequest& request) {
  switch (request.index()) {
    case 0: return "jpeg.block";
    case 1: return "jpeg.image";
    case 2: return "fft";
    case 3: return "dse";
    default: return "map";
  }
}

}  // namespace

const char* job_phase_name(JobPhase phase) noexcept {
  switch (phase) {
    case JobPhase::kQueued: return "queued";
    case JobPhase::kRunning: return "running";
    case JobPhase::kDone: return "done";
    case JobPhase::kCancelled: return "cancelled";
  }
  return "?";
}

Service::Service(ServiceOptions opt)
    : opt_([&] {
        ServiceOptions o = opt;
        o.workers = std::max(1, o.workers);
        o.queue_capacity = std::max(1, o.queue_capacity);
        o.batch_limit = std::max(1, o.batch_limit);
        return o;
      }()),
      pool_(opt.max_fabrics_per_shape),
      chaos_(opt.chaos),
      tracer_(opt.tracer) {
  if (chaos_ != nullptr && tracer_ != nullptr) {
    chaos_->attach_tracer(tracer_);
  }
  // Every metric registers here, before the workers share the registry.
  submitted_ = metrics_.counter("service.jobs.submitted");
  rejected_ = metrics_.counter("service.jobs.rejected");
  completed_ = metrics_.counter("service.jobs.completed");
  failed_ = metrics_.counter("service.jobs.failed");
  cancelled_ = metrics_.counter("service.jobs.cancelled");
  expired_ = metrics_.counter("service.jobs.deadline_expired");
  batches_ = metrics_.counter("service.batches");
  crashes_ = metrics_.counter("service.worker.crashes");
  lease_retries_ = metrics_.counter("service.lease.retries");
  batch_size_ = metrics_.histogram("service.batch.size",
                                   {1.0, 2.0, 4.0, 8.0, 16.0});
  cache_.attach_metrics(&metrics_);
  pool_.attach_metrics(&metrics_);
  pool_.attach_chaos(chaos_);
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { shutdown(); }

SubmitResult Service::submit(JobRequest request, SubmitOptions options) {
  auto state = std::make_shared<JobState>();
  state->request = std::move(request);
  state->deadline = options.deadline;
  state->trace = options.trace;
  state->trace_queued_ns = obs::trace_clock_ns();
  std::size_t depth = 0;
  Status refused;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      refused = Status::error("service is shut down");
    } else if (queue_.size() >=
               static_cast<std::size_t>(opt_.queue_capacity)) {
      refused = Status::errorf("service saturated: queue capacity %d reached",
                               opt_.queue_capacity);
    } else {
      state->id = next_id_++;
      state->batch_key = batch_key_for(state->request, state->id);
      queue_.push_back(state);
      depth = queue_.size();
    }
  }
  if (!refused.ok()) {
    metrics_.add(rejected_);
    return {nullptr, refused};
  }
  metrics_.add(submitted_);
  if (tracer_ != nullptr && state->trace.valid()) {
    tracer_->event(state->trace, obs::FlightEventKind::kEnqueue, 0,
                   static_cast<std::uint32_t>(depth));
  }
  queue_cv_.notify_one();
  return {std::move(state), Status()};
}

JobResult Service::wait(const JobHandle& handle) const {
  if (handle == nullptr) {
    JobResult r;
    r.status = Status::error("wait on a null job handle");
    return r;
  }
  std::unique_lock<std::mutex> lock(handle->mu);
  handle->cv.wait(lock, [&] {
    return handle->phase == JobPhase::kDone ||
           handle->phase == JobPhase::kCancelled;
  });
  return handle->result;
}

bool Service::try_result(const JobHandle& handle, JobResult* out) const {
  if (handle == nullptr) return false;
  std::lock_guard<std::mutex> lock(handle->mu);
  if (handle->phase != JobPhase::kDone &&
      handle->phase != JobPhase::kCancelled) {
    return false;
  }
  *out = handle->result;
  return true;
}

void Service::on_complete(const JobHandle& handle,
                          std::function<void()> hook) {
  if (handle == nullptr || !hook) return;
  {
    std::lock_guard<std::mutex> lock(handle->mu);
    if (handle->phase != JobPhase::kDone &&
        handle->phase != JobPhase::kCancelled) {
      handle->completion_hooks.push_back(std::move(hook));
      return;
    }
  }
  hook();  // already finished: fire on the caller's thread, lock dropped
}

bool Service::cancel(const JobHandle& handle) {
  if (handle == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(queue_.begin(), queue_.end(), handle);
    if (it == queue_.end()) return false;  // running, done, or never queued
    queue_.erase(it);
  }
  // Counter before publishing: see finish().
  metrics_.add(cancelled_);
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(handle->mu);
    handle->phase = JobPhase::kCancelled;
    handle->result.status = Status::error("cancelled before execution");
    handle->result.payload = std::monostate{};
    hooks = std::move(handle->completion_hooks);
    handle->completion_hooks.clear();
  }
  handle->cv.notify_all();
  for (auto& h : hooks) h();
  return true;
}

void Service::shutdown() {
  std::deque<JobHandle> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    orphans.swap(queue_);
  }
  queue_cv_.notify_all();
  for (const auto& job : orphans) {
    JobResult r;
    r.status = Status::error("service shut down before execution");
    finish(job, std::move(r));
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool Service::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !stopping_;
}

std::int64_t Service::counter(std::string_view name) const {
  return metrics_.counter_value(name);
}

std::vector<obs::MetricSample> Service::metrics_samples() const {
  return metrics_.samples();
}

void Service::finish(const JobHandle& job, JobResult result) {
  const bool ok = result.status.ok();
  if (tracer_ != nullptr && job->trace.valid()) {
    tracer_->event(job->trace, obs::FlightEventKind::kComplete,
                   static_cast<std::uint16_t>(result.status.code()), 0);
    if (!ok) {
      tracer_->note_anomaly(
          job->trace,
          result.status.code() == StatusCode::kDeadlineExceeded
              ? obs::AnomalyReason::kDeadlineExceeded
              : obs::AnomalyReason::kError,
          result.status.message());
    }
  }
  // Counters first: a caller that observed wait() return must also
  // observe the counters already reflecting this job.
  metrics_.add(ok ? completed_ : failed_);
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->phase = JobPhase::kDone;
    job->result = std::move(result);
    hooks = std::move(job->completion_hooks);
    job->completion_hooks.clear();
  }
  job->cv.notify_all();
  for (auto& h : hooks) h();
}

void Service::resume_after_crash(const std::vector<JobHandle>& batch) {
  metrics_.add(crashes_);
  if (tracer_ != nullptr) {
    for (const auto& job : batch) {
      if (!job->trace.valid()) continue;
      tracer_->event(job->trace, obs::FlightEventKind::kRetry, 0, 1);
      tracer_->note_anomaly(job->trace, obs::AnomalyReason::kCrashResume,
                            "worker crashed; batch requeued at queue front");
    }
  }
  bool resumed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      // Front of the queue, original order, no capacity check: these jobs
      // were admitted once and must not be lost to saturation now.
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        {
          std::lock_guard<std::mutex> jl((*it)->mu);
          (*it)->phase = JobPhase::kQueued;
        }
        queue_.push_front(*it);
      }
      // Safe against shutdown(): workers_ is only mutated under mu_ while
      // !stopping_, and shutdown() joins only after setting stopping_.
      workers_.emplace_back([this] { worker_loop(); });
      resumed = true;
    }
  }
  if (resumed) {
    queue_cv_.notify_all();
    return;
  }
  for (const auto& job : batch) {
    JobResult r;
    r.status = Status::error("service shut down before execution");
    finish(job, std::move(r));
  }
}

bool Service::finish_if_deadline_expired(const JobHandle& job) {
  if (!job->deadline || std::chrono::steady_clock::now() <= *job->deadline) {
    if (tracer_ != nullptr && job->deadline && job->trace.valid()) {
      tracer_->event(job->trace, obs::FlightEventKind::kDeadlineCheck, 0, 0);
    }
    return false;
  }
  if (tracer_ != nullptr && job->trace.valid()) {
    tracer_->event(job->trace, obs::FlightEventKind::kDeadlineCheck, 1, 0);
  }
  metrics_.add(expired_);
  JobResult r;
  r.status = Status::deadline_exceeded("deadline expired at epoch boundary");
  finish(job, std::move(r));
  return true;
}

FabricPool::Lease Service::acquire_fabric(int rows, int cols,
                                          const JobHandle& head) {
  const bool traced =
      tracer_ != nullptr && head != nullptr && head->trace.valid();
  const auto shape_code = static_cast<std::uint16_t>(
      (static_cast<unsigned>(rows) << 8) | static_cast<unsigned>(cols & 0xFF));
  auto lease = pool_.acquire(rows, cols);
  if (!lease.valid()) {
    // Injected kPoolLease failure; one retry recovers (the pool can
    // always construct below its bound once the rule stops firing).
    metrics_.add(lease_retries_);
    if (traced) {
      tracer_->event(head->trace, obs::FlightEventKind::kRetry, shape_code, 1);
    }
    lease = pool_.acquire(rows, cols);
  }
  if (traced) {
    tracer_->event(head->trace, obs::FlightEventKind::kLease, shape_code,
                   lease.valid() ? 1 : 0);
  }
  return lease;
}

void Service::trace_fabric(const JobHandle& job, Nanoseconds t0,
                           const char* what) {
  if (tracer_ == nullptr || !job->trace.valid()) return;
  tracer_->span(obs::kTraceTrackFabric, std::string("fabric ") + what,
                job->trace, t0, obs::trace_clock_ns() - t0,
                {{"job", std::to_string(job->id), true}});
}

template <typename T, typename Builder>
std::shared_ptr<const T> Service::cached(const std::string& key,
                                         Builder&& build) {
  if (const auto d = chaos::decide(chaos_, chaos::Hook::kCachePoison);
      d && d.action == chaos::Action::kFail) {
    cache_.erase(key);
  }
  return cache_.get_or_build<T>(key, std::forward<Builder>(build));
}

void Service::fail_batch(const std::vector<JobHandle>& batch,
                         const Status& status) {
  for (const auto& job : batch) {
    JobResult r;
    r.status = status;
    finish(job, std::move(r));
  }
}

namespace {

/// Resolve a kKillTile decision to a concrete tile index (`a` out of
/// range falls back to the decision's seeded choice).
int poison_target(const chaos::Decision& d, int tiles) {
  if (d.a >= 0 && d.a < tiles) return static_cast<int>(d.a);
  SplitMix64 rng(d.salt);
  return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(tiles)));
}

}  // namespace

std::vector<JobHandle> Service::next_batch() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return {};  // stopping
    const auto now = std::chrono::steady_clock::now();
    JobHandle head = queue_.front();
    queue_.pop_front();
    if (head->deadline && *head->deadline < now) {
      lock.unlock();
      metrics_.add(expired_);
      if (tracer_ != nullptr && head->trace.valid()) {
        tracer_->event(head->trace, obs::FlightEventKind::kDeadlineCheck, 1,
                       0);
      }
      JobResult r;
      r.status = Status::deadline_exceeded("deadline expired before execution");
      finish(head, std::move(r));
      lock.lock();
      continue;
    }
    // Fuse followers sharing the head's batch key (same configuration),
    // preserving queue order for everything left behind.
    std::vector<JobHandle> batch{head};
    for (auto it = queue_.begin();
         it != queue_.end() &&
         batch.size() < static_cast<std::size_t>(opt_.batch_limit);) {
      if ((*it)->batch_key == head->batch_key &&
          (!(*it)->deadline || *(*it)->deadline >= now)) {
        batch.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    if (const auto d = chaos::decide(chaos_, chaos::Hook::kQueueStall);
        d && d.action == chaos::Action::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(d.a));
    }
    const Nanoseconds trace_start = obs::trace_clock_ns();
    for (const auto& job : batch) {
      job->trace_started_ns = trace_start;
      std::lock_guard<std::mutex> jl(job->mu);
      job->phase = JobPhase::kRunning;
    }
    if (tracer_ != nullptr) {
      for (const auto& job : batch) {
        if (!job->trace.valid()) continue;
        tracer_->event(job->trace, obs::FlightEventKind::kDequeue, 0, 0);
        tracer_->event(job->trace, obs::FlightEventKind::kBatchAttach, 0,
                       static_cast<std::uint32_t>(batch.size()));
        tracer_->span(obs::kTraceTrackQueue,
                      "queue wait job " + std::to_string(job->id), job->trace,
                      job->trace_queued_ns,
                      trace_start - job->trace_queued_ns,
                      {{"kind", job_kind_name(job->request), false}});
      }
    }
    metrics_.add(batches_);
    metrics_.observe(batch_size_, static_cast<double>(batch.size()));
    return batch;
  }
}

void Service::worker_loop() {
  for (;;) {
    const auto batch = next_batch();
    if (batch.empty()) return;
    if (const auto d = chaos::decide(chaos_, chaos::Hook::kWorkerCrash);
        d && d.action == chaos::Action::kCrash) {
      resume_after_crash(batch);
      return;  // this worker thread "dies"
    }
    execute_batch(batch);
    if (tracer_ != nullptr) {
      const Nanoseconds trace_end = obs::trace_clock_ns();
      for (const auto& job : batch) {
        tracer_->span(obs::kTraceTrackFusion,
                      "epoch fusion job " + std::to_string(job->id),
                      job->trace, job->trace_started_ns,
                      trace_end - job->trace_started_ns,
                      {{"kind", job_kind_name(job->request), false},
                       {"batch", std::to_string(batch.size()), true}});
      }
    }
  }
}

void Service::execute_batch(const std::vector<JobHandle>& batch) {
  switch (batch.front()->request.index()) {
    case 0: run_jpeg_block_batch(batch); break;
    case 1: run_jpeg_image_batch(batch); break;
    case 2: run_fft_batch(batch); break;
    case 3:
      for (const auto& job : batch) run_dse_job(job);
      break;
    default:
      for (const auto& job : batch) run_map_job(job);
      break;
  }
}

// --- executors -----------------------------------------------------------

void Service::run_jpeg_block_batch(const std::vector<JobHandle>& batch) {
  const auto& first = std::get<JpegBlockRequest>(batch.front()->request);
  if (first.plan.empty()) {
    // Warm 1x4 pipeline: one setup epoch for the whole batch.
    const auto art = cached<jpeg::JpegPipelineArtifacts>(
        "jpeg.pipeline:q=" + hex64(fnv1a_values(first.quant)),
        [&] { return jpeg::make_pipeline_artifacts(first.quant); });
    auto lease = acquire_fabric(1, 4, batch.front());
    if (!lease.valid()) {
      fail_batch(batch, Status::unavailable("no fabric lease for jpeg.block"));
      return;
    }
    auto pipe = std::make_unique<jpeg::BlockPipeline>(*lease, *art);
    for (const auto& job : batch) {
      if (finish_if_deadline_expired(job)) continue;
      JobResult r;
      if (!pipe->setup_status().ok()) {
        r.status = pipe->setup_status();
        finish(job, std::move(r));
        continue;
      }
      const auto& req = std::get<JpegBlockRequest>(job->request);
      if (const auto d = chaos::decide(chaos_, chaos::Hook::kFabricPoison);
          d && d.action == chaos::Action::kKillTile) {
        (*lease).kill_tile(
            poison_target(d, (*lease).rows() * (*lease).cols()));
      }
      const Nanoseconds t0 = obs::trace_clock_ns();
      auto res = pipe->encode(req.raw);
      if (!res.ok() && !(*lease).dead_tiles().empty()) {
        // Crash-resume: the fabric died under the job.  encode() is pure
        // and nothing was delivered, so swap in a fresh lease and re-run.
        lease.release();
        lease = acquire_fabric(1, 4, job);
        if (lease.valid()) {
          pipe = std::make_unique<jpeg::BlockPipeline>(*lease, *art);
          if (pipe->setup_status().ok()) res = pipe->encode(req.raw);
        }
      }
      trace_fabric(job, t0, "jpeg.block");
      r.status = res.status;
      JpegBlockJobResult payload;
      payload.zigzagged = res.zigzagged;
      payload.cycles = res.total_cycles;
      payload.reconfig_ns = res.reconfig_ns;
      r.payload = std::move(payload);
      finish(job, std::move(r));
    }
    return;
  }

  // Resilient path: pooled rows x cols mesh, per-job fault plan/policy.
  const auto art = cached<jpeg::ResilientJpegArtifacts>(
      "jpeg.resilient:r=" + std::to_string(first.rows) +
          ":c=" + std::to_string(first.cols) +
          ":q=" + hex64(fnv1a_values(first.quant)),
      [&] {
        return jpeg::make_resilient_artifacts(first.quant, first.rows,
                                              first.cols);
      });
  auto lease = acquire_fabric(first.rows, first.cols, batch.front());
  if (!lease.valid()) {
    fail_batch(batch, Status::unavailable("no fabric lease for jpeg.block"));
    return;
  }
  bool fresh = true;
  for (const auto& job : batch) {
    if (finish_if_deadline_expired(job)) continue;
    const auto& req = std::get<JpegBlockRequest>(job->request);
    if (!fresh) (*lease).reset();
    fresh = false;
    faults::FaultPlan plan = req.plan;
    if (const auto d = chaos::decide(chaos_, chaos::Hook::kFabricPoison);
        d && d.action == chaos::Action::kKillTile) {
      // Mid-epoch tile death routed through the job's own fault plan: the
      // RecoveryManager must rebalance onto surviving tiles and resume.
      plan.kill_tile(d.b, poison_target(d, first.rows * first.cols));
    }
    const Nanoseconds t0 = obs::trace_clock_ns();
    auto res = jpeg::encode_block_resilient_on(*lease, *art, req.raw, plan,
                                               req.policy);
    trace_fabric(job, t0, "jpeg.resilient");
    JobResult r;
    if (res.report.ok) {
      r.status = Status();
    } else {
      r.status = res.report.status.ok()
                     ? Status::error("recovery failed")
                     : res.report.status;
    }
    JpegBlockJobResult payload;
    payload.zigzagged = res.zigzagged;
    payload.reconfig_ns = res.report.timeline.reconfig_ns;
    payload.recovered = res.report.rollbacks > 0 || res.report.rebalances > 0 ||
                        res.report.icap_retries > 0;
    r.payload = std::move(payload);
    finish(job, std::move(r));
  }
}

void Service::run_jpeg_image_batch(const std::vector<JobHandle>& batch) {
  const auto& first = std::get<JpegImageRequest>(batch.front()->request);
  const std::array<int, 64> quant = jpeg::scaled_quant(first.quality);
  const auto art = cached<jpeg::JpegPipelineArtifacts>(
      "jpeg.pipeline:q=" + hex64(fnv1a_values(quant)),
      [&] { return jpeg::make_pipeline_artifacts(quant); });
  auto lease = acquire_fabric(1, 4, batch.front());
  if (!lease.valid()) {
    fail_batch(batch, Status::unavailable("no fabric lease for jpeg.image"));
    return;
  }
  jpeg::BlockPipeline pipe(*lease, *art);
  for (const auto& job : batch) {
    if (finish_if_deadline_expired(job)) continue;
    JobResult r;
    if (!pipe.setup_status().ok()) {
      r.status = pipe.setup_status();
      finish(job, std::move(r));
      continue;
    }
    const auto& req = std::get<JpegImageRequest>(job->request);
    if (req.image.width <= 0 || req.image.height <= 0 ||
        req.image.pixels.size() !=
            static_cast<std::size_t>(req.image.width) *
                static_cast<std::size_t>(req.image.height)) {
      r.status = Status::error("malformed image: pixels != width*height");
      finish(job, std::move(r));
      continue;
    }
    const Nanoseconds t0 = obs::trace_clock_ns();
    JpegImageJobResult payload;
    std::vector<jpeg::IntBlock> blocks;
    blocks.reserve(static_cast<std::size_t>(
        jpeg::block_count(req.image.width, req.image.height)));
    const int bw = (req.image.width + 7) / 8;
    const int bh = (req.image.height + 7) / 8;
    Status status;
    for (int by = 0; by < bh && status.ok(); ++by) {
      for (int bx = 0; bx < bw; ++bx) {
        auto res = pipe.encode(jpeg::extract_block(req.image, bx, by));
        if (!res.ok()) {
          status = Status::errorf("block (%d,%d): %s", bx, by,
                                  res.status.message().c_str());
          break;
        }
        payload.fabric_cycles += res.total_cycles;
        blocks.push_back(res.zigzagged);
      }
    }
    trace_fabric(job, t0, "jpeg.image");
    r.status = status;
    if (status.ok()) {
      payload.jfif =
          jpeg::encode_image_from_zigzag(req.image, req.quality, blocks);
      r.payload = std::move(payload);
    }
    finish(job, std::move(r));
  }
}

void Service::run_fft_batch(const std::vector<JobHandle>& batch) {
  const auto& first = std::get<FftRequest>(batch.front()->request);
  const auto power_of_two = [](int v) { return v >= 2 && (v & (v - 1)) == 0; };
  if (!power_of_two(first.n) || (first.m != 0 && !power_of_two(first.m))) {
    for (const auto& job : batch) {
      JobResult r;
      r.status = Status::errorf("FFT size must be a power of two (n=%d m=%d)",
                                first.n, first.m);
      finish(job, std::move(r));
    }
    return;
  }
  const auto g = fft::make_geometry(first.n, first.m);
  // The whole epoch sequence (move planning, assembled copy programs,
  // twiddle patches) is a pure function of the geometry: compiled once,
  // replayed by every job.
  const auto plan = cached<fft::FabricFftPlan>(
      "fft.plan:n=" + std::to_string(g.n) + ":m=" + std::to_string(g.m) +
          ":cols=" + std::to_string(first.cols),
      [&] { return fft::compile_plan(g, first.cols); });
  if (!plan->ok()) {
    fail_batch(batch, plan->status);
    return;
  }
  auto lease = acquire_fabric(g.rows, first.cols, batch.front());
  if (!lease.valid()) {
    fail_batch(batch, Status::unavailable("no fabric lease for fft"));
    return;
  }
  bool fresh = true;
  for (const auto& job : batch) {
    if (finish_if_deadline_expired(job)) continue;
    const auto& req = std::get<FftRequest>(job->request);
    if (!fresh) (*lease).reset();  // the FFT run leaves the fabric dirty
    fresh = false;
    if (const auto d = chaos::decide(chaos_, chaos::Hook::kFabricPoison);
        d && d.action == chaos::Action::kKillTile) {
      (*lease).kill_tile(poison_target(d, (*lease).rows() * (*lease).cols()));
    }
    fft::FabricFftOptions opt;
    opt.cols = req.cols;
    opt.plan = plan.get();
    opt.fabric = lease.get();
    const Nanoseconds t0 = obs::trace_clock_ns();
    auto res = fft::run_fabric_fft(g, req.input, opt);
    if (!res.status.ok() && !(*lease).dead_tiles().empty()) {
      // Crash-resume onto a replacement lease (release() resets the dead
      // fabric back to health before returning it to the pool).
      lease.release();
      lease = acquire_fabric(g.rows, first.cols, job);
      if (lease.valid()) {
        opt.fabric = lease.get();
        res = fft::run_fabric_fft(g, req.input, opt);
      }
    }
    trace_fabric(job, t0, "fft");
    JobResult r;
    r.status = res.status;
    FftJobResult payload;
    payload.output = std::move(res.output);
    payload.timeline = std::move(res.timeline);
    payload.epochs = res.epochs;
    r.payload = std::move(payload);
    finish(job, std::move(r));
  }
}

void Service::run_dse_job(const JobHandle& job) {
  if (finish_if_deadline_expired(job)) return;
  const auto& req = std::get<DseSweepRequest>(job->request);
  JobResult r;
  if (req.net.processes().empty()) {
    r.status = Status::error("DSE sweep needs a non-empty process network");
    finish(job, std::move(r));
    return;
  }
  if (req.max_tiles < 1) {
    r.status = Status::errorf("DSE sweep needs max_tiles >= 1 (got %d)",
                              req.max_tiles);
    finish(job, std::move(r));
    return;
  }
  DseSweepJobResult payload;
  payload.points =
      mapping::sweep(req.net, req.max_tiles, req.algorithm, req.params);
  r.status = Status();
  r.payload = std::move(payload);
  finish(job, std::move(r));
}

void Service::run_map_job(const JobHandle& job) {
  if (finish_if_deadline_expired(job)) return;
  const auto& req = std::get<MapJobRequest>(job->request);
  JobResult r;
  MapJobResult payload;
  payload.mapped =
      mapper::map_network(req.net, req.mesh_rows, req.mesh_cols, req.options);
  r.status = payload.mapped.status;
  r.payload = std::move(payload);
  finish(job, std::move(r));
}

}  // namespace cgra::service
