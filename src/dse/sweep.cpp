#include "dse/sweep.hpp"

#include <algorithm>

#include "apps/fft/fabric_fft.hpp"

namespace cgra::dse {

namespace {
int default_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  // A small pool: sweeps are coarse-grained, more lanes than candidates
  // (or than cores) only add wake-up latency.
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}
}  // namespace

Sweep::Sweep(int threads) {
  const int lanes = threads > 0 ? threads : default_lanes();
  threads_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 1; i < lanes; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Sweep::~Sweep() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Sweep::drain(const std::function<void(int)>* job, int n) {
  for (;;) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      (*job)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    // Every claimed index reports exactly one completion (also on throw),
    // so done_ == n means every candidate has finished.
    std::lock_guard<std::mutex> lk(mu_);
    if (++done_ == n) done_cv_.notify_all();
  }
}

void Sweep::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    int n = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stop_ || (epoch_ != seen && job_ != nullptr);
      });
      if (stop_) return;
      seen = epoch_;
      job = job_;
      n = job_n_;
      ++draining_;
    }
    drain(job, n);
    std::lock_guard<std::mutex> lk(mu_);
    if (--draining_ == 0) done_cv_.notify_all();
  }
}

void Sweep::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (threads_.empty()) {
    // Single lane: the serial reference path, no synchronisation at all.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    done_ = 0;
    error_ = nullptr;
    ++epoch_;
  }
  work_cv_.notify_all();
  drain(&fn, n);  // the caller is a lane too
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Also wait for every worker to leave drain(): one still inside would
    // claim an index of the next job from next_ against this job's `fn`.
    done_cv_.wait(lk, [&] { return done_ == job_n_ && draining_ == 0; });
    job_ = nullptr;  // workers waking late see no job and keep waiting
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

std::vector<mapping::SweepPoint> Sweep::rebalance_sweep(
    const procnet::ProcessNetwork& net, int max_tiles,
    mapping::RebalanceAlgorithm algo, const mapping::CostParams& params) {
  return map<mapping::SweepPoint>(max_tiles, [&](int i) {
    const int n = i + 1;  // budgets are 1..max_tiles, same as mapping::sweep
    mapping::SweepPoint pt;
    pt.tiles = n;
    pt.binding = mapping::rebalance(net, n, algo, params);
    pt.eval = mapping::evaluate(net, pt.binding, params);
    return pt;
  });
}

FftProcessTimes Sweep::measure_process_times(const fft::FftGeometry& g) {
  FftProcessTimes times;
  // Candidates 0..stages-1: per-stage butterfly kernels; stages and
  // stages+1: the vertical and horizontal copy kernels.  Each runs on its
  // own private Fabric, so the measurements are trivially independent.
  const auto measured =
      map<Nanoseconds>(g.stages + 2, [&](int i) -> Nanoseconds {
        if (i < g.stages) return cycles_to_ns(fft::measure_bf_cycles(g, i));
        if (i == g.stages) {
          return cycles_to_ns(fft::measure_copy_cycles(g.m, g.m / 2));
        }
        return cycles_to_ns(fft::measure_copy_cycles(g.m, g.m));
      });
  times.bf.assign(measured.begin(), measured.begin() + g.stages);
  times.vcp = measured[static_cast<std::size_t>(g.stages)];
  times.hcp = measured[static_cast<std::size_t>(g.stages) + 1];
  return times;
}

std::vector<MapperSweepPoint> Sweep::mapper_sweep(
    const procnet::ProcessNetwork& net, int mesh_rows, int mesh_cols,
    std::span<const int> budgets, const mapper::MapperOptions& options) {
  return map<MapperSweepPoint>(
      static_cast<int>(budgets.size()), [&](int i) {
        MapperSweepPoint pt;
        pt.tiles = budgets[static_cast<std::size_t>(i)];
        mapper::MapperOptions opt = options;
        opt.max_tiles = pt.tiles;
        pt.mapped = mapper::map_network(net, mesh_rows, mesh_cols, opt);
        return pt;
      });
}

}  // namespace cgra::dse
