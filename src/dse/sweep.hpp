// Parallel sweep driver for design-space exploration.
//
// DSE sweeps (tile-budget rebalancing, per-stage kernel timing, link-cost
// grids) evaluate many independent candidates; each evaluation is a pure
// function of its inputs.  dse::Sweep runs such candidate sets on a small
// fixed-size thread pool with the calling thread as one of the lanes.
//
// Determinism rules (docs/ARCHITECTURE.md, "Execution engines"):
//   * Candidates must not share mutable state — each builds its own Fabric
//     or binding.  Everything the simulator touches satisfies this (no
//     mutable globals; function-local const statics are init-once).
//   * Results are written to slot `i` of a pre-sized vector, so the output
//     order is the candidate order no matter how lanes interleave.  A
//     sweep therefore produces bit-identical results with 1 or N workers.
//   * Work is claimed from a shared atomic counter (dynamic load balance);
//     no candidate is evaluated twice, none is skipped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dse/fft_perf_model.hpp"
#include "mapper/mapper.hpp"
#include "mapping/rebalance.hpp"

namespace cgra::dse {

/// One automatic-mapper sweep candidate: a tile budget and its mapping.
struct MapperSweepPoint {
  int tiles = 0;  ///< Tile budget handed to the mapper.
  mapper::MappedNetwork mapped;
};

/// The one sweep driver: a fixed-size pool of evaluation lanes.
///
/// `threads` = concurrent evaluation lanes, including the calling thread
/// (so `threads - 1` workers are spawned); `<= 0` picks a small default
/// from the hardware, `1` runs every job inline on the caller — the
/// reference against which parallel runs must be identical.
class Sweep {
 public:
  explicit Sweep(int threads = 0);
  ~Sweep();

  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  /// Total evaluation lanes (spawned threads + the caller).
  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(threads_.size()) + 1;
  }

  /// Run fn(0..n-1), each index exactly once, across the lanes; returns
  /// when all have completed.  The first exception thrown by `fn` is
  /// rethrown here (remaining candidates still run).  Not reentrant.
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// Evaluate fn(i) for i in [0, n) and return the results in index order.
  template <typename R, typename Fn>
  std::vector<R> map(int n, Fn&& fn) {
    std::vector<R> out(static_cast<std::size_t>(n));
    parallel_for(n, [&](int i) { out[static_cast<std::size_t>(i)] = fn(i); });
    return out;
  }

  /// mapping::sweep with the per-budget rebalance+evaluate candidates
  /// spread over the lanes.  Output is identical to the serial
  /// mapping::sweep for any lane count (each budget is recomputed from
  /// scratch in both).
  std::vector<mapping::SweepPoint> rebalance_sweep(
      const procnet::ProcessNetwork& net, int max_tiles,
      mapping::RebalanceAlgorithm algo, const mapping::CostParams& params);

  /// measure_process_times with the per-stage butterfly simulations (and
  /// the two copy-kernel simulations) spread over the lanes.  Identical
  /// output to the serial version: every measurement runs on its own
  /// private Fabric.
  FftProcessTimes measure_process_times(const fft::FftGeometry& g);

  /// Run the automatic mapper once per tile budget, budgets spread over the
  /// lanes — mapper-driven placements as sweep candidates next to the
  /// rebalance heuristics.  Each budget maps independently (the mapper is a
  /// pure function of its inputs), so results are positionally deterministic
  /// for any lane count.
  std::vector<MapperSweepPoint> mapper_sweep(
      const procnet::ProcessNetwork& net, int mesh_rows, int mesh_cols,
      std::span<const int> budgets, const mapper::MapperOptions& options = {});

 private:
  void worker_loop();
  void drain(const std::function<void(int)>* job, int n);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Wakes workers on a new job / stop.
  std::condition_variable done_cv_;  ///< Wakes the caller on completion.
  const std::function<void(int)>* job_ = nullptr;
  int job_n_ = 0;
  std::atomic<int> next_{0};  ///< Next unclaimed candidate index.
  int done_ = 0;              ///< Completed candidates of the current job.
  int draining_ = 0;          ///< Workers inside drain() for the current job.
  std::uint64_t epoch_ = 0;   ///< Job generation counter.
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace cgra::dse
