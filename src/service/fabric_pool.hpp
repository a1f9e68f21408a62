// Bounded pool of pre-warmed, reusable Fabric instances.
//
// Constructing a Fabric allocates every tile's memories; the job service
// instead keeps a free list per mesh shape and hands out RAII leases.
// Releasing a lease calls Fabric::reset() — restoring construction state
// bit for bit (property-tested in tests/test_fabric.cpp) — and returns
// the instance to its shape's free list, so the next job of that shape
// skips construction entirely.
//
// The pool is bounded per shape: once `max_per_shape` fabrics of a shape
// exist, further acquire() calls block until a lease is released.  This
// is the memory backstop behind the service's queue-level backpressure.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"

namespace cgra::service {

/// Pool of reset-and-reuse fabrics keyed by (rows, cols).
class FabricPool {
 public:
  /// At most `max_per_shape` live fabrics of any one shape.
  explicit FabricPool(int max_per_shape = 8)
      : max_per_shape_(max_per_shape < 1 ? 1 : max_per_shape) {}

  FabricPool(const FabricPool&) = delete;
  FabricPool& operator=(const FabricPool&) = delete;

  /// RAII lease: resets the fabric and returns it to the pool on
  /// destruction.  The fabric is in construction state when acquired.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      release();
      pool_ = other.pool_;
      fabric_ = std::move(other.fabric_);
      other.pool_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] fabric::Fabric& operator*() const { return *fabric_; }
    [[nodiscard]] fabric::Fabric* get() const { return fabric_.get(); }
    [[nodiscard]] bool valid() const noexcept { return fabric_ != nullptr; }

    /// Reset the fabric and hand it back early.
    void release() {
      if (pool_ != nullptr && fabric_ != nullptr) {
        fabric_->reset();
        pool_->put_back(std::move(fabric_));
      }
      pool_ = nullptr;
      fabric_ = nullptr;
    }

   private:
    friend class FabricPool;
    Lease(FabricPool* pool, std::unique_ptr<fabric::Fabric> fabric)
        : pool_(pool), fabric_(std::move(fabric)) {}

    FabricPool* pool_ = nullptr;
    std::unique_ptr<fabric::Fabric> fabric_;
  };

  /// Route reuse/construction counters to `metrics` (not owned).  Call
  /// before the pool is shared.
  void attach_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    if (metrics_ != nullptr) {
      reused_ = metrics_->counter("pool.acquire.reused");
      constructed_ = metrics_->counter("pool.acquire.constructed");
    }
  }

  /// Wire a chaos injector (not owned; call before the first acquire).
  void attach_chaos(chaos::ChaosInjector* injector) {
    std::lock_guard<std::mutex> lock(mu_);
    chaos_ = injector;
  }

  /// Take a rows x cols fabric in construction state, blocking while the
  /// shape is at its bound with no free instance.  An injected kPoolLease
  /// failure returns an invalid lease — callers must check valid().
  [[nodiscard]] Lease acquire(int rows, int cols) {
    if (const auto d = chaos::decide(chaos_, chaos::Hook::kPoolLease)) {
      if (d.action == chaos::Action::kFail) return Lease();
    }
    std::unique_lock<std::mutex> lock(mu_);
    Shape& shape = shapes_[{rows, cols}];
    cv_.wait(lock, [&] {
      return !shape.free.empty() || shape.total < max_per_shape_;
    });
    if (!shape.free.empty()) {
      auto fab = std::move(shape.free.back());
      shape.free.pop_back();
      lock.unlock();
      count(reused_);
      return Lease(this, std::move(fab));
    }
    ++shape.total;
    lock.unlock();  // construction is the expensive part; don't serialise it
    count(constructed_);
    return Lease(this, std::make_unique<fabric::Fabric>(rows, cols));
  }

  /// Live fabrics of a shape (free + leased); 0 for unseen shapes.
  [[nodiscard]] int total(int rows, int cols) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = shapes_.find({rows, cols});
    return it == shapes_.end() ? 0 : it->second.total;
  }

  [[nodiscard]] int max_per_shape() const noexcept { return max_per_shape_; }

 private:
  struct Shape {
    std::vector<std::unique_ptr<fabric::Fabric>> free;
    int total = 0;
  };

  void put_back(std::unique_ptr<fabric::Fabric> fab) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shapes_[{fab->rows(), fab->cols()}].free.push_back(std::move(fab));
    }
    cv_.notify_all();
  }

  void count(obs::CounterHandle h) {
    if (metrics_ != nullptr && h.valid()) metrics_->add(h);
  }

  const int max_per_shape_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, Shape> shapes_;
  obs::MetricsRegistry* metrics_ = nullptr;
  chaos::ChaosInjector* chaos_ = nullptr;
  obs::CounterHandle reused_;
  obs::CounterHandle constructed_;
};

}  // namespace cgra::service
