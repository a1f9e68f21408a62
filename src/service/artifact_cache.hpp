// Content-addressed artifact cache for the job service.
//
// Everything a warm runtime can reuse — compiled FFT plans, assembled
// stage programs, quantiser tables, placements — is a pure function
// of its inputs, so the cache keys on content: the key string embeds a
// type tag plus either the configuration (mesh shape, kernel parameters)
// or an FNV-1a hash of the source text.  Same inputs, same key, same
// artifact; the cache never invalidates.
//
// Concurrency contract: get_or_build() is thread-safe.  On a miss the
// builder runs OUTSIDE the lock (builders run simulations and must not
// serialise the worker pool); if two threads race on the same key both
// build, the first insert wins and the loser's copy is dropped — safe
// because builders are pure.  Hit/miss counters land in the attached
// obs::MetricsRegistry (cache.hit / cache.miss), counted outside the cache
// mutex: the registry is thread-safe on its own.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"

namespace cgra::service {

/// 64-bit FNV-1a — the content half of a content-addressed key.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash a POD-ish array (e.g. a quant table) by its value sequence.
template <typename T, std::size_t N>
[[nodiscard]] std::uint64_t fnv1a_values(const std::array<T, N>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const T& v : values) {
    auto x = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Thread-safe content-addressed store of immutable artifacts.
///
/// The key must uniquely determine both the content AND the C++ type of
/// the artifact (embed a type tag: "fft.plan:", "jpeg.pipeline:", ...);
/// retrieving a key as a different type than it was stored under is
/// undefined.  All artifacts are shared_ptr<const T>: once published they
/// are immutable and may be used concurrently by every worker.
class ArtifactCache {
 public:
  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Route hit/miss counters to `metrics` (not owned; nullptr detaches).
  /// Call before the cache is shared.
  void attach_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    if (metrics_ != nullptr) {
      hits_ = metrics_->counter("cache.hit");
      misses_ = metrics_->counter("cache.miss");
    }
  }

  /// Return the artifact for `key`, building it with `build()` on a miss.
  /// `build` must be a pure function of the content `key` names.
  template <typename T, typename Builder>
  std::shared_ptr<const T> get_or_build(const std::string& key,
                                        Builder&& build) {
    std::shared_ptr<const void> found;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) found = it->second;
    }
    count(found != nullptr ? hits_ : misses_);
    if (found != nullptr) return std::static_pointer_cast<const T>(found);
    auto built = std::make_shared<const T>(build());
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = map_.emplace(key, built);
    if (!inserted) {
      // Lost a build race; the first publication wins (both are pure).
      return std::static_pointer_cast<const T>(it->second);
    }
    return built;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
  }

  /// Drop one entry; returns true when it existed.  Artifacts are pure
  /// functions of their key, so eviction can never change results — only
  /// force a rebuild (the property the cache-poison chaos hook asserts).
  bool erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.erase(key) > 0;
  }

 private:
  void count(obs::CounterHandle h) {
    if (metrics_ != nullptr && h.valid()) metrics_->add(h);
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const void>> map_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::CounterHandle hits_;
  obs::CounterHandle misses_;
};

}  // namespace cgra::service
